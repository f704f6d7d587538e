"""Generalized displacement operators and the complete local encoding set.

``displacement_op(d, m, n)`` realizes the unitary basis

    V_mn = sum_k exp(2*pi*i*k*n/d) |k><(k+m) mod d| ,

whose d^2 members are pairwise Hilbert-Schmidt orthogonal.  Phases are kept
exactly as defined: at d=2 the (m,n)=(1,1) operator is [[0,1],[-1,0]], not the
textbook sigma_y, because the algebra identities checked below are
phase-sensitive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LayoutError, ParameterError, SizeLimitError
from .linalg import kron_all

# On D_A^2: the set holds D_A^4 complex entries.  Capacity runs never build it.
ENCODING_SET_CAP = 4096


def displacement_op(d: int, m: int, n: int) -> np.ndarray:
    """Displacement unitary V_mn on a d-dimensional space."""
    if d < 2:
        raise ParameterError(f"dimension must be >= 2, got {d}")
    if not (0 <= m < d and 0 <= n < d):
        raise ParameterError(f"labels (m={m}, n={n}) out of range for d={d}")
    v = np.zeros((d, d), dtype=complex)
    for k in range(d):
        v[k, (k + m) % d] = np.exp(2j * np.pi * k * n / d)
    return v


def label_pairs(d: int) -> list[tuple[int, int]]:
    """All (m, n) labels in lexicographic order."""
    return [(m, n) for m in range(d) for n in range(d)]


@dataclass(frozen=True)
class DisplacementAlgebraReport:
    """Max deviations of the three displacement-operator identities."""

    d: int
    orthogonality_dev: float
    commutation_dev: float
    product_dev: float

    @property
    def max_deviation(self) -> float:
        return max(self.orthogonality_dev, self.commutation_dev, self.product_dev)


def verify_displacement_algebra(d: int) -> DisplacementAlgebraReport:
    """Exhaustively check orthogonality, commutation phase and group product.

    For every label pair:
      (a) tr[V_mn V_m'n'^dag] = d * delta_mm' * delta_nn'
      (b) V_mn V_m'n' = exp(2*pi*i*(n'm - nm')/d) V_m'n' V_mn
      (c) V_mn V_m'n' = exp(2*pi*i*n'm/d) V_{m+m' mod d, n+n' mod d}
    """
    labels = label_pairs(d)
    ops = {lab: displacement_op(d, *lab) for lab in labels}
    orth = comm = prod = 0.0
    for m, n in labels:
        a = ops[(m, n)]
        for mp, np_ in labels:
            b = ops[(mp, np_)]
            gram = np.trace(a @ b.conj().T)
            expected = d if (m, n) == (mp, np_) else 0.0
            orth = max(orth, abs(gram - expected))

            ab = a @ b
            phase_c = np.exp(2j * np.pi * (np_ * m - n * mp) / d)
            comm = max(comm, np.abs(ab - phase_c * (b @ a)).max())

            phase_p = np.exp(2j * np.pi * np_ * m / d)
            target = phase_p * ops[((m + mp) % d, (n + np_) % d)]
            prod = max(prod, np.abs(ab - target).max())
    return DisplacementAlgebraReport(d, orth, comm, prod)


@dataclass(frozen=True)
class LocalEncodingSet:
    """All D_A^2 tensor products of per-sender displacement operators.

    Operators are ordered lexicographically in (m_1, n_1, ..., m_k, n_k) so
    ensemble indices are reproducible across runs.
    """

    sender_dims: tuple[int, ...]
    operators: tuple[np.ndarray, ...]

    @property
    def sender_dim(self) -> int:
        return math.prod(self.sender_dims)

    def __len__(self) -> int:
        return len(self.operators)


def local_encoding_set(sender_dims: Sequence[int]) -> LocalEncodingSet:
    """Complete orthogonal unitary set on the joint sender space."""
    sender_dims = tuple(int(d) for d in sender_dims)
    if not sender_dims:
        raise LayoutError("need at least one sender dimension")
    d_a = math.prod(sender_dims)
    if d_a * d_a > ENCODING_SET_CAP:
        raise SizeLimitError(
            f"encoding set size {d_a * d_a} exceeds cap {ENCODING_SET_CAP}"
        )
    per_sender = [[displacement_op(d, m, n) for m, n in label_pairs(d)]
                  for d in sender_dims]
    ops = tuple(kron_all(combo) for combo in itertools.product(*per_sender))
    return LocalEncodingSet(sender_dims, ops)


def sender_generators(sender_dims: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Shift V_10 and clock V_01 of each sender, identity on the others: 2k
    unitaries whose products give every member of ``local_encoding_set`` up
    to a phase, so a linear map covariant under them is covariant under all."""
    dims = tuple(int(d) for d in sender_dims)
    return tuple(
        kron_all([np.eye(math.prod(dims[:j])), displacement_op(d, m, n),
                  np.eye(math.prod(dims[j + 1:]))])
        for j, d in enumerate(dims) for m, n in ((1, 0), (0, 1)))


def twirl(enc_set: LocalEncodingSet, x) -> np.ndarray:
    """Uniform average of conjugations, (1/D_A^2) sum_i V_i x V_i^dag.

    Projects onto the identity component: the result equals tr(x) * I / D_A
    up to roundoff.  Terms are accumulated in indexed order.
    """
    x = np.asarray(x, dtype=complex)
    d_a = enc_set.sender_dim
    if x.shape != (d_a, d_a):
        raise LayoutError(f"operator shape {x.shape} does not match sender dim {d_a}")
    acc = np.zeros_like(x)
    for v in enc_set.operators:
        acc += v @ x @ v.conj().T
    return acc / (d_a * d_a)

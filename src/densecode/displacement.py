"""Generalized displacement operators and the complete local encoding set.

``displacement_op(d, m, n)`` realizes the unitary basis

    V_mn = sum_k exp(2*pi*i*k*n/d) |k><(k+m) mod d| ,

whose d^2 members are pairwise Hilbert-Schmidt orthogonal.  Phases are kept
exactly as defined: at d=2 the (m,n)=(1,1) operator is [[0,1],[-1,0]], not the
textbook sigma_y, because the algebra identities checked below are
phase-sensitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LayoutError, ParameterError, SizeLimitError
from .linalg import _kron_stacks, check_dim

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


def local_encoding_set(sender_dims: Sequence[int]) -> np.ndarray:
    """Complete orthogonal unitary set on the joint sender space: the
    (D_A^2, D_A, D_A) stack of all tensor products of per-sender displacement
    operators, in lexicographic (m_1, n_1, ..., m_k, n_k) order."""
    dims = tuple(int(d) for d in sender_dims)
    if not dims:
        raise LayoutError("need at least one sender dimension")
    d_a = math.prod(dims)
    if d_a * d_a > ENCODING_SET_CAP:
        raise SizeLimitError(f"encoding set size {d_a * d_a} exceeds cap {ENCODING_SET_CAP}")
    check_dim(d_a)
    return _kron_stacks([np.stack([displacement_op(d, m, n) for m, n in label_pairs(d)])
                         for d in dims])


def sender_generators(sender_dims: Sequence[int]) -> np.ndarray:
    """Shift V_10 and clock V_01 of each sender, identity on the others: a
    (2k, D_A, D_A) stack of unitaries whose products give every member of
    ``local_encoding_set`` up to a phase, so a linear map covariant under
    them is covariant under all."""
    dims = tuple(int(d) for d in sender_dims)
    check_dim(math.prod(dims))
    return np.concatenate([
        _kron_stacks([np.eye(math.prod(dims[:j]), dtype=complex)[None],
                      np.stack([displacement_op(d, 1, 0), displacement_op(d, 0, 1)]),
                      np.eye(math.prod(dims[j + 1:]), dtype=complex)[None]])
        for j, d in enumerate(dims)])


def twirl(enc_set: np.ndarray, x) -> np.ndarray:
    """Uniform average of conjugations, (1/D_A^2) sum_i V_i x V_i^dag, over
    a (D_A^2, D_A, D_A) stack such as ``local_encoding_set``.

    Projects onto the identity component: the result equals tr(x) * I / D_A
    up to roundoff.  Terms are accumulated in indexed order.
    """
    x = np.asarray(x, dtype=complex)
    d_a = enc_set.shape[-1]
    if x.shape != (d_a, d_a):
        raise LayoutError(f"operator shape {x.shape} does not match sender dim {d_a}")
    acc = np.zeros_like(x)
    for v in enc_set:
        acc += v @ x @ v.conj().T
    return acc / (d_a * d_a)

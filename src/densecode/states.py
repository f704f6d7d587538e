"""Resource-state constructors: Bell states, Bell-diagonal mixtures, GHZ
states, and multi-copy assemblies regrouped to the canonical slot order.

Canonical order places all sender slots first (ascending) and the receiver
slot last.  ``assemble_product`` performs the explicit permutation from the
interleaved copy order (a1 b1 a2 b2 ...) to the grouped order
(a1 a2 ... b1 b2 ...), with Bob's slots merged into one product-dimension
receiver slot; k copies of one state are ``assemble_product([rho] * k, ...)``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .displacement import displacement_op
from .errors import LayoutError, ParameterError, ProbabilityError
from .linalg import (SubsystemLayout, check_dim, check_power, check_probabilities,
                     kron_all, permute_slots)

# Bell-diagonal weights index the Bell basis in lexicographic (m, n) order:
# Phi_00, Phi_01, Phi_10, Phi_11.
BELL_LABEL_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))


def bell_vector(d: int) -> np.ndarray:
    """Ket of the maximally entangled state (1/sqrt(d)) sum_j |jj>."""
    if d < 2:
        raise ParameterError(f"dimension must be >= 2, got {d}")
    check_dim(d * d)
    psi = np.zeros(d * d, dtype=complex)
    for j in range(d):
        psi[j * d + j] = 1.0
    return psi / np.sqrt(d)


def bell_state(d: int) -> np.ndarray:
    """Density matrix of the d x d Bell state |Phi_00>."""
    psi = bell_vector(d)
    return np.outer(psi, psi.conj())


def bell_basis_state(d: int, m: int, n: int) -> np.ndarray:
    """Density matrix of |Phi_mn> = (V_mn x 1)|Phi_00>."""
    psi = kron_all([displacement_op(d, m, n), np.eye(d)]) @ bell_vector(d)
    return np.outer(psi, psi.conj())


def bell_diagonal(weights: Sequence[float]) -> np.ndarray:
    """Two-qubit mixture of the four Bell projectors with the given weights.

    Weights follow ``BELL_LABEL_ORDER``; the output's eigenvalues are exactly
    the weights.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (4,):
        raise ProbabilityError(f"need 4 weights, got shape {w.shape}")
    check_probabilities(w, "Bell-diagonal weight", 1e-12)
    rho = np.zeros((4, 4), dtype=complex)
    for p, (m, n) in zip(w, BELL_LABEL_ORDER):
        if p:
            rho += p * bell_basis_state(2, m, n)
    return rho


def ghz_state(parties: int) -> np.ndarray:
    """GHZ state (|0...0> + |1...1>)/sqrt(2) on ``parties`` qubits."""
    if parties < 2:
        raise ParameterError(f"need at least 2 parties, got {parties}")
    dim = check_power(2, parties)
    psi = np.zeros(dim, dtype=complex)
    psi[0] = psi[-1] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def assemble_product(
    singles: Sequence[np.ndarray], pair_dims: Sequence[tuple[int, int]]
) -> tuple[np.ndarray, SubsystemLayout]:
    """Tensor together two-slot (a_j, b_j) states and regroup to canonical order.

    Returns the grouped state together with its layout: sender slots
    a_1..a_k in order, then a single receiver slot of dimension prod(d_bj).
    """
    if len(singles) != len(pair_dims) or not singles:
        raise LayoutError("need one (d_a, d_b) pair per input state")
    interleaved_dims: list[int] = []
    for rho, (da, db) in zip(singles, pair_dims):
        rho = np.asarray(rho)
        if rho.shape != (da * db, da * db):
            raise LayoutError(
                f"state shape {rho.shape} does not match slot dims ({da}, {db})"
            )
        interleaved_dims += [da, db]
    k = len(singles)
    check_dim(math.prod(interleaved_dims))
    joint = kron_all(list(singles))
    perm = [2 * j for j in range(k)] + [2 * j + 1 for j in range(k)]
    grouped = permute_slots(joint, interleaved_dims, perm)
    layout = SubsystemLayout(
        sender_dims=[da for da, _ in pair_dims],
        receiver_dim=math.prod(db for _, db in pair_dims),
    )
    return grouped, layout


def bell_copies(dims: Sequence[int]) -> tuple[np.ndarray, SubsystemLayout]:
    """Tensor product of Bell states with per-copy dimensions, grouped."""
    pairs = [(int(d), int(d)) for d in dims]
    return assemble_product([bell_state(d) for d, _ in pairs], pairs)


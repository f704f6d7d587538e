"""Dense complex linear algebra: Kronecker products, partial traces,
conjugation by operators on the leading factor and entropy functionals.

All capacities downstream are in bits, so every entropy here uses log base 2.
Matrices are plain complex ``numpy`` arrays; states are validated with
:func:`validate_density_matrix` rather than wrapped in a class.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    LayoutError,
    NumericalError,
    ProbabilityError,
    SizeLimitError,
)

DEFAULT_MAX_DIM = 1024
MAX_DIM_ENV_VAR = "DENSECODE_MAX_DIM"

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
EIG_CLIP = 1e-12


def dimension_cap() -> int:
    """Hard cap on total Hilbert-space dimension (dense storage only).

    Overridable through the ``DENSECODE_MAX_DIM`` environment variable.
    """
    raw = os.environ.get(MAX_DIM_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        cap = int(raw)
    except ValueError as exc:
        raise SizeLimitError(f"{MAX_DIM_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 2:
        raise SizeLimitError(f"{MAX_DIM_ENV_VAR} must be >= 2, got {cap}")
    return cap


def check_dim(dim: int) -> int:
    cap = dimension_cap()
    if dim > cap:
        # Named by its leading power of 2 when wide: str() of an int of over
        # 4300 digits raises ValueError.
        bits = int(dim).bit_length()
        shown = dim if bits <= 64 else f"2^{bits - 1} or more"
        raise SizeLimitError(f"dimension {shown} exceeds cap {cap}")
    return dim


def check_power(base: int, exponent: int) -> int:
    """``check_dim(base ** exponent)`` for ``base >= 2``, decided from the
    exponent before a power too large to hold is built."""
    cap = dimension_cap()
    if exponent > cap.bit_length() or base ** exponent > cap:
        raise SizeLimitError(f"dimension {base}^{exponent} exceeds cap {cap}")
    return base ** exponent


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce input to a 2-d complex array, rejecting NaN/Inf entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise NumericalError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise NumericalError(f"{name} contains non-finite entries")
    return arr


def kron(a, b) -> np.ndarray:
    """Kronecker product with the configured size cap enforced."""
    return kron_all([a, b])


def kron_all(mats: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product, first factor slowest: sender slots ascending,
    receiver last.  The cap is checked on the factors' shapes first."""
    mats = [as_complex_matrix(m, "factor") for m in mats]
    check_dim(max(math.prod(m.shape[0] for m in mats), math.prod(m.shape[1] for m in mats)))
    if not mats:
        return np.eye(1, dtype=complex)
    return _kron_stacks([m[None] for m in mats])[0]


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered local dimensions: ``k`` sender slots followed by one receiver slot.

    The receiver slot may be a product dimension (several physical receiver
    subsystems treated jointly).
    """

    sender_dims: tuple[int, ...]
    receiver_dim: int

    def __init__(self, sender_dims: Sequence[int], receiver_dim: int):
        sender_dims = tuple(int(d) for d in sender_dims)
        receiver_dim = int(receiver_dim)
        if len(sender_dims) < 1:
            raise LayoutError("need at least one sender slot")
        if any(d < 2 for d in sender_dims) or receiver_dim < 2:
            raise LayoutError("all slot dimensions must be >= 2")
        object.__setattr__(self, "sender_dims", sender_dims)
        object.__setattr__(self, "receiver_dim", receiver_dim)
        check_dim(self.total_dim)

    @property
    def k(self) -> int:
        """Number of sender slots."""
        return len(self.sender_dims)

    @property
    def dims(self) -> tuple[int, ...]:
        """All slot dimensions, senders first, receiver last."""
        return self.sender_dims + (self.receiver_dim,)

    @property
    def sender_dim(self) -> int:
        """Product dimension of the joint sender space."""
        return math.prod(self.sender_dims)

    @property
    def total_dim(self) -> int:
        return self.sender_dim * self.receiver_dim

    @property
    def receiver_slot(self) -> int:
        return self.k


def validate_density_matrix(rho, dim: int | None = None) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the array.

    Tolerances: ``1e-10`` max-norm Hermiticity, ``1e-10`` trace deviation,
    minimum eigenvalue ``>= -1e-10``.
    """
    rho = as_complex_matrix(rho, "rho")
    if rho.shape[0] != rho.shape[1]:
        raise NumericalError(f"density matrix must be square, got {rho.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise LayoutError(f"expected dimension {dim}, got {rho.shape[0]}")
    herm_dev = np.abs(rho - rho.conj().T).max()
    if herm_dev > HERMITICITY_TOL:
        raise NumericalError(f"not Hermitian: max deviation {herm_dev:.3e}")
    trace_dev = abs(rho.trace() - 1.0)
    if trace_dev > TRACE_TOL:
        raise NumericalError(f"trace differs from 1 by {trace_dev:.3e}")
    min_eig = np.linalg.eigvalsh(rho)[0]
    if min_eig < -PSD_TOL:
        raise NumericalError(f"not positive semidefinite: min eigenvalue {min_eig:.3e}")
    return rho


def _on_layout(rho: np.ndarray, total: int) -> np.ndarray:
    """``rho``, checked to be a total x total operator on a layout."""
    if rho.shape != (total, total):
        raise LayoutError(f"state dimension {rho.shape[0]} does not match layout total {total}")
    return rho


def partial_trace(rho, layout: SubsystemLayout, keep) -> np.ndarray:
    """Reduced state on the slots in ``keep`` (kept in ascending slot order)."""
    rho = _on_layout(as_complex_matrix(rho, "rho"), layout.total_dim)
    dims = layout.dims
    n = len(dims)
    keep = sorted(set(int(s) for s in keep))
    if not keep:
        raise LayoutError("keep set must not be empty")
    if keep[0] < 0 or keep[-1] >= n:
        raise LayoutError(f"keep indices {keep} out of range for {n} slots")

    tensor = rho.reshape(dims + dims)
    dropped = [s for s in range(n) if s not in keep]
    remaining = n
    for slot in sorted(dropped, reverse=True):
        tensor = np.trace(tensor, axis1=slot, axis2=slot + remaining)
        remaining -= 1
    out_dim = math.prod(dims[s] for s in keep)
    return tensor.reshape(out_dim, out_dim)


def permute_slots(rho, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor slots so output slot p carries input slot perm[p]."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise LayoutError(f"{perm} is not a permutation of {n} slots")
    total = math.prod(dims)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (total, total):
        raise LayoutError(f"state shape {rho.shape} does not match dims {dims}")
    tensor = rho.reshape(dims + dims)
    axes = perm + [n + p for p in perm]
    return tensor.transpose(axes).reshape(total, total)


def _entropy_from_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Entropies in bits of a (..., n) stack of spectra, one masked reduction
    over the last axis: eigenvalues at most EIG_CLIP contribute zero.  A
    member with an eigenvalue below -PSD_TOL raises NumericalError."""
    low = w.min(axis=-1)
    if low.min() < -PSD_TOL:
        raise NumericalError(
            f"entropy of indefinite operator: min eigenvalue {low.min():.3e}"
        )
    terms = w * np.log2(np.maximum(w, EIG_CLIP))
    return -np.where(w > EIG_CLIP, terms, 0.0).sum(axis=-1)


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy in bits; eigenvalues below 1e-12 contribute zero."""
    rho = as_complex_matrix(rho, "rho")
    dev = np.abs(rho - rho.conj().T).max()
    if dev > 1e-8:
        raise NumericalError(f"entropy of non-Hermitian operator (dev {dev:.3e})")
    return float(_entropy_from_eigenvalues(np.linalg.eigvalsh(rho)))


def check_probabilities(p, what: str, tol: float) -> np.ndarray:
    """``p`` as a float array of any shape whose entries are all ``>= 0`` and
    sum to 1 within ``tol``; else ProbabilityError naming ``what``."""
    p = np.asarray(p, dtype=float)
    # Written so that a NaN entry fails them; an empty table fails the sum.
    if not p.min(initial=0.0) >= 0:
        raise ProbabilityError(f"negative or NaN {what} {float(p.min())!r}")
    if not abs(p.sum() - 1.0) <= tol:
        raise ProbabilityError(f"{what} entries sum to {float(p.sum())!r}, not 1")
    return p


def shannon_entropy(p) -> float:
    """Shannon entropy in bits of a probability table (any shape), checked to 1e-9."""
    p = check_probabilities(p, "probability", 1e-9)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return m.conj().swapaxes(-1, -2)


def _entropy_and_log2(sigma: np.ndarray):
    """(entropies in bits, log2 sigma) of a (..., n, n) stack by one ``eigh``,
    log2 sigma with its eigenvalues clipped at EIG_CLIP.  Each member is first
    checked as ``von_neumann_entropy`` checks its input: finite, and
    Hermitian to 1e-8."""
    if not np.isfinite(sigma).all():
        raise NumericalError("entropy of an operator with non-finite entries")
    dev = np.abs(sigma - _dagger(sigma)).max(axis=(-2, -1))
    if dev.max() > 1e-8:
        raise NumericalError(f"entropy of non-Hermitian operator (dev {dev.max():.3e})")
    w, u = np.linalg.eigh(sigma)
    log2_sigma = (u * np.log2(np.maximum(w, EIG_CLIP))[..., None, :]) @ _dagger(u)
    return _entropy_from_eigenvalues(w), log2_sigma


def _conjugate_leading(rho, ks, a: int) -> np.ndarray:
    """sum_t (K_t x 1) rho (K_t x 1)^dag for a (..., T, a, a) stack of
    operators on the leading factor, of dimension ``a``, of a (..., n, n)
    stack ``rho``; leading axes of the two broadcast.

    With rho read as (a, b, a, b), the left factor is one matmul on the
    (a, b*a*b) view and the right one a batched matmul on the (a*b, a, b)
    view of the result; K x 1 is never formed and nothing is transposed.
    """
    n = rho.shape[-1]
    if ks.ndim < 3 or ks.shape[-2:] != (a, a) or n % a:
        raise LayoutError(
            f"operator stack of shape {ks.shape} does not act on a leading "
            f"factor of dimension {a} of a dimension-{n} state"
        )
    b = n // a
    left = ks @ rho.reshape(rho.shape[:-2] + (1, a, n * b))
    right = ks.conj()[..., None, :, :] @ left.reshape(left.shape[:-2] + (n, a, b))
    return right.sum(axis=-4).reshape(right.shape[:-4] + (n, n))


def _kron_stacks(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Every kron product of one operator from each (..., T_j, n_j, m_j)
    stack, the first stack's index varying slowest, as a (..., prod T_j,
    prod n_j, prod m_j) stack: ``kron_all`` of each combination, one broadcast
    multiply per factor.  Leading axes broadcast."""
    ks = stacks[0]
    for f in stacks[1:]:
        (t, n, m), (u, p, q) = ks.shape[-3:], f.shape[-3:]
        ks = ks[..., :, None, :, None, :, None] * f[..., None, :, None, :, None, :]
        ks = ks.reshape(ks.shape[:-6] + (t * u, n * p, m * q))
    return ks


# Seeded random fixtures shared by certification routines, the optimizer's
# start points and tests.

def complex_gaussian(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Independent standard normal real and imaginary parts, real drawn first."""
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed isometry: QR of a Gaussian matrix with R's phases fixed."""
    q, r = np.linalg.qr(complex_gaussian(rows, cols, rng))
    return q * (r.diagonal() / np.abs(r.diagonal()))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: the square case of ``random_isometry``."""
    return random_isometry(dim, dim, rng)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = complex_gaussian(dim, dim, rng)
    return (g + g.conj().T) / 2


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = complex_gaussian(dim, dim, rng)
    rho = g @ g.conj().T
    return rho / rho.trace()

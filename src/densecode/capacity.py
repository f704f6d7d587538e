"""Superdense-coding capacities: Holevo evaluation, closed forms for the
solved channel/state families, attaining ensembles, and entropy minimization
over unitary or CPTP encodings on the sender slots.

For a covariant channel the capacity splits into three terms,

    C = log2(D_A) + S(Lambda_b(rho_b)) - min_encoding S(Lambda(encoded rho)),

so the only hard part is the entropy minimization.  Unitaries are
parameterized as exp(iH) with H Hermitian from d^2 real parameters; CPTP
maps through Stinespring isometries with orthonormalized columns.  Every run
keeps one restart pinned at the identity encoding, and derived searches are
warm-started from the solutions of their restricted counterparts (global from
local, CPTP from unitary) so the capacity hierarchy is monotone by
construction.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from .channels import (
    CptpMap,
    PauliChannelSpec,
    SinglePartyPauliSpec,
    apply_channel,
    depolarizing_probs,
    product_probs,
    verify_covariance,
)
from .displacement import LocalEncodingSet, displacement_op, local_encoding_set
from .errors import (
    LayoutError,
    NonCovariantChannelError,
    NumericalError,
    OptimizerDivergedError,
    ParameterError,
    ProbabilityError,
)
from .linalg import (
    SubsystemLayout,
    as_complex_matrix,
    partial_trace,
    random_unitary,
    shannon_entropy,
    von_neumann_entropy,
)
from .states import bell_diagonal, bell_copies

logger = logging.getLogger("densecode")

COVARIANCE_CERT_TOL = 1e-8
CROSSCHECK_TOL = 1e-6
ENSEMBLE_PROB_TOL = 1e-10
ENSEMBLE_UNITARY_TOL = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    """Entropy-minimization settings; all randomness flows from ``seed``."""

    restarts: int = 16
    max_iters: int = 200
    convergence_tol: float = 1e-8
    fd_step: float = 1e-5
    seed: int = 42

    def __post_init__(self):
        if self.restarts < 1:
            raise ParameterError("need at least one restart")


@dataclass(frozen=True, eq=False)
class EncodingEnsemble:
    """(probability, encoder) pairs; encoders are sender-space unitaries or
    CPTP maps on the sender slots."""

    members: tuple[tuple[float, object], ...]

    def __post_init__(self):
        total = sum(p for p, _ in self.members)
        if abs(total - 1.0) > ENSEMBLE_PROB_TOL:
            raise ProbabilityError(f"member probabilities sum to {total!r}")
        checked = []
        for p, enc in self.members:
            if p < 0:
                raise ProbabilityError(f"negative member probability {p!r}")
            if isinstance(enc, CptpMap):
                checked.append((float(p), enc))
                continue
            u = as_complex_matrix(enc, "encoder")
            dev = np.abs(u @ u.conj().T - np.eye(u.shape[0])).max()
            if dev > ENSEMBLE_UNITARY_TOL:
                raise NumericalError(f"encoder unitary deviates by {dev:.3e}")
            checked.append((float(p), u))
        object.__setattr__(self, "members", tuple(checked))


@dataclass(frozen=True, eq=False)
class CapacityReport:
    """Capacity in bits with its three constituent terms and diagnostics.

    Satisfies capacity_bits = log_sender_dim + receiver_entropy_bits
    - min_output_entropy_bits exactly (it is computed that way).
    """

    capacity_bits: float
    log_sender_dim: float
    receiver_entropy_bits: float
    min_output_entropy_bits: float
    holevo_crosscheck_bits: float
    optimizer_trace: tuple[tuple[int, float], ...]
    encoder_at_min: object
    mode: str


def encode_with_unitary(rho, u, layout: SubsystemLayout) -> np.ndarray:
    full = np.kron(u, np.eye(layout.receiver_dim, dtype=complex))
    return full @ rho @ full.conj().T


@lru_cache(maxsize=64)
def _cached_eye(dim: int) -> np.ndarray:
    eye = np.eye(dim, dtype=complex)
    eye.setflags(write=False)
    return eye


def _encode_with_kraus(rho, ks: np.ndarray, layout: SubsystemLayout) -> np.ndarray:
    total = layout.total_dim
    full = np.einsum(
        "tij,ab->tiajb", ks, _cached_eye(layout.receiver_dim)
    ).reshape(len(ks), total, total)
    rotated = full @ rho
    return np.einsum("tik,tjk->ij", rotated, full.conj())


def encode_with_cptp(rho, cptp: CptpMap, layout: SubsystemLayout) -> np.ndarray:
    return _encode_with_kraus(rho, np.stack(cptp.kraus), layout)


def _encode(rho, encoder, layout: SubsystemLayout) -> np.ndarray:
    if isinstance(encoder, CptpMap):
        if encoder.in_dim != layout.sender_dim:
            raise LayoutError(
                f"encoder acts on dim {encoder.in_dim}, senders have {layout.sender_dim}"
            )
        return encode_with_cptp(rho, encoder, layout)
    u = as_complex_matrix(encoder, "encoder")
    if u.shape != (layout.sender_dim, layout.sender_dim):
        raise LayoutError(
            f"encoder shape {u.shape} does not match sender dim {layout.sender_dim}"
        )
    return encode_with_unitary(rho, u, layout)


def holevo(
    ensemble: EncodingEnsemble, channel, rho, layout: SubsystemLayout
) -> float:
    """Holevo quantity chi = S(sum_i p_i out_i) - sum_i p_i S(out_i) in bits."""
    rho = as_complex_matrix(rho, "rho")
    average = np.zeros_like(rho)
    mean_entropy = 0.0
    for p, encoder in ensemble.members:
        if p == 0.0:
            continue
        out = apply_channel(channel, _encode(rho, encoder, layout), layout)
        average += p * out
        mean_entropy += p * von_neumann_entropy(out)
    return von_neumann_entropy(average) - mean_entropy


def attaining_ensemble(encoder_min, enc_set: LocalEncodingSet) -> EncodingEnsemble:
    """Uniform ensemble of the encoding set composed with the minimizer.

    For a unitary U the members are V_i @ U; for a CPTP map the members
    conjugate its output by V_i.
    """
    n = len(enc_set)
    p = 1.0 / n
    if isinstance(encoder_min, CptpMap):
        members = tuple(
            (p, CptpMap(tuple(v @ k for k in encoder_min.kraus)))
            for v in enc_set.operators
        )
    else:
        u = as_complex_matrix(encoder_min, "encoder")
        members = tuple((p, v @ u) for v in enc_set.operators)
    return EncodingEnsemble(members)


# ---------------------------------------------------------------------------
# Encoder parameterizations
# ---------------------------------------------------------------------------

def hermitian_from_params(theta: np.ndarray, dim: int) -> np.ndarray:
    """Hermitian matrix from dim^2 reals: diagonal then upper-triangle re/im."""
    theta = np.asarray(theta, dtype=float)
    if theta.size != dim * dim:
        raise ParameterError(f"need {dim * dim} parameters, got {theta.size}")
    h = np.zeros((dim, dim), dtype=complex)
    h[np.diag_indices(dim)] = theta[:dim]
    off = theta[dim:]
    pos = 0
    for i in range(dim):
        for j in range(i + 1, dim):
            val = off[pos] + 1j * off[pos + 1]
            h[i, j] = val
            h[j, i] = val.conjugate()
            pos += 2
    return h


def params_from_hermitian(h: np.ndarray) -> np.ndarray:
    h = as_complex_matrix(h, "h")
    dim = h.shape[0]
    theta = np.empty(dim * dim)
    theta[:dim] = h.diagonal().real
    pos = dim
    for i in range(dim):
        for j in range(i + 1, dim):
            theta[pos] = h[i, j].real
            theta[pos + 1] = h[i, j].imag
            pos += 2
    return theta


def _expi(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def _unitary_builder(layout: SubsystemLayout, mode: str):
    """(n_params, theta -> unitary on the joint sender space)."""
    if mode == "local":
        dims = layout.sender_dims
    elif mode == "global":
        dims = (layout.sender_dim,)
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    blocks = [d * d for d in dims]
    n_params = sum(blocks)

    def build(theta: np.ndarray) -> np.ndarray:
        u = None
        offset = 0
        for d, size in zip(dims, blocks):
            factor = _expi(hermitian_from_params(theta[offset:offset + size], d))
            u = factor if u is None else np.kron(u, factor)
            offset += size
        return u

    return n_params, build


def _lift_local_to_global(theta_local: np.ndarray, layout: SubsystemLayout) -> np.ndarray:
    """Global parameters generating the same unitary as the local ones.

    exp(i sum_j 1 x ... x H_j x ... x 1) factorizes exactly into the local
    product because the embedded generators commute.
    """
    dims = layout.sender_dims
    total = layout.sender_dim
    h_global = np.zeros((total, total), dtype=complex)
    offset = 0
    for j, d in enumerate(dims):
        h_j = hermitian_from_params(theta_local[offset:offset + d * d], d)
        left = math.prod(dims[:j]) if j else 1
        right = math.prod(dims[j + 1:]) if j + 1 < len(dims) else 1
        h_global += np.kron(
            np.kron(np.eye(left, dtype=complex), h_j), np.eye(right, dtype=complex)
        )
        offset += d * d
    return params_from_hermitian(h_global)


def isometry_from_params(theta: np.ndarray, dim: int, env_dim: int) -> np.ndarray:
    """Column-orthonormal (dim*env_dim) x dim matrix from raw parameters.

    QR with phase fixing; the map is the identity on matrices whose columns
    are already orthonormal.
    """
    n = dim * env_dim * dim
    theta = np.asarray(theta, dtype=float)
    if theta.size != 2 * n:
        raise ParameterError(f"need {2 * n} parameters, got {theta.size}")
    a = theta[:n].reshape(dim * env_dim, dim) + 1j * theta[n:].reshape(dim * env_dim, dim)
    q, r = np.linalg.qr(a)
    diag = np.diag(r).copy()
    small = np.abs(diag) < 1e-12
    diag[small] = 1.0
    return q * (diag / np.abs(diag))


def kraus_from_isometry(v: np.ndarray, dim: int, env_dim: int) -> tuple[np.ndarray, ...]:
    return tuple(v[e * dim:(e + 1) * dim, :] for e in range(env_dim))


def _identity_isometry_params(dim: int, env_dim: int) -> np.ndarray:
    a = np.zeros((dim * env_dim, dim), dtype=complex)
    a[:dim, :dim] = np.eye(dim)
    return np.concatenate([a.real.ravel(), a.imag.ravel()])


def _isometry_params_from_unitary(u: np.ndarray, env_dim: int) -> np.ndarray:
    dim = u.shape[0]
    a = np.zeros((dim * env_dim, dim), dtype=complex)
    a[:dim, :] = u
    return np.concatenate([a.real.ravel(), a.imag.ravel()])


def _cptp_builder(layout: SubsystemLayout, mode: str, env_dim: int):
    """(n_params, theta -> stacked Kraus array on the joint sender space).

    The raw stack skips CptpMap validation (completeness holds by
    construction from the orthonormalized isometry); wrap the final result
    with ``CptpMap(tuple(stack))`` once the search is done.
    """
    if mode == "local":
        dims = layout.sender_dims
    elif mode == "global":
        dims = (layout.sender_dim,)
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    for d in dims:
        if not 1 <= env_dim <= d * d:
            raise ParameterError(
                f"env_dim {env_dim} outside [1, {d * d}] for a dim-{d} slot"
            )
    blocks = [2 * d * env_dim * d for d in dims]
    n_params = sum(blocks)

    def build(theta: np.ndarray) -> np.ndarray:
        combined = None
        offset = 0
        for d, size in zip(dims, blocks):
            v = isometry_from_params(theta[offset:offset + size], d, env_dim)
            ks = kraus_from_isometry(v, d, env_dim)
            if combined is None:
                combined = list(ks)
            else:
                combined = [np.kron(a, b) for a in combined for b in ks]
            offset += size
        return np.stack(combined)

    return n_params, build


# ---------------------------------------------------------------------------
# Restarted minimization
# ---------------------------------------------------------------------------

class _BestSeen:
    """Objective wrapper recording the lowest value ever evaluated."""

    def __init__(self, fn: Callable[[np.ndarray], float]):
        self.fn = fn
        self.best_value = np.inf
        self.best_theta: np.ndarray | None = None

    def __call__(self, theta: np.ndarray) -> float:
        value = self.fn(theta)
        if np.isfinite(value) and value < self.best_value:
            self.best_value = value
            self.best_theta = np.asarray(theta, dtype=float).copy()
        return value


def _minimize_restarts(
    objective: Callable[[np.ndarray], float],
    n_params: int,
    cfg: OptimizerConfig,
    warm_starts: Sequence[np.ndarray] = (),
    identity_start: np.ndarray | None = None,
) -> tuple[float, np.ndarray, tuple[tuple[int, float], ...]]:
    """Best entropy over restarts; restart 0 starts at the identity encoding.

    Warm starts are appended as extra restarts after the configured random
    ones.  Ties between restarts break toward the lowest restart id.
    """
    if identity_start is None:
        identity_start = np.zeros(n_params)
    starts: list[np.ndarray] = [np.asarray(identity_start, dtype=float)]
    for rid in range(1, cfg.restarts):
        rng = np.random.default_rng((cfg.seed, rid))
        starts.append(rng.normal(0.0, 1.0, size=n_params))
    starts.extend(np.asarray(w, dtype=float) for w in warm_starts)

    trace: list[tuple[int, float]] = []
    best_value = np.inf
    best_theta: np.ndarray | None = None
    for rid, theta0 in enumerate(starts):
        tracker = _BestSeen(objective)
        try:
            tracker(theta0)
            minimize(
                tracker,
                theta0,
                method="L-BFGS-B",
                options={
                    "maxiter": cfg.max_iters,
                    "eps": cfg.fd_step,
                    "ftol": 1e-12,
                    "gtol": 3e-7,
                },
            )
            # Simplex polish helps across the kinks of the entropy surface
            # near degenerate spectra.
            minimize(
                tracker,
                tracker.best_theta,
                method="Nelder-Mead",
                options={
                    "maxfev": min(600, 60 * n_params),
                    "fatol": cfg.convergence_tol * 1e-2,
                    "xatol": 1e-8,
                },
            )
        except (NumericalError, FloatingPointError) as exc:
            # Keep whatever the restart evaluated before failing.
            logger.warning("restart %d aborted: %s: %s", rid, type(exc).__name__, exc)
        if tracker.best_theta is None or not np.isfinite(tracker.best_value):
            continue
        trace.append((rid, float(tracker.best_value)))
        if tracker.best_value < best_value:
            best_value = float(tracker.best_value)
            best_theta = tracker.best_theta
    if best_theta is None:
        raise OptimizerDivergedError("no optimizer restart produced a finite entropy")
    return best_value, best_theta, tuple(trace)


# ---------------------------------------------------------------------------
# Capacity drivers
# ---------------------------------------------------------------------------

def _certify(channel, layout: SubsystemLayout, cfg: OptimizerConfig) -> LocalEncodingSet:
    enc_set = local_encoding_set(layout.sender_dims)
    dev = verify_covariance(channel, enc_set, layout, trials=5, seed=cfg.seed)
    if dev > COVARIANCE_CERT_TOL:
        raise NonCovariantChannelError(
            f"covariance deviation {dev:.3e} exceeds {COVARIANCE_CERT_TOL}"
        )
    return enc_set


def _receiver_entropy(channel, rho, layout: SubsystemLayout) -> float:
    out = apply_channel(channel, rho, layout)
    return von_neumann_entropy(partial_trace(out, layout, {layout.receiver_slot}))


def _entropy_objective(rho, channel, layout, build, wrap_encoder):
    def objective(theta: np.ndarray) -> float:
        encoded = wrap_encoder(rho, build(theta), layout)
        return von_neumann_entropy(apply_channel(channel, encoded, layout))

    return objective


def _crosscheck(capacity, encoder, enc_set, channel, rho, layout) -> float:
    chi = holevo(attaining_ensemble(encoder, enc_set), channel, rho, layout)
    if abs(chi - capacity) > CROSSCHECK_TOL:
        raise NumericalError(
            f"attaining-ensemble Holevo {chi!r} disagrees with capacity {capacity!r}"
        )
    return chi


def _minimize_unitary(rho, channel, layout, mode, cfg):
    n_params, build = _unitary_builder(layout, mode)
    objective = _entropy_objective(rho, channel, layout, build, encode_with_unitary)
    warm: list[np.ndarray] = []
    if mode == "global" and layout.k > 1:
        _, _, local_theta, _ = _minimize_unitary(rho, channel, layout, "local", cfg)
        warm.append(_lift_local_to_global(local_theta, layout))
    entropy, theta, trace = _minimize_restarts(objective, n_params, cfg, warm)
    return entropy, build(theta), theta, trace


def capacity_covariant(
    rho,
    channel,
    layout: SubsystemLayout,
    mode: str = "local",
    cfg: OptimizerConfig | None = None,
) -> CapacityReport:
    """Unitary-encoding capacity of a certified covariant channel.

    Minimizes the output entropy over per-sender unitaries (``local``) or one
    joint sender unitary (``global``), then assembles the capacity and
    cross-checks it against the Holevo quantity of the attaining ensemble.
    """
    cfg = cfg or OptimizerConfig()
    rho = as_complex_matrix(rho, "rho")
    enc_set = _certify(channel, layout, cfg)
    entropy, u_best, _, trace = _minimize_unitary(rho, channel, layout, mode, cfg)
    log_da = math.log2(layout.sender_dim)
    s_b = _receiver_entropy(channel, rho, layout)
    capacity = log_da + s_b - entropy
    chi = _crosscheck(capacity, u_best, enc_set, channel, rho, layout)
    return CapacityReport(
        capacity_bits=capacity,
        log_sender_dim=log_da,
        receiver_entropy_bits=s_b,
        min_output_entropy_bits=entropy,
        holevo_crosscheck_bits=chi,
        optimizer_trace=trace,
        encoder_at_min=u_best,
        mode=mode,
    )


def capacity_nonunitary(
    rho,
    channel,
    layout: SubsystemLayout,
    mode: str = "local",
    env_dim: int = 1,
    cfg: OptimizerConfig | None = None,
) -> CapacityReport:
    """Capacity over CPTP pre-processings parameterized by Stinespring
    isometries with environment dimension ``env_dim``.

    One restart is seeded with the best unitary encoder of the matching
    unitary search, so the result never falls below the unitary capacity.
    """
    cfg = cfg or OptimizerConfig()
    rho = as_complex_matrix(rho, "rho")
    enc_set = _certify(channel, layout, cfg)
    n_params, build = _cptp_builder(layout, mode, env_dim)
    objective = _entropy_objective(rho, channel, layout, build, _encode_with_kraus)

    _, _, theta_unitary, _ = _minimize_unitary(rho, channel, layout, mode, cfg)
    dims = layout.sender_dims if mode == "local" else (layout.sender_dim,)
    blocks = []
    offset = 0
    for d in dims:
        h = hermitian_from_params(theta_unitary[offset:offset + d * d], d)
        blocks.append(_isometry_params_from_unitary(_expi(h), env_dim))
        offset += d * d
    warm = [np.concatenate(blocks)]
    identity_start = np.concatenate(
        [_identity_isometry_params(d, env_dim) for d in dims]
    )

    entropy, theta, trace = _minimize_restarts(
        objective, n_params, cfg, warm, identity_start
    )
    gamma_best = CptpMap(tuple(build(theta)))
    log_da = math.log2(layout.sender_dim)
    s_b = _receiver_entropy(channel, rho, layout)
    capacity = log_da + s_b - entropy
    chi = _crosscheck(capacity, gamma_best, enc_set, channel, rho, layout)
    return CapacityReport(
        capacity_bits=capacity,
        log_sender_dim=log_da,
        receiver_entropy_bits=s_b,
        min_output_entropy_bits=entropy,
        holevo_crosscheck_bits=chi,
        optimizer_trace=trace,
        encoder_at_min=gamma_best,
        mode=mode,
    )


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def closed_form_bell_correlated(spec: PauliChannelSpec, dims: Sequence[int]) -> float:
    """Capacity for Bell copies with sender-only Pauli noise:
    sum_j log2(d_j^2) - H(joint probabilities)."""
    dims = tuple(int(d) for d in dims)
    k = len(dims)
    if spec.party_dims != dims:
        raise ParameterError(
            f"channel party dims {spec.party_dims} do not match copies {dims}"
        )
    if any(slot >= k for slot in spec.acts_on):
        raise ParameterError("channel must act on sender slots only")
    return float(sum(math.log2(d * d) for d in dims) - shannon_entropy(spec.joint))


def closed_form_bd_fully_correlated(copies: int, weights: Sequence[float]) -> float:
    """k copies of a Bell-diagonal state through fully correlated qubit noise:
    k * (2 - S(rho_Bd))."""
    if copies < 1:
        raise ParameterError(f"copies must be >= 1, got {copies}")
    return copies * (2.0 - von_neumann_entropy(bell_diagonal(weights)))


def closed_form_ghz_fully_correlated(k: int) -> float:
    """GHZ state of 2k qubits through fully correlated noise: exactly 2k."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    return 2.0 * k


def apply_single_party(spec: SinglePartyPauliSpec, rho) -> np.ndarray:
    """One use of a single-party Pauli channel on a bare d-dimensional state."""
    rho = as_complex_matrix(rho, "rho")
    if rho.shape != (spec.d, spec.d):
        raise LayoutError(f"state shape {rho.shape} does not match d={spec.d}")
    out = np.zeros_like(rho)
    for m in range(spec.d):
        for n in range(spec.d):
            q = spec.q[m, n]
            if q == 0.0:
                continue
            v = displacement_op(spec.d, m, n)
            out += q * (v @ rho @ v.conj().T)
    return out


def closed_form_depolarizing(rho_ab, p: float, copies: int = 1) -> float:
    """k copies of a two-slot state through uncorrelated depolarizing noise:
    k * (log2 d + S(Lambda_b(rho_b)) - S(Lambda_ab(rho_ab)))."""
    if copies < 1:
        raise ParameterError(f"copies must be >= 1, got {copies}")
    rho_ab = as_complex_matrix(rho_ab, "rho_ab")
    total = rho_ab.shape[0]
    d = math.isqrt(total)
    if d * d != total:
        raise ParameterError(
            f"state dim {total} is not a square; equal local dims required"
        )
    layout = SubsystemLayout([d], d)
    single = depolarizing_probs(d, p)
    channel = product_probs([single, single])
    s_ab = von_neumann_entropy(apply_channel(channel, rho_ab, layout))
    rho_b = partial_trace(rho_ab, layout, {1})
    s_b = von_neumann_entropy(apply_single_party(single, rho_b))
    return copies * (math.log2(d) + s_b - s_ab)


# ---------------------------------------------------------------------------
# Certification helpers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lemma2Report:
    """Pairwise products of the displaced Bell-copy states."""

    max_cross_overlap: float
    max_purity_error: float


def lemma2_orthogonality_check(
    dims: Sequence[int],
    unitary: np.ndarray | None = None,
    seed: int = 0,
    max_pairs: int | None = None,
) -> Lemma2Report:
    """Check that distinct displacement labels give orthogonal states.

    Builds the displaced images of (U x 1) applied to Bell copies for every
    sender label, and returns the largest |tr(pi pi')| over distinct label
    pairs plus the worst deviation of tr(pi pi) from one.
    """
    rho, layout = bell_copies(dims)
    enc_set = local_encoding_set(layout.sender_dims)
    rng = np.random.default_rng(seed)
    if unitary is None:
        unitary = random_unitary(layout.sender_dim, rng)
    base = encode_with_unitary(rho, unitary, layout)
    pis = [encode_with_unitary(base, v, layout) for v in enc_set.operators]

    n = len(pis)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if max_pairs is not None and len(pairs) > max_pairs:
        chosen = rng.choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[int(c)] for c in chosen]
    max_cross = 0.0
    for i, j in pairs:
        overlap = abs((pis[i] * pis[j].T).sum())
        max_cross = max(max_cross, overlap)
    max_purity = max(abs((pi * pi.T).sum() - 1.0) for pi in pis)
    return Lemma2Report(float(max_cross), float(max_purity))


def depolarizing_invariance_check(
    rho_ab, p: float, trials: int = 20, seed: int = 0
) -> float:
    """Max entropy change under random local unitaries before a depolarizing
    channel; the output entropy should not depend on them."""
    rho_ab = as_complex_matrix(rho_ab, "rho_ab")
    total = rho_ab.shape[0]
    d = math.isqrt(total)
    if d * d != total:
        raise ParameterError(f"state dim {total} is not a square")
    layout = SubsystemLayout([d], d)
    single = depolarizing_probs(d, p)
    channel = product_probs([single, single])
    base = von_neumann_entropy(apply_channel(channel, rho_ab, layout))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        u = random_unitary(d, rng)
        rotated = encode_with_unitary(rho_ab, u, layout)
        s = von_neumann_entropy(apply_channel(channel, rotated, layout))
        worst = max(worst, abs(s - base))
    return worst

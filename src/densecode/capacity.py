"""Superdense-coding capacities: Holevo evaluation, closed forms for the
solved channel/state families, attaining ensembles, and entropy minimization
over unitary or CPTP encodings on the sender slots.

For a covariant channel the capacity splits into three terms,

    C = log2(D_A) + S(Lambda_b(rho_b)) - min_encoding S(Lambda(encoded rho)),

so the only hard part is the entropy minimization.  Every encoder is a point
on a product of Stiefel manifolds {V : V^dag V = 1}: one (env_dim * d) x d
isometry per sender in ``local`` mode or one joint factor in ``global`` mode,
whose row blocks are Stinespring Kraus operators; a unitary is the case
env_dim = 1.  Each restart runs scipy's L-BFGS-B on the chart
V = polar(V0 + Delta) around a plain start point V0, with the exact entropy
gradient pulled back through the polar factor.  Every run keeps one restart
pinned at the identity encoding, and derived searches are warm-started from
the solutions of their restricted counterparts (global from the kron of the
local optimum, CPTP from [U; 0]) so the capacity hierarchy is monotone by
construction.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .channels import (
    CptpMap,
    PauliChannelSpec,
    adjoint_map,
    apply_channel,
    depolarizing_probs,
    product_probs,
    verify_covariance,
)
from .displacement import LocalEncodingSet, local_encoding_set
from .errors import (
    LayoutError,
    NonCovariantChannelError,
    NumericalError,
    OptimizerDivergedError,
    ParameterError,
    ProbabilityError,
)
from .linalg import (
    EIG_CLIP,
    SubsystemLayout,
    as_complex_matrix,
    kron_all,
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
# Encoders as points on a product of Stiefel manifolds
# ---------------------------------------------------------------------------

# [U; 0] is a critical point of the CPTP objective (a zero Kraus block gets a
# zero gradient), so CPTP searches from the identity and from the unitary warm
# start step this far off the unitary set along a seeded block first.
CPTP_KICK = 0.1


def _factor_dims(layout: SubsystemLayout, mode: str) -> tuple[int, ...]:
    """Input dimension of each encoder factor: one per sender, or one joint."""
    if mode == "local":
        return layout.sender_dims
    if mode == "global":
        return (layout.sender_dim,)
    raise ParameterError(f"unknown mode {mode!r}")


def _kraus(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Joint Kraus stack of per-factor stacks (env, d_j, d_j): every kron
    product, the first factor's Kraus index varying slowest."""
    k = len(factors)
    operands = []
    for j, f in enumerate(factors):
        operands += [f, [j, k + j, 2 * k + j]]
    ks = np.einsum(*operands, list(range(3 * k)))
    dim = math.prod(f.shape[1] for f in factors)
    return ks.reshape(-1, dim, dim)


def _factor_grads(grad: np.ndarray, factors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Gradients of the per-factor stacks from that of the joint stack: each
    contracts the joint gradient with the conjugates of the other factors."""
    k = len(factors)
    grad = grad.reshape([f.shape[0] for f in factors] + [f.shape[1] for f in factors] * 2)
    out = []
    for j in range(k):
        operands = [grad, list(range(3 * k))]
        for m, f in enumerate(factors):
            if m != j:
                operands += [f.conj(), [m, k + m, 2 * k + m]]
        out.append(np.einsum(*operands, [j, k + j, 2 * k + j]))
    return out


def _polar_chart(v0: np.ndarray, delta: np.ndarray):
    """(V, pullback): V = polar(V0 + Delta), column-orthonormal, and the map
    taking a gradient in V to the gradient in Delta.

    With A = V0 + Delta = U s W^dag, V = U W^dag = A P for P = (A^dag A)^(-1/2).
    The pullback is the adjoint of dV = dA P + A dP, with dP from
    dM = dA^dag A + A^dag dA by Daleckii-Krein: in the eigenbasis W of the
    Gram matrix M, dP is dM times the divided differences of x^(-1/2) at the
    eigenvalues s^2.
    """
    a = v0 + delta
    u, s, wh = np.linalg.svd(a, full_matrices=False)
    w = wh.conj().T
    p = (w / s) @ wh
    divided = -1.0 / (np.multiply.outer(s, s) * np.add.outer(s, s))

    def pullback(grad: np.ndarray) -> np.ndarray:
        b = w @ (divided * (wh @ grad.conj().T @ a @ w)) @ wh
        return grad @ p + a @ (b + b.conj().T)

    return u @ wh, pullback


def _entropy_objective(rho, channel, layout: SubsystemLayout, dims, env_dim: int):
    """objective(factors) -> (S(Lambda(encoded rho)) in bits, dS/dV per factor).

    Each factor V is a (env_dim * d) x d isometry whose row blocks are its
    Kraus operators.  Gradients are d/dRe + i d/dIm.  With
    G = Lambda^dag(log2 sigma), eigenvalues clipped at EIG_CLIP, the joint
    Kraus operators get dS/dconj(K_t) = -2 Tr_B[G (K_t x 1) rho]; the
    d tr(sigma) term is left out, as it vanishes along isometries.
    """
    adjoint = adjoint_map(channel, layout)
    da, db = layout.sender_dim, layout.receiver_dim
    rho4 = rho.reshape(da, db, da, db)

    def objective(vs):
        factors = [v.reshape(env_dim, d, d) for v, d in zip(vs, dims)]
        ks = _kraus(factors)
        sigma = apply_channel(channel, _encode_with_kraus(rho, ks, layout), layout)
        w, u = np.linalg.eigh(sigma)
        g = adjoint((u * np.log2(np.maximum(w, EIG_CLIP))) @ u.conj().T)
        # Tr_B[G (K x 1) rho][a, z] = sum_xc K[x, c] r[a, x, c, z]
        r = np.tensordot(g.reshape(da, db, da, db), rho4, axes=([1, 3], [3, 1]))
        grad = -2.0 * np.tensordot(ks, r, axes=([1, 2], [1, 2]))
        grads = _factor_grads(grad, factors)
        return von_neumann_entropy(sigma), [
            gr.reshape(env_dim * d, d) for gr, d in zip(grads, dims)]

    return objective


def _on_chart(objective, v0: Sequence[np.ndarray]):
    """(fun, point) for L-BFGS-B: point(x) holds polar(V0_j + Delta_j) with the
    Delta_j read from x as interleaved real/imaginary pairs, and fun(x) is
    the objective there with its exact gradient in x."""
    splits = np.cumsum([v.size for v in v0])[:-1]

    def charts(x):
        deltas = np.split(np.asarray(x, dtype=float).view(complex), splits)
        return [_polar_chart(v, d.reshape(v.shape)) for v, d in zip(v0, deltas)]

    def fun(x):
        cs = charts(x)
        value, grads = objective([v for v, _ in cs])
        return value, np.concatenate(
            [pullback(g).ravel() for (_, pullback), g in zip(cs, grads)]).view(float)

    return fun, lambda x: [v for v, _ in charts(x)]


def _gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _random_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Haar-distributed isometry: QR of a Gaussian matrix with R's phases fixed."""
    q, r = np.linalg.qr(_gaussian(rng, rows, cols))
    return q * (r.diagonal() / np.abs(r.diagonal()))


def _minimize_restarts(objective, dims, env_dim: int, cfg: OptimizerConfig, warm=()):
    """Best entropy over restarts, each one L-BFGS-B search of the polar chart
    around a plain start point; returns (entropy, factors, trace).

    Restart 0 starts at the identity [1; 0], restarts 1..restarts-1 at seeded
    random isometries, and the warm points follow.  With env_dim > 1 the
    identity and warm restarts search from polar(V0 + CPTP_KICK [0; X]), X
    seeded from cfg.seed, and keep V0 itself as a candidate.  Ties between
    restarts break toward the lowest restart id.
    """
    starts = [[np.eye(env_dim * d, d, dtype=complex) for d in dims]]
    for rid in range(1, cfg.restarts):
        rng = np.random.default_rng((cfg.seed, rid))
        starts.append([_random_isometry(rng, env_dim * d, d) for d in dims])
    starts += warm
    rng = np.random.default_rng(cfg.seed)
    kick = [np.vstack([np.zeros((d, d)), CPTP_KICK * _gaussian(rng, (env_dim - 1) * d, d)])
            for d in dims]

    trace: list[tuple[int, float]] = []
    best_value, best = np.inf, None
    for rid, v0 in enumerate(starts):
        found = []
        try:
            if env_dim > 1 and (rid == 0 or rid >= cfg.restarts):
                found.append((objective(v0)[0], v0))
                v0 = [_polar_chart(v, x)[0] for v, x in zip(v0, kick)]
            fun, point = _on_chart(objective, v0)
            result = minimize(
                fun,
                np.zeros(2 * sum(v.size for v in v0)),
                method="L-BFGS-B",
                jac=True,
                options={"maxiter": cfg.max_iters, "ftol": 1e-15, "gtol": 1e-10},
            )
            found.append((float(result.fun), point(result.x)))
        except (NumericalError, FloatingPointError) as exc:
            logger.warning("restart %d aborted: %s: %s", rid, type(exc).__name__, exc)
        if not found:
            continue
        value, vs = min(found, key=lambda c: c[0])
        trace.append((rid, value))
        if value < best_value:
            best_value, best = value, vs
    if best is None:
        raise OptimizerDivergedError("no optimizer restart produced a finite entropy")
    return best_value, best, tuple(trace)


def _minimize_entropy(rho, channel, layout: SubsystemLayout, dims, env_dim: int, cfg):
    """Minimize over encoders with these factors, warm-started from the
    restricted search: CPTP from the unitary one, global from the local one."""
    warm = []
    if env_dim > 1:
        _, unitary, _ = _minimize_entropy(rho, channel, layout, dims, 1, cfg)
        warm.append([np.pad(u, ((0, (env_dim - 1) * len(u)), (0, 0))) for u in unitary])
    elif len(dims) < layout.k:
        _, local, _ = _minimize_entropy(rho, channel, layout, layout.sender_dims, 1, cfg)
        warm.append([kron_all(local)])
    objective = _entropy_objective(rho, channel, layout, dims, env_dim)
    return _minimize_restarts(objective, dims, env_dim, cfg, warm)


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


def _crosscheck(capacity, encoder, enc_set, channel, rho, layout) -> float:
    chi = holevo(attaining_ensemble(encoder, enc_set), channel, rho, layout)
    if abs(chi - capacity) > CROSSCHECK_TOL:
        raise NumericalError(
            f"attaining-ensemble Holevo {chi!r} disagrees with capacity {capacity!r}"
        )
    return chi


def _capacity(rho, channel, layout, mode, env_dim, cfg, as_cptp) -> CapacityReport:
    """Certify, minimize, cross-check: the one driver behind both entries."""
    cfg = cfg or OptimizerConfig()
    rho = as_complex_matrix(rho, "rho")
    dims = _factor_dims(layout, mode)
    for d in dims:
        if not 1 <= env_dim <= d * d:
            raise ParameterError(
                f"env_dim {env_dim} outside [1, {d * d}] for a dim-{d} slot"
            )
    enc_set = _certify(channel, layout, cfg)
    entropy, vs, trace = _minimize_entropy(rho, channel, layout, dims, env_dim, cfg)
    ks = _kraus([v.reshape(env_dim, d, d) for v, d in zip(vs, dims)])
    encoder = CptpMap(tuple(ks)) if as_cptp else ks[0]
    log_da = math.log2(layout.sender_dim)
    s_b = _receiver_entropy(channel, rho, layout)
    capacity = log_da + s_b - entropy
    chi = _crosscheck(capacity, encoder, enc_set, channel, rho, layout)
    return CapacityReport(
        capacity_bits=capacity,
        log_sender_dim=log_da,
        receiver_entropy_bits=s_b,
        min_output_entropy_bits=entropy,
        holevo_crosscheck_bits=chi,
        optimizer_trace=trace,
        encoder_at_min=encoder,
        mode=mode,
    )


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
    return _capacity(rho, channel, layout, mode, 1, cfg, as_cptp=False)


def capacity_nonunitary(
    rho,
    channel,
    layout: SubsystemLayout,
    mode: str = "local",
    env_dim: int = 1,
    cfg: OptimizerConfig | None = None,
) -> CapacityReport:
    """Capacity over CPTP pre-processings given by Stinespring isometries
    with environment dimension ``env_dim``.

    One restart is warm-started from the best unitary encoder of the matching
    unitary search, so the result never falls below the unitary capacity.
    """
    return _capacity(rho, channel, layout, mode, env_dim, cfg, as_cptp=True)


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


def _depolarizing_pair(rho_ab, p: float):
    """(state, layout, channel) for a two-slot state of equal local dims d
    under depolarizing noise of strength p on both slots."""
    rho_ab = as_complex_matrix(rho_ab, "rho_ab")
    total = rho_ab.shape[0]
    d = math.isqrt(total)
    if d * d != total:
        raise ParameterError(
            f"state dim {total} is not a square; equal local dims required"
        )
    single = depolarizing_probs(d, p)
    return rho_ab, SubsystemLayout([d], d), product_probs([single, single])


def closed_form_depolarizing(rho_ab, p: float, copies: int = 1) -> float:
    """k copies of a two-slot state through uncorrelated depolarizing noise:
    k * (log2 d + S(Lambda_b(rho_b)) - S(Lambda_ab(rho_ab)))."""
    if copies < 1:
        raise ParameterError(f"copies must be >= 1, got {copies}")
    rho_ab, layout, channel = _depolarizing_pair(rho_ab, p)
    s_ab = von_neumann_entropy(apply_channel(channel, rho_ab, layout))
    # Tr_A of the joint output is Lambda_b(rho_b): Lambda_a preserves trace.
    s_b = _receiver_entropy(channel, rho_ab, layout)
    return copies * (math.log2(layout.receiver_dim) + s_b - s_ab)


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
    rho_ab, layout, channel = _depolarizing_pair(rho_ab, p)
    base = von_neumann_entropy(apply_channel(channel, rho_ab, layout))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        u = random_unitary(layout.sender_dim, rng)
        rotated = encode_with_unitary(rho_ab, u, layout)
        s = von_neumann_entropy(apply_channel(channel, rotated, layout))
        worst = max(worst, abs(s - base))
    return worst

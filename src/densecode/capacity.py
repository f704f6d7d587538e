"""Superdense-coding capacities: Holevo evaluation, closed forms for the
solved channel/state families, attaining ensembles, and entropy minimization
over unitary or CPTP encodings on the sender slots.

For a covariant channel the capacity splits into three terms,

    C = log2(D_A) + S(Lambda_b(rho_b)) - min_encoding S(Lambda(encoded rho)),

so the only hard part is the entropy minimization.  Every encoder is a point
on a product of Stiefel manifolds {V : V^dag V = 1}: one (env_dim * d) x d
isometry per sender in ``local`` mode or one joint factor in ``global`` mode,
whose row blocks are Stinespring Kraus operators; a unitary is the case
env_dim = 1.  Each restart runs ``minimize``, an L-BFGS in numpy (two-loop
recursion over the last LBFGS_MEMORY steps, strong Wolfe line search), on
the chart V = polar(V0 + Delta) around a plain start point V0, with the exact
entropy gradient pulled back through the polar factor.  Factors of equal
shape share one stacked chart, so an evaluation takes one batched SVD per
shape.  A restart stops once max |gradient| <= GRAD_TOL, once an iteration
lowers the entropy, or its search direction would to first order, by at
most ENTROPY_FTOL (relative), the rounding floor of an entropy evaluation,
or after max_iters iterations.  The gradient -2 Tr_B[G (K x 1) rho] is one
matmul with the trace over B folded into its contraction.  Every run keeps
one restart pinned at the identity encoding, and derived searches are
warm-started from the solutions of their restricted counterparts (global
from the kron of the local optimum, CPTP from [U; 0]) so the capacity
hierarchy is monotone by construction.
"""

from __future__ import annotations

import collections
import itertools
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import (
    CptpMap,
    PauliChannelSpec,
    adjoint_map,
    apply_channel,
    depolarizing_probs,
    product_probs,
    verify_covariance,
)
from .displacement import local_encoding_set, sender_generators
from .errors import (
    NonCovariantChannelError,
    NumericalError,
    OptimizerDivergedError,
    ParameterError,
    ProbabilityError,
)
from .linalg import (
    EIG_CLIP,
    SubsystemLayout,
    _conjugate_leading,
    _kron_stacks,
    as_complex_matrix,
    complex_gaussian,
    kron_all,
    partial_trace,
    random_isometry,
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
        if self.max_iters < 1:
            raise ParameterError(f"max_iters must be >= 1, got {self.max_iters}")


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
    return _conjugate_leading(rho, np.asarray(u)[None], layout.sender_dim)


def _encode_with_kraus(rho, ks: np.ndarray, layout: SubsystemLayout) -> np.ndarray:
    return _conjugate_leading(rho, ks, layout.sender_dim)


def _encode(rho, encoder, layout: SubsystemLayout) -> np.ndarray:
    """Encode by a unitary or a CptpMap on the sender slots; an encoder whose
    operators are not sender_dim x sender_dim raises LayoutError."""
    if isinstance(encoder, CptpMap):
        return _encode_with_kraus(rho, encoder.kraus, layout)
    return _encode_with_kraus(rho, as_complex_matrix(encoder, "encoder")[None], layout)


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


def attaining_ensemble(encoder_min, enc_set: np.ndarray) -> EncodingEnsemble:
    """Uniform ensemble of the encoding set, a stack of sender unitaries V_i
    such as ``local_encoding_set``, composed with the minimizer.

    For a unitary U the members are V_i @ U; for a CPTP map the members
    conjugate its output by V_i, Kraus stack V_i @ K.
    """
    p = 1.0 / len(enc_set)
    if isinstance(encoder_min, CptpMap):
        return EncodingEnsemble(tuple((p, CptpMap(v @ encoder_min.kraus))
                                      for v in enc_set))
    u = as_complex_matrix(encoder_min, "encoder")
    return EncodingEnsemble(tuple((p, v @ u) for v in enc_set))


# ---------------------------------------------------------------------------
# Unconstrained L-BFGS
# ---------------------------------------------------------------------------

# A restart stops once an iteration lowers the entropy by at most this,
# relative to max(|S_k|, |S_k+1|, 1), or once the next search direction d
# would to first order (-g.d relative to max(|S_k|, 1)).  An entropy
# evaluation carries rounding noise of a few 1e-15 bits (S(U sigma U^dag)
# spreads by up to 6.5e-15 over random unitaries U at D = 4..64), so a
# smaller decrease is noise: line searches that chase it fail after
# LINE_SEARCH_EVALS evaluations.
ENTROPY_FTOL = 1e-13
# ... or once max |gradient| <= GRAD_TOL.
GRAD_TOL = 1e-10
# Step pairs kept by the two-loop recursion.
LBFGS_MEMORY = 10
# Strong Wolfe constants of the line search and its budget of evaluations.
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
LINE_SEARCH_EVALS = 20


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    """End of one ``minimize`` run: the last iterate and its value, the
    iterations and evaluations spent, and ``status`` 0 when a stopping rule
    was met, 1 at the iteration limit, 2 when a line search failed."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    status: int


def _two_loop(g: np.ndarray, memory) -> np.ndarray:
    """H g for the L-BFGS inverse-Hessian estimate H built from the
    (s, y, 1 / y.s) pairs in memory, oldest first, on H0 = (s.y / y.y) 1 of
    the newest pair (Nocedal & Wright, Algorithm 7.4)."""
    q = g.copy()
    alphas = []
    for s, y, r in reversed(memory):
        alphas.append(r * (s @ q))
        q -= alphas[-1] * y
    if memory:
        _, y, r = memory[-1]
        q /= r * (y @ y)
    for (s, y, r), a in zip(memory, reversed(alphas)):
        q += (a - r * (y @ q)) * s
    return q


def _cubic_step(lo, hi) -> float:
    """Minimizer of the cubic through the values and slopes at the steps of
    lo and hi, each (step, value, slope), by Nocedal & Wright (3.59) on the
    interval mapped to [0, 1]: kept within the middle 80% of the interval,
    and its midpoint when the cubic has no minimizer."""
    (a0, f0, s0), (a1, f1, s1) = lo, hi
    width = a1 - a0
    s0, s1 = s0 * width, s1 * width
    d1 = s0 + s1 - 3.0 * (f1 - f0)
    rad = d1 * d1 - s0 * s1
    t = 0.5
    if rad >= 0.0:
        d2 = math.sqrt(rad)
        den = s1 - s0 + 2.0 * d2
        if den != 0.0:
            t = min(max(1.0 - (s1 + d2 - d1) / den, 0.1), 0.9)
    return a0 + t * width


def _line_search(fun, x, f0: float, g0, d, step: float):
    """(step, value, gradient) along d meeting the strong Wolfe conditions
    f <= f0 + WOLFE_C1 step g0.d and |g.d| <= WOLFE_C2 |g0.d|, or None when
    LINE_SEARCH_EVALS evaluations find none.

    Nocedal & Wright's Algorithms 3.5 and 3.6 in one loop: lo is the best
    step with sufficient decrease so far, hi the other end of a bracket once
    one is known.  Without a bracket the trial step grows fourfold, the
    Moré-Thuente bound on extrapolation; with one it is ``_cubic_step``.
    """
    slope0 = g0 @ d
    lo, hi = (0.0, f0, slope0), None
    for _ in range(LINE_SEARCH_EVALS):
        f, g = fun(x + step * d)
        slope = g @ d
        if f > f0 + WOLFE_C1 * step * slope0 or f >= lo[1]:
            hi = (step, f, slope)
        elif abs(slope) <= -WOLFE_C2 * slope0:
            return step, f, g
        else:
            if slope * (1.0 if hi is None else hi[0] - lo[0]) >= 0.0:
                hi = lo
            lo = (step, f, slope)
        step = 4.0 * step if hi is None else _cubic_step(lo, hi)
    return None


def minimize(fun, x0, max_iters: int) -> MinimizeResult:
    """Minimize ``fun(x) -> (value, gradient)`` from ``x0`` by L-BFGS.

    Each iteration steps along -H g, H from ``_two_loop`` over the last
    LBFGS_MEMORY steps, by a strong Wolfe line search that tries step
    min(1, 1/|d|) first on the first iteration and 1 after.  Stops with
    status 0 once max |g| <= GRAD_TOL, once an iteration lowers the value by
    at most ENTROPY_FTOL relative to max(|f_k|, |f_k+1|, 1), or once -g.d,
    the first-order decrease along d, is at most ENTROPY_FTOL relative to
    max(|f_k|, 1); with status 1 after ``max_iters`` iterations and with
    status 2 when a line search fails.  Errors raised by ``fun`` propagate.
    """
    nfev = 0

    def evaluate(x):
        nonlocal nfev
        nfev += 1
        return fun(x)

    x = np.array(x0, dtype=float)
    f, g = evaluate(x)
    memory = collections.deque(maxlen=LBFGS_MEMORY)
    nit = 0
    while np.abs(g).max() > GRAD_TOL:
        if nit >= max_iters:
            return MinimizeResult(x, f, nit, nfev, 1)
        d = -_two_loop(g, memory)
        if -(g @ d) <= ENTROPY_FTOL * max(abs(f), 1.0):
            break
        step = min(1.0, 1.0 / np.linalg.norm(d)) if nit == 0 else 1.0
        found = _line_search(evaluate, x, f, g, d, step)
        if found is None:
            return MinimizeResult(x, f, nit, nfev, 2)
        step, f_new, g_new = found
        s, y = step * d, g_new - g
        if s @ y > 0.0:
            memory.append((s, y, 1.0 / (s @ y)))
        x = x + s
        nit += 1
        f, f_old, g = f_new, f, g_new
        if f_old - f <= ENTROPY_FTOL * max(abs(f_old), abs(f), 1.0):
            break
    return MinimizeResult(x, f, nit, nfev, 0)


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


def _factor_grads(grad: np.ndarray, factors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Gradients of the per-factor stacks from that of the joint stack: each
    contracts the joint gradient with the conjugate kron of the other factors."""
    k = len(factors)
    if k == 1:
        return [grad]
    grad = grad.reshape([f.shape[0] for f in factors] + [f.shape[1] for f in factors] * 2)
    out = []
    for j, f in enumerate(factors):
        rest = [m for m in range(3 * k) if m % k != j]
        others = _kron_stacks(factors[:j] + factors[j + 1:])
        mine = grad.transpose([j, k + j, 2 * k + j] + rest).reshape(f.size, -1)
        out.append((mine @ others.conj().ravel()).reshape(f.shape))
    return out


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _polar_chart(v0: np.ndarray, delta: np.ndarray):
    """(V, pullback): V = polar(V0 + Delta), column-orthonormal, and the map
    taking a gradient in V to the gradient in Delta.  Leading axes of V0 and
    Delta index a stack of independent charts, one batched SVD for all.

    With A = V0 + Delta = U s W^dag, V = U W^dag = A P for P = (A^dag A)^(-1/2).
    The pullback is the adjoint of dV = dA P + A dP, with dP from
    dM = dA^dag A + A^dag dA by Daleckii-Krein: in the eigenbasis W of the
    Gram matrix M, dP is dM times the divided differences
    F_ij = -1 / (s_i s_j (s_i + s_j)) of x^(-1/2) at the eigenvalues s^2.
    In the singular bases, with C = U^dag grad W and Y = F * (C^dag s), the
    adjoint is grad -> (grad W / s + U s (Y + Y^dag)) W^dag.
    """
    u, s, wh = np.linalg.svd(v0 + delta, full_matrices=False)
    w = _dagger(wh)
    si, sj = s[..., :, None], s[..., None, :]
    scaled = -1.0 / (si * (si + sj))  # F_ij s_j

    def pullback(grad: np.ndarray) -> np.ndarray:
        gw = grad @ w
        y = scaled * _dagger(_dagger(u) @ gw)
        return (gw / sj + u @ (si * (y + _dagger(y)))) @ wh

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
    # Tr_B[G (K x 1) rho][a, z] = sum_bxy G[a b, x y] ((K x 1) rho)[x y, z b]
    # is one matmul of G, read as rows a by columns (b, x, y), with
    # (K x 1) rho stacked as rows (b, x, y) by columns z: K acts on the index
    # c of columns[b, c, (y, z)] = rho[c y, z b].  Only the blocks the trace
    # over B keeps are formed.
    columns = rho.reshape(da, db, da, db).transpose(3, 0, 1, 2).reshape(db, da, db * da)

    def objective(vs):
        factors = [v.reshape(env_dim, d, d) for v, d in zip(vs, dims)]
        ks = _kron_stacks(factors)
        sigma = apply_channel(channel, _encode_with_kraus(rho, ks, layout), layout)
        w, u = np.linalg.eigh(sigma)
        g = adjoint((u * np.log2(np.maximum(w, EIG_CLIP))) @ _dagger(u))
        kron_rho = ks[:, None] @ columns
        grad = -2.0 * (g.reshape(da, -1) @ kron_rho.reshape(len(ks), -1, da))
        grads = _factor_grads(grad, factors)
        return von_neumann_entropy(sigma), [
            gr.reshape(env_dim * d, d) for gr, d in zip(grads, dims)]

    return objective


def _on_chart(objective, v0: Sequence[np.ndarray]):
    """(fun, point) for ``minimize``: point(x) holds polar(V0_j + Delta_j), and
    fun(x) is the objective there with its exact gradient in x.

    Factors of equal shape share one stacked chart; x holds the Delta of each
    stack in turn, in order of the stack's first factor, as interleaved
    real/imaginary pairs.  A non-finite value or gradient raises
    NumericalError, so the restart is aborted rather than recorded.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for j, v in enumerate(v0):
        groups.setdefault(v.shape, []).append(j)
    stacks = [(idx, np.stack([v0[j] for j in idx])) for idx in groups.values()]
    ends = np.cumsum([base.size for _, base in stacks])

    def charts(x):
        z = np.asarray(x, dtype=float).view(complex)
        vs, pullbacks = [None] * len(v0), []
        for (idx, base), end in zip(stacks, ends):
            v, pullback = _polar_chart(base, z[end - base.size:end].reshape(base.shape))
            for j, vj in zip(idx, v):
                vs[j] = vj
            pullbacks.append(pullback)
        return vs, pullbacks

    def fun(x):
        vs, pullbacks = charts(x)
        value, grads = objective(vs)
        grad = np.concatenate([
            pullback(np.stack([grads[j] for j in idx])).ravel()
            for (idx, _), pullback in zip(stacks, pullbacks)]).view(float)
        if not (math.isfinite(value) and np.isfinite(grad).all()):
            raise NumericalError(f"non-finite objective {value} or gradient")
        return value, grad

    return fun, lambda x: charts(x)[0]


def _minimize_restarts(objective, dims, env_dim: int, cfg: OptimizerConfig, warm=()):
    """Best entropy over restarts, each one L-BFGS search of the polar chart
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
        starts.append([random_isometry(env_dim * d, d, rng) for d in dims])
    starts += warm
    rng = np.random.default_rng(cfg.seed)
    kick = [np.vstack([np.zeros((d, d)),
                       CPTP_KICK * complex_gaussian((env_dim - 1) * d, d, rng)])
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
            result = minimize(fun, np.zeros(2 * sum(v.size for v in v0)),
                              max_iters=cfg.max_iters)
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

def _certify(channel, layout: SubsystemLayout, cfg: OptimizerConfig) -> None:
    """Raise NonCovariantChannelError unless the channel commutes with the
    sender generators, and so with every local displacement encoding."""
    dev = verify_covariance(channel, sender_generators(layout.sender_dims), layout,
                            trials=5, seed=cfg.seed)
    if dev > COVARIANCE_CERT_TOL:
        raise NonCovariantChannelError(
            f"covariance deviation {dev:.3e} exceeds {COVARIANCE_CERT_TOL}"
        )


def _receiver_entropy(out, layout: SubsystemLayout) -> float:
    return von_neumann_entropy(partial_trace(out, layout, {layout.receiver_slot}))


def _crosscheck(capacity, encoder, channel, rho, layout) -> float:
    """Holevo quantity of the attaining ensemble {1/D_A^2, V_i E}: under the
    certified covariance each member's output is V_i sigma V_i^dag, sigma =
    Lambda(E(rho)), and the V_i average those to 1/D_A x Tr_A sigma, so
    chi = log2 D_A + S(Tr_A sigma) - S(sigma)."""
    sigma = apply_channel(channel, _encode(rho, encoder, layout), layout)
    chi = (math.log2(layout.sender_dim) + _receiver_entropy(sigma, layout)
           - von_neumann_entropy(sigma))
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
    _certify(channel, layout, cfg)
    entropy, vs, trace = _minimize_entropy(rho, channel, layout, dims, env_dim, cfg)
    ks = _kron_stacks([v.reshape(env_dim, d, d) for v, d in zip(vs, dims)])
    encoder = CptpMap(ks) if as_cptp else ks[0]
    log_da = math.log2(layout.sender_dim)
    s_b = _receiver_entropy(apply_channel(channel, rho, layout), layout)
    capacity = log_da + s_b - entropy
    chi = _crosscheck(capacity, encoder, channel, rho, layout)
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
    out = apply_channel(channel, rho_ab, layout)
    # Tr_A of the joint output is Lambda_b(rho_b): Lambda_a preserves trace.
    return copies * (math.log2(layout.receiver_dim) + _receiver_entropy(out, layout)
                     - von_neumann_entropy(out))


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
) -> Lemma2Report:
    """Check that distinct displacement labels give orthogonal states.

    Builds the displaced images of (U x 1) applied to Bell copies for every
    sender label, and returns the largest |tr(pi pi')| over distinct label
    pairs plus the worst deviation of tr(pi pi) from one.
    """
    rho, layout = bell_copies(dims)
    enc_set = local_encoding_set(layout.sender_dims)
    if unitary is None:
        unitary = random_unitary(layout.sender_dim, np.random.default_rng(seed))
    base = encode_with_unitary(rho, unitary, layout)
    pis = [encode_with_unitary(base, v, layout) for v in enc_set]
    max_cross = max(abs((a * b.T).sum()) for a, b in itertools.combinations(pis, 2))
    max_purity = max(abs((pi * pi.T).sum() - 1.0) for pi in pis)
    return Lemma2Report(float(max_cross), float(max_purity))


def depolarizing_invariance_check(
    rho_ab, p: float, trials: int = 20, seed: int = 0
) -> float:
    """Max entropy change under random local unitaries before a depolarizing
    channel; the output entropy should not depend on them."""
    if trials < 1:
        raise ParameterError(f"need trials >= 1, got {trials}")
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

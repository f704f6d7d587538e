"""Superdense-coding capacities: closed forms for the solved channel/state
families, and entropy minimization over unitary or CPTP encodings on the
sender slots with the Holevo cross-check of the attaining ensemble.

For a covariant channel the capacity splits into three terms,

    C = log2(D_A) + S(Lambda_b(rho_b)) - min_encoding S(Lambda(encoded rho)),

so the only hard part is the entropy minimization.  Every encoder is a point
on a product of Stiefel manifolds {V : V^dag V = 1}: one (env_dim * d) x d
isometry per sender in ``local`` mode or one joint factor in ``global`` mode,
whose row blocks are Stinespring Kraus operators; a unitary is the case
env_dim = 1.  Each restart is an L-BFGS search in numpy (two-loop recursion
over the last LBFGS_MEMORY steps, strong Wolfe line search) of the chart
V = polar(V0 + Delta) around a plain start point V0, with the exact entropy
gradient pulled back through the polar factor.  ``_lbfgs`` is a generator
that yields each point it evaluates, and ``_lockstep`` advances every
restart of a search together: each round it stacks the pending points of
the live restarts and makes one objective call, whose kernels, ``eigh`` and
SVDs run on the whole stack, then hands each restart its own row.  The stack
is split only past STACK_ENTRY_CAP complex entries in its largest
per-member array, and a call that fails a check is repeated member by
member, so an error aborts only its own restart.  Each restart takes exactly
the steps it would take alone; ``minimize`` is the same driver on one start.
A restart stops once max |gradient| <= GRAD_TOL, once an iteration lowers the
entropy, or its search direction would to first order, by at most
ENTROPY_FTOL (relative), the rounding floor of an entropy evaluation, or
after max_iters iterations.

The objective has two member kernels behind one builder.  The dense one
forms the D x D output sigma and takes the gradient -2 Tr_B[G (K x 1) rho]
as one matmul with the trace over B folded into its contraction.  For a
Pauli channel of T terms and a state of rank r, the factored one works on
the D x n matrix X = [sqrt(q_t) W_t (K_e x 1) Psi], n = T E r, with sigma =
X X^dag: the entropy of the n x n Gram matrix X^dag X, the gradient
-X log2(X^dag X) pulled back through the terms and the sender factors.  It
runs when n <= D / FACTORED_COLUMN_RATIO, the measured crossover.

Every run keeps one restart pinned at the identity encoding, and derived
searches are warm-started from the solutions of their restricted
counterparts (global from the kron of the local optimum, CPTP from [U; 0]).
The restricted optimum stays a candidate with the entropy its own search
found, so the hierarchy local <= global <= CPTP holds exactly, with no
rounding between its levels.
"""

from __future__ import annotations

import collections
import functools
import itertools
import logging
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import (
    CptpMap,
    PauliChannelSpec,
    _pauli_terms,
    _stacked_maps,
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
    SizeLimitError,
)
from .linalg import (
    SubsystemLayout,
    _conjugate_leading,
    _dagger,
    _entropy_and_log2,
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

COVARIANCE_CERT_TOL = 1e-10
CROSSCHECK_TOL = 1e-6
# Complex entries of a search's start points, (restarts + 1) env_dim sum d^2, as
# many as its lockstep stack holds; default runs reach 8.9M (global D_A = 512).
START_ENTRY_CAP = 2**24


@dataclass(frozen=True)
class OptimizerConfig:
    """Entropy-minimization settings; all randomness flows from ``seed``."""

    restarts: int = 16
    max_iters: int = 200
    seed: int = 42

    def __post_init__(self):
        for name in ("restarts", "max_iters", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ParameterError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.restarts < 1:
            raise ParameterError("need at least one restart")
        if self.max_iters < 1:
            raise ParameterError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


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
    """End of one L-BFGS run: the last iterate and its value, the
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
        alphas.append(r * s.dot(q))
        q -= alphas[-1] * y
    if memory:
        _, y, r = memory[-1]
        q /= r * y.dot(y)
    for (s, y, r), a in zip(memory, reversed(alphas)):
        q += (a - r * y.dot(q)) * s
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


def _line_search(x, f0: float, g0, d, step: float):
    """Generator of the trial points of a line search along d, each answered
    with its (value, gradient); returns the (step, value, gradient) meeting
    the strong Wolfe conditions f <= f0 + WOLFE_C1 step g0.d and
    |g.d| <= WOLFE_C2 |g0.d|, or None when LINE_SEARCH_EVALS trials find none.

    Nocedal & Wright's Algorithms 3.5 and 3.6 in one loop: lo is the best
    step with sufficient decrease so far, hi the other end of a bracket once
    one is known.  Without a bracket the trial step grows fourfold, the
    Moré-Thuente bound on extrapolation; with one it is ``_cubic_step``.
    """
    slope0 = g0.dot(d)
    lo, hi = (0.0, f0, slope0), None
    for _ in range(LINE_SEARCH_EVALS):
        f, g = yield x + step * d
        slope = g.dot(d)
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


def _lbfgs(x0, max_iters: int):
    """Generator of the points at which one L-BFGS run from ``x0`` evaluates
    its objective, each answered with its (value, gradient); returns
    (x, value, nit, status) as ``MinimizeResult`` describes them.

    Each iteration steps along -H g, H from ``_two_loop`` over the last
    LBFGS_MEMORY steps, by a strong Wolfe line search that tries step
    min(1, 1/|d|) first on the first iteration and 1 after.  Stops with
    status 0 once max |g| <= GRAD_TOL, once an iteration lowers the value by
    at most ENTROPY_FTOL relative to max(|f_k|, |f_k+1|, 1), or once -g.d,
    the first-order decrease along d, is at most ENTROPY_FTOL relative to
    max(|f_k|, 1); with status 1 after ``max_iters`` iterations and with
    status 2 when a line search fails.
    """
    x = np.array(x0, dtype=float)
    f, g = yield x
    memory = collections.deque(maxlen=LBFGS_MEMORY)
    nit = 0
    while np.abs(g).max() > GRAD_TOL:
        if nit >= max_iters:
            return x, f, nit, 1
        d = -_two_loop(g, memory)
        if -g.dot(d) <= ENTROPY_FTOL * max(abs(f), 1.0):
            break
        step = min(1.0, 1.0 / np.linalg.norm(d)) if nit == 0 else 1.0
        found = yield from _line_search(x, f, g, d, step)
        if found is None:
            return x, f, nit, 2
        step, f_new, g_new = found
        s, y = step * d, g_new - g
        sy = s.dot(y)
        if sy > 0.0:
            memory.append((s, y, 1.0 / sy))
        x = x + s
        nit += 1
        f, f_old, g = f_new, f, g_new
        if f_old - f <= ENTROPY_FTOL * max(abs(f_old), abs(f), 1.0):
            break
    return x, f, nit, 0


def _lockstep(evaluate, x0s, max_iters: int) -> list:
    """One ``_lbfgs`` run from each start point, all advanced together: each
    round stacks the pending points of the live runs into one (B, P) array
    and makes one call ``evaluate(ids, xs)``, ids the runs' indices in
    ``x0s``, which returns one outcome per row: its (value, gradient), or the
    exception that ends that run alone.  Returns per start its
    MinimizeResult or that exception; an exception raised by ``evaluate``
    propagates.
    """
    runs = [_lbfgs(x0, max_iters) for x0 in x0s]
    pending = {i: next(run) for i, run in enumerate(runs)}
    nfev = [0] * len(runs)
    results: list = [None] * len(runs)
    while pending:
        ids = list(pending)
        outcomes = evaluate(ids, np.stack([pending[i] for i in ids]))
        pending = {}
        for i, outcome in zip(ids, outcomes, strict=True):
            if isinstance(outcome, BaseException):
                results[i] = outcome
                continue
            nfev[i] += 1
            try:
                pending[i] = runs[i].send(outcome)
            except StopIteration as stop:
                x, f, nit, status = stop.value
                results[i] = MinimizeResult(x, f, nit, nfev[i], status)
    return results


def minimize(fun, x0, max_iters: int) -> MinimizeResult:
    """Minimize ``fun(x) -> (value, gradient)`` from ``x0`` by L-BFGS: the
    ``_lockstep`` driver on one start (see ``_lbfgs`` for the steps and the
    stopping rules).  Errors raised by ``fun`` propagate."""
    (result,) = _lockstep(lambda ids, xs: [fun(xs[0])], [x0], max_iters)
    return result


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
    """Gradients of the per-factor (..., env, d, d) stacks from that of the
    joint (..., T, D_A, D_A) stack: each contracts the joint gradient with the
    conjugate kron of the other factors."""
    k = len(factors)
    if k == 1:
        return [grad]
    lead = grad.shape[:-3]
    m = len(lead)
    grad = grad.reshape(lead + tuple(f.shape[-3] for f in factors)
                        + tuple(f.shape[-2] for f in factors) * 2)
    out = []
    for j, f in enumerate(factors):
        rest = [m + a for a in range(3 * k) if a % k != j]
        others = _kron_stacks(factors[:j] + factors[j + 1:])
        mine = grad.transpose(list(range(m)) + [m + j, m + k + j, m + 2 * k + j] + rest)
        mine = mine.reshape(lead + (math.prod(f.shape[-3:]), -1))
        out.append((mine @ others.conj().reshape(lead + (-1, 1))).reshape(f.shape))
    return out


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


# Complex entries of the largest per-member array of one objective call: a
# stack of encoders is evaluated in calls of at most
# max(1, STACK_ENTRY_CAP // width) members, width D^2 on the dense path (each
# D x D output) and n D on the factored one (the D x n matrix X).  Stacking
# pays for the per-call overhead that dominates at small sizes; on the dense
# path from D = 128 on a search runs one member per call, in the memory of a
# single restart.  (At D = 256 with 16 restarts, one dense call for all
# peaked at 148 MB against 54 MB for one member per call, and was not
# faster.)  16 restarts share one dense call up to D = 32, and one factored
# call while n D <= 1024.
STACK_ENTRY_CAP = 2**14

# The factored objective runs when its column count n = T E r is at most
# D / FACTORED_COLUMN_RATIO: below that its Gram matrix, O(n^2 D) to form and
# O(n^3) to diagonalize, beats the dense path's O(D^3) channel applies and
# eigh.  Measured per member on stacks of 16 (README.md).
FACTORED_COLUMN_RATIO = 2
# rho = Psi Psi^dag must hold to this, entrywise, for the factored path.
RANK_CUT_TOL = 1e-12


def _low_rank_factor(rho: np.ndarray):
    """Psi^T, an (r, D) array with rho = Psi Psi^dag to RANK_CUT_TOL
    entrywise, Psi the eigenvectors of rho scaled by the square roots of
    their eigenvalues; or None when the cut keeps nothing, or would keep a
    negative eigenvalue, or the reconstruction misses.

    The smallest eigenvalues are cut while their absolute values sum to at
    most RANK_CUT_TOL, which bounds the entrywise error of the cut; the
    reconstruction is checked as well."""
    w, u = np.linalg.eigh(rho)
    cut = int(np.count_nonzero(np.cumsum(np.abs(w)) <= RANK_CUT_TOL))
    if cut == len(w) or w[cut] < 0.0:
        return None
    psi = u[:, cut:] * np.sqrt(w[cut:])
    if np.abs(psi @ _dagger(psi) - rho).max() > RANK_CUT_TOL:
        return None
    return psi.T


def _dense_members(rho, channel, layout: SubsystemLayout, dims, env_dim: int):
    """The dense member kernel of ``_entropy_objective``: sigma =
    Lambda(sum_t (K_t x 1) rho (K_t x 1)^dag) as a D x D stack, one ``eigh``
    per member, and the gradient -2 Tr_B[G (K_t x 1) rho] per joint Kraus
    operator, G = Lambda^dag(log2 sigma), contracted to the factors."""
    forward, adjoint = _stacked_maps(channel, layout)
    da, db = layout.sender_dim, layout.receiver_dim
    # Tr_B[G (K x 1) rho][a, z] = sum_bxy G[a b, x y] ((K x 1) rho)[x y, z b]
    # is one matmul of G, read as rows a by columns (b, x, y), with
    # (K x 1) rho stacked as rows (b, x, y) by columns z: K acts on the index
    # c of columns[b, c, (y, z)] = rho[c y, z b].  Only the blocks the trace
    # over B keeps are formed.
    columns = rho.reshape(da, db, da, db).transpose(3, 0, 1, 2).reshape(db, da, db * da)

    def members(vs):
        factors = [v.reshape(len(v), env_dim, d, d) for v, d in zip(vs, dims)]
        ks = _kron_stacks(factors)
        sigma = forward(_encode_with_kraus(rho, ks, layout))
        values, log2_sigma = _entropy_and_log2(sigma)
        g = adjoint(log2_sigma)
        kron_rho = ks[..., None, :, :] @ columns
        grad = -2.0 * (g.reshape(len(g), 1, da, -1)
                       @ kron_rho.reshape(ks.shape[:2] + (-1, da)))
        return values, [gr.reshape(v.shape) for gr, v in zip(_factor_grads(grad, factors), vs)]

    return members


def _factored_members(psi_t, trace: float, terms, layout: SubsystemLayout, dims,
                      env_dim: int):
    """The factored member kernel of ``_entropy_objective``, for rho =
    Psi Psi^dag of rank r (``psi_t`` = Psi^T) and a Pauli channel with terms
    sqrt(q_t) W_t (``channels._PauliTerms``).

    The output is sigma = X X^dag with X = [sqrt(q_t) W_t (K_e x 1) Psi],
    a D x n matrix, n = E T r, columns in the order (e_m, ..., e_1, r, t), so
    sigma's nonzero spectrum is that of the n x n Gram matrix X^dag X.  The
    sender factors act on Psi one slot at a time, each a matmul on its slot's
    axis (the joint Kraus kron is never formed), and the W_t are gathers and
    phases.  The gradient is dS/dconj(X) = -X log2(X^dag X) (eigenvalues
    clipped at EIG_CLIP, the d tr(sigma) term left out as on the dense path),
    pulled back through the W_t and then through the factors in reverse,
    which gives each factor 2 dS/dconj(V_j) as a contraction with its input."""
    r, total = psi_t.shape
    # Factor j acts on axis d_j of its input (pre_j, d_j, post_j): pre_j holds
    # the environments, the rank and the slots already encoded, post_j the
    # slots still to go.  It puts its environment axis first, so the last
    # factor's output is already columns (e_m, ..., e_1, r) by rows D.
    shapes = [(r * env_dim**j * math.prod(dims[:j]), d,
               math.prod(dims[j + 1:]) * layout.receiver_dim) for j, d in enumerate(dims)]

    def members(vs):
        b = len(vs[0])
        y, inputs = psi_t, []
        for v, (pre, d, post) in zip(vs, shapes):
            inputs.append(y.reshape(-1, 1, pre, d, post))
            y = v.reshape(b, env_dim, 1, d, d) @ inputs[-1]
        x = np.take(y.reshape(b, -1, total), terms.gather, axis=-1)
        x *= terms.phase
        x = x.reshape(b, -1, total)
        gram = x.conj() @ x.swapaxes(-1, -2)
        trace_dev = np.abs(np.trace(gram, axis1=-2, axis2=-1) - trace)
        if trace_dev.max() > 1e-10:
            raise NumericalError(f"encoded output trace off by {trace_dev.max():.3e}")
        values, log2_gram = _entropy_and_log2(gram)
        # -X log2(X^dag X), as rows of X^T: -conj(log2 gram) X^T.
        grad = -log2_gram.conj() @ x
        grad = np.take(grad.reshape(b, -1, terms.gather.size), terms.inverse, axis=-1)
        grad = (grad * terms.phase_adj).sum(axis=-2)
        grads = [None] * len(dims)
        for j in reversed(range(len(dims))):
            pre, d, post = shapes[j]
            grad = grad.reshape(b, env_dim, pre, d, post)
            grads[j] = 2.0 * (grad @ _dagger(inputs[j])).sum(axis=2).reshape(b, -1, d)
            if j:
                grad = (_dagger(vs[j].reshape(b, env_dim, 1, d, d)) @ grad).sum(axis=1)
        return values, grads

    return members


def _entropy_objective(rho, channel, layout: SubsystemLayout, dims, env_dim: int):
    """objective(vs) -> (S(Lambda(encoded rho)) in bits, dS/dV per factor) for
    a stack of B encoders: vs holds per factor a (B, env_dim * d, d) stack of
    isometries, whose row blocks are its Kraus operators, and the result is
    the B values and per factor the (B, env_dim * d, d) gradients.

    Gradients are d/dRe + i d/dIm.  With G = Lambda^dag(log2 sigma),
    eigenvalues clipped at EIG_CLIP, the joint Kraus operators get
    dS/dconj(K_t) = -2 Tr_B[G (K_t x 1) rho]; the d tr(sigma) term is left
    out, as it vanishes along isometries.

    One builder, two member kernels: ``_factored_members`` for a Pauli
    channel when n = T E r <= D / FACTORED_COLUMN_RATIO (T nonzero terms,
    E = env_dim^(factors), r the rank of rho; T E is checked before the
    ``eigh`` of rho that gives r), ``_dense_members`` otherwise.  Each member
    is checked as the public functions check one operator: its output's
    trace to 1e-10 (sigma against its input, tr(X^dag X) against tr(rho)),
    finiteness, Hermiticity to 1e-8 and eigenvalues above -1e-10; a failure
    raises NumericalError for the whole call.  A stack is evaluated in
    slices (see STACK_ENTRY_CAP).
    """
    total = layout.total_dim
    budget = total // FACTORED_COLUMN_RATIO
    psi_t = rank = columns = n_terms = None
    if isinstance(channel, PauliChannelSpec):
        n_terms = int(np.count_nonzero(channel.joint))
        per_rank = n_terms * env_dim ** len(dims)
        if per_rank <= budget:
            psi_t = _low_rank_factor(rho)
        if psi_t is not None:
            rank, columns = len(psi_t), len(psi_t) * per_rank
    if columns is not None and columns <= budget:
        members = _factored_members(psi_t, np.trace(rho).real, _pauli_terms(channel, layout),
                                    layout, dims, env_dim)
        width, path = columns * total, "factored"
    else:
        members = _dense_members(rho, channel, layout, dims, env_dim)
        width, path = total * total, "dense"
    logger.debug("entropy objective: %s path, D = %d, rank %s, %s terms, %s columns",
                 path, total, rank, n_terms, columns)
    size = max(1, STACK_ENTRY_CAP // width)

    def objective(vs):
        parts = [members([v[lo:lo + size] for v in vs]) for lo in range(0, len(vs[0]), size)]
        return (np.concatenate([values for values, _ in parts]),
                [np.concatenate(g) for g in zip(*(grads for _, grads in parts))])

    return objective


def _on_chart(objective, v0s: Sequence[Sequence[np.ndarray]]):
    """(fun, point) for a stack of restarts, v0s[i] the start factors V0 of
    restart i.  fun(ids, xs) is the stacked objective at polar(V0_j + Delta_j)
    for the restarts ``ids``, row r of xs the chart point of restart ids[r],
    with its exact gradient in each row; point(i, x) holds the factors of
    restart i at x.

    Factors of equal shape share one chart stacked over restarts and factors,
    so an evaluation takes one batched SVD and one pullback per shape; x
    holds the Delta of each shape in turn, in order of its first factor, as
    interleaved real/imaginary pairs.  A non-finite value or gradient raises
    NumericalError, so the restart is aborted rather than recorded.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for j, v in enumerate(v0s[0]):
        groups.setdefault(v.shape, []).append(j)
    stacks = [(idx, np.stack([[v0[j] for j in idx] for v0 in v0s]))
              for idx in groups.values()]
    ends = np.cumsum([base[0].size for _, base in stacks])

    def charts(ids, xs):
        z = np.asarray(xs, dtype=float).view(complex)
        vs, pullbacks = [None] * len(v0s[0]), []
        for (idx, base), end in zip(stacks, ends):
            delta = z[:, end - base[0].size:end].reshape((len(ids),) + base.shape[1:])
            v, pullback = _polar_chart(base[ids], delta)
            for j, vj in zip(idx, v.swapaxes(0, 1)):
                vs[j] = vj
            pullbacks.append(pullback)
        return vs, pullbacks

    def fun(ids, xs):
        vs, pullbacks = charts(ids, xs)
        values, grads = objective(vs)
        grad = np.concatenate([
            pullback(np.stack([grads[j] for j in idx], axis=1)).reshape(len(ids), -1)
            for (idx, _), pullback in zip(stacks, pullbacks)], axis=1).view(float)
        finite = np.isfinite(values) & np.isfinite(grad).all(axis=1)
        if not finite.all():
            raise NumericalError(f"non-finite objective {values[~finite][0]} or gradient")
        return values, grad

    return fun, lambda i, x: [v[0] for v in charts([i], x[None])[0]]


def _members(call, ids, xs) -> list:
    """One outcome per member of a stacked ``call(ids, xs)``, which returns a
    tuple of arrays with one row per member: the member's row of each, or the
    error that aborts it.  A stacked call that raises NumericalError or
    FloatingPointError is repeated one member at a time, so that an error
    aborts only the member that raises it."""
    try:
        return list(zip(*call(ids, xs)))
    except (NumericalError, FloatingPointError) as exc:
        if len(ids) == 1:
            return [exc]
        return [out for i in range(len(ids))
                for out in _members(call, ids[i:i + 1], xs[i:i + 1])]


def _minimize_restarts(objective, dims, env_dim: int, cfg: OptimizerConfig, warm=()):
    """Best entropy over restarts, each one L-BFGS search of the polar chart
    around a plain start point, all run in lockstep by ``_lockstep`` on the
    stacked ``objective`` (see ``_entropy_objective``); returns (entropy,
    factors, trace).

    Restart 0 starts at the identity [1; 0], restarts 1..restarts-1 at seeded
    random isometries, and one warm restart follows per (entropy, factors)
    pair in ``warm``, starting at those factors and keeping the pair, exactly
    as given, as a candidate beside its search's result.  With env_dim > 1
    the identity and warm restarts search from polar(V0 + CPTP_KICK [0; X]),
    X seeded from cfg.seed.  An error in a restart's evaluation aborts that
    restart's search alone, and is logged in restart order once the search
    ends.  Ties break toward the lowest restart id, and within a warm
    restart toward its pair.
    """
    starts = [[np.eye(env_dim * d, d, dtype=complex) for d in dims]]
    for rid in range(1, cfg.restarts):
        rng = np.random.default_rng((cfg.seed, rid))
        starts.append([random_isometry(env_dim * d, d, rng) for d in dims])
    starts += [vs for _, vs in warm]
    if env_dim > 1:
        rng = np.random.default_rng(cfg.seed)
        kick = [np.vstack([np.zeros((d, d)),
                           CPTP_KICK * complex_gaussian((env_dim - 1) * d, d, rng)])
                for d in dims]
        for rid in (0, *range(cfg.restarts, len(starts))):
            starts[rid] = [_polar_chart(v, x)[0] for v, x in zip(starts[rid], kick)]

    fun, point = _on_chart(objective, starts)
    x0 = np.zeros(2 * sum(v.size for v in starts[0]))
    results = _lockstep(functools.partial(_members, fun), [x0] * len(starts),
                        cfg.max_iters)
    found = [[] for _ in range(cfg.restarts)] + [[pair] for pair in warm]
    trace: list[tuple[int, float]] = []
    best_value, best = np.inf, None
    for rid, (candidates, result) in enumerate(zip(found, results)):
        if isinstance(result, BaseException):
            logger.warning("restart %d aborted: %s: %s", rid, type(result).__name__, result)
        else:
            # Charted once it wins: one polar factor per search, not per restart.
            candidates.append((float(result.fun), functools.partial(point, rid, result.x)))
        if not candidates:
            continue
        value, vs = min(candidates, key=lambda c: c[0])
        trace.append((rid, value))
        if value < best_value:
            best_value, best = value, vs
    if best is None:
        raise OptimizerDivergedError("no optimizer restart produced a finite entropy")
    return best_value, best() if callable(best) else best, tuple(trace)


def _minimize_entropy(rho, channel, layout: SubsystemLayout, dims, env_dim: int, cfg):
    """Minimize over encoders with these factors, warm-started from the
    restricted search's best (entropy, factors): CPTP from the unitary one as
    [U; 0], global from the local one as the kron of its factors.  The pair
    stays a candidate with its entropy as found, so the minimum never exceeds
    the restricted one, not even by rounding."""
    warm = []
    if env_dim > 1:
        entropy, unitary, _ = _minimize_entropy(rho, channel, layout, dims, 1, cfg)
        warm.append((entropy, [np.pad(u, ((0, (env_dim - 1) * len(u)), (0, 0)))
                               for u in unitary]))
    elif len(dims) < layout.k:
        entropy, local, _ = _minimize_entropy(rho, channel, layout, layout.sender_dims, 1, cfg)
        warm.append((entropy, [kron_all(local)]))
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


def _crosscheck(capacity, ks, channel, rho, layout) -> float:
    """Holevo quantity of the attaining ensemble {1/D_A^2, V_i E}, E the
    encoder with Kraus stack ``ks``: under the certified covariance each
    member's output is V_i sigma V_i^dag, sigma = Lambda(E(rho)), and the V_i
    average those to 1/D_A x Tr_A sigma, so
    chi = log2 D_A + S(Tr_A sigma) - S(sigma)."""
    sigma = apply_channel(channel, _encode_with_kraus(rho, ks, layout), layout)
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
        if not isinstance(env_dim, numbers.Integral) or not 1 <= env_dim <= d * d:
            raise ParameterError(
                f"env_dim must be an integer in [1, {d * d}] for a dim-{d} slot, got {env_dim!r}"
            )
    entries = (cfg.restarts + 1) * env_dim * sum(d * d for d in dims)
    if entries > START_ENTRY_CAP:
        raise SizeLimitError(f"restarts {cfg.restarts}: start-point size {entries} "
                             f"exceeds cap {START_ENTRY_CAP}")
    _certify(channel, layout, cfg)
    entropy, vs, trace = _minimize_entropy(rho, channel, layout, dims, env_dim, cfg)
    ks = _kron_stacks([v.reshape(env_dim, d, d) for v, d in zip(vs, dims)])
    encoder = CptpMap(ks) if as_cptp else ks[0]
    log_da = math.log2(layout.sender_dim)
    s_b = _receiver_entropy(apply_channel(channel, rho, layout), layout)
    capacity = log_da + s_b - entropy
    chi = _crosscheck(capacity, ks, channel, rho, layout)
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
    unitary search, which stays a candidate with its entropy, so the result
    is never below the unitary capacity, not even by rounding.
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

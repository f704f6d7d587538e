"""Covariant noisy channels: joint Pauli channels with pairwise correlation
degrees, depolarizing and fully-correlated special cases, Kraus-form CPTP
maps, and a numerical covariance certifier.

A joint Pauli channel randomly conjugates the state by a tensor product of
displacement operators, one per affected party.  The joint probability tensor
is indexed per party by the flattened label ``l = m*d + n``.  ``acts_on``
assigns each party to a layout slot; several parties may share one slot, in
which case they tile it in party order (this is how a merged
product-dimension receiver slot hosts the b_1..b_k parties).

A Pauli channel is diagonal in the Weyl basis, with eigenvalues given by the
symplectic Fourier transform of its error rates, so applying it never sums
the terms: it gathers the shifted diagonals of the state, multiplies by the
eigenvalues between two products with the group Fourier matrix, and scatters
back.  The kernel for one channel and layout is four D x D arrays,
O(D^2) memory whatever the number of terms; the adjoint channel runs on the
same kernel with the conjugate eigenvalues.  The factored entropy objective
uses the nonzero terms themselves, each a lifted digit permutation and phase
(``_pauli_terms``), built from the same digit bookkeeping (``_digits``).

Kraus maps and their adjoints conjugate through ``linalg._conjugate_leading``,
which applies a stack of operators to the leading factor of a state without
forming K x 1.  ``_stacked_maps`` is the one place that reads a channel's
type: ``apply_channel`` (the one apply entry, also named ``apply_pauli``),
``adjoint_map``, ``verify_covariance`` and the entropy objective all take
their maps from it.  ``apply_cptp``, for a Kraus map on some of the slots,
permutes them to the front and back around the conjugation.  The covariance
check conjugates by its sender operators, displacement products with one
unit-modulus entry per row, as index gathers and phases, a chunk of
operators at a time, and applies the channel once per chunk.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    ChannelError,
    LayoutError,
    NumericalError,
    ParameterError,
    ProbabilityError,
    REQUIRED,
    SizeLimitError,
    check_fields,
    json_field,
)
from .linalg import (
    SubsystemLayout,
    _conjugate_leading,
    _kron_stacks,
    _on_layout,
    as_complex_matrix,
    check_probabilities,
    permute_slots,
    random_density_matrix,
)

JOINT_TENSOR_CAP = 16_000_000  # dense entries
CORRELATION_PAIR_CAP = 15      # the partition sum grows as Bell(parties)

# sigma_0..sigma_3 expressed as displacement labels l = m*2 + n (conjugation
# by V_11 = -i*sigma_2 equals conjugation by sigma_2).
PAULI_TO_LABEL = (0, 2, 3, 1)


@dataclass(frozen=True, eq=False)
class SinglePartyPauliSpec:
    """Probability table q_mn for one use of a d-dimensional Pauli channel."""

    d: int
    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (self.d, self.d):
            raise ProbabilityError(f"q table must be {self.d}x{self.d}, got {q.shape}")
        check_probabilities(q, "channel probability", 1e-12)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True, eq=False)
class CorrelationSpec:
    """Pairwise correlation degrees mu_jl for a given number of parties.

    Stored as a symmetric ``parties x parties`` matrix with zero diagonal;
    entry (j, l) correlates channel use j with channel use l.
    """

    mu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 2 or mu.shape[0] != mu.shape[1]:
            raise ParameterError(f"mu must be square, got shape {mu.shape}")
        # Written so that a NaN entry fails it; checked first, as an infinite
        # entry would make the symmetry check's difference NaN.
        if not (mu.min() >= 0 and mu.max() <= 1):
            raise ParameterError("correlation degrees must lie in [0, 1]")
        if np.abs(mu - mu.T).max() > 0:
            raise ParameterError("mu must be symmetric")
        if np.abs(np.diag(mu)).max() > 0:
            raise ParameterError("mu diagonal must be zero")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)

    @property
    def parties(self) -> int:
        return self.mu.shape[0]

    @classmethod
    def uniform(cls, parties: int, value: float) -> "CorrelationSpec":
        mu = np.full((parties, parties), float(value))
        np.fill_diagonal(mu, 0.0)
        return cls(mu)


@dataclass(frozen=True, eq=False)
class PauliChannelSpec:
    """Joint Pauli channel: probability tensor over per-party labels.

    ``joint`` has one axis of length d_i^2 per party; ``acts_on[i]`` is the
    layout slot party i conjugates.
    """

    party_dims: tuple[int, ...]
    joint: np.ndarray
    acts_on: tuple[int, ...]
    # Weyl kernels by layout dims, built by _weyl_kernel on first use.
    _kernels: dict = field(default_factory=dict, init=False, repr=False)
    # Terms as gathers and phases by layout dims, built by the factored
    # entropy objective on first use.
    _terms: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        party_dims = tuple(int(d) for d in self.party_dims)
        if min(party_dims, default=2) < 2:
            raise ParameterError(f"party dimensions must be >= 2, got {list(party_dims)}")
        acts_on = tuple(int(s) for s in self.acts_on)
        joint = np.asarray(self.joint, dtype=float)
        expected = tuple(d * d for d in party_dims)
        if joint.shape != expected:
            raise ProbabilityError(
                f"joint tensor shape {joint.shape} does not match {expected}"
            )
        if joint.size > JOINT_TENSOR_CAP:
            raise SizeLimitError(f"joint tensor has {joint.size} entries")
        if len(acts_on) != len(party_dims):
            raise LayoutError("need one slot index per party")
        check_probabilities(joint, "joint probability", 1e-10)
        joint.setflags(write=False)
        object.__setattr__(self, "party_dims", party_dims)
        object.__setattr__(self, "acts_on", acts_on)
        object.__setattr__(self, "joint", joint)

    def with_acts_on(self, acts_on: Sequence[int]) -> "PauliChannelSpec":
        return PauliChannelSpec(self.party_dims, self.joint, tuple(acts_on))


@dataclass(frozen=True, eq=False)
class CptpMap:
    """Completely positive trace-preserving map as one read-only (T, n, m) Kraus stack."""

    kraus: np.ndarray

    def __post_init__(self):
        ops = [as_complex_matrix(k, "kraus") for k in self.kraus]
        if not ops or any(k.shape != ops[0].shape for k in ops):
            raise ChannelError("need one or more Kraus operators, all of one shape")
        kraus = np.stack(ops)
        completeness = (kraus.conj().transpose(0, 2, 1) @ kraus).sum(axis=0)
        dev = np.abs(completeness - np.eye(kraus.shape[2])).max()
        if dev > 1e-9:
            raise ChannelError(f"Kraus completeness violated by {dev:.3e}")
        kraus.setflags(write=False)
        object.__setattr__(self, "kraus", kraus)


def depolarizing_probs(d: int, p: float) -> SinglePartyPauliSpec:
    """Single-party table for a d-dimensional depolarizing channel.

    q_00 = 1 - p + p/d^2 and q_mn = p/d^2 otherwise.
    """
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"noise strength must be in [0, 1], got {p}")
    q = np.full((d, d), p / d**2)
    q[0, 0] += 1.0 - p
    return SinglePartyPauliSpec(d, q)


def product_probs(
    singles: Sequence[SinglePartyPauliSpec], acts_on: Sequence[int] | None = None
) -> PauliChannelSpec:
    """Uncorrelated joint channel: outer product of the single-party tables."""
    if not singles:
        raise LayoutError("need at least one party")
    joint = np.array(1.0)
    for s in singles:
        joint = np.multiply.outer(joint, s.q.ravel())
    if acts_on is None:
        acts_on = range(len(singles))
    return PauliChannelSpec(tuple(s.d for s in singles), joint, tuple(acts_on))


def correlated_probs(
    singles: Sequence[SinglePartyPauliSpec],
    corr: CorrelationSpec,
    acts_on: Sequence[int] | None = None,
) -> PauliChannelSpec:
    """Joint tensor of a pairwise-correlated Pauli channel.

    Each pair (j, l) is independently "on" with probability mu_jl; labels
    within every connected component of the on pairs are forced equal, and
    the component contributes the single-party factor of its lowest-index
    member.  The sum runs over the set partitions those components induce,
    each weighted by the probability that the components are exactly its
    blocks.  This reproduces the uncorrelated product at mu = 0 and the
    fully correlated diagonal at mu = 1, and sums to one for every mu.
    """
    parties = len(singles)
    if parties < 2:
        raise LayoutError("correlations need at least two parties")
    if corr.parties != parties:
        raise LayoutError(
            f"correlation table is for {corr.parties} parties, got {parties} singles"
        )
    d = singles[0].d
    if any(s.d != d for s in singles):
        raise LayoutError("correlated parties must share one dimension")
    n_labels = d * d
    if n_labels ** parties > JOINT_TENSOR_CAP:
        raise SizeLimitError(f"joint tensor would have {n_labels ** parties} entries")
    pairs = parties * (parties - 1) // 2
    if pairs > CORRELATION_PAIR_CAP:
        raise SizeLimitError(
            f"{pairs} correlation pairs exceed cap {CORRELATION_PAIR_CAP}"
        )
    tables = [s.q.ravel() for s in singles]

    joint = np.zeros((n_labels,) * parties)
    for blocks, weight in _component_partitions(corr.mu):
        term = weight * functools.reduce(np.multiply.outer, [tables[b[0]] for b in blocks])
        # Every member of block b takes block b's label: add the term onto the
        # diagonal view whose axis b steps along all of block b's axes at once.
        strides = [sum(joint.strides[p] for p in block) for block in blocks]
        diagonal = np.lib.stride_tricks.as_strided(joint, term.shape, strides)
        diagonal += term
    if acts_on is None:
        acts_on = range(parties)
    return PauliChannelSpec((d,) * parties, joint, tuple(acts_on))


def _component_partitions(mu: np.ndarray):
    """Yield (blocks, weight) for every set partition of the parties.

    The weight is the probability that the connected components of the
    random graph with independent edges (j, l) present w.p. mu_jl are exactly
    the blocks: each block is connected and no edge crosses two blocks.
    Blocks are tuples of party indices ordered by lowest member; partitions
    of weight zero are skipped.
    """
    parties = mu.shape[0]
    absent = 1.0 - mu
    members = [tuple(p for p in range(parties) if mask >> p & 1)
               for mask in range(1 << parties)]
    cuts = {}

    def cut(a, b):
        """Probability that no edge joins the parties of masks a and b."""
        if (a, b) not in cuts:
            cuts[a, b] = math.prod(absent[j, l] for j in members[a] for l in members[b])
        return cuts[a, b]

    def submasks(mask):
        sub = mask
        while True:
            yield sub
            if sub == 0:
                return
            sub = (sub - 1) & mask

    # connected[S]: the component of min(S) inside S is one of its subsets T,
    # reached with probability connected[T] * cut(T, S \ T); these sum to one.
    connected = {}
    for mask in range(1, 1 << parties):
        low = mask & -mask
        others = sum(connected[low | sub] * cut(low | sub, mask ^ (low | sub))
                     for sub in submasks(mask ^ low) if low | sub != mask)
        # Rounding can leave -1e-17 where a block cannot connect.
        connected[mask] = max(1.0 - others, 0.0)

    def split(rest):
        if rest == 0:
            yield (), 1.0
            return
        low = rest & -rest
        for sub in submasks(rest ^ low):
            block = low | sub
            weight = connected[block] * cut(block, rest ^ block)
            if weight == 0.0:
                continue
            for blocks, tail in split(rest ^ block):
                yield (members[block],) + blocks, weight * tail

    yield from split((1 << parties) - 1)


def fully_correlated_probs(parties: int, q: Sequence[float]) -> PauliChannelSpec:
    """All qubit parties suffer the identical Pauli error, sampled once.

    ``q`` holds the four probabilities in sigma order (identity, sigma_1,
    sigma_2, sigma_3).
    """
    if parties < 1:
        raise ParameterError(f"need at least one party, got {parties}")
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise ProbabilityError(f"need 4 probabilities, got shape {q.shape}")
    check_probabilities(q, "channel probability", 1e-12)
    if 4 ** parties > JOINT_TENSOR_CAP:
        raise SizeLimitError(f"joint tensor would have {4 ** parties} entries")
    joint = np.zeros((4,) * parties)
    for sigma, prob in enumerate(q):
        label = PAULI_TO_LABEL[sigma]
        joint[(label,) * parties] = prob
    return PauliChannelSpec((2,) * parties, joint, tuple(range(parties)))


@dataclass(frozen=True, eq=False)
class _WeylKernel:
    """A joint Pauli channel as a pointwise multiply in the Weyl domain.

    Read the full-space index as mixed-radix digits: one per party in kron
    order (parties tiling a slot in party order), one per untouched slot.
    With ``chi(a, b) = exp(2 pi i sum_f a_f b_f / r_f)`` and ``+`` taken per
    digit modulo its radix ``r_f``, the displacement identities give

        Lambda(rho)[j+delta, j] = sum_m Qhat(m, delta) rho[j+delta+m, j+m],
        Qhat(m, delta) = sum_n q(m, n) chi(delta, n).

    Each row ``delta`` of the gathered matrix ``R[delta, j] = rho[j+delta, j]``
    is a group cross-correlation, so the group Fourier transform over ``j``
    diagonalizes it with eigenvalues
    ``lambda(delta, xi) = sum_mn q(m, n) chi(delta, n) chi(m, xi)``.
    Four D x D arrays, whatever the number of terms.
    """

    gather: np.ndarray   # [delta, j] -> flat index of (j + delta, j)
    fourier: np.ndarray  # W[j, xi] = conj(chi(j, xi))
    eigen: np.ndarray    # lambda(delta, xi) / D
    inverse: np.ndarray  # conj(W)


def _digits(spec: PauliChannelSpec, layout: SubsystemLayout):
    """(radices, parties, digits): the full-space index read as mixed-radix
    digits, one per party in kron order (parties tiling a slot in party
    order) and one per untouched slot; the party on each digit, None for an
    untouched slot; and every index's digits as a (digits, D) array.  Raises
    LayoutError unless each slot's parties tile its dimension."""
    dims = layout.dims
    per_slot: list[list[int]] = [[] for _ in dims]
    for party, slot in enumerate(spec.acts_on):
        if not 0 <= slot < len(dims):
            raise LayoutError(f"acts_on slot {slot} out of range for {len(dims)} slots")
        per_slot[slot].append(party)
    radices: list[int] = []
    parties: list[int | None] = []
    for slot, members in enumerate(per_slot):
        tile = [spec.party_dims[p] for p in members] or [dims[slot]]
        if math.prod(tile) != dims[slot]:
            raise LayoutError(f"parties {members} tile dimension {math.prod(tile)}, "
                              f"slot {slot} has {dims[slot]}")
        radices += tile
        parties += members or [None]
    return radices, parties, np.indices(radices).reshape(len(radices), -1)


def _weyl_kernel(spec: PauliChannelSpec, layout: SubsystemLayout) -> _WeylKernel:
    """The kernel of ``spec`` on ``layout``, built on first use per slot dims."""
    kernel = spec._kernels.get(layout.dims)
    if kernel is not None:
        return kernel
    radices, parties, digits = _digits(spec, layout)
    touched = [p for p in parties if p is not None]
    # lambda varies along touched digits only
    extent = [r if p is not None else 1 for r, p in zip(radices, parties)]
    total = layout.total_dim

    # q over (m digits, n digits), transformed over n to delta and over m to xi.
    t = len(touched)
    q = spec.joint.reshape([x for d in spec.party_dims for x in (d, d)])
    q = q.transpose([2 * p for p in touched] + [2 * p + 1 for p in touched])
    lam = np.fft.ifftn(q, axes=list(range(t, 2 * t)), norm="forward")
    lam = np.fft.ifftn(lam, axes=list(range(t)), norm="forward")
    lam = lam.transpose(list(range(t, 2 * t)) + list(range(t))).reshape(extent * 2)
    eigen = np.broadcast_to(lam, radices * 2).reshape(total, total) / total

    shifted = np.zeros((total, total), dtype=np.intp)
    for r, dig in zip(radices, digits):
        shifted = shifted * r + np.add.outer(dig, dig) % r
    fourier = _kron_stacks([
        np.exp(-2j * np.pi * (np.multiply.outer(np.arange(r), np.arange(r)) % r) / r)[None]
        for r in radices
    ])[0]
    kernel = _WeylKernel(shifted * total + np.arange(total), fourier, eigen, fourier.conj())
    spec._kernels[layout.dims] = kernel
    return kernel


@dataclass(frozen=True, eq=False)
class _PauliTerms:
    """The nonzero terms sqrt(q_t) W_t of a joint Pauli channel, each a
    lifted digit permutation and phase: (sqrt(q_t) W_t x)[i] =
    phase[t, i] x[gather[t, i]], and its adjoint
    (sqrt(q_t) W_t^dag y)[j] = phase_adj[t, j] y[inverse[t, j]].  Four
    (T, D) arrays, O(T D) to build; ``inverse`` is offset by t D so that it
    indexes the flattened (T, D) stack of the terms' outputs."""

    gather: np.ndarray
    phase: np.ndarray
    inverse: np.ndarray
    phase_adj: np.ndarray


def _pauli_terms(spec: PauliChannelSpec, layout: SubsystemLayout) -> _PauliTerms:
    """The terms of ``spec`` on ``layout``, built on first use per slot dims.

    A party with label (m, n) acts on its digit k as V_mn, which maps
    x[k] to exp(2 pi i k n / d) x[k + m]: the gather adds m to the digit, its
    inverse subtracts it, and the phase collects k n / d, digit by digit, for
    every term at once.
    """
    terms = spec._terms.get(layout.dims)
    if terms is not None:
        return terms
    radices, parties, digits = _digits(spec, layout)
    total = layout.total_dim
    labels = np.nonzero(spec.joint)
    gather = np.zeros((len(labels[0]), total), dtype=np.intp)
    inverse = np.zeros_like(gather)
    turns = np.zeros(gather.shape)
    for r, p, dig in zip(radices, parties, digits):
        if p is None:
            gather = gather * r + dig
            inverse = inverse * r + dig
            continue
        m, n = np.divmod(labels[p], r)
        gather = gather * r + (dig + m[:, None]) % r
        inverse = inverse * r + (dig - m[:, None]) % r
        turns += dig * n[:, None] % r / r
    phase = np.sqrt(spec.joint[labels])[:, None] * np.exp(2j * np.pi * turns)
    rows = np.arange(len(gather))[:, None]
    terms = _PauliTerms(gather, phase, inverse + total * rows, phase[rows, inverse].conj())
    spec._terms[layout.dims] = terms
    return terms


def _weyl_apply(kernel: _WeylKernel, rho: np.ndarray, eigen: np.ndarray) -> np.ndarray:
    """``kernel``'s gather, Fourier products and scatter around a multiply by
    ``eigen``, its eigenvalues for the channel, conjugated for the adjoint, on
    each member of a (..., D, D) stack, whose trace it checks member by member."""
    lead = rho.shape[:-2]
    shifted = np.take(rho.reshape(lead + (-1,)), kernel.gather, axis=-1)
    result = ((shifted @ kernel.fourier) * eigen) @ kernel.inverse
    # Row delta = 0 holds the diagonal, of the state and of the output.
    trace_dev = np.abs(result[..., 0, :].sum(axis=-1) - shifted[..., 0, :].sum(axis=-1))
    if trace_dev.max() > 1e-10:
        raise NumericalError(f"channel failed to preserve trace by {trace_dev.max():.3e}")
    out = np.empty(rho.shape, dtype=complex)
    out.reshape(lead + (-1,))[..., kernel.gather] = result
    return out


def apply_cptp(
    cptp: CptpMap, rho, slots: Sequence[int], layout: SubsystemLayout
) -> np.ndarray:
    """Apply a Kraus map on the chosen slots (in the map's slot order),
    identity elsewhere: permute those slots to the front, conjugate the
    leading factor, permute back."""
    rho = as_complex_matrix(rho, "rho")
    dims = layout.dims
    slots = [int(s) for s in slots]
    perm = slots + [s for s in range(len(dims)) if s not in slots]
    front = permute_slots(rho, dims, perm)
    moved = [dims[s] for s in perm]
    out = _kraus_apply(cptp.kraus, front, math.prod(moved[:len(slots)]))
    return permute_slots(out, moved, [perm.index(s) for s in range(len(dims))])


def _kraus_apply(kraus: np.ndarray, rho: np.ndarray, a: int) -> np.ndarray:
    """A Kraus stack on the leading factor, of dimension ``a``, of each member
    of a (..., n, n) stack, whose trace it checks member by member."""
    out = _conjugate_leading(rho, kraus, a)
    trace_dev = np.abs(np.trace(out, axis1=-2, axis2=-1) - np.trace(rho, axis1=-2, axis2=-1))
    if trace_dev.max() > 1e-9:
        raise NumericalError(f"CPTP map failed to preserve trace by {trace_dev.max():.3e}")
    return out


def apply_channel(channel, rho, layout: SubsystemLayout) -> np.ndarray:
    """Apply a joint Pauli spec, on its cached Weyl kernel, or a CPTP map on the full space."""
    forward = _stacked_maps(channel, layout)[0]
    return forward(_on_layout(as_complex_matrix(rho, "rho"), layout.total_dim))


apply_pauli = apply_channel


def adjoint_map(channel, layout: SubsystemLayout):
    """Lambda^dag on ``layout``: the map with tr[Y Lambda(X)] = tr[Lambda^dag(Y) X].

    A Pauli channel's adjoint is the Pauli channel with every label (m, n)
    mapped to (-m, -n) mod d, since V_{-m,-n} is V_mn^dag up to a phase; with
    real error rates that is the conjugate eigenvalues on the channel's own
    cached Weyl kernel.  A Kraus map's is Y -> sum_t K_t^dag Y K_t.
    """
    adjoint = _stacked_maps(channel, layout)[1]
    total = layout.total_dim
    return lambda y: adjoint(_on_layout(y, total))


def _stacked_maps(channel, layout: SubsystemLayout):
    """(Lambda, Lambda^dag) on (..., D, D) stacks of operators on ``layout``,
    member by member and without the public functions' input checks; the
    one function that reads a channel's type.  They are the channel's Weyl
    kernel with its eigenvalues, or its Kraus stack; Lambda^dag conjugates
    them at each call, so a forward-only caller forms no adjoint operands.
    Lambda checks each member's trace."""
    if isinstance(channel, PauliChannelSpec):
        kernel = _weyl_kernel(channel, layout)
        return (lambda x: _weyl_apply(kernel, x, kernel.eigen),
                lambda y: _weyl_apply(kernel, y, kernel.eigen.conj()))
    if isinstance(channel, CptpMap):
        kraus, total = channel.kraus, layout.total_dim
        return (lambda x: _kraus_apply(kraus, x, total),
                lambda y: _conjugate_leading(y, kraus.conj().transpose(0, 2, 1), total))
    raise ChannelError(f"unsupported channel type {type(channel).__name__}")


# Entries of the largest (c, D, D) stack that ``verify_covariance`` conjugates
# and passes to the channel in one call: c = max(1, CERTIFY_ENTRY_CAP // D^2)
# sender operators, 5 at D = 27 and one per call from D = 64, where the
# per-call overhead that stacking saves is small against the channel apply.
# Each chunk holds its c D^2 gather index, which for all 18 generators at
# D = 1024 would be 151 MB.
CERTIFY_ENTRY_CAP = 2**12


def verify_covariance(
    spec,
    ops,
    layout: SubsystemLayout,
    trials: int = 20,
    seed: int = 0,
) -> float:
    """Max deviation of the covariance property over random states.

    Checks Lambda(V rho V^dag) = V Lambda(rho) V^dag for every sender-space
    unitary V in ``ops``, a sequence or (T, D_A, D_A) stack of monomial
    unitaries such as ``sender_generators`` or ``local_encoding_set`` (each
    extended by identity on the receiver slot).  Each V x 1 is a lifted
    permutation and phase (``_monomial_gathers``); a trial conjugates the
    operators in chunks of at most CERTIFY_ENTRY_CAP entries, each one
    gather into a (c, D, D) stack (``_monomial_conjugate``), and the channel,
    a Pauli spec or any full-space CPTP map, runs once per chunk through its
    cached kernel or Kraus stack.  No trials or no operators leave nothing
    to certify and raise ParameterError.
    """
    ops = np.asarray(ops, dtype=complex)
    if trials < 1 or not len(ops):
        raise ParameterError(f"need trials >= 1 and operators, got {trials} and {len(ops)}")
    perms, phases = _monomial_gathers(ops, layout)
    forward = _stacked_maps(spec, layout)[0]
    total = layout.total_dim
    size = max(1, CERTIFY_ENTRY_CAP // total**2)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        rho = random_density_matrix(total, rng)
        out = forward(rho)
        for start in range(0, len(perms), size):
            perm, phase = perms[start:start + size], phases[start:start + size]
            index = perm[:, :, None] * total + perm[:, None, :]
            lhs = forward(_monomial_conjugate(rho, index, phase))
            rhs = _monomial_conjugate(out, index, phase)
            worst = max(worst, np.abs(lhs - rhs).max())
    return worst


def _monomial_conjugate(x: np.ndarray, index: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """The (c, D, D) stack of (V_t x 1) x (V_t x 1)^dag for c operators of
    ``_monomial_gathers``, P and f their rows: one flat gather of the D x D
    ``x`` with ``index = P[:, :, None] * D + P[:, None, :]``, then
    f[:, :, None] * y * conj(f)[:, None, :] multiplied into the gathered
    copy, since at D = 256 a fresh product costs twice the gather and both
    multiplies together."""
    y = np.take(x, index)
    np.multiply(phase[:, :, None], y, out=y)
    return np.multiply(y, phase.conj()[:, None, :], out=y)


def _monomial_gathers(ops: np.ndarray, layout: SubsystemLayout):
    """The sender operators V of a (T, D_A, D_A) stack, each checked to be a
    monomial unitary (one unit-modulus entry in each row and each column),
    as two (T, D) arrays (P, f) with

        ((V_t x 1) x (V_t x 1)^dag)[i, j] = f[t, i] x[P[t, i], P[t, j]] conj(f[t, j]).

    With V[i, perm[i]] = phase[i] and b = D / D_A, the lifted permutation is
    P[i*b + y] = perm[i]*b + y and the lifted phase f[i*b + y] = phase[i].
    Two length-D vectors per operator; no D x D index, no K x 1.
    """
    d_a = layout.sender_dim
    if ops.ndim != 3 or ops.shape[1:] != (d_a, d_a):
        raise LayoutError(
            f"operator stack of shape {ops.shape} is not (T, {d_a}, {d_a}) "
            f"for sender dimension {d_a}"
        )
    for axis, line in ((2, "row"), (1, "column")):
        counts = np.count_nonzero(ops, axis=axis)
        if counts.min() != 1 or counts.max() != 1:
            t, i = np.argwhere(counts != 1)[0]
            raise ParameterError(f"operator {t} is not a monomial unitary: {line} {i} "
                                 f"has {counts[t, i]} nonzero entries")
    # One nonzero per row: in C order they are the rows' entries in turn.
    nonzero = np.nonzero(ops)
    perms = nonzero[2].reshape(len(ops), d_a)
    phases = ops[nonzero].reshape(len(ops), d_a)
    off = np.abs(np.abs(phases) - 1.0).max(axis=1)
    # Written so that a NaN entry fails it.
    unit = off <= 1e-12
    if not unit.all():
        t = (~unit).argmax()
        raise ParameterError(f"operator {t} is not a monomial unitary: an entry's "
                             f"modulus is off 1 by {float(off[t])!r}")
    b = layout.total_dim // d_a
    lifted = (perms[..., None] * b + np.arange(b)).reshape(len(ops), -1)
    return lifted, np.repeat(phases, b, axis=1)


def channel_to_json(spec: PauliChannelSpec) -> dict:
    """JSON document for a joint Pauli channel (canonical joint form)."""
    return {
        "party_dims": list(spec.party_dims),
        "acts_on": list(spec.acts_on),
        "shape": list(spec.joint.shape),
        "joint": [float(x) for x in spec.joint.ravel()],
    }


def channel_from_json(doc: dict) -> PauliChannelSpec:
    """Parse either the joint form or the singles+mu correlated form.

    Joint form: ``{"party_dims", "joint", "shape", "acts_on"?}``.
    Correlated form: ``{"parties", "d", "singles", "mu", "acts_on"?}`` where
    ``singles`` is one d x d table per party and ``mu`` the symmetric
    correlation matrix, or one degree for every pair.  A missing, mistyped,
    mis-sized or unknown field raises ChannelError naming it.
    """
    if not isinstance(doc, dict):
        raise ChannelError(f"channel: expected an object, got {type(doc).__name__}")

    def read(name: str, kind, default=REQUIRED):
        return json_field(doc, f"channel.{name}", kind, default, ChannelError)

    if "joint" in doc:
        check_fields(doc, "channel", ("party_dims", "joint", "shape", "acts_on"), ChannelError)
        party_dims = read("party_dims", tuple)
        joint = np.asarray(read("joint", list), dtype=float)
        shape = read("shape", tuple)
        if min(shape, default=0) < 0:
            raise ChannelError(f"channel: 'shape' {list(shape)} has a negative entry")
        if joint.size != math.prod(shape):
            raise ChannelError(f"channel: 'joint' has {joint.size} entries, "
                               f"'shape' {list(shape)} needs {math.prod(shape)}")
        acts_on = read("acts_on", tuple, tuple(range(len(party_dims))))
        return PauliChannelSpec(party_dims, joint.reshape(shape), acts_on)
    check_fields(doc, "channel", ("parties", "d", "singles", "mu", "acts_on"), ChannelError)
    parties = read("parties", int)
    d = read("d", int)
    singles = [SinglePartyPauliSpec(d, t) for t in read("singles", list)]
    if len(singles) != parties:
        raise ChannelError(f"channel: 'singles' has {len(singles)} tables, "
                           f"'parties' is {parties}")
    mu = read("mu", (float, list))
    corr = CorrelationSpec(mu) if isinstance(mu, list) else CorrelationSpec.uniform(parties, mu)
    return correlated_probs(singles, corr, read("acts_on", tuple, None))

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
symplectic Fourier transform of its error rates, so ``apply_pauli`` never
sums the terms: it gathers the shifted diagonals of the state, multiplies by
the eigenvalues between two products with the group Fourier matrix, and
scatters back.  The kernel for one channel and layout is four D x D arrays,
O(D^2) memory whatever the number of terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .displacement import displacement_op
from .errors import (
    ChannelError,
    LayoutError,
    NumericalError,
    ParameterError,
    ProbabilityError,
    SizeLimitError,
)
from .linalg import (
    SubsystemLayout,
    as_complex_matrix,
    kron_all,
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
        if q.min() < 0:
            raise ProbabilityError(f"negative channel probability {q.min()!r}")
        if abs(q.sum() - 1.0) > 1e-12:
            raise ProbabilityError(f"channel probabilities sum to {q.sum()!r}")
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
        if np.abs(mu - mu.T).max() > 0:
            raise ParameterError("mu must be symmetric")
        if np.abs(np.diag(mu)).max() > 0:
            raise ParameterError("mu diagonal must be zero")
        if mu.min() < 0 or mu.max() > 1:
            raise ParameterError("correlation degrees must lie in [0, 1]")
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
    # Weyl kernels by layout dims, built by apply_pauli on first use.
    _kernels: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        party_dims = tuple(int(d) for d in self.party_dims)
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
        if joint.min() < 0:
            raise ProbabilityError(f"negative joint probability {joint.min()!r}")
        if abs(joint.sum() - 1.0) > 1e-10:
            raise ProbabilityError(f"joint tensor sums to {joint.sum()!r}")
        joint.setflags(write=False)
        object.__setattr__(self, "party_dims", party_dims)
        object.__setattr__(self, "acts_on", acts_on)
        object.__setattr__(self, "joint", joint)

    @property
    def parties(self) -> int:
        return len(self.party_dims)

    def with_acts_on(self, acts_on: Sequence[int]) -> "PauliChannelSpec":
        return PauliChannelSpec(self.party_dims, self.joint, tuple(acts_on))


@dataclass(frozen=True, eq=False)
class CptpMap:
    """Kraus representation of a completely positive trace-preserving map."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.kraus:
            raise ChannelError("need at least one Kraus operator")
        ops = tuple(as_complex_matrix(k, "kraus") for k in self.kraus)
        shape = ops[0].shape
        if any(k.shape != shape for k in ops):
            raise ChannelError("all Kraus operators must share one shape")
        completeness = sum(k.conj().T @ k for k in ops)
        dev = np.abs(completeness - np.eye(shape[1])).max()
        if dev > 1e-9:
            raise ChannelError(f"Kraus completeness violated by {dev:.3e}")
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "kraus", ops)

    @property
    def in_dim(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.kraus[0].shape[0]


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
        # Every member of block b takes block b's label: broadcast the term
        # onto the diagonal where those labels are equal.
        grid = np.ix_(*[np.arange(n_labels)] * len(blocks))
        owner = {p: b for b, block in enumerate(blocks) for p in block}
        joint[tuple(grid[owner[p]] for p in range(parties))] += term
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

    def members(mask):
        return [p for p in range(parties) if mask >> p & 1]

    def cut(a, b):
        return math.prod(absent[j, l] for j in members(a) for l in members(b))

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
                yield (tuple(members(block)),) + blocks, weight * tail

    yield from split((1 << parties) - 1)


def fully_correlated_probs(
    parties: int, q: Sequence[float], d: int = 2
) -> PauliChannelSpec:
    """All parties suffer the identical qubit Pauli error, sampled once.

    ``q`` holds the four probabilities in sigma order (identity, sigma_1,
    sigma_2, sigma_3).
    """
    if d != 2:
        raise ParameterError("fully correlated construction is defined for d=2")
    if parties < 1:
        raise ParameterError(f"need at least one party, got {parties}")
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise ProbabilityError(f"need 4 probabilities, got shape {q.shape}")
    if q.min() < 0 or abs(q.sum() - 1.0) > 1e-12:
        raise ProbabilityError(f"invalid probability vector {q!r}")
    if 4 ** parties > JOINT_TENSOR_CAP:
        raise SizeLimitError(f"joint tensor would have {4 ** parties} entries")
    joint = np.zeros((4,) * parties)
    for sigma, prob in enumerate(q):
        label = PAULI_TO_LABEL[sigma]
        joint[(label,) * parties] = prob
    return PauliChannelSpec((2,) * parties, joint, tuple(range(parties)))


def _slot_assignment(spec: PauliChannelSpec, layout: SubsystemLayout) -> list[list[int]]:
    """Parties grouped per layout slot, validated against the slot dims."""
    dims = layout.dims
    per_slot: list[list[int]] = [[] for _ in dims]
    for party, slot in enumerate(spec.acts_on):
        if not 0 <= slot < len(dims):
            raise LayoutError(f"acts_on slot {slot} out of range for {len(dims)} slots")
        per_slot[slot].append(party)
    for slot, members in enumerate(per_slot):
        if members:
            tile = math.prod(spec.party_dims[p] for p in members)
            if tile != dims[slot]:
                raise LayoutError(
                    f"parties {members} tile dimension {tile}, slot {slot} has {dims[slot]}"
                )
    return per_slot


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


def _weyl_kernel(spec: PauliChannelSpec, layout: SubsystemLayout) -> _WeylKernel:
    """The kernel of ``spec`` on ``layout``, built on first use per slot dims."""
    kernel = spec._kernels.get(layout.dims)
    if kernel is not None:
        return kernel
    radices: list[int] = []
    touched: list[int] = []  # parties in digit order
    extent: list[int] = []   # lambda varies along touched digits only
    for slot, members in enumerate(_slot_assignment(spec, layout)):
        tile = [spec.party_dims[p] for p in members]
        radices += tile or [layout.dims[slot]]
        extent += tile or [1]
        touched += members
    total = layout.total_dim

    # q over (m digits, n digits), transformed over n to delta and over m to xi.
    t = len(touched)
    q = spec.joint.reshape([x for d in spec.party_dims for x in (d, d)])
    q = q.transpose([2 * p for p in touched] + [2 * p + 1 for p in touched])
    lam = np.fft.ifftn(q, axes=list(range(t, 2 * t)), norm="forward")
    lam = np.fft.ifftn(lam, axes=list(range(t)), norm="forward")
    lam = lam.transpose(list(range(t, 2 * t)) + list(range(t))).reshape(extent * 2)
    eigen = np.broadcast_to(lam, radices * 2).reshape(total, total) / total

    digits = np.indices(radices).reshape(len(radices), total)
    shifted = np.zeros((total, total), dtype=np.intp)
    for r, dig in zip(radices, digits):
        shifted = shifted * r + np.add.outer(dig, dig) % r
    fourier = functools.reduce(np.kron, (
        np.exp(-2j * np.pi * (np.multiply.outer(np.arange(r), np.arange(r)) % r) / r)
        for r in radices
    ))
    kernel = _WeylKernel(shifted * total + np.arange(total), fourier, eigen, fourier.conj())
    spec._kernels[layout.dims] = kernel
    return kernel


def apply_pauli(
    spec: PauliChannelSpec, rho, layout: SubsystemLayout
) -> np.ndarray:
    """Apply the joint Pauli channel in the Weyl domain.

    One gather of the D shifted diagonals, two D x D products with the group
    Fourier matrix around a pointwise multiply by the channel's eigenvalues,
    and a scatter back (see ``_WeylKernel``).  The kernel is cached on the
    channel object per layout and holds O(D^2) entries for any number of
    terms; no per-term operator or Choi matrix is formed.
    """
    rho = as_complex_matrix(rho, "rho")
    total = layout.total_dim
    if rho.shape != (total, total):
        raise LayoutError(
            f"state dim {rho.shape[0]} does not match layout total {total}"
        )
    kernel = _weyl_kernel(spec, layout)
    shifted = np.take(rho, kernel.gather)
    result = ((shifted @ kernel.fourier) * kernel.eigen) @ kernel.inverse
    # Row delta = 0 holds the diagonal, of the state and of the output.
    trace_dev = abs(result[0].sum() - shifted[0].sum())
    if trace_dev > 1e-10:
        raise NumericalError(f"channel failed to preserve trace by {trace_dev:.3e}")
    out = np.empty(total * total, dtype=complex)
    out[kernel.gather] = result
    return out.reshape(total, total)


def embed_operator(op, slots: Sequence[int], layout: SubsystemLayout) -> np.ndarray:
    """Extend an operator on the given slots by identity on the rest."""
    dims = layout.dims
    n = len(dims)
    slots = [int(s) for s in slots]
    if len(set(slots)) != len(slots):
        raise LayoutError(f"duplicate slots in {slots}")
    if any(not 0 <= s < n for s in slots):
        raise LayoutError(f"slots {slots} out of range for {n} slots")
    op = as_complex_matrix(op, "op")
    sel_dim = math.prod(dims[s] for s in slots)
    if op.shape != (sel_dim, sel_dim):
        raise LayoutError(f"operator shape {op.shape} does not match slots {slots}")
    rest = [s for s in range(n) if s not in slots]
    rest_dim = math.prod(dims[s] for s in rest) if rest else 1
    big = np.kron(op, np.eye(rest_dim, dtype=complex))
    current = slots + rest  # slot order big currently acts in
    perm = [current.index(s) for s in range(n)]
    return permute_slots(big, [dims[s] for s in current], perm)


def apply_cptp(
    cptp: CptpMap, rho, slots: Sequence[int], layout: SubsystemLayout
) -> np.ndarray:
    """Apply a Kraus map on the chosen slots, identity elsewhere."""
    rho = as_complex_matrix(rho, "rho")
    if cptp.in_dim != cptp.out_dim:
        raise LayoutError("embedded Kraus maps must preserve the slot dimension")
    out = np.zeros_like(rho)
    for k in cptp.kraus:
        full = embed_operator(k, slots, layout)
        out += full @ rho @ full.conj().T
    trace_dev = abs(out.trace() - rho.trace())
    if trace_dev > 1e-9:
        raise NumericalError(f"CPTP map failed to preserve trace by {trace_dev:.3e}")
    return out


def pauli_kraus(spec: PauliChannelSpec) -> CptpMap:
    """Kraus view {sqrt(q) V x ... x V} on the parties in party order."""
    ops = []
    for idx in np.argwhere(spec.joint > 0.0):
        prob = float(spec.joint[tuple(idx)])
        factors = [
            displacement_op(spec.party_dims[p], int(l) // spec.party_dims[p],
                            int(l) % spec.party_dims[p])
            for p, l in enumerate(idx)
        ]
        ops.append(np.sqrt(prob) * kron_all(factors))
    return CptpMap(tuple(ops))


def apply_channel(channel, rho, layout: SubsystemLayout) -> np.ndarray:
    """Dispatch: joint Pauli spec, or a CPTP map on the full space."""
    if isinstance(channel, PauliChannelSpec):
        return apply_pauli(channel, rho, layout)
    if isinstance(channel, CptpMap):
        return apply_cptp(channel, rho, range(len(layout.dims)), layout)
    raise ChannelError(f"unsupported channel type {type(channel).__name__}")


def adjoint_map(channel, layout: SubsystemLayout):
    """Lambda^dag on ``layout``: the map with tr[Y Lambda(X)] = tr[Lambda^dag(Y) X].

    A Pauli channel's adjoint is the Pauli channel with every label (m, n)
    mapped to (-m, -n) mod d, since V_{-m,-n} is V_mn^dag up to a phase; a
    Kraus map's is Y -> sum_t K_t^dag Y K_t.
    """
    if isinstance(channel, PauliChannelSpec):
        negated = [[(-(l // d) % d) * d + (-(l % d) % d) for l in range(d * d)]
                   for d in channel.party_dims]
        spec = PauliChannelSpec(
            channel.party_dims, channel.joint[np.ix_(*negated)], channel.acts_on)
        return lambda y: apply_pauli(spec, y, layout)
    if isinstance(channel, CptpMap):
        ks = np.stack(channel.kraus)
        return lambda y: (ks.conj().transpose(0, 2, 1) @ y @ ks).sum(axis=0)
    raise ChannelError(f"unsupported channel type {type(channel).__name__}")


def verify_covariance(
    spec,
    enc_set,
    layout: SubsystemLayout,
    trials: int = 20,
    seed: int = 0,
) -> float:
    """Max deviation of the covariance property over random states.

    Checks Lambda(V rho V^dag) = V Lambda(rho) V^dag for every operator in
    the encoding set (extended by identity on the receiver slot).  Accepts a
    Pauli spec or any full-space CPTP map.
    """
    rng = np.random.default_rng(seed)
    eye_b = np.eye(layout.receiver_dim, dtype=complex)
    worst = 0.0
    for _ in range(trials):
        rho = random_density_matrix(layout.total_dim, rng)
        out = apply_channel(spec, rho, layout)
        for v in enc_set.operators:
            v_full = np.kron(v, eye_b)
            lhs = apply_channel(spec, v_full @ rho @ v_full.conj().T, layout)
            rhs = v_full @ out @ v_full.conj().T
            worst = max(worst, np.abs(lhs - rhs).max())
    return worst


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
    correlation matrix.
    """
    if "joint" in doc:
        party_dims = tuple(int(d) for d in doc["party_dims"])
        joint = np.asarray(doc["joint"], dtype=float).reshape(
            tuple(int(s) for s in doc["shape"])
        )
        acts_on = doc.get("acts_on", list(range(len(party_dims))))
        return PauliChannelSpec(party_dims, joint, tuple(acts_on))
    parties = int(doc["parties"])
    d = int(doc["d"])
    singles = [SinglePartyPauliSpec(d, np.asarray(t, dtype=float)) for t in doc["singles"]]
    if len(singles) != parties:
        raise ChannelError(f"expected {parties} singles tables, got {len(singles)}")
    corr = CorrelationSpec(np.asarray(doc["mu"], dtype=float))
    acts_on = doc.get("acts_on")
    return correlated_probs(singles, corr, acts_on)

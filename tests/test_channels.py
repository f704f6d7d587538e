import functools
import importlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from densecode import channels
from densecode.capacity import COVARIANCE_CERT_TOL, _encode_with_kraus
from densecode.channels import (
    CorrelationSpec,
    CptpMap,
    PauliChannelSpec,
    SinglePartyPauliSpec,
    _kraus_apply,
    _monomial_conjugate,
    _monomial_gathers,
    _pauli_terms,
    _stacked_maps,
    adjoint_map,
    apply_channel,
    apply_cptp,
    apply_pauli,
    channel_from_json,
    channel_to_json,
    correlated_probs,
    depolarizing_probs,
    fully_correlated_probs,
    product_probs,
    verify_covariance,
)
from densecode.displacement import displacement_op, local_encoding_set, sender_generators
from densecode.errors import (
    ChannelError,
    LayoutError,
    NumericalError,
    ParameterError,
    ProbabilityError,
)
from densecode.linalg import (
    SubsystemLayout,
    _conjugate_leading,
    kron_all,
    permute_slots,
    random_density_matrix,
    random_hermitian,
    random_isometry,
)
from densecode.states import bell_diagonal, bell_state
from oracles import pauli_kraus


def table_to_sigma_order(q_table):
    """Map a 2x2 label table q_mn to sigma-ordered (I, x, y, z) probabilities."""
    return [q_table[0, 0], q_table[1, 0], q_table[1, 1], q_table[0, 1]]


def three_party_oracle(q1, q2, q3, mu):
    """Brute-force expansion of the listed three-party correlation terms.

    Eight terms: no pair on; each single pair on; each two-pair combination
    (all of which chain every party together); all three pairs on.
    """
    m12, m13, m23 = mu
    n = q1.size
    t1, t2, t3 = q1.ravel(), q2.ravel(), q3.ravel()
    joint = np.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                val = (1 - m12) * (1 - m13) * (1 - m23) * t1[a] * t2[b] * t3[c]
                if a == b:
                    val += m12 * (1 - m13) * (1 - m23) * t1[a] * t3[c]
                if a == c:
                    val += (1 - m12) * m13 * (1 - m23) * t1[a] * t2[b]
                if b == c:
                    val += (1 - m12) * (1 - m13) * m23 * t1[a] * t2[b]
                if a == b == c:
                    val += m12 * m13 * (1 - m23) * t1[a]
                    val += m12 * (1 - m13) * m23 * t1[a]
                    val += (1 - m12) * m13 * m23 * t1[a]
                    val += m12 * m13 * m23 * t1[a]
                joint[a, b, c] = val
    return joint


def random_single(d, rng):
    q = rng.random((d, d))
    return SinglePartyPauliSpec(d, q / q.sum())


def subset_expansion_oracle(singles, mu):
    """Joint tensor of a correlated channel by expanding every subset of pairs.

    Each subset T of the pair set contributes weight
    prod_{e in T} mu_e * prod_{e not in T} (1 - mu_e); labels within every
    connected component of T are forced equal, and the component contributes
    the single-party factor of its lowest-index member.
    """
    parties = len(singles)
    n_labels = singles[0].q.size
    pairs = [(j, l) for j in range(parties) for l in range(j + 1, parties)]
    tables = [s.q.ravel() for s in singles]
    joint = np.zeros((n_labels,) * parties)
    for on_mask in itertools.product((False, True), repeat=len(pairs)):
        weight = 1.0
        for on, (j, l) in zip(on_mask, pairs):
            weight *= mu[j, l] if on else 1.0 - mu[j, l]
        if weight == 0.0:
            continue
        parent = list(range(parties))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for (j, l), on in zip(pairs, on_mask):
            if on:
                a, b = find(j), find(l)
                parent[max(a, b)] = min(a, b)
        component = [find(p) for p in range(parties)]
        roots = sorted(set(component))
        for labels in itertools.product(range(n_labels), repeat=len(roots)):
            by_root = dict(zip(roots, labels))
            term = weight * math.prod(tables[r][by_root[r]] for r in roots)
            joint[tuple(by_root[component[p]] for p in range(parties))] += term
    return joint


def partition_sum_oracle(singles, mu):
    """``correlated_probs``' joint tensor built as it was before its masks'
    members, cuts and grids were memoized: every helper recomputed on every
    use.  Kept to check that the memoized construction is bit-identical."""
    parties = len(singles)
    n_labels = singles[0].q.size
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

    connected = {}
    for mask in range(1, 1 << parties):
        low = mask & -mask
        others = sum(connected[low | sub] * cut(low | sub, mask ^ (low | sub))
                     for sub in submasks(mask ^ low) if low | sub != mask)
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

    tables = [s.q.ravel() for s in singles]
    joint = np.zeros((n_labels,) * parties)
    for blocks, weight in split((1 << parties) - 1):
        term = weight * functools.reduce(np.multiply.outer, [tables[b[0]] for b in blocks])
        grid = np.ix_(*[np.arange(n_labels)] * len(blocks))
        owner = {p: b for b, block in enumerate(blocks) for p in block}
        joint[tuple(grid[owner[p]] for p in range(parties))] += term
    return joint


def term_sum_oracle(spec, rho, layout):
    """Apply a joint Pauli channel as the sum of its full-space conjugations.

    Each nonzero term is the kron, over layout slots, of the displacement
    operators of the parties tiling that slot in party order (identity on an
    untouched slot), weighted by its probability.
    """
    out = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    for idx in np.argwhere(spec.joint > 0.0):
        slot_ops = []
        for slot, dim in enumerate(layout.dims):
            members = [p for p, s in enumerate(spec.acts_on) if s == slot]
            if not members:
                slot_ops.append(np.eye(dim, dtype=complex))
                continue
            slot_ops.append(kron_all([
                displacement_op(spec.party_dims[p], int(idx[p]) // spec.party_dims[p],
                                int(idx[p]) % spec.party_dims[p])
                for p in members
            ]))
        u = kron_all(slot_ops)
        out += spec.joint[tuple(idx)] * (u @ rho @ u.conj().T)
    return out


def channel_case(party_dims, acts_on, slot_dims, seed, terms=None):
    """(spec, layout, rho) with a random joint tensor and a random state.

    The joint tensor is dense when ``terms`` is None, else it has ``terms``
    random nonzero entries.
    """
    rng = np.random.default_rng(seed)
    shape = tuple(d * d for d in party_dims)
    size = math.prod(shape)
    if terms is None:
        joint = rng.random(size)
    else:
        joint = np.zeros(size)
        joint[rng.choice(size, terms, replace=False)] = rng.random(terms)
    spec = PauliChannelSpec(party_dims, (joint / joint.sum()).reshape(shape), acts_on)
    layout = SubsystemLayout(slot_dims[:-1], slot_dims[-1])
    return spec, layout, random_density_matrix(layout.total_dim, rng)


@st.composite
def pauli_channels_on_layouts(draw):
    """A layout with 2 to 4 slots and a joint Pauli spec of random parties on it.

    Each slot is tiled by one to three parties of dimension 2 or 3, or left
    untouched; party order is shuffled across slots.  The total dimension is
    at most 64.  The joint tensor is dense (at most 81 terms) or has a few
    random nonzero terms.
    """
    parties = []  # (slot, dim)
    slot_dims = []
    for slot in range(draw(st.integers(2, 4))):
        tile = draw(st.lists(st.sampled_from([2, 3]), max_size=3))
        parties += [(slot, d) for d in tile]
        slot_dims.append(math.prod(tile) if tile else draw(st.sampled_from([2, 3, 4])))
    assume(parties and math.prod(slot_dims) <= 64)
    order = draw(st.permutations(range(len(parties))))
    party_dims = tuple(parties[i][1] for i in order)
    size = math.prod(d * d for d in party_dims)
    dense = size <= 81 and draw(st.booleans())
    return channel_case(
        party_dims,
        tuple(parties[i][0] for i in order),
        slot_dims,
        draw(st.integers(0, 2**32 - 1)),
        None if dense else min(size, draw(st.integers(1, 6))),
    )


def embed_loop_oracle(ks, rho, slots, layout):
    """sum_t K_t rho K_t^dag with each K_t extended by np.kron with the
    identity on the other slots and permuted into layout order: one
    full-space conjugation per Kraus operator."""
    dims = layout.dims
    current = list(slots) + [s for s in range(len(dims)) if s not in slots]
    perm = [current.index(s) for s in range(len(dims))]
    eye = np.eye(math.prod(dims[s] for s in current[len(slots):]))
    out = np.zeros_like(rho)
    for k in ks:
        full = permute_slots(np.kron(k, eye), [dims[s] for s in current], perm)
        out += full @ rho @ full.conj().T
    return out


@st.composite
def kraus_cases(draw):
    """(sender dims, receiver dim, slots, Kraus count, seed): one to three
    sender slots of dimension 2 or 3, a receiver of dimension 2 to 4, and a
    nonempty subset of the slots in any order."""
    sender_dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3)))
    receiver = draw(st.integers(2, 4))
    slots = draw(st.permutations(range(len(sender_dims) + 1)))
    slots = tuple(slots[:draw(st.integers(1, len(slots)))])
    return sender_dims, receiver, slots, draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1))


def build_kraus_case(sender_dims, receiver, slots, terms, seed):
    """(layout, slots, Kraus stack, state): the stack is ``terms`` square
    blocks cut from one random isometry on the chosen slots."""
    rng = np.random.default_rng(seed)
    layout = SubsystemLayout(sender_dims, receiver)
    dim = math.prod(layout.dims[s] for s in slots)
    ks = random_isometry(terms * dim, dim, rng).reshape(terms, dim, dim)
    return layout, list(slots), ks, random_density_matrix(layout.total_dim, rng)


class TestCorrelatedProbs:
    def test_uncorrelated_is_product(self):
        rng = np.random.default_rng(0)
        s1, s2 = random_single(2, rng), random_single(2, rng)
        spec = correlated_probs([s1, s2], CorrelationSpec.uniform(2, 0.0))
        product = np.multiply.outer(s1.q.ravel(), s2.q.ravel())
        assert np.abs(spec.joint - product).max() <= 1e-14

    def test_fully_correlated_is_diagonal(self):
        rng = np.random.default_rng(1)
        s1, s2 = random_single(2, rng), random_single(2, rng)
        spec = correlated_probs([s1, s2], CorrelationSpec.uniform(2, 1.0))
        assert np.abs(spec.joint - np.diag(s1.q.ravel())).max() <= 1e-14

    def test_bipartite_formula(self):
        rng = np.random.default_rng(2)
        for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
            s1, s2 = random_single(2, rng), random_single(2, rng)
            spec = correlated_probs([s1, s2], CorrelationSpec.uniform(2, mu))
            manual = (1 - mu) * np.multiply.outer(s1.q.ravel(), s2.q.ravel())
            manual += mu * np.diag(s1.q.ravel())
            assert np.abs(spec.joint - manual).max() <= 1e-15

    def test_three_party_uniform_half(self):
        # all mu = 0.5 with uniform singles: every subset term has weight 1/8
        uniform = SinglePartyPauliSpec(2, np.full((2, 2), 0.25))
        spec = correlated_probs([uniform] * 3, CorrelationSpec.uniform(3, 0.5))
        oracle = three_party_oracle(uniform.q, uniform.q, uniform.q, (0.5, 0.5, 0.5))
        assert abs(spec.joint.sum() - 1.0) < 1e-12
        assert np.abs(spec.joint - oracle).max() <= 1e-15

    def test_three_party_generic_against_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            singles = [random_single(2, rng) for _ in range(3)]
            mu = rng.random(3)
            table = np.zeros((3, 3))
            table[0, 1] = table[1, 0] = mu[0]
            table[0, 2] = table[2, 0] = mu[1]
            table[1, 2] = table[2, 1] = mu[2]
            spec = correlated_probs(singles, CorrelationSpec(table))
            oracle = three_party_oracle(
                singles[0].q, singles[1].q, singles[2].q, mu
            )
            assert np.abs(spec.joint - oracle).max() <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    def test_normalized_tensor_for_any_mu(self, raw, mu):
        q1 = np.array(raw[:4]).reshape(2, 2)
        q2 = np.array(raw[4:]).reshape(2, 2)
        singles = [
            SinglePartyPauliSpec(2, q1 / q1.sum()),
            SinglePartyPauliSpec(2, q2 / q2.sum()),
            SinglePartyPauliSpec(2, np.full((2, 2), 0.25)),
        ]
        table = np.zeros((3, 3))
        table[0, 1] = table[1, 0] = mu[0]
        table[0, 2] = table[2, 0] = mu[1]
        table[1, 2] = table[2, 1] = mu[2]
        spec = correlated_probs(singles, CorrelationSpec(table))
        assert spec.joint.min() >= 0
        assert abs(spec.joint.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("parties,d", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2), (6, 2)])
    @pytest.mark.parametrize("endpoints", [False, True])
    def test_partition_sum_matches_subset_expansion(self, parties, d, endpoints):
        rng = np.random.default_rng([parties, d, endpoints])
        singles = [random_single(d, rng) for _ in range(parties)]
        mu = np.zeros((parties, parties))
        for j in range(parties):
            for l in range(j + 1, parties):
                mu[j, l] = mu[l, j] = rng.random()
                if endpoints and rng.random() < 0.5:
                    # Exact 0s and 1s: pairs that never or always correlate.
                    mu[j, l] = mu[l, j] = rng.choice([0.0, 1.0])
        spec = correlated_probs(singles, CorrelationSpec(mu))
        oracle = subset_expansion_oracle(singles, mu)
        assert np.abs(spec.joint - oracle).max() <= 1e-12

    @pytest.mark.parametrize("parties,d", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2), (6, 2)])
    @pytest.mark.parametrize("endpoint", [None, 0.0, 1.0])
    def test_memoized_partition_sum_is_bit_identical(self, parties, d, endpoint):
        # With an endpoint, pair (0, 1) takes it and every other pair is an
        # exact 0 or 1 half the time.
        rng = np.random.default_rng([parties, d, endpoint is None])
        singles = [random_single(d, rng) for _ in range(parties)]
        mu = np.zeros((parties, parties))
        for j in range(parties):
            for l in range(j + 1, parties):
                mu[j, l] = mu[l, j] = rng.random()
                if endpoint is not None and rng.random() < 0.5:
                    mu[j, l] = mu[l, j] = rng.choice([0.0, 1.0])
        if endpoint is not None:
            mu[0, 1] = mu[1, 0] = endpoint
        spec = correlated_probs(singles, CorrelationSpec(mu))
        assert np.array_equal(spec.joint, partition_sum_oracle(singles, mu))

    def test_mixed_dimensions_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(LayoutError):
            correlated_probs(
                [random_single(2, rng), random_single(3, rng)],
                CorrelationSpec.uniform(2, 0.5),
            )

    def test_correlation_table_validation(self):
        with pytest.raises(ParameterError):
            CorrelationSpec(np.array([[0.0, 1.5], [1.5, 0.0]]))
        with pytest.raises(ParameterError):
            CorrelationSpec(np.array([[0.0, 0.2], [0.3, 0.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("build", [
    lambda x: SinglePartyPauliSpec(2, [[x, 0.5], [0.25, 0.25]]),
    lambda x: PauliChannelSpec((2,), [x, 0.5, 0.25, 0.25], (0,)),
    lambda x: fully_correlated_probs(2, [x, 0.5, 0.25, 0.25]),
    lambda x: CorrelationSpec([[0, x], [x, 0]]),
    lambda x: CorrelationSpec.uniform(3, x),
], ids=["single", "joint", "fully-correlated", "mu", "uniform-mu"])
def test_non_finite_probability_rejected(build, bad):
    # Every comparison with NaN is false: the checks are written to fail it.
    with pytest.raises((ProbabilityError, ParameterError)):
        build(bad)


class TestDepolarizing:
    def test_noiseless(self):
        spec = depolarizing_probs(2, 0.0)
        assert spec.q[0, 0] == 1.0
        assert spec.q.sum() == 1.0

    def test_full_noise_uniform(self):
        spec = depolarizing_probs(2, 1.0)
        assert np.abs(spec.q - 0.25).max() == 0

    def test_half_noise_values(self):
        spec = depolarizing_probs(2, 0.5)
        assert abs(spec.q[0, 0] - 0.625) < 1e-15
        assert np.abs(spec.q.ravel()[1:] - 0.125).max() < 1e-15

    def test_range_check(self):
        with pytest.raises(ParameterError):
            depolarizing_probs(2, 1.2)


class TestFullyCorrelated:
    def test_identity_channel(self):
        spec = fully_correlated_probs(2, [1, 0, 0, 0])
        layout = SubsystemLayout([2], 2)
        rho = bell_diagonal([0.4, 0.3, 0.2, 0.1])
        assert np.abs(apply_pauli(spec, rho, layout) - rho).max() < 1e-14

    def test_two_party_support(self):
        spec = fully_correlated_probs(2, [0.5, 0, 0, 0.5])
        nonzero = np.argwhere(spec.joint > 0)
        assert len(nonzero) == 2
        assert all(a == b for a, b in nonzero)
        assert np.isclose(spec.joint.max(), 0.5)

    def test_matches_mu_one_correlated(self):
        rng = np.random.default_rng(5)
        table = rng.random((2, 2))
        table /= table.sum()
        single = SinglePartyPauliSpec(2, table)
        for parties in (2, 3):
            via_mu = correlated_probs(
                [single] * parties, CorrelationSpec.uniform(parties, 1.0)
            )
            direct = fully_correlated_probs(parties, table_to_sigma_order(table))
            assert np.abs(via_mu.joint - direct.joint).max() <= 1e-14

    def test_probability_validation(self):
        with pytest.raises(ProbabilityError):
            fully_correlated_probs(2, [0.5, 0.5, 0.5, -0.5])


class TestApplyPauli:
    def test_is_the_one_apply_entry(self):
        assert channels.apply_pauli is channels.apply_channel

    def test_identity_spec(self):
        layout = SubsystemLayout([2], 2)
        spec = product_probs([depolarizing_probs(2, 0.0)] * 2)
        rng = np.random.default_rng(6)
        rho = random_density_matrix(4, rng)
        assert np.abs(apply_pauli(spec, rho, layout) - rho).max() < 1e-14

    def test_full_depolarizing_bell(self):
        # brute-force over all 16 terms: uniform Pauli average = I/4
        layout = SubsystemLayout([2], 2)
        spec = product_probs([depolarizing_probs(2, 1.0)] * 2)
        out = apply_pauli(spec, bell_state(2), layout)
        assert np.abs(out - np.eye(4) / 4).max() < 1e-14

    def test_fully_correlated_leaves_bell_diagonal_invariant(self):
        layout = SubsystemLayout([2], 2)
        rng = np.random.default_rng(7)
        q = rng.random(4)
        spec = fully_correlated_probs(2, q / q.sum())
        rho = bell_diagonal([0.4, 0.3, 0.2, 0.1])
        assert np.abs(apply_pauli(spec, rho, layout) - rho).max() < 1e-13

    def test_preserves_state_invariants(self):
        rng = np.random.default_rng(8)
        layout = SubsystemLayout([2, 2], 2)
        singles = [random_single(2, rng) for _ in range(3)]
        spec = correlated_probs(singles, CorrelationSpec.uniform(3, 0.4))
        for _ in range(5):
            rho = random_density_matrix(8, rng)
            out = apply_pauli(spec, rho, layout)
            assert np.abs(out - out.conj().T).max() < 1e-12
            assert abs(out.trace() - 1.0) < 1e-12
            assert np.linalg.eigvalsh(out)[0] >= -1e-10

    def test_unital(self):
        rng = np.random.default_rng(9)
        layout = SubsystemLayout([2], 2)
        singles = [random_single(2, rng) for _ in range(2)]
        spec = correlated_probs(singles, CorrelationSpec.uniform(2, 0.3))
        out = apply_pauli(spec, np.eye(4) / 4, layout)
        assert np.abs(out - np.eye(4) / 4).max() < 1e-12

    def test_sender_only_channel_pads_receiver(self):
        layout = SubsystemLayout([2], 2)
        spec = product_probs([depolarizing_probs(2, 1.0)], acts_on=[0])
        out = apply_pauli(spec, bell_state(2), layout)
        # depolarizing only the sender of a Bell pair gives I/2 x I/2
        assert np.abs(out - np.eye(4) / 4).max() < 1e-14

    def test_receiver_slot_tiling(self):
        # two parties tile a merged receiver slot of dimension 4
        layout = SubsystemLayout([2], 4)
        spec = product_probs([depolarizing_probs(2, 1.0)] * 2, acts_on=[1, 1])
        rng = np.random.default_rng(10)
        rho = random_density_matrix(8, rng)
        out = apply_pauli(spec, rho, layout)
        sender_marg = np.kron(
            np.trace(rho.reshape(2, 4, 2, 4), axis1=1, axis2=3), np.eye(4) / 4
        )
        assert np.abs(out - sender_marg).max() < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(pauli_channels_on_layouts())
    # D=64: a dense 256-term channel, and six parties (three tiling the
    # receiver slot, two a sender slot) with a few terms; untouched slot in both.
    @example(channel_case((2, 2, 2, 2), (2, 0, 2, 2), (2, 4, 8), seed=1))
    @example(channel_case((2,) * 6, (2, 0, 2, 0, 2, 1), (4, 2, 8), seed=2, terms=6))
    def test_matches_term_sum(self, case):
        spec, layout, rho = case
        out = apply_pauli(spec, rho, layout)
        assert np.abs(out - term_sum_oracle(spec, rho, layout)).max() <= 1e-12
        assert abs(out.trace() - 1.0) <= 1e-12
        assert np.abs(out - out.conj().T).max() <= 1e-12

    def test_kernel_memory_independent_of_terms(self, monkeypatch):
        # The 6-party correlated channel of the benchmark's D=64 apply.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        singles, corr, layout, rho = importlib.import_module("workloads").apply64_inputs()
        spec = correlated_probs(singles, corr)
        few = fully_correlated_probs(6, [0.7, 0.1, 0.1, 0.1])
        cached = []
        for chan, terms in ((spec, 4096), (few, 4)):
            assert np.count_nonzero(chan.joint) == terms
            apply_pauli(chan, rho, layout)
            apply_pauli(chan, rho, layout)
            (kernel,) = chan._kernels.values()
            cached.append(sum(a.nbytes for a in vars(kernel).values()))
        total = layout.total_dim
        assert cached[0] <= 4 * total * total * 16
        assert cached[0] == cached[1]

    def test_tiling_mismatch_rejected(self):
        layout = SubsystemLayout([2], 2)
        spec = product_probs([depolarizing_probs(2, 0.5)] * 2, acts_on=[0, 0])
        with pytest.raises(LayoutError):
            apply_pauli(spec, bell_state(2), layout)


class TestCptp:
    def test_single_identity_kraus(self):
        layout = SubsystemLayout([2], 2)
        rng = np.random.default_rng(11)
        rho = random_density_matrix(4, rng)
        cptp = CptpMap((np.eye(2),))
        assert np.abs(apply_cptp(cptp, rho, [0], layout) - rho).max() < 1e-14

    def test_reset_channel(self):
        # Kraus {|0><0|, |0><1|} maps any qubit state to |0><0|
        k0 = np.array([[1, 0], [0, 0]], dtype=complex)
        k1 = np.array([[0, 1], [0, 0]], dtype=complex)
        cptp = CptpMap((k0, k1))
        layout = SubsystemLayout([2], 2)
        rng = np.random.default_rng(12)
        rho = random_density_matrix(4, rng)
        out = apply_cptp(cptp, rho, [0], layout)
        marg_b = np.trace(rho.reshape(2, 2, 2, 2), axis1=0, axis2=2)
        expected = np.kron(k0, np.eye(2)) @ np.kron(np.eye(2), marg_b) @ np.kron(k0, np.eye(2))
        assert np.abs(out - expected).max() < 1e-12

    def test_pauli_channel_dual_representation(self):
        rng = np.random.default_rng(13)
        layout = SubsystemLayout([2], 2)
        singles = [random_single(2, rng) for _ in range(2)]
        spec = correlated_probs(singles, CorrelationSpec.uniform(2, 0.6))
        kraus = pauli_kraus(spec)
        rho = random_density_matrix(4, rng)
        via_pauli = apply_pauli(spec, rho, layout)
        via_kraus = apply_cptp(kraus, rho, [0, 1], layout)
        assert np.abs(via_pauli - via_kraus).max() <= 1e-12

    def test_kraus_stored_as_read_only_stack(self):
        ops = [np.eye(2) * math.sqrt(0.5), np.diag([1.0, -1.0]) * math.sqrt(0.5)]
        cptp = CptpMap(ops)
        assert cptp.kraus.shape == (2, 2, 2) and cptp.kraus.dtype == complex
        assert not cptp.kraus.flags.writeable
        with pytest.raises(ValueError):
            cptp.kraus[0, 0, 0] = 0.0
        assert ops[0].flags.writeable  # the caller's operators are copied
        assert np.array_equal(CptpMap(cptp.kraus).kraus, cptp.kraus)
        assert CptpMap((np.eye(6)[:, :2],)).kraus.shape == (1, 6, 2)

    def test_malformed_kraus_rejected(self):
        half = math.sqrt(0.5)
        with pytest.raises(ChannelError, match="all of one shape"):
            CptpMap((np.eye(2) * half, np.eye(3)[:, :2] * half))
        with pytest.raises(ChannelError, match="one or more"):
            CptpMap(())
        with pytest.raises(ChannelError, match="one or more"):
            CptpMap(np.zeros((0, 2, 2)))
        for bad in ((np.ones(2),), np.ones((1, 2, 2, 2))):
            with pytest.raises(NumericalError, match="2-dimensional"):
                CptpMap(bad)

    def test_completeness_enforced(self):
        with pytest.raises(ChannelError):
            CptpMap((np.eye(2) * 0.5,))

    def test_bad_slots_rejected(self):
        layout = SubsystemLayout([2, 3], 2)
        rho = random_density_matrix(layout.total_dim, np.random.default_rng(14))
        qubit = CptpMap((np.eye(2),))
        for cptp, slots in ((qubit, [0, 0]), (qubit, [3]), (qubit, [1]),
                            (CptpMap((np.eye(6)[:, :2],)), [0])):
            with pytest.raises(LayoutError):
                apply_cptp(cptp, rho, slots, layout)

    @settings(max_examples=60, deadline=None)
    @given(kraus_cases())
    @example(((2, 3, 2), 4, (3,), 2, 0))        # the receiver alone
    @example(((2, 3), 2, (2, 0, 1), 4, 1))      # every slot, out of order
    @example(((3, 2, 2), 3, (2, 0), 3, 2))      # non-contiguous senders
    def test_matches_embed_loop(self, case):
        layout, slots, ks, rho = build_kraus_case(*case)
        want = embed_loop_oracle(ks, rho, slots, layout)
        got = apply_cptp(CptpMap(tuple(ks)), rho, slots, layout)
        assert np.abs(got - want).max() <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(kraus_cases())
    def test_encode_with_kraus_matches_kron_sum(self, case):
        sender_dims, receiver, _, terms, seed = case
        layout, _, ks, rho = build_kraus_case(
            sender_dims, receiver, range(len(sender_dims)), terms, seed)
        eye = np.eye(layout.receiver_dim)
        want = sum(np.kron(k, eye) @ rho @ np.kron(k, eye).conj().T for k in ks)
        assert np.abs(_encode_with_kraus(rho, ks, layout) - want).max() <= 1e-12


def label_negated_spec(spec):
    """The Pauli channel with every label (m, n) mapped to (-m, -n) mod d:
    the adjoint of ``spec`` built as a second channel, kept as the oracle of
    ``adjoint_map``'s conjugate-eigenvalue route."""
    negated = [[(-(l // d) % d) * d + (-(l % d) % d) for l in range(d * d)]
               for d in spec.party_dims]
    return PauliChannelSpec(spec.party_dims, spec.joint[np.ix_(*negated)], spec.acts_on)


class TestAdjoint:
    @pytest.mark.parametrize("party_dims, acts_on, slot_dims", [
        ((2, 2), (0, 1), [2, 2]),                 # qubits
        ((3, 3), (0, 1), [3, 3]),                 # qutrits
        ((2, 2, 2), (0, 1, 1), [2, 4]),           # tiled receiver
        ((2, 2, 2), (0, 0, 1), [4, 2]),           # tiled sender
        ((2, 3, 3), (0, 2, 1), [2, 3, 3]),        # mixed dimensions
        ((3, 2), (0, 2), [3, 2, 2]),              # mixed, an untouched slot
    ])
    def test_matches_label_negated_spec(self, party_dims, acts_on, slot_dims):
        spec, layout, _ = channel_case(party_dims, acts_on, slot_dims, seed=21)
        y = random_hermitian(layout.total_dim, np.random.default_rng(22))
        want = apply_pauli(label_negated_spec(spec), y, layout)
        assert np.abs(adjoint_map(spec, layout)(y) - want).max() <= 1e-15

    def test_wrong_size_rejected(self):
        # An 8 x 8 Y is a whole number of D = 4 blocks, which the Kraus
        # conjugation alone would accept.
        spec, layout, _ = channel_case((2, 2), (0, 1), [2, 2], seed=21)
        for channel in (spec, pauli_kraus(spec)):
            for n in (2, 8):
                with pytest.raises(LayoutError, match="does not match layout total 4"):
                    adjoint_map(channel, layout)(np.eye(n))

    def test_unsupported_channel_type_rejected(self):
        layout = SubsystemLayout([2], 2)
        with pytest.raises(ChannelError, match="unsupported channel type ndarray"):
            apply_channel(np.eye(4), np.eye(4), layout)
        with pytest.raises(ChannelError, match="unsupported channel type ndarray"):
            adjoint_map(np.eye(4), layout)

    @staticmethod
    def adjoint_gap(channel, layout, rng):
        """|tr[Y Lambda(X)] - tr[Lambda^dag(Y) X]| for a random state X and
        a random Hermitian Y."""
        x = random_density_matrix(layout.total_dim, rng)
        y = random_hermitian(layout.total_dim, rng)
        lhs = np.trace(y @ apply_channel(channel, x, layout))
        return abs(lhs - np.trace(adjoint_map(channel, layout)(y) @ x))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([((3,), 3), ((3, 3), 3), ((3,), 9)]),
           st.integers(0, 2**32 - 1))
    def test_qutrit_pauli_specs(self, slots, seed):
        sender_dims, receiver = slots
        parties = len(sender_dims) + (2 if receiver == 9 else 1)
        acts_on = tuple(range(len(sender_dims))) + (len(sender_dims),) * (
            parties - len(sender_dims))
        spec, layout, _ = channel_case(
            (3,) * parties, acts_on, list(sender_dims) + [receiver], seed)
        assert self.adjoint_gap(spec, layout, np.random.default_rng(seed)) < 1e-12

    def test_cptp_maps(self):
        # Amplitude damping on the sender is not unital, so its adjoint is
        # not a CptpMap itself.
        gamma = 0.3
        k0 = np.diag([1.0, math.sqrt(1 - gamma)])
        k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])
        damping = CptpMap((np.kron(k0, np.eye(3)), np.kron(k1, np.eye(3))))
        rng = np.random.default_rng(16)
        assert self.adjoint_gap(damping, SubsystemLayout([2], 3), rng) < 1e-12
        spec, layout, _ = channel_case((3, 3), (0, 1), [3, 3], 17)
        assert self.adjoint_gap(pauli_kraus(spec), layout, rng) < 1e-12


# Leading shapes of the stacked maps: one restart axis, or two axes.
LEADING = st.sampled_from([(1,), (3,), (2, 2)])


def state_stack(lead, layout, rng):
    """A stack of random states of ``lead`` shape, and one of random
    Hermitian operators."""
    n = layout.total_dim
    return (np.stack([random_density_matrix(n, rng) for _ in range(math.prod(lead))]
                     ).reshape(lead + (n, n)),
            np.stack([random_hermitian(n, rng) for _ in range(math.prod(lead))]
                     ).reshape(lead + (n, n)))


class TestStackedMaps:
    """``_stacked_maps``, the objective's channel and adjoint on a stack of
    operators: each slice bit-identical to the public function on it."""

    @settings(max_examples=60, deadline=None)
    @given(pauli_channels_on_layouts(), LEADING, st.integers(0, 2**32 - 1))
    @example(channel_case((2, 2, 2), (0, 1, 1), [2, 4], 3), (3,), 0)   # tiled receiver
    @example(channel_case((3, 2), (0, 2), [3, 2, 2], 4), (2, 2), 1)    # untouched slot
    @example(channel_case((3, 3), (0, 1), [3, 3], 5), (1,), 2)         # qutrits
    def test_weyl_stack_matches_apply_pauli(self, case, lead, seed):
        spec, layout, _ = case
        rhos, ys = state_stack(lead, layout, np.random.default_rng(seed))
        forward, adjoint = _stacked_maps(spec, layout)
        outs, adjoints = forward(rhos), adjoint(ys)
        for idx in np.ndindex(*lead):
            assert np.array_equal(outs[idx], apply_pauli(spec, rhos[idx], layout))
            assert np.array_equal(outs[idx], apply_channel(spec, rhos[idx], layout))
            assert np.array_equal(adjoints[idx], adjoint_map(spec, layout)(ys[idx]))

    @settings(max_examples=40, deadline=None)
    @given(kraus_cases(), LEADING)
    def test_kraus_stack_matches_apply_cptp(self, case, lead):
        sender_dims, receiver, _, terms, seed = case
        layout, slots, ks, _ = build_kraus_case(
            sender_dims, receiver, range(len(sender_dims) + 1), terms, seed)
        cptp = CptpMap(tuple(ks))
        rhos, ys = state_stack(lead, layout, np.random.default_rng(seed))
        forward, adjoint = _stacked_maps(cptp, layout)
        outs, adjoints = forward(rhos), adjoint(ys)
        for idx in np.ndindex(*lead):
            assert np.array_equal(outs[idx], apply_cptp(cptp, rhos[idx], slots, layout))
            assert np.array_equal(outs[idx], apply_channel(cptp, rhos[idx], layout))
            assert np.array_equal(adjoints[idx], adjoint_map(cptp, layout)(ys[idx]))

    def test_kraus_stack_checks_each_member_trace(self):
        # Kraus operators scaled past completeness raise each member's trace
        # by half; the error gives the largest deviation, the trace-2 member's.
        layout, _, ks, rho = build_kraus_case((2,), 2, (0, 1), 2, 6)
        with pytest.raises(NumericalError, match=r"preserve trace by 1\.000e\+00"):
            _kraus_apply(np.sqrt(1.5) * ks, np.stack([rho, 2 * rho]), layout.total_dim)

    def test_unsupported_channel_type_rejected(self):
        with pytest.raises(ChannelError, match="unsupported channel type ndarray"):
            _stacked_maps(np.eye(4), SubsystemLayout([2], 2))


class TestPauliTerms:
    """``_pauli_terms``, a Pauli spec's nonzero terms sqrt(q_t) W_t as
    lifted digit permutations and phases, for the factored objective."""

    @settings(max_examples=100, deadline=None)
    @given(pauli_channels_on_layouts())
    @example(channel_case((2, 2, 2), (0, 1, 1), [2, 4], 3))     # tiled receiver
    @example(channel_case((3, 2), (0, 2), [3, 2, 2], 4))        # untouched slot
    @example(channel_case((2,) * 6, (2, 0, 2, 0, 2, 1), (4, 2, 8), seed=2, terms=6))
    def test_terms_match_term_sum(self, case):
        spec, layout, rho = case
        terms = _pauli_terms(spec, layout)
        total = layout.total_dim
        assert terms.gather.shape == (np.count_nonzero(spec.joint), total)
        out = sum(ph[:, None] * rho[np.ix_(g, g)] * ph.conj()
                  for g, ph in zip(terms.gather, terms.phase))
        assert np.abs(out - term_sum_oracle(spec, rho, layout)).max() <= 1e-12
        # The adjoint of each term, read from the flattened stack of outputs.
        y = random_hermitian(total, np.random.default_rng(0))[:, :2]
        outputs = (terms.phase[:, :, None] * y[terms.gather]).reshape(-1, 2)
        for t, (g, ph) in enumerate(zip(terms.gather, terms.phase)):
            w = np.zeros((total, total), dtype=complex)
            w[np.arange(total), g] = ph
            back = terms.phase_adj[t][:, None] * outputs[terms.inverse[t]]
            assert np.abs(back - w.conj().T @ (w @ y)).max() <= 1e-14

    def test_built_once_per_layout_without_dense_operators(self, monkeypatch):
        # O(T D): no Weyl kernel is built.
        def banned(*args, **kwargs):
            raise AssertionError("a term was built from a dense operator")

        monkeypatch.setattr(channels, "_weyl_kernel", banned)
        spec = fully_correlated_probs(8, [0.85, 0.05, 0.05, 0.05])
        layout = SubsystemLayout([2] * 7, 2)
        terms = _pauli_terms(spec, layout)
        assert _pauli_terms(spec, layout) is terms
        assert list(spec._terms) == [layout.dims] and spec._kernels == {}
        assert sum(a.nbytes for a in vars(terms).values()) == 4 * 256 * (8 + 8 + 16 + 16)


def dense_verify_covariance(spec, ops, layout, trials=20, seed=0):
    """``verify_covariance`` as it was before its gathers: each operator a
    dense D_A x D_A conjugation through ``_conjugate_leading`` and the public
    ``apply_channel`` once per operator per trial.  Kept as its oracle."""
    ops = np.asarray(ops, dtype=complex)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        rho = random_density_matrix(layout.total_dim, rng)
        out = apply_channel(spec, rho, layout)
        for v in ops[:, None]:
            lhs = apply_channel(spec, _conjugate_leading(rho, v, layout.sender_dim), layout)
            rhs = _conjugate_leading(out, v, layout.sender_dim)
            worst = max(worst, np.abs(lhs - rhs).max())
    return worst


def covariance_cases():
    """(name, channel, layout) for the gather/dense differential: qubit and
    qutrit senders, mixed dims, tiled receiver and sender slots, a Kraus map,
    and the benchmark's shape, two qutrit senders and a qutrit receiver under
    a correlated 3-party spec."""
    rng = np.random.default_rng(21)
    qubits = correlated_probs([random_single(2, rng) for _ in range(3)],
                              CorrelationSpec.uniform(3, 0.6))
    qutrits = correlated_probs([random_single(3, rng) for _ in range(2)],
                               CorrelationSpec.uniform(2, 0.4))
    tiled = SubsystemLayout([4], 2)
    return [
        ("qubit senders", qubits, SubsystemLayout([2, 2], 2)),
        ("qutrit sender", qutrits, SubsystemLayout([3], 3)),
        ("mixed dims (2, 3)", *channel_case((2, 3, 2), (0, 1, 2), (2, 3, 2), 22)[:2]),
        ("tiled receiver", *channel_case((2, 2, 2), (0, 1, 1), (2, 4), 23)[:2]),
        ("tiled sender", product_probs([random_single(2, np.random.default_rng(3))
                                        for _ in range(3)], acts_on=(0, 0, 1)), tiled),
        ("kraus map", pauli_kraus(qubits), SubsystemLayout([2, 2], 2)),
        ("qutrit senders (D = 27)", correlated_probs(
            [random_single(3, rng) for _ in range(3)], CorrelationSpec.uniform(3, 0.5)),
         SubsystemLayout([3, 3], 3)),
    ]


class TestCovariance:
    def test_no_samples_rejected(self):
        layout = SubsystemLayout([2], 2)
        spec = product_probs([depolarizing_probs(2, 0.3)] * 2)
        enc = local_encoding_set([2])
        for trials in (0, -1):
            with pytest.raises(ParameterError, match="trials"):
                verify_covariance(spec, enc, layout, trials=trials)
        with pytest.raises(ParameterError, match="operators"):
            verify_covariance(spec, (), layout, trials=3)

    def test_sequence_or_stack_of_operators(self):
        # A tiled sender slot is not covariant, so the deviation is nonzero.
        rng = np.random.default_rng(3)
        layout = SubsystemLayout([4], 2)
        spec = product_probs([random_single(2, rng) for _ in range(3)], acts_on=(0, 0, 1))
        stack = sender_generators([4])
        devs = [verify_covariance(spec, ops, layout, trials=3, seed=5)
                for ops in (stack, tuple(stack), list(stack))]
        assert devs[0] > 1e-3 and devs == [devs[0]] * 3

    def test_identity_channel_exact(self):
        layout = SubsystemLayout([2], 2)
        spec = product_probs([depolarizing_probs(2, 0.0)] * 2)
        enc = local_encoding_set([2])
        assert verify_covariance(spec, enc, layout, trials=3, seed=0) < 1e-14

    def test_generic_pauli_channel(self):
        rng = np.random.default_rng(16)
        layout = SubsystemLayout([2], 2)
        singles = [random_single(2, rng) for _ in range(2)]
        spec = correlated_probs(singles, CorrelationSpec.uniform(2, 0.45))
        enc = local_encoding_set([2])
        assert verify_covariance(spec, enc, layout, trials=5, seed=1) <= 1e-12

    @pytest.mark.parametrize("dims,receiver", [((2,), 2), ((3,), 3), ((2, 3), 2),
                                                ((2, 2), 3), ((4,), 2)])
    def test_gather_matches_dense_conjugation(self, dims, receiver):
        layout = SubsystemLayout(dims, receiver)
        total = layout.total_dim
        rng = np.random.default_rng(list(dims) + [receiver])
        x = random_density_matrix(total, rng)
        ops = local_encoding_set(dims)
        perms, phases = _monomial_gathers(ops, layout)
        got = _monomial_conjugate(x, perms[:, :, None] * total + perms[:, None, :], phases)
        assert got.shape == (len(ops), total, total)
        for member, v, p, f in zip(got, ops, perms, phases):
            dense = _conjugate_leading(x, v[None], layout.sender_dim)
            assert np.array_equal(member, f[:, None] * x[np.ix_(p, p)] * f.conj())
            assert np.abs(member - dense).max() <= 1e-15

    @pytest.mark.parametrize("case", covariance_cases(), ids=lambda case: case[0])
    @pytest.mark.parametrize("generators", [True, False])
    def test_deviation_matches_dense_oracle(self, case, generators):
        name, channel, layout = case
        dims = layout.sender_dims
        ops = sender_generators(dims) if generators else local_encoding_set(dims)
        dev = verify_covariance(channel, ops, layout, trials=3, seed=3)
        assert abs(dev - dense_verify_covariance(channel, ops, layout, 3, 3)) <= 1e-15, name
        if name == "tiled sender":
            assert dev > COVARIANCE_CERT_TOL
        else:
            assert dev <= 1e-12, name

    def test_entry_cap_of_one_operator_changes_nothing(self, monkeypatch):
        # Uncapped, a trial conjugates the operators in chunks of up to
        # CERTIFY_ENTRY_CAP // D^2 (all of them for D <= 12, 5 at D = 27, one
        # at D = 256); a cap of one entry conjugates them one call each.
        widths, stacked_maps = [], channels._stacked_maps

        def recording_maps(channel, layout):
            forward, adjoint = stacked_maps(channel, layout)

            def recording(x):
                if x.ndim == 3:
                    widths.append(len(x))
                return forward(x)

            return recording, adjoint

        monkeypatch.setattr(channels, "_stacked_maps", recording_maps)
        ghz = fully_correlated_probs(8, [0.85, 0.05, 0.05, 0.05])
        runs = [(name, channel, layout, ops, 3)
                for name, channel, layout in covariance_cases()
                for ops in (sender_generators(layout.sender_dims),
                            local_encoding_set(layout.sender_dims))]
        runs.append(("ghz-full copies 4", ghz, SubsystemLayout([2] * 7, 2),
                     sender_generators([2] * 7), 1))
        widest, default = {}, channels.CERTIFY_ENTRY_CAP
        for name, channel, layout, ops, trials in runs:
            devs = []
            for cap in (default, 1):
                monkeypatch.setattr(channels, "CERTIFY_ENTRY_CAP", cap)
                widths.clear()
                devs.append(verify_covariance(channel, ops, layout, trials=trials, seed=3))
                assert sum(widths) == trials * len(ops), name
                widest.setdefault(name, []).append(max(widths))
            assert devs[0] == devs[1], name
        assert widest == {
            "qubit senders": [4, 1, 16, 1],
            "qutrit sender": [2, 1, 9, 1],
            "mixed dims (2, 3)": [4, 1, 28, 1],
            "tiled receiver": [2, 1, 4, 1],
            "tiled sender": [2, 1, 16, 1],
            "kraus map": [4, 1, 16, 1],
            "qutrit senders (D = 27)": [4, 1, 5, 1],
            "ghz-full copies 4": [1, 1],
        }

    @pytest.mark.parametrize("ops, error, message", [
        (np.eye(2), LayoutError, r"shape \(2, 2\) is not \(T, 2, 2\)"),
        (np.stack([np.eye(4)]), LayoutError, r"is not \(T, 2, 2\)"),
        ([np.eye(2), [[1, 1], [1, -1]]], ParameterError, "operator 1 .* row 0 has 2 nonzero"),
        ([np.eye(2), np.eye(2), np.zeros((2, 2))], ParameterError, "operator 2 .* row 0 has 0"),
        ([[[1, 0], [1, 0]]], ParameterError, "operator 0 .* column 0 has 2 nonzero"),
        ([np.eye(2), 2 * np.eye(2)], ParameterError, "operator 1 .* modulus is off 1 by 1.0"),
        ([np.eye(2), [[1, 0], [0, 1 + 2e-12]]], ParameterError, "operator 1 .* modulus"),
        ([[[np.nan, 0], [0, 1]]], ParameterError, "operator 0 .* modulus is off 1 by nan"),
    ])
    def test_non_monomial_operators_rejected_before_any_state(
            self, monkeypatch, ops, error, message):
        def unreachable(*args):
            raise AssertionError("allocated before the operator checks")

        monkeypatch.setattr(channels, "random_density_matrix", unreachable)
        monkeypatch.setattr(channels, "_stacked_maps", unreachable)
        layout = SubsystemLayout([2], 2)
        spec = product_probs([depolarizing_probs(2, 0.3)] * 2)
        with pytest.raises(error, match=message):
            verify_covariance(spec, ops, layout, trials=3)

    def test_unit_modulus_within_tolerance_accepted(self):
        layout = SubsystemLayout([2], 2)
        spec = product_probs([depolarizing_probs(2, 0.3)] * 2)
        ops = [np.eye(2), [[0, 1 + 5e-13], [1, 0]]]
        assert verify_covariance(spec, ops, layout, trials=2, seed=1) <= 1e-11

    def test_correlated_two_senders(self):
        rng = np.random.default_rng(17)
        layout = SubsystemLayout([2, 2], 2)
        singles = [random_single(2, rng) for _ in range(3)]
        spec = correlated_probs(singles, CorrelationSpec.uniform(3, 0.7))
        enc = local_encoding_set([2, 2])
        assert verify_covariance(spec, enc, layout, trials=3, seed=2) <= 1e-11


class TestJsonInterface:
    def test_joint_round_trip(self):
        rng = np.random.default_rng(18)
        singles = [random_single(2, rng) for _ in range(2)]
        spec = correlated_probs(singles, CorrelationSpec.uniform(2, 0.2))
        doc = json.loads(json.dumps(channel_to_json(spec)))
        back = channel_from_json(doc)
        assert back.party_dims == spec.party_dims
        assert back.acts_on == spec.acts_on
        assert np.abs(back.joint - spec.joint).max() == 0

    def test_singles_mu_form(self):
        doc = {
            "parties": 2,
            "d": 2,
            "singles": [[[0.7, 0.1], [0.1, 0.1]], [[0.4, 0.2], [0.2, 0.2]]],
            "mu": [[0.0, 1.0], [1.0, 0.0]],
        }
        spec = channel_from_json(doc)
        expected = np.diag(np.array([0.7, 0.1, 0.1, 0.1]))
        assert np.abs(spec.joint - expected).max() < 1e-15

    def test_scalar_mu_is_uniform(self):
        tables = [[[0.7, 0.1], [0.1, 0.1]], [[0.4, 0.2], [0.2, 0.2]], [[0.5, 0.5], [0, 0]]]
        spec = channel_from_json({"parties": 3, "d": 2, "singles": tables, "mu": 0.4})
        singles = [SinglePartyPauliSpec(2, np.array(t)) for t in tables]
        want = correlated_probs(singles, CorrelationSpec.uniform(3, 0.4))
        assert np.array_equal(spec.joint, want.joint)

    @pytest.mark.parametrize("doc, message", [
        ({"parties": "2", "d": 2, "singles": [], "mu": 0}, "channel.parties: expected an integer"),
        ({"parties": 1, "d": 2, "singles": 3, "mu": 0}, "channel.singles: expected an array"),
        ({"parties": 1, "d": 2, "singles": [[[1, 0], [0, 0]]], "mu": "x"},
         "channel.mu: expected a number or an array"),
        ({"joint": [1, 0, 0, 0], "party_dims": 2, "shape": [4]},
         "channel.party_dims: expected an array of integers"),
    ])
    def test_mistyped_field_named(self, doc, message):
        with pytest.raises(ChannelError, match=message):
            channel_from_json(doc)

    def test_joint_tensor_validation(self):
        with pytest.raises(ProbabilityError):
            PauliChannelSpec((2,), np.full(4, 0.3), (0,))

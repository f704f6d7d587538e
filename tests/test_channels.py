import importlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from densecode.channels import (
    CorrelationSpec,
    CptpMap,
    PauliChannelSpec,
    SinglePartyPauliSpec,
    adjoint_map,
    apply_channel,
    apply_cptp,
    apply_pauli,
    channel_from_json,
    channel_to_json,
    correlated_probs,
    depolarizing_probs,
    embed_operator,
    fully_correlated_probs,
    pauli_kraus,
    product_probs,
    verify_covariance,
)
from densecode.displacement import displacement_op, local_encoding_set
from densecode.errors import (
    ChannelError,
    LayoutError,
    ParameterError,
    ProbabilityError,
)
from densecode.linalg import (
    SubsystemLayout,
    kron_all,
    random_density_matrix,
    random_hermitian,
)
from densecode.states import bell_diagonal, bell_state


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

    def test_completeness_enforced(self):
        with pytest.raises(ChannelError):
            CptpMap((np.eye(2) * 0.5,))

    def test_embed_operator_matches_kron_for_leading_slots(self):
        layout = SubsystemLayout([2, 3], 2)
        rng = np.random.default_rng(14)
        op = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        embedded = embed_operator(op, [0, 1], layout)
        assert np.abs(embedded - np.kron(op, np.eye(2))).max() < 1e-13

    def test_embed_operator_trailing_slot(self):
        layout = SubsystemLayout([2], 3)
        rng = np.random.default_rng(15)
        op = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        embedded = embed_operator(op, [1], layout)
        assert np.abs(embedded - np.kron(np.eye(2), op)).max() < 1e-13


class TestAdjoint:
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


class TestCovariance:
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

    def test_joint_tensor_validation(self):
        with pytest.raises(ProbabilityError):
            PauliChannelSpec((2,), np.full(4, 0.3), (0,))

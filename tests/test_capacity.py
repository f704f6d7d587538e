import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densecode.capacity import (
    EncodingEnsemble,
    OptimizerConfig,
    _entropy_objective,
    _factor_dims,
    _minimize_restarts,
    _on_chart,
    _polar_chart,
    _random_isometry,
    attaining_ensemble,
    capacity_covariant,
    capacity_nonunitary,
    closed_form_bd_fully_correlated,
    closed_form_bell_correlated,
    closed_form_depolarizing,
    closed_form_ghz_fully_correlated,
    depolarizing_invariance_check,
    encode_with_unitary,
    holevo,
    lemma2_orthogonality_check,
)
from densecode.channels import (
    CorrelationSpec,
    CptpMap,
    SinglePartyPauliSpec,
    apply_channel,
    correlated_probs,
    depolarizing_probs,
    fully_correlated_probs,
    pauli_kraus,
    product_probs,
)
from densecode.displacement import local_encoding_set
from densecode.errors import (
    NonCovariantChannelError,
    NumericalError,
    ParameterError,
    ProbabilityError,
)
from densecode.linalg import (
    SubsystemLayout,
    partial_trace,
    random_density_matrix,
    random_unitary,
    von_neumann_entropy,
)
from densecode.states import assemble_product, bell_diagonal, bell_state, ghz_state

H_FROZEN = 1.8464393446710154  # Shannon entropy of (0.4, 0.3, 0.2, 0.1)
QUICK = OptimizerConfig(restarts=3, max_iters=100, seed=42)


def identity_channel(layout):
    singles = [depolarizing_probs(d, 0.0) for d in layout.dims]
    acts = list(range(len(layout.dims)))
    return product_probs(singles, acts)


def random_single(d, rng):
    q = rng.random((d, d))
    return SinglePartyPauliSpec(d, q / q.sum())


def bell_depolarized_capacity_oracle(p):
    """Independent route to the qubit Bell + depolarizing capacity.

    (V_m1n1 x V_m2n2)|Phi00> lies on the Bell label (m1-m2, n1+n2) mod 2, so
    the output is Bell diagonal with weights accumulated over label pairs;
    the capacity is 2 - H(weights).
    """
    q = {(0, 0): 1 - p + p / 4, (0, 1): p / 4, (1, 0): p / 4, (1, 1): p / 4}
    w = {}
    for (m1, n1), q1 in q.items():
        for (m2, n2), q2 in q.items():
            lab = ((m1 - m2) % 2, (n1 + n2) % 2)
            w[lab] = w.get(lab, 0.0) + q1 * q2
    entropy = -sum(v * math.log2(v) for v in w.values() if v > 0)
    return 2.0 - entropy


class TestHolevo:
    def test_single_member_zero(self):
        layout = SubsystemLayout([2], 2)
        ens = EncodingEnsemble(((1.0, np.eye(2)),))
        chi = holevo(ens, identity_channel(layout), bell_state(2), layout)
        assert abs(chi) < 1e-12

    def test_noiseless_bell_reaches_two_bits(self):
        layout = SubsystemLayout([2], 2)
        enc = local_encoding_set([2])
        ens = attaining_ensemble(np.eye(2), enc)
        chi = holevo(ens, identity_channel(layout), bell_state(2), layout)
        assert abs(chi - 2.0) < 1e-9

    def test_fully_depolarized_kills_information(self):
        layout = SubsystemLayout([2], 2)
        chan = product_probs([depolarizing_probs(2, 1.0)] * 2)
        enc = local_encoding_set([2])
        ens = attaining_ensemble(np.eye(2), enc)
        chi = holevo(ens, chan, bell_state(2), layout)
        assert abs(chi) < 1e-12

    def test_never_exceeds_capacity_bound(self):
        rng = np.random.default_rng(40)
        layout = SubsystemLayout([2], 2)
        singles = [random_single(2, rng) for _ in range(2)]
        chan = correlated_probs(singles, CorrelationSpec.uniform(2, 0.5))
        report = capacity_covariant(bell_state(2), chan, layout, "local", QUICK)
        for _ in range(5):
            members = []
            weights = rng.random(4)
            weights /= weights.sum()
            for w in weights:
                members.append((w, random_unitary(2, rng)))
            chi = holevo(EncodingEnsemble(tuple(members)), chan, bell_state(2), layout)
            assert chi <= report.capacity_bits + 1e-6

    def test_ensemble_validation(self):
        with pytest.raises(ProbabilityError):
            EncodingEnsemble(((0.7, np.eye(2)),))
        with pytest.raises(NumericalError):
            EncodingEnsemble(((1.0, 2.0 * np.eye(2)),))


class TestAttainingEnsemble:
    def test_identity_gives_displacement_encoders(self):
        enc = local_encoding_set([2])
        ens = attaining_ensemble(np.eye(2), enc)
        assert len(ens.members) == 4
        assert all(abs(p - 0.25) < 1e-15 for p, _ in ens.members)
        for (_, got), want in zip(ens.members, enc.operators):
            assert np.abs(got - want).max() < 1e-15

    def test_two_sender_member_count(self):
        enc = local_encoding_set([2, 2])
        ens = attaining_ensemble(np.eye(4), enc)
        assert len(ens.members) == 16

    def test_cptp_members_conjugate(self):
        enc = local_encoding_set([2])
        gamma = CptpMap((np.eye(2),))
        ens = attaining_ensemble(gamma, enc)
        assert all(isinstance(m, CptpMap) for _, m in ens.members)

    def test_mixing_term_identity(self):
        # first Holevo term of the attaining ensemble: log D_A + S(Lambda_b rho_b)
        rng = np.random.default_rng(41)
        layout = SubsystemLayout([2], 2)
        singles = [random_single(2, rng) for _ in range(2)]
        chan = correlated_probs(singles, CorrelationSpec.uniform(2, 0.3))
        rho = random_density_matrix(4, rng)
        enc = local_encoding_set([2])
        ens = attaining_ensemble(random_unitary(2, rng), enc)
        average = np.zeros((4, 4), dtype=complex)
        for p, u in ens.members:
            average += p * apply_channel(chan, encode_with_unitary(rho, u, layout), layout)
        out_b = partial_trace(apply_channel(chan, rho, layout), layout, {1})
        expected = math.log2(2) + von_neumann_entropy(out_b)
        assert abs(von_neumann_entropy(average) - expected) < 1e-9
        assert np.abs(average - np.kron(np.eye(2) / 2, out_b)).max() < 1e-10


def central_difference_gradient(fun, x, h=1e-6):
    """Central differences of ``fun`` in every coordinate: the oracle for the
    exact gradient."""
    steps = h * np.eye(len(x))
    return np.array([(fun(x + e)[0] - fun(x - e)[0]) / (2 * h) for e in steps])


@st.composite
def chart_problems(draw):
    """(layout, factor dims, env_dim, rho, Pauli spec, chart start, chart point).

    Qubit or qutrit senders, local or global factors, environments of
    dimension 1 to 3, a correlated Pauli channel with full support on every
    slot, random isometries as the chart base and a random offset from it.
    """
    sender_dims, receiver = draw(st.sampled_from([((2,), 2), ((2, 2), 2), ((3,), 3)]))
    layout = SubsystemLayout(sender_dims, receiver)
    dims = _factor_dims(layout, draw(st.sampled_from(["local", "global"])))
    env = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parties = len(layout.dims)
    mu = np.zeros((parties, parties))
    mu[np.triu_indices(parties, 1)] = rng.random(parties * (parties - 1) // 2)
    spec = correlated_probs([random_single(receiver, rng) for _ in range(parties)],
                            CorrelationSpec(mu + mu.T))
    v0 = [_random_isometry(rng, env * d, d) for d in dims]
    x = 0.1 * rng.standard_normal(2 * sum(v.size for v in v0))
    return layout, dims, env, random_density_matrix(layout.total_dim, rng), spec, v0, x


class TestEntropyGradient:
    @settings(max_examples=30, deadline=None)
    @given(chart_problems())
    def test_matches_central_differences(self, problem):
        layout, dims, env, rho, spec, v0, x = problem
        grads = []
        for channel in (spec, pauli_kraus(spec)):
            fun, _ = _on_chart(_entropy_objective(rho, channel, layout, dims, env), v0)
            _, grad = fun(x)
            assert np.abs(grad - central_difference_gradient(fun, x)).max() < 1e-6
            grads.append(grad)
        assert np.abs(grads[0] - grads[1]).max() < 1e-10


class TestParameterizations:
    """The polar chart V = polar(V0 + Delta) that encoders are searched on."""

    def test_hermitian_round_trip(self):
        # Every isometry W is reached from any centre V0 at Delta = W - V0.
        rng = np.random.default_rng(42)
        for d, env in ((2, 1), (3, 1), (4, 1), (2, 3)):
            shape = (d * env, d)
            v0 = _random_isometry(rng, *shape)
            w = _random_isometry(rng, *shape)
            v, _ = _polar_chart(v0, w - v0)
            assert np.abs(v - w).max() < 1e-12

    def test_isometry_orthonormal(self):
        rng = np.random.default_rng(43)
        for d, env in ((2, 1), (2, 3), (3, 2), (3, 1)):
            for _ in range(20):
                shape = (d * env, d)
                v0 = _random_isometry(rng, *shape)
                delta = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                v, _ = _polar_chart(v0, delta)
                assert np.abs(v.conj().T @ v - np.eye(d)).max() < 1e-12

    def test_isometry_identity_on_orthonormal_input(self):
        rng = np.random.default_rng(44)
        u = random_unitary(3, rng)
        a = np.zeros((6, 3), dtype=complex)
        a[:3] = u
        v, _ = _polar_chart(a, np.zeros_like(a))
        assert np.abs(v - a).max() < 1e-12


class TestCapacityCovariant:
    @pytest.mark.parametrize("d", [2, 3])
    def test_noiseless_bell(self, d):
        layout = SubsystemLayout([d], d)
        report = capacity_covariant(
            bell_state(d), identity_channel(layout), layout, "local", QUICK
        )
        assert abs(report.capacity_bits - math.log2(d * d)) < 1e-6
        assert report.min_output_entropy_bits < 1e-9
        assert abs(report.holevo_crosscheck_bits - report.capacity_bits) < 1e-6

    def test_report_bookkeeping_identity(self):
        layout = SubsystemLayout([2], 2)
        chan = product_probs([depolarizing_probs(2, 0.25)] * 2)
        report = capacity_covariant(bell_state(2), chan, layout, "local", QUICK)
        lhs = report.capacity_bits
        rhs = (
            report.log_sender_dim
            + report.receiver_entropy_bits
            - report.min_output_entropy_bits
        )
        assert abs(lhs - rhs) < 1e-12
        assert report.optimizer_trace[0][0] == 0

    def test_depolarizing_matches_independent_oracle(self):
        layout = SubsystemLayout([2], 2)
        chan = product_probs([depolarizing_probs(2, 0.25)] * 2)
        report = capacity_covariant(bell_state(2), chan, layout, "local", QUICK)
        assert abs(report.capacity_bits - bell_depolarized_capacity_oracle(0.25)) < 1e-6

    def test_global_at_least_local(self):
        rng = np.random.default_rng(45)
        layout = SubsystemLayout([2, 2], 2)
        rho = random_density_matrix(8, rng)
        singles = [random_single(2, rng) for _ in range(3)]
        chan = correlated_probs(singles, CorrelationSpec.uniform(3, 0.5))
        lo = capacity_covariant(rho, chan, layout, "local", QUICK)
        g = capacity_covariant(rho, chan, layout, "global", QUICK)
        assert g.capacity_bits >= lo.capacity_bits - 1e-6

    def test_deterministic_given_seed(self):
        layout = SubsystemLayout([2], 2)
        chan = product_probs([depolarizing_probs(2, 0.3)] * 2)
        cfg = OptimizerConfig(restarts=3, seed=7)
        a = capacity_covariant(bell_state(2), chan, layout, "local", cfg)
        b = capacity_covariant(bell_state(2), chan, layout, "local", cfg)
        assert a.capacity_bits == b.capacity_bits
        assert a.optimizer_trace == b.optimizer_trace

    def test_non_covariant_channel_rejected(self):
        layout = SubsystemLayout([2], 2)
        gamma = 0.6
        k0 = np.diag([1.0, math.sqrt(1 - gamma)])
        k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])
        damping = CptpMap((np.kron(k0, np.eye(2)), np.kron(k1, np.eye(2))))
        with pytest.raises(NonCovariantChannelError):
            capacity_covariant(bell_state(2), damping, layout, "local", QUICK)

    def test_optimizer_config_validation(self):
        with pytest.raises(ParameterError):
            OptimizerConfig(restarts=0)

    def test_aborted_restart_is_logged(self, caplog):
        # Restart 0 starts at the identity, where this objective is zero and
        # flat; restart 1 starts at a seeded random unitary, where it raises.
        def objective(vs):
            dev = vs[0] - np.eye(3)
            if np.abs(dev).max() > 0.5:
                raise NumericalError("channel failed to preserve trace by 1.000e-03")
            return float(np.sum(np.abs(dev) ** 2)), [2.0 * dev]

        cfg = OptimizerConfig(restarts=2, max_iters=20, seed=42)
        with caplog.at_level(logging.WARNING, logger="densecode"):
            value, _, trace = _minimize_restarts(objective, (3,), 1, cfg)
        assert value == 0.0 and trace == ((0, 0.0),)
        assert [(r.name, r.levelno) for r in caplog.records] == [
            ("densecode", logging.WARNING)]
        assert caplog.records[0].getMessage() == (
            "restart 1 aborted: NumericalError: "
            "channel failed to preserve trace by 1.000e-03")
        assert any(isinstance(h, logging.NullHandler)
                   for h in logging.getLogger("densecode").handlers)


class TestCapacityNonunitary:
    def test_trivial_environment_matches_unitary(self):
        layout = SubsystemLayout([2], 2)
        chan = product_probs([depolarizing_probs(2, 0.3)] * 2)
        unitary = capacity_covariant(bell_state(2), chan, layout, "local", QUICK)
        nonunit = capacity_nonunitary(
            bell_state(2), chan, layout, "local", env_dim=1, cfg=QUICK
        )
        assert abs(nonunit.capacity_bits - unitary.capacity_bits) < 1e-6

    def test_noiseless_bell_two_bits(self):
        layout = SubsystemLayout([2], 2)
        report = capacity_nonunitary(
            bell_state(2), identity_channel(layout), layout, "local", env_dim=2, cfg=QUICK
        )
        assert abs(report.capacity_bits - 2.0) < 1e-6
        assert isinstance(report.encoder_at_min, CptpMap)

    def test_bell_diagonal_fully_correlated_closed_form(self):
        layout = SubsystemLayout([2], 2)
        weights = (0.4, 0.3, 0.2, 0.1)
        chan = fully_correlated_probs(2, [0.25, 0.3, 0.25, 0.2])
        report = capacity_nonunitary(
            bell_diagonal(weights), chan, layout, "local", env_dim=2, cfg=QUICK
        )
        closed = closed_form_bd_fully_correlated(1, weights)
        assert abs(report.capacity_bits - closed) < 1e-6

    def test_env_dim_range_checked(self):
        layout = SubsystemLayout([2], 2)
        with pytest.raises(ParameterError):
            capacity_nonunitary(
                bell_state(2), identity_channel(layout), layout, "local", env_dim=5,
                cfg=QUICK,
            )


class TestClosedForms:
    def test_bell_correlated_noiseless(self):
        chan = product_probs([depolarizing_probs(2, 0.0)])
        assert abs(closed_form_bell_correlated(chan, [2]) - 2.0) < 1e-12

    def test_bell_correlated_uncorrelated_additivity(self):
        rng = np.random.default_rng(46)
        single = random_single(2, rng)
        h_one = -(single.q * np.log2(single.q)).sum()
        for k in (1, 2, 3):
            chan = product_probs([single] * k)
            got = closed_form_bell_correlated(chan, [2] * k)
            assert abs(got - k * (2.0 - h_one)) < 1e-10

    def test_bell_fully_correlated_uniform(self):
        # k copies at d=2 with uniform fully correlated q: 2k - 2 bits, so
        # the per-copy rate approaches log2(d^2) as k grows
        chan2 = fully_correlated_probs(2, [0.25] * 4)
        assert abs(closed_form_bell_correlated(chan2, [2, 2]) - 2.0) < 1e-12
        chan4 = fully_correlated_probs(4, [0.25] * 4)
        assert abs(closed_form_bell_correlated(chan4, [2, 2, 2, 2]) - 6.0) < 1e-12

    def test_bell_correlated_rejects_receiver_noise(self):
        chan = product_probs([depolarizing_probs(2, 0.1)] * 2, acts_on=[0, 1])
        with pytest.raises(ParameterError):
            closed_form_bell_correlated(chan, [2])

    def test_bd_bell_weights_give_two_per_copy(self):
        for k in (1, 3):
            assert abs(closed_form_bd_fully_correlated(k, [1, 0, 0, 0]) - 2.0 * k) < 1e-12

    def test_bd_uniform_weights_zero(self):
        assert abs(closed_form_bd_fully_correlated(1, [0.25] * 4)) < 1e-12

    def test_bd_frozen_value(self):
        got = closed_form_bd_fully_correlated(1, [0.4, 0.3, 0.2, 0.1])
        assert abs(got - (2.0 - H_FROZEN)) < 1e-12

    def test_ghz_values(self):
        assert closed_form_ghz_fully_correlated(1) == 2.0
        assert closed_form_ghz_fully_correlated(2) == 4.0

    def test_depolarizing_endpoints(self):
        for k in (1, 2):
            assert abs(closed_form_depolarizing(bell_state(2), 0.0, k) - 2.0 * k) < 1e-9
            assert abs(closed_form_depolarizing(bell_state(2), 1.0, k)) < 1e-9

    def test_depolarizing_matches_independent_oracle(self):
        for p in (0.25, 0.5):
            got = closed_form_depolarizing(bell_state(2), p)
            assert abs(got - bell_depolarized_capacity_oracle(p)) < 1e-12


class TestCertificationHelpers:
    def test_lemma2_identity_unitary_exact(self):
        report = lemma2_orthogonality_check((2,), unitary=np.eye(2))
        assert report.max_cross_overlap < 1e-14
        assert report.max_purity_error < 1e-12

    def test_lemma2_random_unitary(self):
        report = lemma2_orthogonality_check((2, 2), seed=5)
        assert report.max_cross_overlap <= 1e-11
        assert report.max_purity_error <= 1e-12

    def test_depolarizing_invariance_small(self):
        assert depolarizing_invariance_check(bell_state(2), 0.3, trials=5, seed=3) <= 1e-9

    def test_ghz_fully_correlated_capacity(self):
        layout = SubsystemLayout([2, 2, 2], 2)
        chan = fully_correlated_probs(4, [0.4, 0.2, 0.2, 0.2])
        report = capacity_covariant(ghz_state(4), chan, layout, "local", QUICK)
        assert abs(report.capacity_bits - 4.0) < 1e-6
        assert report.min_output_entropy_bits < 1e-9

    def test_bd_copies_additive(self):
        weights = (0.4, 0.3, 0.2, 0.1)
        single = bell_diagonal(weights)
        rho, layout = assemble_product([single] * 2, [(2, 2)] * 2)
        chan = fully_correlated_probs(4, [0.3, 0.3, 0.2, 0.2]).with_acts_on((0, 1, 2, 2))
        report = capacity_covariant(rho, chan, layout, "local", QUICK)
        closed = closed_form_bd_fully_correlated(2, weights)
        assert abs(report.capacity_bits - closed) < 1e-5

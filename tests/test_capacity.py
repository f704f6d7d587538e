import functools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densecode import capacity, channels, cli
from densecode.capacity import (
    OptimizerConfig,
    _entropy_objective,
    _factor_dims,
    _minimize_restarts,
    _on_chart,
    _polar_chart,
    capacity_covariant,
    capacity_nonunitary,
    closed_form_bd_fully_correlated,
    closed_form_bell_correlated,
    closed_form_depolarizing,
    closed_form_ghz_fully_correlated,
    depolarizing_invariance_check,
    encode_with_unitary,
    lemma2_orthogonality_check,
)
from densecode.channels import (
    CorrelationSpec,
    CptpMap,
    PauliChannelSpec,
    SinglePartyPauliSpec,
    adjoint_map,
    apply_channel,
    correlated_probs,
    depolarizing_probs,
    fully_correlated_probs,
    product_probs,
    verify_covariance,
)
from densecode.cli import run_scenario
from densecode.displacement import local_encoding_set, sender_generators
from densecode.errors import (
    LayoutError,
    NonCovariantChannelError,
    NumericalError,
    OptimizerDivergedError,
    ParameterError,
    ProbabilityError,
    SizeLimitError,
)
from densecode.linalg import (
    EIG_CLIP,
    SubsystemLayout,
    complex_gaussian,
    partial_trace,
    random_density_matrix,
    random_isometry,
    random_unitary,
    von_neumann_entropy,
)
from densecode.states import (
    assemble_product,
    bell_copies,
    bell_diagonal,
    bell_state,
    ghz_state,
)
from oracles import EncodingEnsemble, attaining_ensemble, holevo, pauli_kraus
from test_acceptance import criterion_04_channels

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

    def test_encoder_shape_checked(self):
        # A 3x2 isometry is a CPTP map from dimension 2 to 3; neither it nor
        # a 4x4 unitary encodes a qubit sender.
        layout = SubsystemLayout([2], 2)
        iso = random_isometry(3, 2, np.random.default_rng(45))
        for encoder in (CptpMap((iso,)), np.eye(4)):
            ens = EncodingEnsemble(((1.0, encoder),))
            with pytest.raises(LayoutError):
                holevo(ens, identity_channel(layout), bell_state(2), layout)

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
        for (_, got), want in zip(ens.members, enc):
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
    v0 = [random_isometry(env * d, d, rng) for d in dims]
    x = 0.1 * rng.standard_normal(2 * sum(v.size for v in v0))
    return layout, dims, env, random_density_matrix(layout.total_dim, rng), spec, v0, x


def tensordot_objective(rho, channel, layout, dims, env):
    """The entropy objective built the slow way: the oracle for
    ``_entropy_objective``.

    The joint Kraus stack and the factor gradients come from multi-operand
    einsums, the encoding from explicit kron(K, 1) products, and
    Tr_B[G (K x 1) rho] from two tensordots through a D_A^4 intermediate.
    """
    adjoint = adjoint_map(channel, layout)
    da, db = layout.sender_dim, layout.receiver_dim
    rho4 = rho.reshape(da, db, da, db)

    def objective(vs):
        factors = [v.reshape(env, d, d) for v, d in zip(vs, dims)]
        k = len(factors)
        operands = []
        for j, f in enumerate(factors):
            operands += [f, [j, k + j, 2 * k + j]]
        ks = np.einsum(*operands, list(range(3 * k))).reshape(-1, da, da)
        lifted = [np.kron(kt, np.eye(db)) for kt in ks]
        sigma = apply_channel(
            channel, sum(m @ rho @ m.conj().T for m in lifted), layout)
        w, u = np.linalg.eigh(sigma)
        g = adjoint((u * np.log2(np.maximum(w, EIG_CLIP))) @ u.conj().T)
        # Tr_B[G (K x 1) rho][a, z] = sum_xc K[x, c] r[a, x, c, z]
        r = np.tensordot(g.reshape(da, db, da, db), rho4, axes=([1, 3], [3, 1]))
        grad = -2.0 * np.tensordot(ks, r, axes=([1, 2], [1, 2]))
        grad = grad.reshape([f.shape[0] for f in factors]
                            + [f.shape[1] for f in factors] * 2)
        grads = []
        for j, d in enumerate(dims):
            operands = [grad, list(range(3 * k))]
            for m, f in enumerate(factors):
                if m != j:
                    operands += [f.conj(), [m, k + m, 2 * k + m]]
            grads.append(np.einsum(*operands, [j, k + j, 2 * k + j]).reshape(env * d, d))
        return von_neumann_entropy(sigma), grads

    return objective


def stacked(objective):
    """A one-encoder objective, vs -> (value, per-factor gradients), as a
    stacked one that runs it member by member."""
    def run(vs):
        outs = [objective(list(member)) for member in zip(*vs)]
        return (np.array([value for value, _ in outs]),
                [np.stack(g) for g in zip(*(grads for _, grads in outs))])

    return run


def one_member(objective):
    """A stacked objective on the one encoder vs: (value, per-factor gradients)."""
    def run(vs):
        values, grads = objective([v[None] for v in vs])
        return values[0], [g[0] for g in grads]

    return run


def one_chart(objective, v0):
    """``_on_chart`` on the one restart v0: fun(x) -> (value, gradient) and
    point(x)."""
    fun, point = _on_chart(objective, [v0])

    def one(x):
        values, grads = fun([0], x[None])
        return values[0], grads[0]

    return one, lambda x: point(0, x)


class TestEntropyGradient:
    @settings(max_examples=30, deadline=None)
    @given(chart_problems())
    def test_matches_central_differences(self, problem):
        layout, dims, env, rho, spec, v0, x = problem
        grads = []
        for channel in (spec, pauli_kraus(spec)):
            fun, _ = one_chart(_entropy_objective(rho, channel, layout, dims, env), v0)
            _, grad = fun(x)
            assert np.abs(grad - central_difference_gradient(fun, x)).max() < 1e-6
            grads.append(grad)
        assert np.abs(grads[0] - grads[1]).max() < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(chart_problems())
    def test_matches_tensordot_oracle(self, problem):
        # Local and global factors, env 1-3, qubit and qutrit senders, and the
        # same channel as a Pauli spec and as its Kraus map.
        layout, dims, env, rho, spec, v0, _ = problem
        for channel in (spec, pauli_kraus(spec)):
            value, grads = one_member(_entropy_objective(rho, channel, layout, dims, env))(v0)
            want_value, want_grads = tensordot_objective(rho, channel, layout, dims, env)(v0)
            assert abs(value - want_value) <= 1e-12
            for got, want in zip(grads, want_grads, strict=True):
                assert np.abs(got - want).max() <= 1e-12


# (sender dims, receiver dim, party dims, acts_on): qubit, qutrit and mixed
# slots, an untouched slot, and a tiled sender and receiver slot.
LOW_RANK_LAYOUTS = [
    ((2,), 2, (2, 2), (0, 1)),
    ((2, 2), 2, (2, 2, 2), (0, 1, 2)),
    ((3,), 3, (3, 3), (0, 1)),
    ((2, 3), 2, (3, 2), (1, 2)),
    ((4,), 2, (2, 2, 2), (0, 0, 1)),
    ((2,), 4, (2, 2, 2), (0, 1, 1)),
]


@st.composite
def low_rank_problems(draw):
    """(layout, factor dims, env_dim, rho, Pauli spec, chart start, chart
    point) for the factored objective.

    A rank 1-3 state; a spec with one to four random nonzero terms (sparse)
    or, for parties of one dimension, one label shared by every party
    (fully correlated); local or global factors; environments 1 and 2.
    """
    sender_dims, receiver, party_dims, acts_on = draw(st.sampled_from(LOW_RANK_LAYOUTS))
    layout = SubsystemLayout(sender_dims, receiver)
    dims = _factor_dims(layout, draw(st.sampled_from(["local", "global"])))
    env = draw(st.integers(1, 2))
    rank = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = tuple(d * d for d in party_dims)
    joint = np.zeros(shape)
    if len(set(party_dims)) == 1 and draw(st.booleans()):
        labels = np.arange(shape[0])
        joint[(labels,) * len(party_dims)] = rng.random(shape[0])
    else:
        joint.flat[rng.choice(joint.size, draw(st.integers(1, 4)), replace=False)] = 1.0
        joint *= rng.random(shape)
    spec = PauliChannelSpec(party_dims, joint / joint.sum(), acts_on)
    psi = complex_gaussian(layout.total_dim, rank, rng)
    rho = psi @ psi.conj().T
    v0 = [random_isometry(env * d, d, rng) for d in dims]
    x = 0.1 * rng.standard_normal(2 * sum(v.size for v in v0))
    return layout, dims, env, rho / np.trace(rho), spec, v0, x


def objective_on(path, rho, channel, layout, dims, env):
    """``_entropy_objective`` with FACTORED_COLUMN_RATIO moved so that it
    takes ``path`` on this input, and the list of (path, width) of its
    member-kernel calls."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(capacity, "FACTORED_COLUMN_RATIO",
                      2.0**-10 if path == "factored" else 2**30)
        calls = recording_members(patch)
        return _entropy_objective(rho, channel, layout, dims, env), calls


class TestFactoredObjective:
    """The factored member kernel against the dense one, its oracle."""

    @settings(max_examples=60, deadline=None)
    @given(low_rank_problems(), st.integers(1, 3))
    def test_matches_dense_objective(self, problem, members):
        layout, dims, env, rho, spec, v0, _ = problem
        rng = np.random.default_rng(members)
        vs = [np.stack([v] + [random_isometry(*v.shape, rng) for _ in range(members - 1)])
              for v in v0]
        factored, factored_calls = objective_on("factored", rho, spec, layout, dims, env)
        dense, dense_calls = objective_on("dense", rho, spec, layout, dims, env)
        values, grads = factored(vs)
        want_values, want_grads = dense(vs)
        assert factored_calls == [("factored", members)]
        assert dense_calls == [("dense", members)]
        assert np.abs(values - want_values).max() <= 1e-12
        for got, want in zip(grads, want_grads, strict=True):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(low_rank_problems())
    def test_chart_gradient_matches_central_differences(self, problem):
        layout, dims, env, rho, spec, v0, x = problem
        objective, calls = objective_on("factored", rho, spec, layout, dims, env)
        fun, _ = one_chart(objective, v0)
        _, grad = fun(x)
        assert np.abs(grad - central_difference_gradient(fun, x)).max() < 1e-6
        assert {path for path, _ in calls} == {"factored"}

    @pytest.mark.parametrize("rank, env, channel, path, eigh", [
        (1, 1, "pauli", "factored", True),    # n = 4 <= D / 2
        (2, 1, "pauli", "factored", True),    # n = 8 = D / 2
        (3, 1, "pauli", "dense", True),       # n = 12 > D / 2
        (16, 1, "pauli", "dense", True),      # full rank
        (1, 2, "pauli", "dense", False),      # T E = 4 * 2^3 > D / 2: no eigh
        (1, 1, "kraus", "dense", False),      # a CptpMap
    ])
    def test_selection_rule(self, monkeypatch, rank, env, channel, path, eigh):
        # ghz-full's layout and fully correlated channel at D = 16, T = 4.
        layout = SubsystemLayout([2, 2, 2], 2)
        spec = fully_correlated_probs(4, [0.85, 0.05, 0.05, 0.05])
        rng = np.random.default_rng(rank)
        psi = complex_gaussian(16, rank, rng)
        rho = psi @ psi.conj().T / np.vdot(psi, psi).real
        factors, low_rank = [], capacity._low_rank_factor
        monkeypatch.setattr(capacity, "_low_rank_factor",
                            lambda r: factors.append(r) or low_rank(r))
        calls = recording_members(monkeypatch)
        chan = spec if channel == "pauli" else pauli_kraus(spec)
        objective = _entropy_objective(rho, chan, layout, (2, 2, 2), env)
        objective([np.stack([random_isometry(env * 2, 2, rng)] * 2)] * 3)
        assert calls == [(path, 2)]
        assert len(factors) == eigh

    def test_rank_cut_reproduces_rho(self):
        rng = np.random.default_rng(4)
        u = random_unitary(8, rng)
        for w, rank in (([0.5, 0.3, 0.2] + [0.0] * 5, 3),
                        ([0.6, 0.4, 3e-13, 2e-13, 1e-13, 1e-13, 0.0, -1e-13], 2),
                        ([1.0] + [3e-13] * 7, 5),
                        ([1 / 8] * 8, 8)):
            rho = (u * np.array(w)) @ u.conj().T
            psi_t = capacity._low_rank_factor(rho)
            assert psi_t.shape == (rank, 8)
            assert np.abs(psi_t.T @ psi_t.conj() - rho).max() <= capacity.RANK_CUT_TOL
        indefinite = (u * np.array([0.7, 0.3 + 1e-11] + [0.0] * 5 + [-1e-11])) @ u.conj().T
        assert capacity._low_rank_factor(indefinite) is None
        assert capacity._low_rank_factor(np.zeros((8, 8), dtype=complex)) is None
        # eigh reads one triangle; the reconstruction catches the other.
        skewed = rho + 1e-9 * np.triu(complex_gaussian(8, 8, rng), 1)
        assert capacity._low_rank_factor(skewed) is None

    def test_members_are_checked_one_by_one(self):
        # A member scaled off the isometries fails the Gram trace check, a
        # non-finite one the finiteness check; _members isolates each.
        layout = SubsystemLayout([2, 2, 2], 2)
        spec = fully_correlated_probs(4, [0.85, 0.05, 0.05, 0.05])
        rho = ghz_state(4)
        rng = np.random.default_rng(5)
        objective, calls = objective_on("factored", rho, spec, layout, (2, 2, 2), 1)
        vs = [np.stack([random_isometry(2, 2, rng) for _ in range(3)]) for _ in range(3)]
        vs[0][1] *= 1.01
        vs[2][2, 0, 0] = np.nan

        def values(ids, xs):
            return (objective([v[ids] for v in vs])[0],)

        outcomes = capacity._members(values, [0, 1, 2], np.zeros((3, 1)))
        assert isinstance(outcomes[0], tuple)
        assert isinstance(outcomes[1], NumericalError)
        assert "trace off by" in str(outcomes[1])
        assert isinstance(outcomes[2], NumericalError)
        assert "non-finite" in str(outcomes[2])
        assert {path for path, _ in calls} == {"factored"}

    def test_debug_line_names_the_path(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="densecode"):
            run_scenario({**SCENARIO_FAMILIES["ghz-full"], "seed": 7})
            run_scenario({**SCENARIO_FAMILIES["depolarizing-d3"], "seed": 7})
        lines = [r.getMessage() for r in caplog.records if "entropy objective" in r.getMessage()]
        assert lines == [
            "entropy objective: factored path, D = 16, rank 1, 4 terms, 4 columns",
            "entropy objective: dense path, D = 9, rank None, 81 terms, None columns",
        ]


def gram_pullback(a, grad):
    """Adjoint of dA -> d polar(A) at A, written with A and the Gram factor
    P = (A^dag A)^(-1/2) as dV = dA P + A dP: the oracle for the pullback of
    ``_polar_chart``, which works in the singular bases instead."""
    u, s, wh = np.linalg.svd(a, full_matrices=False)
    w = wh.conj().T
    p = (w / s) @ wh
    divided = -1.0 / (np.multiply.outer(s, s) * np.add.outer(s, s))
    b = w @ (divided * (wh @ grad.conj().T @ a @ w)) @ wh
    return grad @ p + a @ (b + b.conj().T)


def factor_loop_chart(objective, v0, x):
    """(value, gradient in x, points) of the chart at x with one
    ``_polar_chart`` call per factor: the oracle for the stacked chart.

    x holds the factors grouped by shape, groups in order of first
    appearance, as ``_on_chart`` lays it out.
    """
    first = {}
    for j, v in enumerate(v0):
        first.setdefault(v.shape, j)
    order = sorted(range(len(v0)), key=lambda j: first[v0[j].shape])
    z = x.view(complex)
    starts = np.cumsum([0] + [v0[j].size for j in order])
    deltas = {j: z[lo:lo + v0[j].size].reshape(v0[j].shape)
              for j, lo in zip(order, starts)}
    charts = [_polar_chart(v, deltas[j]) for j, v in enumerate(v0)]
    value, grads = objective([v for v, _ in charts])
    grad = np.concatenate([charts[j][1](grads[j]).ravel() for j in order])
    return value, grad.view(float), [v for v, _ in charts]


class TestParameterizations:
    """The polar chart V = polar(V0 + Delta) that encoders are searched on."""

    def test_hermitian_round_trip(self):
        # Every isometry W is reached from any centre V0 at Delta = W - V0.
        rng = np.random.default_rng(42)
        for d, env in ((2, 1), (3, 1), (4, 1), (2, 3)):
            shape = (d * env, d)
            v0 = random_isometry(*shape, rng)
            w = random_isometry(*shape, rng)
            v, _ = _polar_chart(v0, w - v0)
            assert np.abs(v - w).max() < 1e-12

    def test_isometry_orthonormal(self):
        rng = np.random.default_rng(43)
        for d, env in ((2, 1), (2, 3), (3, 2), (3, 1)):
            for _ in range(20):
                shape = (d * env, d)
                v0 = random_isometry(*shape, rng)
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

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(2, 2, 2), (2, 3), (3, 2, 3), (4,), (8,)]),
           st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_stacked_chart_matches_factor_loop(self, dims, env, restarts, seed):
        # Local factors of equal and of mixed dims, a joint global factor,
        # environments 1-3, 1-3 restarts: the chart stacked over restarts and
        # factors against one chart per factor of each restart.
        rng = np.random.default_rng(seed)
        v0s = [[random_isometry(env * d, d, rng) for d in dims] for _ in range(restarts)]
        v0 = v0s[0]
        targets = [rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
                   for v in v0]

        def linear(vs):
            # Re sum_j <C_j, V_j>, whose gradient d/dRe + i d/dIm is C_j.
            return float(sum(np.vdot(c, v).real for c, v in zip(targets, vs))), targets

        xs = 0.3 * rng.standard_normal((restarts, 2 * sum(v.size for v in v0)))
        fun, point = _on_chart(stacked(linear), v0s)
        values, grads = fun(list(range(restarts)), xs)
        for i, (v0, x, value, grad) in enumerate(zip(v0s, xs, values, grads, strict=True)):
            want_value, want_grad, want_vs = factor_loop_chart(linear, v0, x)
            assert abs(value - want_value) <= 1e-12
            assert np.abs(grad - want_grad).max() <= 1e-12
            for got, want in zip(point(i, x), want_vs, strict=True):
                assert np.abs(got - want).max() <= 1e-12
        for shape in {v.shape for v in v0}:
            group = [j for j, v in enumerate(v0) if v.shape == shape]
            deltas = [targets[j] * 0.1 for j in group]
            stacked_v, stacked_pullback = _polar_chart(
                np.stack([v0[j] for j in group]), np.stack(deltas))
            pulled = stacked_pullback(np.stack([targets[j] for j in group]))
            for i, (j, delta) in enumerate(zip(group, deltas)):
                v, pullback = _polar_chart(v0[j], delta)
                assert np.abs(stacked_v[i] - v).max() <= 1e-12
                assert np.abs(pulled[i] - pullback(targets[j])).max() <= 1e-12
                want = gram_pullback(v0[j] + delta, targets[j])
                assert np.abs(pulled[i] - want).max() <= 1e-12


# ---------------------------------------------------------------------------
# The L-BFGS behind every restart
# ---------------------------------------------------------------------------

def rosenbrock(shift):
    """(value, gradient) of the Rosenbrock function moved by ``shift``: its
    minimum 0 sits at shift + 1."""
    def fun(x):
        z = x - shift
        r = z[1:] - z[:-1] ** 2
        grad = np.zeros_like(z)
        grad[:-1] = -400.0 * z[:-1] * r - 2.0 * (1.0 - z[:-1])
        grad[1:] += 200.0 * r
        return float(np.sum(100.0 * r**2 + (1.0 - z[:-1]) ** 2)), grad

    return fun


def quadratic(a, b, c):
    """(value, gradient) of 0.5 x.Ax - b.x + c."""
    return lambda x: (float(0.5 * x @ a @ x - b @ x + c), a @ x - b)


@st.composite
def spd_quadratics(draw):
    """(fun, minimum, start) of 0.5 x.Ax - b.x + c in 1 to 8 dimensions, A of
    eigenvalues in [0.5, 20] in a random basis, c in [-100, 100], the start
    up to 10 from the minimizer in each coordinate."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * rng.uniform(0.5, 20.0, n)) @ q.T
    b = rng.standard_normal(n)
    fun = quadratic(a, b, rng.uniform(-100.0, 100.0))
    x_min = np.linalg.solve(a, b)
    return fun, fun(x_min)[0], x_min + rng.uniform(-10.0, 10.0, n)


@st.composite
def shifted_rosenbrocks(draw):
    """(fun, minimum, start) of a shifted Rosenbrock function in 2 or 3
    dimensions (from 4 on it has a second local minimum), the start up to 1.5
    from the minimizer in each coordinate."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = rng.uniform(-3.0, 3.0, draw(st.integers(2, 3)))
    return rosenbrock(shift), 0.0, shift + 1.0 + rng.uniform(-1.5, 1.5, shift.size)


def recording_line_search(patch):
    """Wrap the ``capacity._line_search`` generator through ``patch`` (a
    MonkeyPatch) and return the list it fills with (f0, slope0, step, f,
    slope) per accepted step, slopes taken along the step's direction."""
    accepted, line_search = [], capacity._line_search

    def recording(x, f0, g0, d, step):
        found = yield from line_search(x, f0, g0, d, step)
        if found is not None:
            accepted.append((f0, g0 @ d, found[0], found[1], found[2] @ d))
        return found

    patch.setattr(capacity, "_line_search", recording)
    return accepted


class TestMinimize:
    """``capacity.minimize``: L-BFGS steps by a strong Wolfe line search."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(spd_quadratics(), shifted_rosenbrocks()))
    def test_strong_wolfe_steps_reach_the_minimum(self, problem):
        fun, f_min, x0 = problem
        calls = []

        def counted(x):
            calls.append(None)
            return fun(x)

        with pytest.MonkeyPatch.context() as patch:
            accepted = recording_line_search(patch)
            result = capacity.minimize(counted, x0, max_iters=500)
        assert result.status == 0
        assert (result.nit, result.nfev) == (len(accepted), len(calls))
        # c1 = 1e-4 and c2 = 0.9, written out rather than read from the module.
        for f0, slope0, step, f, slope in accepted:
            assert slope0 < 0.0 < step
            assert f <= f0 + 1e-4 * step * slope0
            assert abs(slope) <= 0.9 * abs(slope0)
        # The optimizer's rung of the tolerance ladder, in value.
        assert result.fun - f_min <= 1e-8

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 10))
    def test_iteration_limit_gives_status_1(self, max_iters):
        # From (-1.2, 1) the Rosenbrock valley takes more than 10 iterations.
        result = capacity.minimize(rosenbrock(np.zeros(2)), [-1.2, 1.0], max_iters)
        assert (result.status, result.nit) == (1, max_iters)

    def test_wrong_gradient_gives_status_2(self):
        # With the gradient negated every search direction climbs the value,
        # so no step meets the sufficient-decrease condition.
        fun = quadratic(np.diag([1.0, 4.0]), np.array([1.0, -2.0]), 3.0)
        x0 = np.array([5.0, 5.0])
        result = capacity.minimize(lambda x: (fun(x)[0], -fun(x)[1]), x0, max_iters=50)
        assert (result.status, result.nit) == (2, 0)
        assert result.nfev == 1 + capacity.LINE_SEARCH_EVALS
        assert np.array_equal(result.x, x0) and result.fun == fun(x0)[0]

    def test_error_from_fun_propagates(self):
        fun, calls = rosenbrock(np.zeros(2)), []

        def failing(x):
            calls.append(None)
            if len(calls) == 3:
                raise NumericalError("channel failed to preserve trace")
            return fun(x)

        with pytest.raises(NumericalError, match="preserve trace"):
            capacity.minimize(failing, [-1.2, 1.0], max_iters=50)


# ---------------------------------------------------------------------------
# scipy's L-BFGS-B as the oracle of the numpy L-BFGS
# ---------------------------------------------------------------------------

SCENARIO_FAMILIES = {
    "bell-correlated-local": {
        "scenario": "bell-correlated", "mode": "local", "state": {"dims": [2, 2]},
        "channel": {"singles": [[[0.7, 0.1], [0.1, 0.1]], [[0.6, 0.2], [0.1, 0.1]]],
                    "mu": 0.5}},
    "bell-correlated-global": {
        "scenario": "bell-correlated", "mode": "global", "state": {"dims": [2, 2]},
        "channel": {"singles": [[[0.7, 0.1], [0.1, 0.1]], [[0.6, 0.2], [0.1, 0.1]]],
                    "mu": 0.5}},
    "bell-diagonal-full": {
        "scenario": "bell-diagonal-full",
        "state": {"weights": [0.7, 0.1, 0.1, 0.1], "copies": 2},
        "channel": {"q": [0.8, 0.1, 0.05, 0.05]}},
    "ghz-full": {
        "scenario": "ghz-full", "mode": "local", "state": {"copies": 2},
        "channel": {"q": [0.85, 0.05, 0.05, 0.05]}},
    "depolarizing-d3": {
        "scenario": "depolarizing", "state": {"d": 3, "copies": 1},
        "channel": {"p": 0.3}},
}


def scipy_lockstep(evaluate, x0s, max_iters):
    """``capacity._lockstep`` run by scipy's L-BFGS-B with the same memory and
    stopping constants, on each start alone: the optimizer the numpy L-BFGS
    replaced, kept as its oracle.  A start whose evaluation fails ends in
    that error, as in ``_lockstep``."""
    from scipy.optimize import minimize

    results = []
    for i, x0 in enumerate(x0s):
        def fun(x, i=i):
            (outcome,) = evaluate([i], x[None])
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome

        try:
            result = minimize(fun, x0, method="L-BFGS-B", jac=True, options={
                "maxcor": capacity.LBFGS_MEMORY, "maxiter": max_iters,
                "ftol": capacity.ENTROPY_FTOL, "gtol": capacity.GRAD_TOL})
        except (NumericalError, FloatingPointError) as exc:
            results.append(exc)
            continue
        results.append(capacity.MinimizeResult(
            result.x, float(result.fun), result.nit, result.nfev, int(result.status)))
    return results


def recording_statuses(patch):
    """Wrap ``capacity._lockstep`` through ``patch`` (a MonkeyPatch) and return
    the list it fills with the status of every restart it runs."""
    statuses, lockstep = [], capacity._lockstep

    def recording(*args, **kwargs):
        results = lockstep(*args, **kwargs)
        statuses.extend(result.status for result in results)
        return results

    patch.setattr(capacity, "_lockstep", recording)
    return statuses


def recording_members(patch):
    """Wrap both member kernels of ``capacity._entropy_objective`` through
    ``patch`` (a MonkeyPatch) and return the list it fills with the (path,
    stack width) of every member-kernel call."""
    calls = []
    for path in ("dense", "factored"):
        build = getattr(capacity, f"_{path}_members")

        def recording_build(*args, build=build, path=path):
            members = build(*args)

            def recording(vs):
                calls.append((path, len(vs[0])))
                return members(vs)

            return recording

        patch.setattr(capacity, f"_{path}_members", recording_build)
    return calls


# The member kernel each scenario family's searches take: ghz-full is pure
# with T = 4 terms (n = 4 <= D / 2); bell-correlated has n = T = D,
# bell-diagonal-full rank D and depolarizing-d3 T = 81 > D.
FAMILY_PATHS = {family: "factored" if family == "ghz-full" else "dense"
                for family in SCENARIO_FAMILIES}


def criterion_12_minima():
    """Minimum output entropies of acceptance criterion 12's ten states, one
    row (local, global, CPTP env 2) per state: the same channel, states and
    optimizer settings."""
    rng = np.random.default_rng(42)
    layout = SubsystemLayout([2, 2], 2)
    singles = [random_single(2, rng) for _ in range(3)]
    mu = np.zeros((3, 3))
    for j in range(3):
        for l in range(j + 1, 3):
            mu[j, l] = mu[l, j] = rng.random()
    chan = correlated_probs(singles, CorrelationSpec(mu))
    cfg = OptimizerConfig(restarts=3, max_iters=80, seed=42)
    rows = []
    for _ in range(10):
        rho = random_density_matrix(8, rng)
        rows.append([
            capacity_covariant(rho, chan, layout, "local", cfg).min_output_entropy_bits,
            capacity_covariant(rho, chan, layout, "global", cfg).min_output_entropy_bits,
            capacity_nonunitary(rho, chan, layout, "global", env_dim=2,
                                cfg=cfg).min_output_entropy_bits,
        ])
    return np.array(rows)


class TestScipyOracle:
    @pytest.mark.parametrize("family", list(SCENARIO_FAMILIES))
    def test_scenario_capacities_match(self, monkeypatch, family):
        config = {**SCENARIO_FAMILIES[family], "seed": 7}
        statuses = recording_statuses(monkeypatch)
        calls = recording_members(monkeypatch)
        (row,) = run_scenario(config)
        monkeypatch.setattr(capacity, "_lockstep", scipy_lockstep)
        (oracle,) = run_scenario(config)
        assert {path for path, _ in calls} == {FAMILY_PATHS[family]}
        assert abs(row.optimizer_bits - row.closed_form_bits) <= 1e-6
        assert statuses and set(statuses) == {0}
        assert abs(row.optimizer_bits - oracle.optimizer_bits) <= 1e-8

    def test_criterion_12_minima_at_most_the_oracles(self, monkeypatch):
        minima = criterion_12_minima()
        monkeypatch.setattr(capacity, "_lockstep", scipy_lockstep)
        assert np.all(minima <= criterion_12_minima() + 1e-8)


def alone_pairs(patch):
    """Wrap ``capacity._lockstep`` through ``patch`` (a MonkeyPatch) so that
    every search also runs each of its starts alone on the same driver, and
    return the list it fills with (lockstep result, alone result) per start."""
    pairs, lockstep = [], capacity._lockstep

    def checking(evaluate, x0s, max_iters):
        results = lockstep(evaluate, x0s, max_iters)
        for i, x0 in enumerate(x0s):
            (alone,) = lockstep(lambda ids, xs, i=i: evaluate([i], xs), [x0], max_iters)
            pairs.append((results[i], alone))
        return results

    patch.setattr(capacity, "_lockstep", checking)
    return pairs


def assert_same_runs(pairs):
    """Each pair of MinimizeResults bit-identical: nit, nfev, status, value
    and point."""
    for got, want in pairs:
        assert (got.nit, got.nfev, got.status) == (want.nit, want.nfev, want.status)
        assert got.fun == want.fun and np.array_equal(got.x, want.x)


class TestLockstep:
    """``capacity._lockstep``: every restart of a search advanced together,
    each exactly as the same driver runs it alone."""

    @pytest.mark.parametrize("seed", [7, 42])
    @pytest.mark.parametrize("family", list(SCENARIO_FAMILIES))
    def test_scenario_restarts_match_their_runs_alone(self, monkeypatch, family, seed):
        pairs = alone_pairs(monkeypatch)
        calls = recording_members(monkeypatch)
        run_scenario({**SCENARIO_FAMILIES[family], "seed": seed})
        assert {path for path, _ in calls} == {FAMILY_PATHS[family]}
        assert len(pairs) >= 16
        assert_same_runs(pairs)

    def test_criterion_12_restarts_match_their_runs_alone(self, monkeypatch):
        # Per state: local 3 restarts; global 3 local + 4; CPTP env 2 the
        # global unitary search (7) + 4.
        pairs = alone_pairs(monkeypatch)
        criterion_12_minima()
        assert len(pairs) == 10 * (3 + 7 + 11)
        assert_same_runs(pairs)

    def test_stack_cap_of_one_member_changes_nothing(self, monkeypatch):
        # bell-diagonal-full at D = 16 (rank 16, dense): uncapped, each round
        # is one 16-member call; a cap of one entry evaluates the members one
        # call each.  The certification's chunks of sender generators (4 at
        # D = 16) go through the same apply, so both caps are set.
        config = {**SCENARIO_FAMILIES["bell-diagonal-full"], "seed": 7}
        widths, weyl_apply = [], channels._weyl_apply
        results, lockstep = [], capacity._lockstep

        def recording_apply(kernel, rho, eigen):
            widths.append(rho.shape[0] if rho.ndim == 3 else 0)
            return weyl_apply(kernel, rho, eigen)

        def recording(*args):
            results.append(lockstep(*args))
            return results[-1]

        monkeypatch.setattr(channels, "_weyl_apply", recording_apply)
        monkeypatch.setattr(capacity, "_lockstep", recording)
        widest = []
        for cap in (capacity.STACK_ENTRY_CAP, 1):
            monkeypatch.setattr(capacity, "STACK_ENTRY_CAP", cap)
            monkeypatch.setattr(channels, "CERTIFY_ENTRY_CAP", cap)
            widths.clear()
            run_scenario(config)
            widest.append(max(widths))
        assert widest == [16, 1]
        uncapped, capped = results
        assert_same_runs(zip(uncapped, capped, strict=True))

    def test_factored_stack_cap_of_one_member_changes_nothing(self, monkeypatch):
        # ghz-full at D = 16 on the factored path (n D = 64 entries per
        # member): uncapped, each round is one 16-member call; a cap of one
        # entry evaluates the members one call each.
        config = {**SCENARIO_FAMILIES["ghz-full"], "seed": 7}
        results, lockstep = [], capacity._lockstep

        def recording(*args):
            results.append(lockstep(*args))
            return results[-1]

        monkeypatch.setattr(capacity, "_lockstep", recording)
        calls = recording_members(monkeypatch)
        widest = []
        for cap in (capacity.STACK_ENTRY_CAP, 1):
            monkeypatch.setattr(capacity, "STACK_ENTRY_CAP", cap)
            calls.clear()
            run_scenario(config)
            assert {path for path, _ in calls} == {"factored"}
            widest.append(max(width for _, width in calls))
        assert widest == [16, 1]
        uncapped, capped = results
        assert_same_runs(zip(uncapped, capped, strict=True))

    def test_one_raising_member_aborts_only_its_restart(self):
        fun = rosenbrock(np.zeros(2))

        def stacked_fun(ids, xs):
            if (xs[:, 0] > 5.5).any():
                raise NumericalError("left the trusted region")
            values, grads = zip(*(fun(x) for x in xs))
            return np.array(values), np.array(grads)

        x0s = [np.array([-1.2, 1.0]), np.array([6.0, 0.0]), np.array([0.5, 0.5])]
        evaluate = functools.partial(capacity._members, stacked_fun)
        results = capacity._lockstep(evaluate, x0s, 100)
        assert isinstance(results[1], NumericalError)
        assert str(results[1]) == "left the trusted region"
        assert_same_runs([(results[i], capacity.minimize(fun, x0s[i], 100)) for i in (0, 2)])
        assert {results[i].status for i in (0, 2)} == {0}


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

    @pytest.mark.parametrize("seed", [5, 8, 14])
    def test_hierarchy_is_exact(self, seed):
        # The benchmark's bell-correlated input.  At these seeds the warm
        # restart's chart starts at polar(kron of the local optimum), whose
        # entropy rounds 4.4e-16 to 8.9e-16 bits above the local minimum, and
        # no global search ends below that minimum: only the entropy carried
        # in the warm pair keeps global >= local with no tolerance.
        rho, layout = bell_copies([2, 2])
        singles = [SinglePartyPauliSpec(2, q)
                   for q in ([[0.7, 0.1], [0.1, 0.1]], [[0.6, 0.2], [0.1, 0.1]])]
        chan = correlated_probs(singles, CorrelationSpec.uniform(2, 0.5))
        cfg = OptimizerConfig(seed=seed)
        lo = capacity_covariant(rho, chan, layout, "local", cfg)
        g = capacity_covariant(rho, chan, layout, "global", cfg)
        cptp = capacity_nonunitary(rho, chan, layout, "global", env_dim=2, cfg=cfg)
        assert g.capacity_bits >= lo.capacity_bits
        assert cptp.capacity_bits >= g.capacity_bits

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

    @pytest.mark.parametrize("field", ["restarts", "max_iters", "seed"])
    def test_non_integral_field_named(self, field):
        # restarts=2.5 failed later with a bare TypeError; max_iters=2.5 ran.
        with pytest.raises(ParameterError, match=f"{field} must be an integer, got 2.5"):
            OptimizerConfig(**{field: 2.5})
        assert getattr(OptimizerConfig(**{field: np.int64(3)}), field) == 3

    def test_start_points_capped_before_certification(self, monkeypatch):
        # restarts=10**12 drew start points without bound.
        class Certifying(Exception):
            pass

        def certify(*args):
            raise Certifying

        monkeypatch.setattr(capacity, "_certify", certify)
        layout = SubsystemLayout([2], 2)
        chan = identity_channel(layout)
        fits = capacity.START_ENTRY_CAP // 4 - 1  # (restarts + 1) 2^2 entries at env 1
        with pytest.raises(Certifying):
            capacity_covariant(bell_state(2), chan, layout, "local", OptimizerConfig(fits))
        with pytest.raises(SizeLimitError, match="exceeds cap"):
            capacity_covariant(bell_state(2), chan, layout, "local", OptimizerConfig(fits + 1))
        with pytest.raises(SizeLimitError, match="exceeds cap"):
            capacity_nonunitary(bell_state(2), chan, layout, "local", env_dim=2,
                                cfg=OptimizerConfig(fits // 2 + 1))

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_nonpositive_max_iters_rejected(self, max_iters):
        # Accepted before, these returned a "capacity" read off the start
        # points of the restarts, with no iteration run.
        with pytest.raises(ParameterError, match=f"max_iters must be >= 1, got {max_iters}"):
            OptimizerConfig(restarts=2, max_iters=max_iters)

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
            value, _, trace = _minimize_restarts(stacked(objective), (3,), 1, cfg)
        assert value == 0.0 and trace == ((0, 0.0),)
        assert [(r.name, r.levelno) for r in caplog.records] == [
            ("densecode", logging.WARNING)]
        assert caplog.records[0].getMessage() == (
            "restart 1 aborted: NumericalError: "
            "channel failed to preserve trace by 1.000e-03")
        assert any(isinstance(h, logging.NullHandler)
                   for h in logging.getLogger("densecode").handlers)

    @pytest.mark.parametrize("phase, aborted", [(0.3, False), (math.pi, True)])
    def test_warm_pair_kept_as_given(self, caplog, phase, aborted):
        # The objective of test_aborted_restart_is_logged.  Its search from W
        # reaches 0 or, with W's phase far from the identity, raises; either
        # way the warm pair's -1.0 and W itself win, under restart id 1.
        def objective(vs):
            dev = vs[0] - np.eye(3)
            if np.abs(dev).max() > 0.5:
                raise NumericalError("channel failed to preserve trace by 1.000e-03")
            return float(np.sum(np.abs(dev) ** 2)), [2.0 * dev]

        w = np.diag([1.0, 1.0, np.exp(1j * phase)])
        w_given = w.copy()
        cfg = OptimizerConfig(restarts=1, max_iters=20, seed=42)
        with caplog.at_level(logging.WARNING, logger="densecode"):
            value, vs, trace = _minimize_restarts(stacked(objective), (3,), 1, cfg,
                                                  [(-1.0, [w])])
        assert value == -1.0 and trace == ((0, 0.0), (1, -1.0))
        assert len(vs) == 1 and np.array_equal(vs[0], w_given)
        assert [r.getMessage() for r in caplog.records] == (
            ["restart 1 aborted: NumericalError: "
             "channel failed to preserve trace by 1.000e-03"] if aborted else [])

    def test_non_finite_restart_is_logged(self, caplog):
        # Flat at 1.0 near the identity, where restart 0 starts; NaN from the
        # seeded random unitaries of restarts 1 and 2.
        def objective(vs):
            dev = vs[0] - np.eye(3)
            value = 1.0 if np.abs(dev).max() <= 0.5 else math.nan
            return value, [np.zeros_like(dev)]

        cfg = OptimizerConfig(restarts=3, max_iters=20, seed=42)
        with caplog.at_level(logging.WARNING, logger="densecode"):
            value, _, trace = _minimize_restarts(stacked(objective), (3,), 1, cfg)
        assert value == 1.0 and trace == ((0, 1.0),)
        assert [r.getMessage() for r in caplog.records] == [
            f"restart {rid} aborted: NumericalError: non-finite objective nan or gradient"
            for rid in (1, 2)]

    def test_every_restart_aborted_raises(self, monkeypatch, caplog):
        def diverging(*args):
            def objective(vs):
                raise NumericalError("channel failed to preserve trace by 1.000e-03")

            return objective

        monkeypatch.setattr(capacity, "_entropy_objective", diverging)
        layout = SubsystemLayout([2], 2)
        cfg = OptimizerConfig(restarts=3, max_iters=20, seed=42)
        with caplog.at_level(logging.WARNING, logger="densecode"):
            with pytest.raises(OptimizerDivergedError, match="no optimizer restart"):
                capacity_covariant(bell_state(2), identity_channel(layout), layout,
                                   "local", cfg)
        assert [r.getMessage() for r in caplog.records] == [
            f"restart {rid} aborted: NumericalError: "
            "channel failed to preserve trace by 1.000e-03" for rid in range(3)]

    def test_unknown_mode_rejected(self):
        layout = SubsystemLayout([2], 2)
        with pytest.raises(ParameterError, match="unknown mode 'bogus'"):
            capacity_covariant(bell_state(2), identity_channel(layout), layout,
                               "bogus", QUICK)

    @pytest.mark.parametrize("config", [
        {"scenario": "bell-diagonal-full",
         "state": {"weights": [0.7, 0.1, 0.1, 0.1], "copies": 2},
         "channel": {"q": [0.8, 0.1, 0.05, 0.05]}},
        {"scenario": "ghz-full", "mode": "local", "state": {"copies": 2},
         "channel": {"q": [0.85, 0.05, 0.05, 0.05]}},
    ], ids=["bell-diagonal-full", "ghz-full"])
    def test_restarts_stop_at_the_rounding_floor(self, monkeypatch, config):
        # A stop below the entropy's rounding noise keeps converged restarts
        # line-searching until a line search fails with status 2; here every
        # restart must end in status 0, a stopping rule met.
        statuses = recording_statuses(monkeypatch)
        (row,) = run_scenario({**config, "seed": 7})
        assert abs(row.optimizer_bits - row.closed_form_bits) <= 1e-6
        assert statuses == [0] * 16


class TestOneKernelPerChannel:
    def test_global_run_builds_one_kernel_and_no_spec(self, monkeypatch):
        rng = np.random.default_rng(23)
        layout = SubsystemLayout([2, 2], 2)
        chan = correlated_probs([random_single(2, rng) for _ in range(3)],
                                CorrelationSpec.uniform(3, 0.4))
        rho = random_density_matrix(8, rng)
        specs, kernels = [], []
        post_init = PauliChannelSpec.__post_init__

        def counting_post_init(spec):
            specs.append(spec)
            post_init(spec)

        def counting_kernel(*arrays):
            kernels.append(real_kernel(*arrays))
            return kernels[-1]

        real_kernel = channels._WeylKernel
        monkeypatch.setattr(PauliChannelSpec, "__post_init__", counting_post_init)
        monkeypatch.setattr(channels, "_WeylKernel", counting_kernel)
        report = capacity_covariant(rho, chan, layout, "global", QUICK)
        assert specs == []
        assert len(kernels) == 1 and list(chan._kernels.values()) == kernels
        assert report.capacity_bits > 0


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

    def test_env_dim_must_be_integral(self):
        # env_dim=2.0 raised numpy's "pad_width must be of integral type".
        layout = SubsystemLayout([2], 2)
        chan = identity_channel(layout)
        message = r"env_dim must be an integer in \[1, 4\] for a dim-2 slot, got 2.0"
        with pytest.raises(ParameterError, match=message):
            capacity_nonunitary(bell_state(2), chan, layout, "local", env_dim=2.0, cfg=QUICK)
        report = capacity_nonunitary(bell_state(2), chan, layout, "local",
                                     env_dim=np.int64(2), cfg=QUICK)
        assert abs(report.capacity_bits - 2.0) < 1e-6

    def test_env_dim_range_checked(self):
        layout = SubsystemLayout([2], 2)
        with pytest.raises(ParameterError):
            capacity_nonunitary(
                bell_state(2), identity_channel(layout), layout, "local", env_dim=5,
                cfg=QUICK,
            )


def enumerated_holevo(report, channel, rho, layout):
    """Holevo quantity of the attaining ensemble over all D_A^2 members: the
    route the capacity cross-check replaced, kept as its oracle."""
    enc_set = local_encoding_set(layout.sender_dims)
    return holevo(attaining_ensemble(report.encoder_at_min, enc_set), channel, rho, layout)


class TestGeneratorCertificate:
    """The driver certifies on the 2k sender generators and takes the Holevo
    cross-check through the twirl, never enumerating the encoding set."""

    def test_tiled_sender_slot_rejected(self):
        rng = np.random.default_rng(3)
        layout = SubsystemLayout([4], 2)
        chan = product_probs([random_single(2, rng) for _ in range(3)], acts_on=(0, 0, 1))
        for ops in (sender_generators([4]), local_encoding_set([4])):
            dev = verify_covariance(chan, ops, layout, trials=5, seed=QUICK.seed)
            assert dev > capacity.COVARIANCE_CERT_TOL
        with pytest.raises(NonCovariantChannelError):
            capacity_covariant(random_density_matrix(8, rng), chan, layout, "local", QUICK)

    def test_certification_tolerance_is_the_ladders(self):
        # The tolerance ladder puts certification at 1e-10; the largest
        # _certify deviation over the supported configs is about 2e-16.
        assert capacity.COVARIANCE_CERT_TOL == 1e-10

    def test_no_samples_certify_nothing(self):
        # The tiled slot fails at five trials; with no trials or no
        # operators there is nothing to compare, which must not read as 0.
        rng = np.random.default_rng(3)
        layout = SubsystemLayout([4], 2)
        chan = product_probs([random_single(2, rng) for _ in range(3)], acts_on=(0, 0, 1))
        gens = sender_generators([4])
        assert verify_covariance(chan, gens, layout, trials=5, seed=3) > 1e-3
        with pytest.raises(ParameterError):
            verify_covariance(chan, gens, layout, trials=0, seed=3)
        with pytest.raises(ParameterError):
            verify_covariance(chan, (), layout, trials=5, seed=3)

    def test_generators_certify_criterion_4_like_the_full_set(self):
        for name, spec, layout in criterion_04_channels():
            for ops in (sender_generators(layout.sender_dims),
                        local_encoding_set(layout.sender_dims)):
                dev = verify_covariance(spec, ops, layout, trials=20, seed=42)
                assert dev <= 1e-10, name

    @pytest.mark.parametrize("family", list(SCENARIO_FAMILIES))
    def test_crosscheck_is_the_enumerated_holevo(self, monkeypatch, family):
        solved = []

        def recording(rho, channel, layout, mode, cfg):
            report = capacity_covariant(rho, channel, layout, mode, cfg)
            solved.append(enumerated_holevo(report, channel, rho, layout)
                          - report.holevo_crosscheck_bits)
            return report

        monkeypatch.setattr(cli, "capacity_covariant", recording)
        run_scenario({**SCENARIO_FAMILIES[family], "seed": 7})
        assert len(solved) == 1 and abs(solved[0]) <= 1e-10

    def test_cptp_crosscheck_is_the_enumerated_holevo(self):
        rng = np.random.default_rng(8)
        layout = SubsystemLayout([2], 2)
        chan = correlated_probs([random_single(2, rng) for _ in range(2)],
                                CorrelationSpec.uniform(2, 0.4))
        rho = random_density_matrix(4, rng)
        report = capacity_nonunitary(rho, chan, layout, "local", env_dim=2, cfg=QUICK)
        assert isinstance(report.encoder_at_min, CptpMap)
        enumerated = enumerated_holevo(report, chan, rho, layout)
        assert abs(enumerated - report.holevo_crosscheck_bits) <= 1e-10

    def test_capacity_runs_never_enumerate(self, monkeypatch):
        def banned(*args, **kwargs):
            raise AssertionError("a capacity run enumerated the encoding set")

        monkeypatch.setattr(capacity, "local_encoding_set", banned)
        (row,) = run_scenario({**SCENARIO_FAMILIES["bell-correlated-global"], "seed": 7})
        assert row.agreement is True
        layout = SubsystemLayout([2], 2)
        capacity_nonunitary(bell_state(2), identity_channel(layout), layout, "local",
                            env_dim=2, cfg=QUICK)

    def test_ghz_full_copies_4_past_the_encoding_set_cap(self, monkeypatch):
        # D_A^2 = 16384 is above ENCODING_SET_CAP, which rejected this run
        # while the driver enumerated the set.  D = 256 with the default 16
        # restarts, on the factored path: about 60 s on the dense one.
        statuses = recording_statuses(monkeypatch)
        calls = recording_members(monkeypatch)
        (row,) = run_scenario({
            "scenario": "ghz-full", "state": {"copies": 4},
            "channel": {"q": [0.85, 0.05, 0.05, 0.05]}})
        assert {path for path, _ in calls} == {"factored"}
        assert abs(row.optimizer_bits - 8.0) <= 1e-6
        assert statuses == [0] * 16


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

    def test_depolarizing_invariance_needs_trials(self):
        with pytest.raises(ParameterError, match="trials"):
            depolarizing_invariance_check(bell_state(2), 0.3, trials=0)

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

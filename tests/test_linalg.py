import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densecode.errors import (
    LayoutError,
    NumericalError,
    ProbabilityError,
    SizeLimitError,
)
from densecode.linalg import (
    EIG_CLIP,
    SubsystemLayout,
    _entropy_from_eigenvalues,
    _conjugate_leading,
    _entropy_and_log2,
    _kron_stacks,
    check_dim,
    check_power,
    check_probabilities,
    dimension_cap,
    kron,
    kron_all,
    partial_trace,
    permute_slots,
    random_density_matrix,
    random_unitary,
    shannon_entropy,
    validate_density_matrix,
    von_neumann_entropy,
)
from densecode.states import bell_state, ghz_state

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)


def shannon_oracle(ps):
    """Independent scalar reference: direct summation with math.log2."""
    return -sum(p * math.log2(p) for p in ps if p > 0)


def partial_trace_oracle(rho, dims, keep):
    """Brute-force partial trace by explicit computational-basis sums."""
    n = len(dims)
    keep = sorted(keep)
    drop = [s for s in range(n) if s not in keep]
    kdim = math.prod(dims[s] for s in keep)
    out = np.zeros((kdim, kdim), dtype=complex)
    t = np.asarray(rho).reshape(dims + dims)
    for ki in np.ndindex(*(dims[s] for s in keep)):
        for kj in np.ndindex(*(dims[s] for s in keep)):
            total = 0.0
            for di in np.ndindex(*(dims[s] for s in drop)):
                left = [0] * n
                right = [0] * n
                for s, v in zip(keep, ki):
                    left[s] = v
                for s, v in zip(keep, kj):
                    right[s] = v
                for s, v in zip(drop, di):
                    left[s] = v
                    right[s] = v
                total += t[tuple(left) + tuple(right)]
            i = int(np.ravel_multi_index(ki, tuple(dims[s] for s in keep))) if keep else 0
            j = int(np.ravel_multi_index(kj, tuple(dims[s] for s in keep))) if keep else 0
            out[i, j] = total
    return out


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_permutation(self):
        ket00 = np.zeros(4)
        ket00[0] = 1
        assert np.argmax(np.abs(np.kron(SIGMA_1, np.eye(2)) @ ket00)) == 2

    def test_diag_expansion(self):
        # hand expansion of the 2x2 blocks
        expected = np.diag([1.0, -1.0, -1.0, 1.0])
        got = kron(np.diag([1, -1]), np.diag([1, -1]))
        assert np.abs(got - expected).max() == 0

    def test_size_limit(self):
        big = np.eye(64)
        with pytest.raises(SizeLimitError):
            kron(kron(big, big), big)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3),
                              st.sampled_from(["complex", "real"])), min_size=1, max_size=4),
           st.integers(0, 2**32 - 1))
    def test_kron_all_is_byte_identical_to_the_fold(self, factors, seed):
        # Oracle: the np.kron left fold kron_all replaced.  Real-valued
        # factors carry exact zero imaginary parts, whose signs must match too.
        rng = np.random.default_rng(seed)
        mats = [gaussian_stack((n, m), rng) for n, m, _ in factors]
        mats = [a.real.astype(complex) if kind == "real" else a
                for a, (_, _, kind) in zip(mats, factors)]
        got, want = kron_all(mats), kron_fold(mats)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_kron_all_checks_the_cap_on_one_factor(self, monkeypatch):
        monkeypatch.setenv("DENSECODE_MAX_DIM", "8")
        with pytest.raises(SizeLimitError, match="dimension 16 exceeds cap 8"):
            kron_all([np.eye(16)])
        assert np.array_equal(kron_all([]), np.eye(1))

    def test_oversized_dimension_named_by_its_power_of_two(self):
        with pytest.raises(SizeLimitError, match=r"dimension 2\^100 or more exceeds cap 1024"):
            check_dim(3 * 2**99)
        with pytest.raises(SizeLimitError, match=r"dimension 4\^1000000000000 exceeds cap"):
            check_power(4, 10**12)
        assert check_power(2, 10) == 1024
        with pytest.raises(SizeLimitError, match=r"dimension 2\^11 exceeds cap 1024"):
            check_power(2, 11)

    def test_rejects_nonfinite(self):
        with pytest.raises(NumericalError):
            kron(np.array([[np.nan, 0], [0, 1]]), np.eye(2))

    def test_env_var_overrides_cap(self, monkeypatch):
        monkeypatch.setenv("DENSECODE_MAX_DIM", "8")
        assert dimension_cap() == 8
        with pytest.raises(SizeLimitError):
            kron(np.eye(4), np.eye(4))

    @pytest.mark.parametrize("raw, message", [
        ("abc", "must be an integer, got 'abc'"),
        ("1", "must be >= 2, got 1"),
    ])
    def test_malformed_env_var_rejected(self, monkeypatch, raw, message):
        monkeypatch.setenv("DENSECODE_MAX_DIM", raw)
        with pytest.raises(SizeLimitError, match=f"DENSECODE_MAX_DIM {message}"):
            dimension_cap()


class TestPartialTrace:
    def test_bell_marginal(self):
        layout = SubsystemLayout([2], 2)
        out = partial_trace(bell_state(2), layout, {1})
        assert np.abs(out - np.eye(2) / 2).max() < 1e-14

    def test_product_state_factor(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(2, rng)
        sigma = random_density_matrix(3, rng)
        layout = SubsystemLayout([2], 3)
        out = partial_trace(np.kron(rho, sigma), layout, {0})
        assert np.abs(out - rho).max() < 1e-14

    def test_ghz4_receiver_marginal(self):
        layout = SubsystemLayout([2, 2, 2], 2)
        out = partial_trace(ghz_state(4), layout, {3})
        oracle = partial_trace_oracle(ghz_state(4), (2, 2, 2, 2), [3])
        assert np.abs(out - oracle).max() < 1e-14
        assert np.abs(out - np.eye(2) / 2).max() < 1e-14

    def test_matches_oracle_on_random_state(self):
        rng = np.random.default_rng(11)
        layout = SubsystemLayout([2, 3], 2)
        rho = random_density_matrix(12, rng)
        for keep in ({0}, {1}, {2}, {0, 2}, {1, 2}, {0, 1}):
            got = partial_trace(rho, layout, keep)
            want = partial_trace_oracle(rho, (2, 3, 2), keep)
            assert np.abs(got - want).max() < 1e-12

    def test_stepwise_equals_joint(self):
        rng = np.random.default_rng(5)
        layout = SubsystemLayout([2, 2], 3)
        rho = random_density_matrix(12, rng)
        joint = partial_trace(rho, layout, {2})
        step = partial_trace(rho, layout, {1, 2})
        step = partial_trace(step, SubsystemLayout([2], 3), {1})
        assert np.abs(joint - step).max() < 1e-12
        # trace preserved
        assert abs(joint.trace() - 1) < 1e-12

    def test_empty_keep_rejected(self):
        layout = SubsystemLayout([2], 2)
        with pytest.raises(LayoutError):
            partial_trace(bell_state(2), layout, set())
        with pytest.raises(LayoutError):
            partial_trace(bell_state(2), layout, {5})


class TestEntropies:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(bell_state(2)) < 1e-12

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            assert abs(von_neumann_entropy(np.eye(d) / d) - math.log2(d)) < 1e-12

    def test_bell_diagonal_against_scalar_oracle(self):
        from densecode.states import bell_diagonal

        ps = (0.4, 0.3, 0.2, 0.1)
        expected = 1.8464393446710154  # shannon_oracle(ps)
        assert abs(shannon_oracle(ps) - expected) < 1e-15
        assert abs(von_neumann_entropy(bell_diagonal(ps)) - expected) < 1e-12

    def test_shannon_values(self):
        assert shannon_entropy([1, 0, 0, 0]) == 0
        assert shannon_entropy([0.25] * 4) == 2
        assert abs(shannon_entropy([0.4, 0.3, 0.2, 0.1]) - 1.8464393446710154) < 1e-15

    def test_shannon_rejects_bad_input(self):
        with pytest.raises(ProbabilityError):
            shannon_entropy([0.9, 0.2])
        with pytest.raises(ProbabilityError):
            shannon_entropy([1.1, -0.1])

    def test_unitary_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            rho = random_density_matrix(6, rng)
            u = random_unitary(6, rng)
            s0 = von_neumann_entropy(rho)
            s1 = von_neumann_entropy(u @ rho @ u.conj().T)
            assert abs(s0 - s1) < 1e-10

    def test_subadditivity(self):
        rng = np.random.default_rng(17)
        layout = SubsystemLayout([3], 2)
        for _ in range(5):
            rho = random_density_matrix(6, rng)
            s_ab = von_neumann_entropy(rho)
            s_a = von_neumann_entropy(partial_trace(rho, layout, {0}))
            s_b = von_neumann_entropy(partial_trace(rho, layout, {1}))
            assert s_ab <= s_a + s_b + 1e-9

    def test_indefinite_operator_rejected(self):
        with pytest.raises(NumericalError):
            von_neumann_entropy(np.diag([1.5, -0.5]))

    def test_stacked_spectra_match_member_loop(self):
        # One masked reduction over a (B, n) stack against the member-by-member
        # sum over the eigenvalues above EIG_CLIP: equal up to the summation
        # order, with clipped, zero and -1e-11 entries.
        rng = np.random.default_rng(18)
        w = np.sort(rng.random((6, 40)) ** 8, axis=1)
        w[1, :5] = [-1e-11, 0.0, 1e-13, EIG_CLIP, 2e-12]
        w[2] = 0.0
        w /= np.maximum(w.sum(axis=1, keepdims=True), 1.0)
        got = _entropy_from_eigenvalues(w)
        assert got.shape == (6,) and got[2] == 0.0
        for row, value in zip(w, got):
            kept = row[row > EIG_CLIP]
            assert abs(value + (kept * np.log2(kept)).sum()) <= 1e-15

    def test_stacked_spectra_reject_an_indefinite_member(self):
        w = np.array([[0.0, 0.5, 0.5], [-2e-10, 0.2, 0.8], [0.1, 0.1, 0.8]])
        with pytest.raises(NumericalError, match=r"min eigenvalue -2\.000e-10"):
            _entropy_from_eigenvalues(w)


class TestCheckProbabilities:
    @pytest.mark.parametrize("shape", [(4,), (2, 2)])
    @pytest.mark.parametrize("position", range(4))
    def test_nan_in_any_position_fails(self, shape, position):
        # A NaN fails no comparison written as "below 0 fails".
        p = np.full(4, 0.25)
        p[position] = math.nan
        with pytest.raises(ProbabilityError, match="^negative or NaN table entry nan$"):
            check_probabilities(p.reshape(shape), "table entry", 1e-12)

    def test_negative_entry_fails(self):
        with pytest.raises(ProbabilityError, match="^negative or NaN weight -0.1$"):
            check_probabilities([0.6, -0.1, 0.5], "weight", 1e-12)

    def test_bad_sum_fails(self):
        with pytest.raises(ProbabilityError, match="^weight entries sum to 0.9, not 1$"):
            check_probabilities([0.5, 0.4], "weight", 1e-12)
        with pytest.raises(ProbabilityError, match="sum to 0.0, not 1"):
            check_probabilities([], "weight", 1e-12)

    def test_tolerance_is_the_callers(self):
        p = [0.5, 0.5 + 1e-11]
        assert check_probabilities(p, "weight", 1e-10).tolist() == p
        with pytest.raises(ProbabilityError, match="sum to"):
            check_probabilities(p, "weight", 1e-12)

    def test_integer_input_returned_as_float(self):
        p = check_probabilities([[0, 1], [0, 0]], "weight", 0.0)
        assert p.dtype == np.float64 and p.shape == (2, 2)
        assert p.tolist() == [[0.0, 1.0], [0.0, 0.0]]

    def test_shannon_entropy_rejects_nan(self):
        # It dropped the NaN and returned -0.0.
        with pytest.raises(ProbabilityError, match="NaN"):
            shannon_entropy([math.nan, 1.0])


class TestValidation:
    def test_accepts_valid_states(self):
        rng = np.random.default_rng(29)
        validate_density_matrix(random_density_matrix(5, rng))

    def test_rejects_bad_trace(self):
        with pytest.raises(NumericalError):
            validate_density_matrix(np.eye(2))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NumericalError):
            validate_density_matrix(m)

    def test_rejects_negative(self):
        with pytest.raises(NumericalError):
            validate_density_matrix(np.diag([1.2, -0.2]))

    def test_layout_validation(self):
        with pytest.raises(LayoutError):
            SubsystemLayout([], 2)
        with pytest.raises(LayoutError):
            SubsystemLayout([1], 2)
        layout = SubsystemLayout([2, 3], 4)
        assert layout.k == 2
        assert layout.sender_dim == 6
        assert layout.total_dim == 24
        assert layout.receiver_slot == 2


class TestPermuteSlots:
    def test_swap_matches_kron_order(self):
        rng = np.random.default_rng(31)
        a = random_density_matrix(2, rng)
        b = random_density_matrix(3, rng)
        swapped = permute_slots(np.kron(a, b), (2, 3), [1, 0])
        assert np.abs(swapped - np.kron(b, a)).max() < 1e-14

    def test_rejects_non_permutation(self):
        with pytest.raises(LayoutError):
            permute_slots(np.eye(4), (2, 2), [0, 0])


# Leading shapes of the stacked kernels: none, one restart axis, two axes.
LEADING = st.sampled_from([(), (1,), (3,), (2, 2)])


def gaussian_stack(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestStackedKernels:
    """The kernels the objective runs on a stack of restarts: each slice is
    bit-identical to the kernel on that slice alone."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 4, 6]), st.sampled_from([1, 2, 3]), st.integers(1, 4),
           LEADING, st.sampled_from(["state", "operators"]), st.integers(0, 2**32 - 1))
    def test_conjugate_leading_matches_a_loop(self, a, b, terms, lead, stacked, seed):
        # Leading axes on the states (a Kraus channel on a stack) or on the
        # operators (a stack of encoders on one state).
        rng = np.random.default_rng(seed)
        n = a * b
        rho = gaussian_stack((lead if stacked == "state" else ()) + (n, n), rng)
        ks = gaussian_stack((lead if stacked == "operators" else ()) + (terms, a, a), rng)
        got = _conjugate_leading(rho, ks, a)
        assert got.shape == lead + (n, n)
        for idx in np.ndindex(*lead):
            one_rho = rho[idx] if stacked == "state" else rho
            one_ks = ks[idx] if stacked == "operators" else ks
            assert np.array_equal(got[idx], _conjugate_leading(one_rho, one_ks, a))
        if not lead:
            want = sum(np.kron(k, np.eye(b)) @ rho @ np.kron(k, np.eye(b)).conj().T
                       for k in ks)
            assert np.abs(got - want).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, 2, 3]),
                              st.sampled_from([1, 2, 3])), min_size=1, max_size=3),
           LEADING, st.integers(0, 2**32 - 1))
    def test_kron_stacks_matches_a_loop(self, shapes, lead, seed):
        rng = np.random.default_rng(seed)
        stacks = [gaussian_stack(lead + shape, rng) for shape in shapes]
        got = _kron_stacks(stacks)
        for idx in np.ndindex(*lead):
            want = _kron_stacks([s[idx] for s in stacks])
            assert np.array_equal(got[idx], want)
            products = [kron_fold(ops) for ops in
                        itertools.product(*[s[idx] for s in stacks])]
            assert np.array_equal(want, np.stack(products))

    def test_entropy_and_log2_checks_each_member(self):
        rng = np.random.default_rng(32)
        stack = np.stack([random_density_matrix(4, rng) for _ in range(3)])
        stack[0] = np.diag([1.0, 0.0, 0.0, 0.0])  # clipped eigenvalues
        values, log2_stack = _entropy_and_log2(stack)
        for m, value, log2_m in zip(stack, values, log2_stack):
            want_w, want_u = np.linalg.eigh(m)
            assert value == _entropy_from_eigenvalues(want_w)
            want_log2 = (want_u * np.log2(np.maximum(want_w, EIG_CLIP))) @ want_u.conj().T
            assert np.array_equal(log2_m, want_log2)
        skewed = stack.copy()
        skewed[1, 0, 1] += 1e-6
        with pytest.raises(NumericalError, match="non-Hermitian operator"):
            _entropy_and_log2(skewed)
        for bad in (np.nan, np.inf):
            broken = stack.copy()
            broken[2, 3, 3] = bad
            with pytest.raises(NumericalError, match="non-finite entries"):
                _entropy_and_log2(broken)


def kron_fold(ops):
    """np.kron folded over ops, first operand slowest."""
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out

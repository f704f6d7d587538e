import numpy as np
import pytest

from densecode.errors import LayoutError, ParameterError, ProbabilityError
from densecode.linalg import (
    SubsystemLayout,
    partial_trace,
    validate_density_matrix,
    von_neumann_entropy,
)
from densecode.states import (
    BELL_LABEL_ORDER,
    assemble_product,
    bell_basis_state,
    bell_copies,
    bell_diagonal,
    bell_state,
    ghz_state,
)


def bell_vector_oracle(d, m, n):
    """Brute-force |Phi_mn>: apply the defining sum of V_mn to each |jj>."""
    psi = np.zeros(d * d, dtype=complex)
    for j in range(d):
        # V_mn |j'> has amplitude exp(2 pi i k n / d) on |k> when j' = k+m mod d
        k = (j - m) % d
        psi[k * d + j] += np.exp(2j * np.pi * k * n / d) / np.sqrt(d)
    return psi


class TestBellStates:
    def test_qubit_bell_definition(self):
        expected = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        assert np.abs(bell_state(2) - expected).max() < 1e-15

    def test_pure_any_dimension(self):
        for d in (2, 3, 4):
            assert von_neumann_entropy(bell_state(d)) < 1e-12

    def test_maximally_mixed_marginals(self):
        layout = SubsystemLayout([3], 3)
        rho = bell_state(3)
        for keep in ({0}, {1}):
            marg = partial_trace(rho, layout, keep)
            assert np.abs(marg - np.eye(3) / 3).max() < 1e-14

    def test_label_zero_is_bell(self):
        assert np.abs(bell_basis_state(2, 0, 0) - bell_state(2)).max() == 0

    def test_sigma1_displaced_bell_by_hand(self):
        # sigma_1 x I on (|00>+|11>)/sqrt(2) gives (|10>+|01>)/sqrt(2)
        expected_vec = np.zeros(4)
        expected_vec[1] = expected_vec[2] = 1 / np.sqrt(2)
        expected = np.outer(expected_vec, expected_vec)
        assert np.abs(bell_basis_state(2, 1, 0) - expected).max() < 1e-15

    def test_matches_defining_sum_oracle(self):
        for d in (2, 3):
            for m in range(d):
                for n in range(d):
                    psi = bell_vector_oracle(d, m, n)
                    assert (
                        np.abs(bell_basis_state(d, m, n) - np.outer(psi, psi.conj())).max()
                        < 1e-14
                    )

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_orthonormal_family(self, d):
        states = [
            bell_basis_state(d, m, n) for m in range(d) for n in range(d)
        ]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                overlap = abs((a * b.T).sum())
                assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-12

    def test_qubit_cross_overlap_example(self):
        a = bell_basis_state(2, 0, 1)
        b = bell_basis_state(2, 1, 0)
        assert abs((a @ b).trace()) < 1e-14

    def test_constructors_pass_state_invariants(self):
        for rho in (bell_state(2), bell_state(3), ghz_state(4), bell_diagonal([0.4, 0.3, 0.2, 0.1])):
            validate_density_matrix(rho)


class TestBellDiagonal:
    def test_delta_weights_reduce_to_bell(self):
        assert np.abs(bell_diagonal([1, 0, 0, 0]) - bell_state(2)).max() == 0

    def test_uniform_weights_maximally_mixed(self):
        # brute-force sum of the four projectors
        acc = sum(bell_basis_state(2, m, n) for m, n in BELL_LABEL_ORDER) / 4
        assert np.abs(acc - np.eye(4) / 4).max() < 1e-14
        assert np.abs(bell_diagonal([0.25] * 4) - np.eye(4) / 4).max() < 1e-14

    def test_eigenvalues_are_weights(self):
        w = np.array([0.4, 0.3, 0.2, 0.1])
        eig = np.linalg.eigvalsh(bell_diagonal(w))[::-1]
        assert np.abs(eig - w).max() < 1e-12

    def test_entropy_frozen_value(self):
        assert abs(
            von_neumann_entropy(bell_diagonal([0.4, 0.3, 0.2, 0.1]))
            - 1.8464393446710154
        ) < 1e-12

    def test_rejects_bad_weights(self):
        with pytest.raises(ProbabilityError):
            bell_diagonal([0.5, 0.5, 0.5, -0.5])
        with pytest.raises(ProbabilityError):
            bell_diagonal([0.5, 0.2, 0.2, 0.2])

    def test_rejects_nan_weight(self):
        # It returned a NaN matrix.
        with pytest.raises(ProbabilityError, match="negative or NaN Bell-diagonal weight nan"):
            bell_diagonal([np.nan, 0.5, 0.25, 0.25])


class TestGhz:
    def test_two_parties_is_bell(self):
        assert np.abs(ghz_state(2) - bell_state(2)).max() < 1e-15

    def test_pure(self):
        assert von_neumann_entropy(ghz_state(4)) < 1e-12

    def test_single_party_marginals(self):
        layout = SubsystemLayout([2, 2, 2], 2)
        rho = ghz_state(4)
        for slot in range(4):
            marg = partial_trace(rho, layout, {slot})
            assert np.abs(marg - np.eye(2) / 2).max() < 1e-14

    def test_rejects_unsupported(self):
        with pytest.raises(ParameterError):
            ghz_state(1)


class TestAssembly:
    def test_single_copy_unchanged(self):
        rho = bell_state(2)
        grouped, layout = assemble_product([rho], [(2, 2)])
        assert np.abs(grouped - rho).max() == 0
        assert layout == SubsystemLayout([2], 2)

    def test_two_bell_copies_pure(self):
        rho, layout = assemble_product([bell_state(2)] * 2, [(2, 2)] * 2)
        assert layout == SubsystemLayout([2, 2], 4)
        assert von_neumann_entropy(rho) < 1e-12

    def test_two_bell_copies_receiver_marginal(self):
        rho, layout = assemble_product([bell_state(2)] * 2, [(2, 2)] * 2)
        marg = partial_trace(rho, layout, {2})
        assert np.abs(marg - np.eye(4) / 4).max() < 1e-14

    def test_grouping_permutation_explicit(self):
        # two distinct product states: grouped order must be a1 a2 b1 b2
        rng = np.random.default_rng(5)
        from densecode.linalg import random_density_matrix

        a1, b1, a2, b2 = (random_density_matrix(2, rng) for _ in range(4))
        grouped, layout = assemble_product(
            [np.kron(a1, b1), np.kron(a2, b2)], [(2, 2), (2, 2)]
        )
        expected = np.kron(np.kron(a1, a2), np.kron(b1, b2))
        assert np.abs(grouped - expected).max() < 1e-14
        assert layout.sender_dims == (2, 2)
        assert layout.receiver_dim == 4

    def test_copy_marginals_match_single(self):
        single = bell_diagonal([0.4, 0.3, 0.2, 0.1])
        rho, layout = assemble_product([single] * 3, [(2, 2)] * 3)
        assert layout == SubsystemLayout([2, 2, 2], 8)
        single_marg = partial_trace(single, SubsystemLayout([2], 2), {0})
        for j in range(3):
            marg = partial_trace(rho, layout, {j})
            assert np.abs(marg - single_marg).max() < 1e-12

    def test_mixed_dimension_product(self):
        rho, layout = bell_copies([2, 3])
        assert layout.sender_dims == (2, 3)
        assert layout.receiver_dim == 6
        assert von_neumann_entropy(rho) < 1e-12
        # each sender marginal is maximally mixed at its own dimension
        for j, d in enumerate((2, 3)):
            marg = partial_trace(rho, layout, {j})
            assert np.abs(marg - np.eye(d) / d).max() < 1e-13

    def test_shape_mismatch_rejected(self):
        with pytest.raises(LayoutError, match="one .d_a, d_b. pair per input state"):
            assemble_product([bell_state(2)] * 2, [(2, 2)])
        with pytest.raises(LayoutError, match=r"does not match slot dims \(2, 3\)"):
            assemble_product([bell_state(2)], [(2, 3)])

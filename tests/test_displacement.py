import itertools
import math

import numpy as np
import pytest

from densecode.displacement import (
    displacement_op,
    label_pairs,
    local_encoding_set,
    sender_generators,
    twirl,
    verify_displacement_algebra,
)
from densecode.errors import LayoutError, ParameterError, SizeLimitError
from densecode.linalg import kron_all, random_density_matrix, random_hermitian

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)


class TestDisplacementOp:
    def test_qubit_identity(self):
        assert np.abs(displacement_op(2, 0, 0) - np.eye(2)).max() == 0

    def test_qubit_shift_is_sigma1(self):
        # hand evaluation of the defining sum at (m, n) = (1, 0)
        assert np.abs(displacement_op(2, 1, 0) - SIGMA_1).max() == 0

    def test_qubit_phase_is_sigma3(self):
        # diag(1, exp(i pi)) = sigma_3
        assert np.abs(displacement_op(2, 0, 1) - SIGMA_3).max() < 1e-15

    def test_qubit_product_label_keeps_phase(self):
        # phases exactly as defined: V_11 = [[0, 1], [-1, 0]], not sigma_2
        expected = np.array([[0, 1], [-1, 0]], dtype=complex)
        assert np.abs(displacement_op(2, 1, 1) - expected).max() < 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_unitarity_and_trace(self, d):
        for m, n in label_pairs(d):
            v = displacement_op(d, m, n)
            assert np.abs(v @ v.conj().T - np.eye(d)).max() <= 1e-13
            expected_trace = d if (m, n) == (0, 0) else 0.0
            assert abs(v.trace() - expected_trace) < 1e-12

    def test_label_range_checked(self):
        with pytest.raises(ParameterError):
            displacement_op(2, 2, 0)
        with pytest.raises(ParameterError):
            displacement_op(2, 0, -1)


class TestAlgebraIdentities:
    def test_exhaustive_qubit(self):
        assert verify_displacement_algebra(2).max_deviation <= 1e-14

    def test_exhaustive_qutrit(self):
        assert verify_displacement_algebra(3).max_deviation <= 1e-13

    def test_gram_matrix_qubit(self):
        ops = [displacement_op(2, m, n) for m, n in label_pairs(2)]
        gram = np.array([[ (a @ b.conj().T).trace() for b in ops] for a in ops])
        assert np.abs(gram - 2 * np.eye(4)).max() < 1e-14

    def test_report_carries_per_identity_deviations(self):
        report = verify_displacement_algebra(2)
        assert report.orthogonality_dev <= 1e-14
        assert report.commutation_dev <= 1e-14
        assert report.product_dev <= 1e-14


class TestLocalEncodingSet:
    def test_single_qubit_sender_members(self):
        enc = local_encoding_set([2])
        assert len(enc) == 4
        expected = [
            np.eye(2),
            SIGMA_3,
            SIGMA_1,
            np.array([[0, 1], [-1, 0]], dtype=complex),
        ]  # lexicographic in (m, n)
        for got, want in zip(enc, expected):
            assert np.abs(got - want).max() < 1e-15

    def test_two_sender_cardinality(self):
        enc = local_encoding_set([2, 2])
        assert len(enc) == 16
        assert enc.shape[-1] == 4

    @pytest.mark.parametrize("dims", [[2], [3], [2, 2], [2, 3], [3, 3], [3, 2, 2],
                                      [4, 4], [2] * 5])
    def test_stack_equals_enumerated_kron_products(self, dims):
        # Oracle: the kron_all left fold over every label combination, the
        # construction the single broadcast kernel replaced.
        per_sender = [[displacement_op(d, m, n) for m, n in label_pairs(d)] for d in dims]
        want = np.stack([kron_all(c) for c in itertools.product(*per_sender)])
        got = local_encoding_set(dims)
        d_a = math.prod(dims)
        assert isinstance(got, np.ndarray) and got.shape == (d_a * d_a, d_a, d_a)
        assert np.array_equal(got, want)

    def test_dimension_cap_stops_both_builders(self, monkeypatch):
        # D_A = 64 is within ENCODING_SET_CAP (D_A^2 = 4096) but above the
        # dimension cap, which must stop the build before it allocates.
        monkeypatch.setenv("DENSECODE_MAX_DIM", "16")
        for build in (local_encoding_set, sender_generators):
            with pytest.raises(SizeLimitError, match="dimension 64 exceeds cap 16"):
                build([8, 8])

    @pytest.mark.parametrize("dims", [(2,), (2, 3), (3, 3), (2, 2, 2)])
    def test_generators_byte_identical_to_kron_all(self, dims):
        # Oracle: one kron_all per generator, full-size identities on the
        # other senders (size 1 included); the signs of zeros must match.
        want = np.stack([
            kron_all([np.eye(math.prod(dims[:j])), displacement_op(d, m, n),
                      np.eye(math.prod(dims[j + 1:]))])
            for j, d in enumerate(dims) for m, n in ((1, 0), (0, 1))])
        got = sender_generators(dims)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dims", [[2], [3], [2, 2], [2, 3]])
    def test_hilbert_schmidt_orthogonality(self, dims):
        enc = local_encoding_set(dims)
        d_a = enc.shape[-1]
        # brute-force pairwise traces: Gram matrix equals D_A * I
        for i, a in enumerate(enc):
            for j, b in enumerate(enc):
                val = (a @ b.conj().T).trace()
                expected = d_a if i == j else 0.0
                assert abs(val - expected) < 1e-10

    def test_lexicographic_order_two_senders(self):
        enc = local_encoding_set([2, 2])
        # member index 1 is (m1, n1, m2, n2) = (0, 0, 0, 1): I x sigma_3
        assert np.abs(enc[1] - np.kron(np.eye(2), SIGMA_3)).max() < 1e-15
        # member index 4 is (0, 1, 0, 0): sigma_3 x I
        assert np.abs(enc[4] - np.kron(SIGMA_3, np.eye(2))).max() < 1e-15

    def test_enumeration_cap(self):
        with pytest.raises(SizeLimitError):
            local_encoding_set([9, 9])

    @pytest.mark.parametrize("dims", [[2], [3], [2, 3], [3, 2, 2]])
    def test_generator_products_give_every_member(self, dims):
        # Member (m_1, n_1, ..., m_k, n_k) is shift_j^m_j clock_j^n_j over j,
        # up to a phase: |tr(V^dag W)| = D_A for unitaries V, W.
        gens = sender_generators(dims)
        enc = local_encoding_set(dims)
        assert isinstance(gens, np.ndarray)
        assert gens.shape == (2 * len(dims), enc.shape[-1], enc.shape[-1])
        for labels, member in zip(itertools.product(*[label_pairs(d) for d in dims]),
                                  enc):
            word = np.eye(enc.shape[-1])
            for g, power in zip(gens, [x for lab in labels for x in lab]):
                word = word @ np.linalg.matrix_power(g, power)
            assert abs(abs(np.trace(member.conj().T @ word)) - enc.shape[-1]) < 1e-12


class TestTwirl:
    def test_identity_fixed_point(self):
        enc = local_encoding_set([2])
        assert np.abs(twirl(enc, np.eye(2)) - np.eye(2)).max() < 1e-14

    def test_pauli_twirl_kills_sigma1(self):
        enc = local_encoding_set([2])
        assert np.abs(twirl(enc, SIGMA_1)).max() < 1e-14

    def test_qutrit_random_hermitian_brute_force(self):
        enc = local_encoding_set([3])
        rng = np.random.default_rng(9)
        x = random_hermitian(3, rng)
        # brute-force sum over the 9 operators
        acc = np.zeros((3, 3), dtype=complex)
        for v in enc:
            acc += v @ x @ v.conj().T
        assert np.abs(twirl(enc, x) - acc / 9).max() < 1e-14
        assert np.abs(twirl(enc, x) - np.trace(x) * np.eye(3) / 3).max() < 1e-10

    @pytest.mark.parametrize("dims", [[2], [3], [2, 2]])
    def test_projects_onto_identity_component(self, dims):
        enc = local_encoding_set(dims)
        d_a = enc.shape[-1]
        rng = np.random.default_rng(sum(dims))
        for _ in range(10):
            x = random_hermitian(d_a, rng) + 1j * random_hermitian(d_a, rng)
            out = twirl(enc, x)
            assert np.abs(out - np.trace(x) * np.eye(d_a) / d_a).max() < 1e-10

    def test_idempotent(self):
        enc = local_encoding_set([2, 2])
        rng = np.random.default_rng(21)
        x = random_hermitian(4, rng)
        once = twirl(enc, x)
        assert np.abs(twirl(enc, once) - once).max() < 1e-10

    def test_output_commutes_with_everything(self):
        enc = local_encoding_set([3])
        rng = np.random.default_rng(33)
        x = random_hermitian(3, rng)
        out = twirl(enc, x)
        for _ in range(5):
            r = random_density_matrix(3, rng)
            assert np.abs(out @ r - r @ out).max() < 1e-9

    def test_dimension_mismatch(self):
        enc = local_encoding_set([2])
        with pytest.raises(LayoutError):
            twirl(enc, np.eye(3))

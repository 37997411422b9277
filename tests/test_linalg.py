import numpy as np
import pytest

from qirc import linalg
from qirc.states import SIGMA_Z, bell_pair

from conftest import psd_power, random_density, random_hermitian


class TestKron:
    def test_identity(self):
        assert np.allclose(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_bookkeeping(self):
        p0 = np.array([[1, 0], [0, 0]], dtype=complex)
        p1 = np.array([[0, 0], [0, 1]], dtype=complex)
        out = linalg.kron(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.allclose(out, expected)

    def test_sigma_z_pair(self):
        # direct entrywise expansion by hand
        assert np.allclose(linalg.kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]))

    def test_trace_multiplicative(self, rng):
        for _ in range(20):
            a = random_hermitian(rng, 3)
            b = random_hermitian(rng, 4)
            assert np.isclose(np.trace(linalg.kron(a, b)),
                              np.trace(a) * np.trace(b))

    def test_dimension_guard(self):
        big = np.eye(1 << 11)
        with pytest.raises(ValueError, match="8192 of a tensor product exceeds MAX_DIM"):
            linalg.kron(big, np.eye(4))


class TestInputChecks:
    """Each check of a library input raises with its own message."""

    @pytest.mark.parametrize("dims", [["a", 2], [None, 2], [2, True]])
    def test_dims_that_are_not_whole_numbers(self, dims):
        with pytest.raises(ValueError, match="dims must be positive whole numbers"):
            linalg.check_dims(dims, 4)

    def test_partial_trace_of_a_non_square_matrix(self):
        with pytest.raises(ValueError, match="expected a square matrix"):
            linalg.partial_trace(np.ones((4, 2)), (2, 2), keep=[0])

    def test_partial_trace_keep_out_of_range(self):
        with pytest.raises(ValueError, match=r"keep \[2\] out of range for 2 subsystems"):
            linalg.partial_trace(np.eye(4) / 4, (2, 2), keep=[2])

    def test_permute_by_a_non_permutation(self):
        with pytest.raises(ValueError, match="is not a permutation of 0..1"):
            linalg.permute_subsystems(np.eye(4), (2, 2), [0, 0])

    def test_hermitian_eigen_of_a_non_square_matrix(self):
        with pytest.raises(ValueError, match="expected a square matrix"):
            linalg.hermitian_eigen(np.ones((2, 3)))


class TestPartialTrace:
    def test_bell_marginal(self):
        out = linalg.partial_trace(bell_pair().matrix, (2, 2), keep=[0])
        assert np.allclose(out, np.eye(2) / 2)

    def test_product_factorizes(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        out = linalg.partial_trace(linalg.kron(a, b), (2, 3), keep=[0])
        assert np.allclose(out, a)

    def test_keep_all_is_identity(self, rng):
        m = random_density(rng, 6)
        assert np.allclose(linalg.partial_trace(m, (2, 3), keep=[0, 1]), m)

    def test_trace_and_psd_preserved(self, rng):
        for dims in [(2, 2), (2, 3), (2, 2, 2), (3, 2, 2)]:
            d = int(np.prod(dims))
            m = random_density(rng, d)
            for keep in ([0], [len(dims) - 1], list(range(len(dims) - 1))):
                red = linalg.partial_trace(m, dims, keep)
                assert abs(np.trace(red) - 1.0) <= 1e-12
                assert np.linalg.eigvalsh(red).min() >= -1e-10

    def test_inconsistent_dims_rejected(self):
        with pytest.raises(ValueError):
            linalg.partial_trace(np.eye(4) / 4, (2, 3), keep=[0])

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            linalg.partial_trace(np.eye(4) / 4, (2, 2), keep=[])

    def test_stack_is_traced_matrix_by_matrix(self, rng):
        stack = np.array([random_density(rng, 12) for _ in range(5)])
        for keep in ([0], [1, 2], [0, 2]):
            out = linalg.partial_trace(stack, (2, 3, 2), keep)
            for m, red in zip(stack, out):
                assert red.tobytes() == linalg.partial_trace(m, (2, 3, 2), keep).tobytes()


class TestChunks:
    """A stack holds at most MAX_STACK = MAX_DIM^2 complex entries."""

    def test_ten_thousand_qubit_states_go_in_one_chunk(self):
        assert linalg.chunks(10**4, 8) == [range(10**4)]

    def test_states_of_dims_16_16_16_go_one_per_chunk(self):
        assert linalg.chunks(3, 16**3) == [range(0, 1), range(1, 2), range(2, 3)]

    @pytest.mark.parametrize("n, dim", [(0, 8), (1, 8), (10**6, 8), (1000, 27), (70, 512)])
    def test_chunks_cover_the_states_within_the_bound(self, n, dim):
        parts = linalg.chunks(n, dim)
        assert [k for part in parts for k in part] == list(range(n))
        assert all(len(part) * dim * dim <= linalg.MAX_STACK for part in parts)

    def test_oversized_state_rejected_before_any_stack(self):
        with pytest.raises(ValueError, match="MAX_DIM"):
            linalg.chunks(1, linalg.MAX_DIM + 1)


class TestPermuteSubsystems:
    def test_swap_product(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        swapped = linalg.permute_subsystems(linalg.kron(a, b), (2, 3), [1, 0])
        assert np.allclose(swapped, linalg.kron(b, a))

    def test_three_factor_cycle(self, rng):
        mats = [random_density(rng, 2) for _ in range(3)]
        full = linalg.kron(linalg.kron(mats[0], mats[1]), mats[2])
        cycled = linalg.permute_subsystems(full, (2, 2, 2), [2, 0, 1])
        assert np.allclose(cycled, linalg.kron(linalg.kron(mats[2], mats[0]), mats[1]))


class TestHermitianEigen:
    def test_sigma_z(self):
        eig = linalg.hermitian_eigen(SIGMA_Z)
        assert np.allclose(eig.values, [-1.0, 1.0])

    def test_maximally_mixed(self):
        eig = linalg.hermitian_eigen(np.eye(2) / 2)
        assert np.allclose(eig.values, [0.5, 0.5])

    def test_sigma_x_eigenvectors(self):
        # closed form: |-> and |+> at eigenvalues -1, +1
        eig = linalg.hermitian_eigen(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(eig.values, [-1.0, 1.0])
        minus = eig.vectors[:, 0]
        plus = eig.vectors[:, 1]
        assert np.isclose(abs(minus @ np.array([1, -1]) / np.sqrt(2)), 1.0)
        assert np.isclose(abs(plus @ np.array([1, 1]) / np.sqrt(2)), 1.0)

    @pytest.mark.parametrize("d", [2, 8, 16, 64])
    def test_reconstruction(self, rng, d):
        m = random_hermitian(rng, d)
        eig = linalg.hermitian_eigen(m)
        rebuilt = (eig.vectors * eig.values) @ eig.vectors.conj().T
        assert np.linalg.norm(rebuilt - m) <= 1e-10 * max(1.0, np.linalg.norm(m))
        gram = eig.vectors.conj().T @ eig.vectors
        assert np.linalg.norm(gram - np.eye(d)) <= 1e-10

    def test_rejects_non_hermitian(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        for m in (bad, np.array([np.eye(2), bad, np.eye(2)])):  # alone or in a stack
            with pytest.raises(ValueError, match="Hermitian"):
                linalg.hermitian_eigen(m)


class TestPsdPower:
    """The reference ``psd_power`` of the tests: covariant channels take their
    S^{-1/2} unchecked, and test_channels pins them to it bit for bit."""

    def test_identity_sqrt(self):
        assert np.allclose(psd_power(np.eye(3), 0.5), np.eye(3))

    def test_pseudo_inverse_on_support(self):
        out = psd_power(np.diag([4.0, 0.0]).astype(complex), -0.5)
        assert np.allclose(out, np.diag([0.5, 0.0]))

    def test_sqrt_round_trip(self, rng):
        m = random_density(rng, 4)
        root = psd_power(m, 0.5)
        assert np.allclose(root @ root, m, atol=1e-12)

    def test_power_one_is_support_projection(self, rng):
        m = random_density(rng, 5)
        assert np.allclose(psd_power(m, 1.0), m, atol=1e-12)

    def test_rejects_negative_spectrum(self):
        bad = np.diag([1.0, -0.5]).astype(complex)
        for m in (bad, np.array([np.eye(2), bad])):  # alone or in a stack
            with pytest.raises(ValueError, match="PSD"):
                psd_power(m, 0.5)

    @pytest.mark.parametrize("d", [2, 3, 4, 9])
    def test_stack_is_each_matrix_alone(self, rng, d):
        # full-rank and rank-deficient states; row k is bit for bit state k alone
        a = np.array([random_density(rng, d, 1 + k % d) for k in range(24)])
        for exponent in (0.5, -0.5):
            powers = psd_power(a, exponent)
            assert all(np.array_equal(r, psd_power(x, exponent))
                       for r, x in zip(powers, a))

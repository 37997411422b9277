import numpy as np
import pytest

from qirc import channels, dynamics, linalg, resources, states
from qirc.states import DensityMatrix, Seed


class TestDensityMatrixValidation:
    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex), (2,))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex), (2,))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m, (2,))

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            DensityMatrix(np.eye(4, dtype=complex) / 4, (2, 3))

    def test_reshaped(self):
        rho = states.maximally_mixed(4).reshaped((2, 2))
        assert rho.dims == (2, 2)
        with pytest.raises(ValueError):
            rho.reshaped((3, 2))

    def test_matrix_is_read_only(self):
        rho = states.bell_pair()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0


@pytest.fixture
def validations(monkeypatch):
    """Counts the runs of the full state check, DensityMatrix.__post_init__."""
    calls = []
    real = DensityMatrix.__post_init__

    def counted(self):
        calls.append(1)
        real(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
    return calls


@pytest.fixture
def checked_rows(monkeypatch):
    """The number of states in each run of the stacked check, check_states,
    which DensityMatrix.__post_init__ runs on a stack of one."""
    rows = []
    real = states.check_states

    def counted(m, dims):
        rows.append(len(m))
        return real(m, dims)

    monkeypatch.setattr(states, "check_states", counted)
    return rows


def _first_error(build) -> str:
    with pytest.raises(ValueError) as exc:
        build()
    return str(exc.value)


class TestCheckStates:
    """A stack of states is checked once, with DensityMatrix's messages."""

    GOOD = [states.haar_pure((2, 2), Seed(4, k)).matrix for k in range(3)]

    @pytest.mark.parametrize("bad", [
        np.diag([np.nan, 0.5, 0.5, 0.0]),                      # non-finite entry
        np.eye(4) / 4 + np.diag([0.1, 0.0, 0.0], k=1),         # not Hermitian
        np.eye(4) / 2,                                         # trace 2
        np.diag([1.5, -0.5, 0.0, 0.0]),                        # negative eigenvalue
    ], ids=["non-finite", "non-hermitian", "trace", "negative-eigenvalue"])
    def test_one_bad_state_gives_its_own_message(self, bad):
        alone = _first_error(lambda: DensityMatrix(bad, (2, 2)))
        for k in range(len(self.GOOD) + 1):
            stack = np.array(self.GOOD[:k] + [bad] + self.GOOD[k:], dtype=complex)
            assert _first_error(lambda: states.check_states(stack, (2, 2))) == alone

    def test_dims_mismatch(self):
        alone = _first_error(lambda: DensityMatrix(self.GOOD[0], (2, 3)))
        assert "do not multiply" in alone
        stack = np.array(self.GOOD)
        assert _first_error(lambda: states.check_states(stack, (2, 3))) == alone

    def test_good_stack_passes(self):
        assert states.check_states(np.array(self.GOOD), [2, 2]) == (2, 2)

    def test_ball_campaign_checks_each_sampled_state_once(self, validations, checked_rows,
                                                         tmp_path):
        from qirc import cli
        assert cli.main(["check", "T1", "--trials", "50", "--out", str(tmp_path)]) == 0
        assert sum(checked_rows) == 50
        assert validations == []


class TestDerivedStates:
    """A state is checked where it enters; states computed from it are not."""

    def test_entry_points_check(self, validations):
        states.haar_pure((2, 2, 2), Seed(3, 0))
        states.ginibre_mixed(4, 2, Seed(3, 1))
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2, dtype=complex), (2,))
        assert len(validations) == 3

    @pytest.mark.parametrize("d", [2, 3])
    def test_profile_runs_no_validation(self, validations, d):
        rho = states.haar_pure((d, d, d), Seed(3, d))
        validations.clear()
        resources.profile(rho)
        assert validations == []

    @pytest.mark.parametrize("d", [2, 3])
    def test_profile_batch_runs_no_validation(self, validations, checked_rows, d):
        stack = np.array([states.haar_pure((d, d, d), Seed(3, k)).matrix for k in range(4)])
        validations.clear()
        checked_rows.clear()
        resources.profile_batch(stack, (d, d, d))
        assert validations == [] and checked_rows == []

    def test_derived_constructors_run_no_validation(self, validations):
        rho = states.haar_pure((2, 2, 2), Seed(3, 2))
        ch = channels.random_channel(2, 2, 2, Seed(3, 3))
        u = dynamics.local_product_unitary(*(states.haar_unitary(2, Seed(3, 4 + k))
                                             for k in range(3)))
        validations.clear()
        rho_a = rho.marginal([0])
        channels.apply(ch, rho, 0)
        dynamics.evolve(rho, u)
        rho.reshaped((2, 4))
        states.compose_product(rho_a, rho_a)
        resources.profile(rho.marginal([0, 2]).reshaped((2, 1, 2)))  # builds the q2 Choi state
        assert validations == []
        states.bell_ac(rho_a)
        assert len(validations) == 1  # the Bell pair, a zoo state

    def test_derived_matrix_is_a_read_only_copy(self):
        m = np.eye(2, dtype=complex) / 2
        rho = DensityMatrix._derived(m, (2,))
        m[0, 0] = 9.0
        assert rho.matrix[0, 0] == 0.5
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0


class TestBellPair:
    def test_corner_entry(self):
        assert np.isclose(states.bell_pair().matrix[0, 0], 0.5)

    def test_trace(self):
        assert np.isclose(np.trace(states.bell_pair().matrix), 1.0)

    def test_marginal_maximally_mixed(self):
        marg = states.bell_pair().marginal([0])
        assert np.allclose(marg.matrix, np.eye(2) / 2)


class TestWerner:
    def test_endpoints(self):
        assert np.allclose(states.werner(1.0).matrix, states.bell_pair().matrix)
        assert np.allclose(states.werner(0.0).matrix, np.eye(4) / 4)

    def test_half_overlap(self):
        # direct overlap p + (1 - p)/4 at p = 1/2
        v = states.max_entangled_ket(2)
        overlap = (v.conj() @ states.werner(0.5).matrix @ v).real
        assert np.isclose(overlap, 5 / 8)

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_range_check(self, p):
        with pytest.raises(ValueError):
            states.werner(p)


class TestTripartitePure:
    def test_ghz_traced_coherence_dies(self):
        rho_ab = states.ghz().marginal([0, 1]).matrix
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(rho_ab, expected)

    def test_w_single_marginal(self):
        rho_a = states.w_state().marginal([0]).matrix
        assert np.allclose(rho_a, np.diag([2 / 3, 1 / 3]))

    def test_traces(self):
        assert np.isclose(np.trace(states.ghz().matrix), 1.0)
        assert np.isclose(np.trace(states.w_state().matrix), 1.0)


class TestGibbs:
    def test_infinite_temperature(self):
        rho = states.gibbs(states.SIGMA_Z, states.SIGMA_Z, states.SIGMA_Z,
                           coupling=0.7, beta=0.0)
        assert np.allclose(rho.matrix, np.eye(8) / 8)

    def test_ground_state_limit(self):
        # sigma_z ground state is |1> (eigenvalue -1)
        rho = states.gibbs(states.SIGMA_Z, states.SIGMA_Z, states.SIGMA_Z,
                           coupling=0.0, beta=60.0)
        assert np.allclose(rho.marginal([0]).matrix, np.diag([0.0, 1.0]), atol=1e-12)

    def test_unit_trace_any_beta(self):
        for beta in (0.3, 2.0, 11.0):
            sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
            rho = states.gibbs(sigma_x, states.SIGMA_Z, states.SIGMA_Z,
                               coupling=0.5, beta=beta)
            assert np.isclose(np.trace(rho.matrix), 1.0)

    def test_rejects_non_hermitian_terms(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            states.gibbs(bad, states.SIGMA_Z, states.SIGMA_Z, 0.0, 1.0)


class TestClassicalCorrelated:
    def test_qubit_case(self):
        rho = states.classical_correlated(2)
        assert rho.dims == (2, 1, 2)
        assert np.allclose(rho.matrix, np.diag([0.5, 0, 0, 0.5]))

    def test_uniform_marginal(self):
        for d in (2, 3):
            marg = states.classical_correlated(d).marginal([0])
            assert np.allclose(marg.matrix, np.eye(d) / d)

    def test_mutual_information_log_d(self):
        # classical perfect correlation: S_A + S_C - S_AC = log d
        for d in (2, 3):
            ac = states.classical_correlated(d).marginal([0, 2])
            assert np.isclose(resources.mutual_informations(ac.matrix[None], ac.dims)[0],
                              np.log(d))

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            states.classical_correlated(1)


class _NoDraw:
    """A seed that fails if a sampler draws from it."""

    def rng(self):
        raise AssertionError("drew before checking the size")


class TestHaarPure:
    def test_oversized_rejected_before_drawing(self):
        # 17 * 16 * 16 = 4352 is just above MAX_DIM
        with pytest.raises(ValueError, match="exceeds"):
            states.haar_pure((17, 16, 16), _NoDraw())

    def test_purity(self):
        rho = states.haar_pure((2, 2, 2), Seed(5, 0))
        assert abs(np.trace(rho.matrix @ rho.matrix).real - 1.0) <= 1e-12

    def test_determinism(self):
        a = states.haar_pure((2, 2), Seed(5, 3))
        b = states.haar_pure((2, 2), Seed(5, 3))
        assert np.array_equal(a.matrix, b.matrix)

    def test_streams_differ(self):
        a = states.haar_pure((2, 2), Seed(5, 3))
        b = states.haar_pure((2, 2), Seed(5, 4))
        assert not np.allclose(a.matrix, b.matrix)

    def test_mean_is_maximally_mixed(self):
        # Haar average is I/D; diagonal and Bloch components have variance
        # 1/12, so 3 standard errors at n = 10^4 is about 0.0087.
        n = 10_000
        acc = np.zeros((2, 2), dtype=complex)
        for i in range(n):
            acc += states.haar_pure((2,), Seed(99, i)).matrix
        assert np.abs(acc / n - np.eye(2) / 2).max() <= 3 * np.sqrt(1 / 12 / n)


class TestGinibre:
    def test_rank_one_is_pure(self):
        rho = states.ginibre_mixed(4, 1, Seed(8, 0))
        assert abs(np.trace(rho.matrix @ rho.matrix).real - 1.0) <= 1e-12

    def test_determinism(self):
        a = states.ginibre_mixed(2, 2, Seed(8, 1))
        b = states.ginibre_mixed(2, 2, Seed(8, 1))
        assert np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_eigenvalue_count_matches_rank(self, rank):
        rho = states.ginibre_mixed(4, rank, Seed(8, rank))
        w = np.linalg.eigvalsh(rho.matrix)
        assert int((w > 1e-10).sum()) == rank

    def test_rank_range(self):
        with pytest.raises(ValueError):
            states.ginibre_mixed(3, 4, Seed(8, 0))

    def test_oversized_rejected_before_drawing(self):
        with pytest.raises(ValueError, match="exceeds"):
            states.ginibre_mixed(17 * 16 * 16, 1, _NoDraw())


class TestHaarUnitary:
    def test_scalar_case(self):
        u = states.haar_unitary(1, Seed(2, 0))
        assert np.isclose(abs(u[0, 0]), 1.0)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_unitarity(self, d):
        u = states.haar_unitary(d, Seed(2, d))
        assert np.linalg.norm(u.conj().T @ u - np.eye(d)) <= 1e-10

    def test_first_entry_moment(self):
        # |U_00|^2 ~ Beta(1, d-1) with mean 1/d and variance 3/80 at d = 4.
        d, n = 4, 10_000
        total = 0.0
        for i in range(n):
            total += abs(states.haar_unitary(d, Seed(77, i))[0, 0]) ** 2
        se = np.sqrt((d - 1) / (d**2 * (d + 1)) / n)
        assert abs(total / n - 1 / d) <= 3 * se


class TestComposeProduct:
    def test_dims_and_trace(self):
        rho = states.compose_product(states.bell_pair(), states.maximally_mixed(2))
        assert rho.dims == (2, 2, 2)
        assert np.isclose(np.trace(rho.matrix), 1.0)

    def test_marginals_factor(self, rng):
        a = states.haar_pure((2,), Seed(1, 0))
        b = states.ginibre_mixed(3, 2, Seed(1, 1))
        rho = states.compose_product(a, b)
        assert np.allclose(rho.marginal([0]).matrix, a.matrix)
        assert np.allclose(rho.marginal([1]).matrix, b.matrix)

    def test_purity_multiplies(self):
        a = states.ginibre_mixed(2, 2, Seed(1, 2))
        b = states.ginibre_mixed(3, 3, Seed(1, 3))
        rho = states.compose_product(a, b)
        purity = [np.trace(s.matrix @ s.matrix).real for s in (rho, a, b)]
        assert np.isclose(purity[0], purity[1] * purity[2])


class TestAssemblies:
    def test_bell_spectator_layout(self):
        rho = states.bell_spectator()
        assert rho.dims == (2, 2, 2)
        assert np.allclose(rho.marginal([0, 1]).matrix, states.bell_pair().matrix)

    def test_bell_ac_permutation(self):
        spec = DensityMatrix(np.diag([0.7, 0.3]).astype(complex), (2,))
        rho = states.bell_ac(spec)
        assert rho.dims == (2, 2, 2)
        assert np.allclose(rho.marginal([0, 2]).matrix, states.bell_pair().matrix)
        assert np.allclose(rho.marginal([1]).matrix, spec.matrix)

    def test_bell_ac_trivial_b(self):
        rho = states.bell_ac()
        assert rho.dims == (2, 1, 2)
        assert np.allclose(rho.marginal([0, 2]).matrix, states.bell_pair().matrix)

    def test_coherent_spectator(self):
        rho = states.coherent_spectator()
        assert rho.dims == (2, 2, 2)
        assert np.allclose(rho.marginal([0]).matrix, states.plus_state().matrix)

import numpy as np
import pytest

import qirc
from qirc import channels, dynamics, resources, states
from qirc.generators import CoherenceGenerator, default_generator, diagonal_generator
from qirc.states import Seed

from conftest import ginibre_state, haar_state


class TestUnitaryOperator:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            dynamics.UnitaryOperator(np.eye(4) * 2)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"unitary must be square, got shape \(2, 3\)"):
            dynamics.UnitaryOperator(np.ones((2, 3)))

    def test_one_read_only_matrix(self):
        u = dynamics.UnitaryOperator(np.eye(2))
        assert list(vars(u)) == ["matrix"]
        assert not u.matrix.flags.writeable
        assert not hasattr(qirc, "global_unitary")


class TestEvolve:
    def test_identity(self):
        rho = states.ghz()
        u = dynamics.UnitaryOperator(np.eye(8))
        assert np.abs(dynamics.evolve(rho, u).matrix - rho.matrix).max() <= 1e-15

    def test_spectrum_invariant(self):
        rho = ginibre_state(8, 5, Seed(51, 0)).reshaped((2, 2, 2))
        u = dynamics.UnitaryOperator(states.haar_unitary(8, Seed(51, 1)))
        out = dynamics.evolve(rho, u)
        assert np.allclose(np.linalg.eigvalsh(out.matrix),
                           np.linalg.eigvalsh(rho.matrix), atol=1e-10)

    def test_local_unitary_leaves_other_marginals(self):
        a = ginibre_state(2, 2, Seed(51, 2))
        b = ginibre_state(2, 1, Seed(51, 3))
        c = ginibre_state(2, 2, Seed(51, 4))
        rho = states.compose_product(states.compose_product(a, b), c)
        u = dynamics.local_product_unitary(states.haar_unitary(2, Seed(51, 5)),
                                           np.eye(2), np.eye(2))
        out = dynamics.evolve(rho, u)
        assert np.abs(out.marginal([1]).matrix - b.matrix).max() <= 1e-12
        assert np.abs(out.marginal([2]).matrix - c.matrix).max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dynamics.evolve(states.ghz(),
                            dynamics.UnitaryOperator(np.eye(4)))


class TestCommutingLocalUnitary:
    def test_commutes_with_generator(self):
        g = default_generator(2)
        u = dynamics.commuting_local_unitary(g, Seed(52, 0))
        assert np.linalg.norm(u @ g.h - g.h @ u) <= 1e-12

    def test_degenerate_blocks(self):
        g = diagonal_generator([1.0, 1.0, -1.0])
        u = dynamics.commuting_local_unitary(g, Seed(52, 1))
        assert np.linalg.norm(u @ g.h - g.h @ u) <= 1e-10
        # the doubly degenerate block admits genuine mixing
        assert abs(u[0, 1]) + abs(u[1, 0]) > 1e-3

    def test_determinism(self):
        g = default_generator(2)
        a = dynamics.commuting_local_unitary(g, Seed(52, 2))
        b = dynamics.commuting_local_unitary(g, Seed(52, 2))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("values", [[1, -1], [2, 0, -2], [1, 1, -2], [0, 1, 3]])
    def test_is_the_commutant_sample_with_trivial_rest(self, values):
        # one block-commutant construction serves both samplers
        g = diagonal_generator(values)
        for i in range(5):
            u = dynamics.commuting_local_unitary(g, Seed(52, 10 + i))
            w = dynamics.sample_commutant_unitary(g, (len(values), 1, 1), Seed(52, 10 + i))
            assert np.array_equal(u, w.matrix)


class TestSampleCommutantUnitary:
    def test_commutator_residual(self):
        g = default_generator(2)
        for i in range(5):
            u = dynamics.sample_commutant_unitary(g, (2, 2, 2), Seed(53, i))
            lifted = np.kron(g.h, np.eye(4))
            assert np.linalg.norm(u.matrix @ lifted - lifted @ u.matrix) <= 1e-10

    def test_unitarity_and_dims(self):
        g = default_generator(2)
        u = dynamics.sample_commutant_unitary(g, (2, 2, 2), Seed(53, 9))
        assert u.matrix.shape == (8, 8)
        assert np.linalg.norm(u.matrix.conj().T @ u.matrix - np.eye(8)) <= 1e-10

    def test_determinism(self):
        g = default_generator(2)
        a = dynamics.sample_commutant_unitary(g, (2, 2, 2), Seed(53, 4))
        b = dynamics.sample_commutant_unitary(g, (2, 2, 2), Seed(53, 4))
        assert np.array_equal(a.matrix, b.matrix)

    def test_fully_degenerate_rejected_upstream(self):
        with pytest.raises(ValueError):
            CoherenceGenerator(np.eye(2, dtype=complex))

    def test_dims_validation(self):
        g = default_generator(2)
        with pytest.raises(ValueError):
            dynamics.sample_commutant_unitary(g, (2, 2), Seed(53, 0))
        with pytest.raises(ValueError):
            dynamics.sample_commutant_unitary(g, (3, 2, 2), Seed(53, 0))


class TestLocalProductUnitary:
    def test_identity_factors(self):
        u = dynamics.local_product_unitary(np.eye(2), np.eye(2), np.eye(2))
        assert np.allclose(u.matrix, np.eye(8))

    def test_phase_rotation_commutes_with_lifted_generator(self):
        theta = 0.37
        u_a = np.diag([np.exp(-1j * theta), np.exp(1j * theta)])
        u = dynamics.local_product_unitary(u_a,
                                           states.haar_unitary(2, Seed(54, 0)),
                                           states.haar_unitary(2, Seed(54, 1)))
        lifted = np.kron(states.SIGMA_Z, np.eye(4))
        assert np.linalg.norm(u.matrix @ lifted - lifted @ u.matrix) <= 1e-12

    def test_haar_factors_unitary(self):
        u = dynamics.local_product_unitary(states.haar_unitary(2, Seed(54, 2)),
                                           states.haar_unitary(2, Seed(54, 3)),
                                           states.haar_unitary(2, Seed(54, 4)))
        assert np.linalg.norm(u.matrix.conj().T @ u.matrix - np.eye(8)) <= 1e-10

    def test_rejects_non_unitary_factor(self):
        with pytest.raises(ValueError):
            dynamics.local_product_unitary(np.eye(2) * 1.5, np.eye(2), np.eye(2))


class TestTrajectory:
    def test_identity_schedule_constant_norm(self):
        rho = states.bell_spectator()
        ident = dynamics.UnitaryOperator(np.eye(8))
        traj = dynamics.trajectory(rho, [("identity", ident)] * 3)
        norms = [p.norm for _, p in traj.steps]
        assert all(n == norms[0] for n in norms)
        assert all(traj.monotone.values())

    def test_depolarizing_ramp_matches_werner_chain(self):
        # sequential depolarizing strengths compose multiplicatively on the
        # Bell weight: surviving fraction prod(1 - p_k)
        rho = states.bell_spectator()
        ps = [0.2, 0.3, 0.5]
        schedule = [(f"depolarizing({p})", (channels.depolarizing(2, p), 0)) for p in ps]
        traj = dynamics.trajectory(rho, schedule)
        surviving = 1.0
        expected = [1.0]
        for p in ps:
            surviving *= 1 - p
            expected.append(max(0.0, (3 * surviving - 1) / 2))
        q1s = [prof.q1 for _, prof in traj.steps]
        assert np.allclose(q1s, expected, atol=1e-6)
        assert traj.monotone["q1"]
        assert traj.monotone["norm"]

    def test_commuting_local_schedule_preserves_norm(self):
        g = default_generator(2)
        rho = haar_state((2, 2, 2), Seed(55, 0))
        steps = []
        for i in range(3):
            u = dynamics.local_product_unitary(
                dynamics.commuting_local_unitary(g, Seed(55, 10 + i)),
                states.haar_unitary(2, Seed(55, 20 + i)),
                states.haar_unitary(2, Seed(55, 30 + i)))
            steps.append((f"commuting[{i}]", u))
        traj = dynamics.trajectory(rho, steps)
        norms = [p.norm for _, p in traj.steps]
        assert max(abs(n - norms[0]) for n in norms) <= 1e-6

    def test_dims_changing_channel_profiles_every_step(self):
        # tracing out C, a 2 -> 1 channel, turns dims (2, 2, 2) into (2, 2, 1)
        trace_c = channels.KrausChannel([np.eye(2)[None, k] for k in range(2)])
        noise = channels.depolarizing(2, 0.1)
        rho = haar_state((2, 2, 2), Seed(56, 0))
        traj = dynamics.trajectory(rho, [("trace C", (trace_c, 2)), ("noise", (noise, 0))])
        after = [rho, channels.apply(trace_c, rho, 2)]
        after.append(channels.apply(noise, after[1], 0))
        assert after[2].dims == (2, 2, 1)
        assert [label for label, _ in traj.steps] == ["init", "trace C", "noise"]
        assert [p.to_dict() for _, p in traj.steps] == \
            [resources.profile(s).to_dict() for s in after]
        assert traj.steps[1][1].q2 == 0.0

    def test_labels_and_step_count(self):
        rho = states.bell_spectator()
        schedule = [("noise", (channels.depolarizing(2, 0.1), 0)),
                    ("identity", dynamics.UnitaryOperator(np.eye(8)))]
        traj = dynamics.trajectory(rho, schedule)
        labels = [label for label, _ in traj.steps]
        assert labels == ["init", "noise", "identity"]
        assert len(traj.steps) == len(schedule) + 1

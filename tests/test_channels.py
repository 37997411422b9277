import tracemalloc

import numpy as np
import pytest

from qirc import channels, linalg, states
from qirc.claims import _sample_channel
from qirc.generators import (clusters, default_generator, diagonal_generator,
                             sigma_z_generator)
from qirc.states import Seed

from conftest import random_density


def _act(ch, m):
    """The channel on the one-system state m, through ``channels.apply``."""
    return channels.apply(ch, states.DensityMatrix(m, (len(m),)), 0).matrix


class TestMakeChannel:
    def test_identity_valid(self):
        ch = channels.KrausChannel([np.eye(2)])
        assert ch.d_in == ch.d_out == 2

    def test_full_damping_valid(self):
        # {|0><0|, |0><1|} satisfies completeness by hand
        k0 = np.array([[1, 0], [0, 0]], dtype=complex)
        k1 = np.array([[0, 1], [0, 0]], dtype=complex)
        ch = channels.KrausChannel([k0, k1])
        out = _act(ch, np.eye(2, dtype=complex) / 2)
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_overcomplete_rejected(self):
        with pytest.raises(ValueError, match="completeness"):
            channels.KrausChannel([np.eye(2), np.eye(2)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            channels.KrausChannel([])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match=r"(?=.*\(2, 2\))(?=.*\(3, 3\))"):
            channels.KrausChannel([np.eye(2), np.eye(3)])

    def test_one_read_only_stack(self):
        ch = channels.random_channel(2, 3, 2, Seed(4, 1))
        assert ch.kraus.shape == (2, 3, 2) and ch.kraus.dtype == complex
        assert (ch.d_in, ch.d_out) == (2, 3)
        assert not ch.kraus.flags.writeable


class TestStandardChannels:
    def test_full_depolarizing(self):
        ch = channels.depolarizing(2, 1.0)
        out = _act(ch, np.diag([1.0, 0.0]).astype(complex))
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize("d,p", [(2, 0.3), (3, 0.7)])
    def test_depolarizing_action(self, rng, d, p):
        ch = channels.depolarizing(d, p)
        m = random_density(rng, d)
        assert np.allclose(_act(ch, m), (1 - p) * m + p * np.eye(d) / d, atol=1e-12)

    def test_full_dephasing_kills_plus(self):
        ch = channels.dephasing(1.0, sigma_z_generator())
        out = _act(ch, states.plus_state().matrix)
        assert np.allclose(out, np.eye(2) / 2)

    def test_partial_dephasing_scales_offdiagonals(self, rng):
        lam = 0.4
        ch = channels.dephasing(lam, sigma_z_generator())
        m = random_density(rng, 2)
        out = _act(ch, m)
        assert np.isclose(out[0, 1], (1 - lam) * m[0, 1])
        assert np.isclose(out[0, 0], m[0, 0])

    def test_amplitude_damping_identity_at_zero(self, rng):
        ch = channels.amplitude_damping(0.0)
        m = random_density(rng, 2)
        assert np.allclose(_act(ch, m), m)

    def test_amplitude_damping_full(self, rng):
        ch = channels.amplitude_damping(1.0)
        m = random_density(rng, 2)
        assert np.allclose(_act(ch, m), np.diag([1.0, 0.0]), atol=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_parameter_ranges(self, bad):
        with pytest.raises(ValueError):
            channels.depolarizing(2, bad)
        with pytest.raises(ValueError):
            channels.dephasing(bad, sigma_z_generator())
        with pytest.raises(ValueError):
            channels.amplitude_damping(bad)


class TestRandomChannel:
    def test_rank_one_is_unitary(self):
        ch = channels.random_channel(3, 3, 1, Seed(4, 0))
        (k,) = ch.kraus
        assert np.linalg.norm(k.conj().T @ k - np.eye(3)) <= 1e-10

    def test_completeness_residual(self):
        for rank in (1, 2, 4):
            ch = channels.random_channel(2, 2, rank, Seed(4, rank))
            total = sum(k.conj().T @ k for k in ch.kraus)
            assert np.linalg.norm(total - np.eye(2)) <= 1e-10

    def test_determinism(self):
        a = channels.random_channel(2, 2, 3, Seed(4, 9))
        b = channels.random_channel(2, 2, 3, Seed(4, 9))
        assert all(np.array_equal(x, y) for x, y in zip(a.kraus, b.kraus))

    def test_oversized_kraus_rank_rejected_before_drawing(self, monkeypatch):
        def draw(d, rng):
            raise AssertionError(f"drew a {d} x {d} Haar matrix")
        monkeypatch.setattr(channels, "_haar_unitary_from_rng", draw)
        with pytest.raises(ValueError, match="MAX_DIM"):
            channels.random_channel(2, 2, 10**6, Seed(4, 0))


def _phase(g, t):
    """e^{-iHt} from the generator's cached eigendecomposition."""
    v = g.eigen.vectors
    return (v * np.exp(-1j * g.eigen.values * t)) @ v.conj().T


def _covariance_residual(ch, g, rho):
    worst = 0.0
    for t in (0.3, 1.1, 2.9):
        u = _phase(g, t)
        lhs = _act(ch, u @ rho @ u.conj().T)
        rhs = u @ _act(ch, rho) @ u.conj().T
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


class TestCovariantChannel:
    GENERATORS = [default_generator(2), default_generator(3),
                  diagonal_generator([1.0, 1.0, -2.0])]

    @pytest.mark.parametrize("g", GENERATORS, ids=["d2", "d3", "degenerate"])
    def test_commutes_with_phase_group(self, rng, g):
        for i in range(20):
            rho = random_density(rng, g.dim)
            cov = channels.KrausChannel(channels.covariant_kraus(g, Seed(5, i)))
            haar = channels.KrausChannel(_sample_channel(g.dim, Seed(5, i)))
            assert _covariance_residual(cov, g, rho) <= 1e-12
            # the Haar sampler breaks the symmetry, so the check separates them
            assert _covariance_residual(haar, g, rho) > 1e-3

    @pytest.mark.parametrize("g", GENERATORS, ids=["d2", "d3", "degenerate"])
    def test_kraus_rank_above_one_occurs(self, g):
        ranks = []
        for i in range(20):
            ch = channels.KrausChannel(channels.covariant_kraus(g, Seed(5, i)))
            # Kraus rank = rank of the stacked, vectorized Kraus operators
            rank = np.linalg.matrix_rank(np.array([k.ravel() for k in ch.kraus]))
            assert rank == len(ch.kraus)
            ranks.append(rank)
        assert max(ranks) > 1

    def test_completeness_and_determinism(self):
        g = diagonal_generator([0.0, 1.0, 3.0])
        a = channels.KrausChannel(channels.covariant_kraus(g, Seed(4, 9)))
        b = channels.KrausChannel(channels.covariant_kraus(g, Seed(4, 9)))
        total = sum(k.conj().T @ k for k in a.kraus)
        assert np.linalg.norm(total - np.eye(3)) <= 1e-10
        assert all(np.array_equal(x, y) for x, y in zip(a.kraus, b.kraus))

    @pytest.mark.parametrize("values", [[1.0, 1.0, -2.0], [0.0, 1.0, 3.0], [0.3, -1.1, 2.0, 0.5]],
                             ids=["degenerate", "equal-shifts", "non-degenerate"])
    def test_cached_shifts_draw_the_fresh_kraus_operators(self, values):
        # a fresh generator recomputes its shifts; reusing one reads them from
        # its cache. Both must give the Kraus operators of the draw computed
        # from the spectrum, bit for bit
        g = diagonal_generator(values)
        for i in range(12):
            fresh = fresh_covariant_kraus(diagonal_generator(values), Seed(4, i))
            assert np.array_equal(channels.covariant_kraus(g, Seed(4, i)), fresh)
            assert np.array_equal(
                channels.covariant_kraus(diagonal_generator(values), Seed(4, i)), fresh)


def fresh_covariant_kraus(g, seed: Seed) -> np.ndarray:
    """``channels.covariant_kraus`` with the levels, shifts and masks
    recomputed from g's spectrum on the draw."""
    rng, d, tol = seed.rng(), g.dim, g.cluster_tol
    level = np.empty(d)
    for cluster in clusters(g.eigen.values, tol):
        level[cluster] = g.eigen.values[cluster[0]]
    shift = level[:, None] - level[None, :]
    shifts = np.sort(shift.ravel())
    ops = []
    for w in (shifts[c[0]] for c in clusters(shifts, tol)):
        mask = np.abs(shift - w) <= tol
        for _ in range(int(rng.integers(0 if abs(w) > tol else 1, min(2, int(mask.sum())) + 1))):
            ops.append((rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) * mask)
    s_inv_half = linalg.psd_power(sum(linalg.dagger(a) @ a for a in ops), -0.5)
    v = g.eigen.vectors
    return np.array([v @ a @ s_inv_half @ linalg.dagger(v) for a in ops])


def test_clusters_reach_from_the_first_value():
    # eigenvalues and charge shifts share this rule: a group holds the values
    # within tolerance of its first, not of its last
    assert clusters(np.array([0.0, 0.6, 1.2, 5.0]), 1.0) == [[0, 1], [2], [3]]
    assert diagonal_generator([1.0, 1.0, -2.0]).eigenvalue_clusters() == [[0], [1, 2]]


class TestApply:
    def test_identity_channel(self):
        rho = states.bell_spectator()
        out = channels.apply(channels.KrausChannel([np.eye(2)]), rho, 0)
        assert np.abs(out.matrix - rho.matrix).max() <= 1e-12

    def test_full_depolarization_decouples(self):
        # fully depolarizing A leaves rho_AB = I/4 on the Bell family
        rho = states.bell_spectator()
        out = channels.apply(channels.depolarizing(2, 1.0), rho, 0)
        assert np.allclose(out.marginal([0, 1]).matrix, np.eye(4) / 4, atol=1e-12)

    def test_trace_preserved_random(self):
        for i in range(10):
            rho = states.haar_pure((2, 2, 2), Seed(11, i))
            ch = channels.random_channel(2, 2, 1 + i % 4, Seed(12, i))
            out = channels.apply(ch, rho, i % 3)
            assert abs(np.trace(out.matrix) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(out.matrix).min() >= -1e-10

    def test_dimension_mismatch(self):
        rho = states.bell_spectator()
        with pytest.raises(ValueError):
            channels.apply(channels.depolarizing(3, 0.5), rho, 0)
        with pytest.raises(ValueError):
            channels.apply(channels.KrausChannel([np.eye(2)]), rho, 5)


def _kron_apply(kraus, rho, dims, target):
    """Reference: sum_k (I ⊗ K_k ⊗ I) rho (I ⊗ K_k ⊗ I)†, by Kronecker products."""
    left, right = int(np.prod(dims[:target])), int(np.prod(dims[target + 1:]))
    ops = [np.kron(np.kron(np.eye(left), k), np.eye(right)) for k in kraus]
    return sum(op @ rho @ op.conj().T for op in ops)


class TestApplyBatch:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (2, 1, 2)])
    @pytest.mark.parametrize("target", [0, 1, 2])
    def test_matches_the_kron_reference_with_mixed_ranks(self, dims, target):
        d = dims[target]
        ranks = [1, d * d, 2, 3]  # padded to the largest rank within one stack
        chs = [channels.random_channel(d, d, r, Seed(21, n)) for n, r in enumerate(ranks)]
        rhos = [states.ginibre_mixed(int(np.prod(dims)), 1 + n, Seed(22, n)).reshaped(dims)
                for n in range(len(chs))]
        out = channels.apply_batch(channels.stack_kraus([np.array(ch.kraus) for ch in chs]),
                                   np.array([rho.matrix for rho in rhos]), dims, target)
        for ch, rho, row in zip(chs, rhos, out):
            ref = _kron_apply(ch.kraus, rho.matrix, dims, target)
            assert np.abs(row - ref).max() <= 1e-14
            # each row is bit for bit the single-channel (N = 1) call
            assert np.array_equal(row, channels.apply(ch, rho, target).matrix)

    def test_mismatches_raise_before_allocating(self):
        n = 100_000  # a computed stack of n 8 x 8 states would take 100 MB
        rho = np.broadcast_to(np.eye(8, dtype=complex) / 8, (n, 8, 8))
        wrong_d = np.broadcast_to(np.eye(3, dtype=complex), (n, 1, 3, 3))
        too_big = np.broadcast_to(np.zeros((2048, 2), dtype=complex), (n, 1, 2048, 2))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="does not match"):
                channels.apply_batch(wrong_d, rho, (2, 2, 2), 0)
            with pytest.raises(ValueError, match="out of range"):
                channels.apply_batch(wrong_d, rho, (2, 2, 2), 3)
            with pytest.raises(ValueError, match="MAX_DIM"):
                channels.apply_batch(too_big, rho, (2, 2, 2), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_stack_rejects_an_incomplete_channel(self):
        good = np.array(channels.random_channel(2, 2, 2, Seed(23, 0)).kraus)
        with pytest.raises(ValueError, match="completeness"):
            channels.stack_kraus([good, 0.5 * good])


def _choi(ch):
    """(id ⊗ ch) on the maximally entangled state, on dims (d_in, d_out)."""
    omega = states.max_entangled_ket(ch.d_in)
    bell = states.DensityMatrix(np.outer(omega, omega.conj()), (ch.d_in, ch.d_in))
    return channels.apply(ch, bell, 1)


class TestChoi:
    def test_identity_gives_bell(self):
        c = _choi(channels.KrausChannel([np.eye(2)]))
        assert np.allclose(c.matrix, states.bell_pair().matrix)

    def test_replacement_channel(self, rng):
        # K_{mn} = sqrt(s_m) |phi_m><n| replaces any input with sigma
        sigma = random_density(rng, 2)
        w, v = np.linalg.eigh(sigma)
        kraus = [np.sqrt(w[m]) * np.outer(v[:, m], np.eye(2)[n])
                 for m in range(2) for n in range(2)]
        ch = channels.KrausChannel(kraus)
        c = _choi(ch)
        assert np.allclose(c.matrix, np.kron(np.eye(2) / 2, sigma), atol=1e-12)

    def test_full_dephasing_choi(self):
        c = _choi(channels.dephasing(1.0, sigma_z_generator()))
        expected = np.diag([0.5, 0.0, 0.0, 0.5])
        assert np.allclose(c.matrix, expected)

    def test_input_marginal_invariant(self):
        for rank in (1, 2, 3):
            ch = channels.random_channel(2, 2, rank, Seed(13, rank))
            c = _choi(ch)
            marg = linalg.partial_trace(c.matrix, c.dims, keep=[0])
            assert np.linalg.norm(marg - np.eye(2) / 2) <= 1e-9


class TestComposeAndExtraction:
    def test_composition_consistency(self):
        rho = states.haar_pure((2, 2), Seed(14, 0))
        ch1 = channels.random_channel(2, 2, 2, Seed(14, 1))
        ch2 = channels.random_channel(2, 2, 2, Seed(14, 2))
        seq = channels.apply(ch2, channels.apply(ch1, rho, 0), 0)
        kraus = [a @ b for a in ch2.kraus for b in ch1.kraus]
        combined = channels.apply(channels.KrausChannel(kraus), rho, 0)
        assert np.abs(seq.matrix - combined.matrix).max() <= 1e-10

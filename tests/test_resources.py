import dataclasses

import numpy as np
import pytest

from qirc import dynamics, linalg, resources, states
from qirc.generators import (CoherenceGenerator, default_generator,
                             diagonal_generator, sigma_z_generator)
from qirc.resources import ProfileConfig, profile, profile_batch, teleportation_fidelity
from qirc.states import DensityMatrix, Seed
from qirc.tolerances import EPS_CERT, EPS_OPT, EPS_PSD

from conftest import fmax_two_qubit_oracle, near_product_ket, random_hermitian


def bell_overlap(rho: DensityMatrix) -> float:
    v = states.max_entangled_ket(rho.dims[0])
    return float((v.conj() @ rho.matrix @ v).real)


def qubit_pairs(n: int, master: int):
    """Alternately Haar pure and Ginibre mixed two-qubit states."""
    for i in range(n):
        if i % 2:
            yield states.haar_pure((2, 2), Seed(master, i))
        else:
            yield states.ginibre_mixed(4, 1 + i % 4, Seed(master, i)).reshaped((2, 2))


def q1_of(rho_ab: DensityMatrix) -> tuple[float, float]:
    """(q1, raw q1) of rho_AB alone: the profile of rho_AB on a trivial C."""
    p = profile(rho_ab.reshaped(rho_ab.dims + (1,)))
    return p.q1, p.breakdown.q1_raw


def q2_of(rho_ac: DensityMatrix, cfg: ProfileConfig | None = None) -> tuple[float, float]:
    """(q2, raw q2) of rho_AC alone: the profile of rho_AC on a trivial B."""
    p = profile(rho_ac.reshaped((rho_ac.dims[0], 1, rho_ac.dims[1])), cfg)
    return p.q2, p.breakdown.q2_raw


def alone_on_a(rho_a: DensityMatrix, g: CoherenceGenerator):
    """The profile of rho_A on trivial B and C, along g."""
    return profile(rho_a.reshaped((rho_a.dim, 1, 1)), ProfileConfig(generator=g))


def fraction(rho: DensityMatrix) -> list:
    """(f, W = U†, gap) of one bipartite state: row 0 of ``_singlet_fractions``."""
    return [x[0] for x in resources._singlet_fractions(rho.matrix[None], rho.dims[0])]


def choi(rho_ac: DensityMatrix) -> DensityMatrix:
    """The q2 Choi state of rho_AC alone: row 0 of ``_transfer_choi``."""
    return DensityMatrix._derived(resources._transfer_choi(rho_ac.matrix[None], *rho_ac.dims)[0],
                                  rho_ac.dims)


def f_q(rho_a: DensityMatrix, g: CoherenceGenerator) -> float:
    """The Fisher information of rho_A along g, from its profile alone."""
    return alone_on_a(rho_a, g).breakdown.f_q


def variance(rho: DensityMatrix, g: CoherenceGenerator) -> float:
    return float(resources.variances(rho.matrix[None], g)[0])


def isotropic(p: float, d: int) -> DensityMatrix:
    """p |Phi+><Phi+| + (1 - p) I/d^2, whose singlet fraction is p + (1 - p)/d^2."""
    v = states.max_entangled_ket(d)
    return DensityMatrix(p * np.outer(v, v.conj()) + (1 - p) * np.eye(d * d) / d**2, (d, d))


def short_start_state() -> DensityMatrix:
    """A Haar 3-qutrit state whose q2 Choi state the spectral and identity
    starts leave 0.027 below its singlet fraction; its rho_AB the spectral
    start certifies alone."""
    return states.haar_pure((3, 3, 3), Seed(7, 403))


def power_fraction(rho: np.ndarray, d: int) -> float:
    """The singlet fraction of rho[d*d, d*d] by the plain polar power
    iteration from the identity and the spectral start together, with the
    library's certificate and Haar fallback; the library's search adds a
    Newton step and refines the identity start only in its fallback."""

    def refine(w):
        vals = np.einsum("si,ij,sj->s", w.conj(), rho, w).real / d
        for _ in range(resources.MAX_ITER):
            u, _, vh = np.linalg.svd((w @ rho.conj()).reshape(-1, d, d))
            w = (u @ vh).reshape(len(w), -1)
            new = np.einsum("si,ij,sj->s", w.conj(), rho, w).real / d
            gain, vals = np.max(new - vals), new
            if gain <= EPS_OPT:
                break
        return vals.max(), w[np.argmax(vals)]

    eye = np.eye(d).reshape(1, -1)
    f, w = refine(np.concatenate([eye, resources._start_batch(rho[None], d)[0]]))
    if resources._certified_gap(rho[None], w.reshape(1, d, d), d)[0] > EPS_CERT:
        f = max(f, refine(np.array(resources._haar_starts(d, resources.HAAR_STARTS)))[0])
    return min(f, 1.0)


def qutrit_product_ket(e: float) -> np.ndarray:
    """sqrt(1-2e)|a0,0,0> + sqrt(e)|a1,0,1> + sqrt(e)|a2,0,2>, a0 = (|0>+|2>)/sqrt2,
    a1 = |1>, a2 = (|0>-|2>)/sqrt2: rho_AB = sigma ⊗ |0><0|, a product whose
    singlet fraction is lambda_max(sigma)/3 = (1 - 2e)/3."""
    z = np.eye(3)
    a = [(z[0] + z[2]) / np.sqrt(2), z[1], (z[0] - z[2]) / np.sqrt(2)]
    return sum(np.sqrt(p) * np.kron(np.kron(a[c], z[0]), z[c])
               for c, p in enumerate((1 - 2 * e, e, e)))


class TestFullyEntangledFraction:
    def test_bell_is_one(self):
        f, w, _ = fraction(states.bell_pair())
        assert np.isclose(f, 1.0, atol=1e-12)
        assert np.allclose(w.conj().T @ w, np.eye(2), atol=1e-10)

    def test_maximally_mixed_constant_objective(self):
        f, _, _ = fraction(states.maximally_mixed(4, dims=(2, 2)))
        assert np.isclose(f, 0.25, atol=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.25, 1 / 3, 0.5, 0.8, 1.0])
    def test_werner_closed_form(self, p):
        # oracle: the Bell overlap p + (1-p)/4 is already optimal at U = I
        f, _, _ = fraction(states.werner(p))
        assert np.isclose(f, (3 * p + 1) / 4, atol=1e-9)

    def test_matches_exact_two_qubit_oracle(self):
        worst = 0.0
        for rho in qubit_pairs(60, 31):
            f, _, _ = fraction(rho)
            worst = max(worst, abs(f - fmax_two_qubit_oracle(rho.matrix)))
        assert worst <= 1e-9

    def test_never_below_identity_overlap_or_floor(self):
        for i in range(30):
            rho = states.ginibre_mixed(4, 1 + i % 4, Seed(32, i)).reshaped((2, 2))
            f, _, _ = fraction(rho)
            assert f >= max(bell_overlap(rho), 1 / 4) - 1e-12

    def test_returned_unitary_reproduces_value(self):
        rho = states.haar_pure((2, 2), Seed(33, 0))
        f, w, _ = fraction(rho)
        v = states.max_entangled_ket(2)
        big = np.kron(linalg.dagger(w), np.eye(2))
        assert np.isclose((v.conj() @ big @ rho.matrix @ big.conj().T @ v).real, f,
                          atol=1e-12)

    def test_closed_form_matches_power_iteration(self):
        # the d >= 3 search, run on qubits, is an independent check of the
        # closed form: it must find the same optimum and never exceed it
        pairs = []
        for i in range(1000):
            if i % 2:
                rho = states.haar_pure((2, 2, 2), Seed(48, i))
            else:
                rho = states.ginibre_mixed(8, 1 + i % 8, Seed(48, i)).reshaped((2, 2, 2))
            pairs += [rho.marginal([0, 1]), choi(rho.marginal([0, 2]))]
        f = np.array([fraction(pair)[0] for pair in pairs])
        # the search runs on all pairs as one stack; each row searches alone
        stack = np.array([pair.matrix for pair in pairs])
        haar = np.concatenate([np.eye(2).reshape(1, 4),
                               resources._haar_starts(2, resources.HAAR_STARTS)])
        w0 = np.concatenate([resources._start_batch(stack, 2),
                             np.broadcast_to(haar, (len(stack),) + haar.shape)], axis=1)
        searched = resources._power_refine(stack, w0, 2)[0]
        assert np.max(np.abs(f - searched)) <= 1e-9
        assert np.max(searched - f) <= 1e-14

    def test_d3_search_is_deterministic(self):
        # the Haar starts are cached; a second call must repeat the first
        rho = states.ginibre_mixed(9, 3, Seed(33, 1)).reshaped((3, 3))
        f1, w1, _ = fraction(rho)
        f2, w2, _ = fraction(rho)
        assert f1 == f2 and np.array_equal(w1, w2)

    def test_exhaustive_random_search_never_beats_it(self):
        # brute force over many unoptimized unitaries stays below the result
        rho = states.ginibre_mixed(4, 3, Seed(33, 2)).reshaped((2, 2))
        f, _, _ = fraction(rho)
        v = states.max_entangled_ket(2)
        best = 0.0
        for i in range(2000):
            u = np.kron(states.haar_unitary(2, Seed(34, i)), np.eye(2))
            best = max(best, (v.conj() @ u @ rho.matrix @ u.conj().T @ v).real)
        assert best <= f + 1e-9

    def test_rejects_unequal_dims(self):
        rho = states.maximally_mixed(6, dims=(2, 3, 1))
        with pytest.raises(ValueError, match="need d_B == d_A"):
            profile(rho)

    def test_d3_upper_bound_and_floor(self):
        rho = states.ginibre_mixed(9, 4, Seed(35, 0)).reshaped((3, 3))
        f, _, _ = fraction(rho)
        top = float(np.linalg.eigvalsh(rho.matrix).max())
        assert 1 / 9 - 1e-12 <= f <= top + 1e-9


class TestCertificate:
    """f + _certified_gap(rho, W) bounds the singlet fraction from above, for
    any W, by weak duality of the unital-channel relaxation."""

    def test_meets_the_closed_form_on_qubits(self):
        # the relaxation is exact at d = 2: at the closed-form W the bound is
        # the closed form
        for rho in qubit_pairs(60, 31):
            f, w, gap = fraction(rho)
            assert gap == 0.0
            bound = f + resources._certified_gap(rho.matrix[None], w[None], 2)[0]
            assert abs(bound - fmax_two_qubit_oracle(rho.matrix)) <= 1e-12

    @pytest.mark.parametrize("p", [0.0, 0.25, 1 / 3, 0.5, 0.8, 1.0])
    def test_isotropic_qutrits(self, p):
        f, _, gap = fraction(isotropic(p, 3))
        assert abs(f - (p + (1 - p) / 9)) <= 1e-12
        assert 0.0 <= gap <= EPS_CERT

    @pytest.mark.parametrize("starts", [resources.HAAR_STARTS, 0])
    def test_never_below_brute_force_on_ginibre_qutrits(self, starts, monkeypatch):
        # f(W) = vec(W)† rho vec(W)/3 at W = U† of 2000 Haar unitaries U
        monkeypatch.setattr(resources, "HAAR_STARTS", starts)
        ws = np.array([linalg.dagger(states.haar_unitary(3, Seed(34, i))).reshape(9)
                       for i in range(2000)])
        for i in range(12):
            rho = states.ginibre_mixed(9, 1 + i % 9, Seed(36, i)).reshaped((3, 3))
            f, _, gap = fraction(rho)
            brute = np.einsum("ni,ij,nj->n", ws.conj(), rho.matrix, ws).real.max() / 3
            assert gap >= 0.0
            assert brute <= f + gap + 1e-12


class TestNewtonSearch:
    """The d >= 3 search, with its Newton step, against an exact family and
    the plain power iteration from the same starts."""

    @pytest.mark.parametrize("e", [0.1, 1e-2, 1e-4])
    def test_qutrit_product_family(self, e):
        rho = states.ket_projector(qutrit_product_ket(e), (3, 3, 3)).marginal([0, 1])
        f, w, _ = fraction(rho)
        assert abs(f - (1 - 2 * e) / 3) <= 1e-15
        assert np.abs(w.conj().T @ w - np.eye(3)).max() <= 1e-13

    @pytest.mark.parametrize("d, n", [(3, 60), (4, 16)])
    def test_never_below_the_power_iteration(self, d, n):
        # seed-7 Haar states, rho_AB and the q2 Choi state of each
        rhos = [states.haar_pure((d, d, d), Seed(7, i)) for i in range(n)]
        stack = np.array([m.matrix for rho in rhos for m in (
            rho.marginal([0, 1]), choi(rho.marginal([0, 2])))])
        f, w, gap = resources._singlet_fractions(stack, d)
        ref = np.array([power_fraction(m, d) for m in stack])
        assert np.min(f - ref) >= -1e-15
        assert np.abs(linalg.dagger(w) @ w - np.eye(d)).max() <= 1e-13
        assert np.all(gap >= 0.0)


@pytest.fixture
def haar_calls(monkeypatch):
    """The calls of ``resources._haar_starts``: one per Haar fallback."""
    calls = []
    real = resources._haar_starts

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(resources, "_haar_starts", counted)
    return calls


class TestSplitDualStart:
    """The certificate starts at the symmetric split A = Lambda/(2d): on pure
    states and on the qutrit product family it certifies at rounding."""

    @pytest.mark.parametrize("e", [0.1, 1e-2, 1e-4])
    def test_qutrit_product_family(self, e, haar_calls):
        rho = states.ket_projector(qutrit_product_ket(e), (3, 3, 3)).marginal([0, 1])
        f, _, gap = fraction(rho)
        assert abs(f - (1 - 2 * e) / 3) <= 1e-15
        assert 0.0 <= gap <= 1e-14
        assert haar_calls == []

    @pytest.mark.parametrize("stream", range(4))
    def test_pure_qutrit_pair_in_one_eigen_step(self, stream, haar_calls, monkeypatch):
        # a pure state's fraction is (sum of its Schmidt coefficients)^2/d
        monkeypatch.setattr(resources, "CERT_STEPS", 1)
        v = states.haar_ket(9, Seed(41, stream))
        f, _, gap = fraction(states.ket_projector(v, (3, 3)))
        schmidt = np.linalg.svd(v.reshape(3, 3), compute_uv=False)
        assert abs(f - schmidt.sum() ** 2 / 3) <= 1e-14
        assert 0.0 <= gap <= 1e-14
        assert haar_calls == []


class TestHaarFallback:
    """The identity and Haar starts run only when the certificate of the
    spectral start fails."""

    def test_runs_only_where_the_certificate_fails(self, haar_calls):
        rho = short_start_state()
        _, _, gap_ab = fraction(rho.marginal([0, 1]))
        assert gap_ab <= EPS_CERT and haar_calls == []
        _, _, gap = fraction(choi(rho.marginal([0, 2])))
        assert len(haar_calls) == 1
        assert gap <= EPS_CERT

    def test_without_haar_starts_the_gap_stays_visible(self, haar_calls, monkeypatch):
        # the fallback then refines the identity start alone
        c = choi(short_start_state().marginal([0, 2]))
        starts, refine, refined = resources.HAAR_STARTS, resources._power_refine, []
        monkeypatch.setattr(resources, "HAAR_STARTS", 0)
        monkeypatch.setattr(resources, "_power_refine",
                            lambda rho, w0, d: refined.append(w0) or refine(rho, w0, d))
        f_short, _, gap_short = fraction(c)
        assert haar_calls == []
        assert [w0.shape for w0 in refined] == [(1, 1, 9), (1, 9)]
        assert np.array_equal(refined[1], np.eye(3).reshape(1, 9))
        assert gap_short > EPS_CERT
        monkeypatch.setattr(resources, "HAAR_STARTS", starts)
        f, _, gap = fraction(c)
        assert f - f_short > EPS_CERT
        assert f <= f_short + gap_short  # the first bound held

    def test_profile_records_both_gaps(self, haar_calls, monkeypatch):
        # with no Haar starts the identity start alone leaves the Choi gap open
        starts = resources.HAAR_STARTS
        monkeypatch.setattr(resources, "HAAR_STARTS", 0)
        b = profile(short_start_state()).breakdown
        assert b.f_max_gap <= EPS_CERT < b.f_choi_gap
        assert haar_calls == []
        monkeypatch.setattr(resources, "HAAR_STARTS", starts)
        b = profile(short_start_state()).breakdown
        assert b.f_max_gap <= EPS_CERT and b.f_choi_gap <= EPS_CERT
        assert len(haar_calls) == 1

    @pytest.mark.parametrize("stream, pair", [(81, "ab"), (505, "ab")])
    def test_more_starts_do_not_move_the_result(self, stream, pair, monkeypatch):
        # seed-7 qutrit states the 32 starts leave uncertified, where the
        # relaxation is not tight: 256 starts raise f by round-off only, and
        # stay under the first bound
        rho = states.haar_pure((3, 3, 3), Seed(7, stream))
        rho = rho.marginal([0, 1]) if pair == "ab" else choi(rho.marginal([0, 2]))
        f, _, gap = fraction(rho)
        assert gap > EPS_CERT
        monkeypatch.setattr(resources, "HAAR_STARTS", 256)
        f_more, _, _ = fraction(rho)
        assert f <= f_more <= f + min(gap, 1e-9)

    def test_search_that_stopped_short_now_certifies(self, haar_calls):
        # seed 7, stream 770: power steps alone stop a few 1e-12 short of this
        # q2 Choi state's fraction and leave it uncertified
        rho = choi(states.haar_pure((3, 3, 3), Seed(7, 770)).marginal([0, 2]))
        f, _, gap = fraction(rho)
        assert 0.0 <= gap <= EPS_CERT and haar_calls == []
        f_more = resources._power_refine(rho.matrix[None], resources._haar_starts(3, 256), 3)[0]
        assert f_more[0] <= f + gap


class TestTeleportationFidelity:
    def test_perfect_resource(self):
        assert np.isclose(teleportation_fidelity(1.0, 2), 1.0)

    def test_floor_resource(self):
        assert np.isclose(teleportation_fidelity(0.25, 2), 0.5)

    @pytest.mark.parametrize("p", np.linspace(0, 1, 7))
    def test_werner_chain(self, p):
        f = (3 * p + 1) / 4
        assert np.isclose(teleportation_fidelity(f, 2), (p + 1) / 2)

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            teleportation_fidelity(0.5, 1)


class TestCoordQ1:
    def test_bell(self):
        q1, raw = q1_of(states.bell_pair())
        assert np.isclose(q1, 1.0, atol=1e-9)
        assert np.isclose(raw, 1.0, atol=1e-9)

    def test_werner_threshold(self):
        q1, raw = q1_of(states.werner(1 / 3))
        assert abs(raw) <= 1e-9
        assert q1 <= 1e-9

    def test_products_have_no_advantage(self):
        for i in range(10):
            a = states.ginibre_mixed(2, 1 + i % 2, Seed(36, 2 * i))
            b = states.ginibre_mixed(2, 1 + (i + 1) % 2, Seed(36, 2 * i + 1))
            q1, raw = q1_of(states.compose_product(a, b))
            assert q1 == 0.0
            assert raw <= 1e-9

    def test_local_unitary_invariance(self):
        for i in range(8):
            rho = states.ginibre_mixed(4, 2, Seed(37, i)).reshaped((2, 2))
            u_a = states.haar_unitary(2, Seed(38, 2 * i))
            u_b = states.haar_unitary(2, Seed(38, 2 * i + 1))
            big = np.kron(u_a, u_b)
            rotated = DensityMatrix(big @ rho.matrix @ big.conj().T, (2, 2))
            q1, _ = q1_of(rho)
            q1_rot, _ = q1_of(rotated)
            assert abs(q1 - q1_rot) <= 1e-6


def choi_by_blocks(rho_ac: DensityMatrix) -> np.ndarray:
    """Reference Choi state of the induced channel, one d_C x d_C block per
    input matrix unit: block (i, k) = Tr_A[(B |k><i| B ⊗ I) rho_AC] + (I - P)_ik rho_C."""
    d_a, d_c = rho_ac.dims
    rho_a = np.trace(rho_ac.matrix.reshape(d_a, d_c, d_a, d_c), axis1=1, axis2=3)
    rho_c = np.trace(rho_ac.matrix.reshape(d_a, d_c, d_a, d_c), axis1=0, axis2=2)
    w, v = np.linalg.eigh(rho_a)
    on = w > 1e-10
    b = (v[:, on] / np.sqrt(w[on])) @ v[:, on].conj().T
    hole = np.eye(d_a) - v[:, on] @ v[:, on].conj().T
    j = np.zeros((d_a * d_c, d_a * d_c), dtype=complex)
    for i in range(d_a):
        for k in range(d_a):
            unit = np.zeros((d_a, d_a))
            unit[k, i] = 1.0
            body = np.kron(b @ unit @ b, np.eye(d_c)) @ rho_ac.matrix
            block = linalg.partial_trace(body, (d_a, d_c), keep=[1])
            j[i * d_c:(i + 1) * d_c, k * d_c:(k + 1) * d_c] = block + hole[i, k] * rho_c
    return j / d_a


class TestTransferChoiState:
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_blockwise_construction(self, d):
        for i in range(20):
            if i % 2:
                rho = states.haar_pure((d, d), Seed(49, 100 * d + i))
            else:
                rho = states.ginibre_mixed(d * d, 1 + i % (d * d),
                                           Seed(49, 100 * d + i)).reshaped((d, d))
            c = choi(rho)
            assert np.abs(c.matrix - choi_by_blocks(rho)).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_rank_deficient_marginal(self, d):
        # states on (first d - 1 levels of A) ⊗ C: rho_A has rank d - 1, so
        # the (I - P) ⊗ rho_C term is exercised
        iso = np.kron(np.eye(d)[:, :d - 1], np.eye(d))
        for i in range(5):
            g = states.ginibre_mixed((d - 1) * d, 2, Seed(50, 10 * d + i))
            rho = DensityMatrix(iso @ g.matrix @ iso.T, (d, d))
            assert np.linalg.matrix_rank(rho.marginal([0]).matrix, tol=1e-10) == d - 1
            c = choi(rho)
            assert np.abs(c.matrix - choi_by_blocks(rho)).max() <= 1e-12


class TestInducedTransferChannel:
    """The A -> C channel a state induces, through its Choi state."""

    def test_bell_gives_identity_channel(self):
        c = choi(states.bell_pair())
        assert np.abs(c.matrix - states.bell_pair().matrix).max() <= 1e-9

    def test_product_gives_replacement(self):
        sigma = DensityMatrix(np.diag([0.7, 0.3]).astype(complex), (2,))
        rho = states.compose_product(states.maximally_mixed(2), sigma)
        c = choi(rho.reshaped((2, 2)))
        assert np.abs(c.matrix - np.kron(np.eye(2) / 2, sigma.matrix)).max() <= 1e-9

    def test_classical_gives_dephase_and_copy(self):
        rho_ac = states.classical_correlated(2).marginal([0, 2])
        c = choi(rho_ac)
        assert np.abs(c.matrix - np.diag([0.5, 0, 0, 0.5])).max() <= 1e-9

    def test_cptp_for_rank_deficient_marginal(self):
        # pure product input leaves rho_A rank one; the completion must keep
        # the channel trace preserving: Tr_C J = I/d_A
        rho = states.compose_product(states.basis_state(2, 0),
                                     states.plus_state())
        c = choi(rho.reshaped((2, 2)))
        assert np.linalg.norm(c.marginal([0]).matrix - np.eye(2) / 2) <= 1e-10

    def test_cptp_for_random_states(self):
        for i in range(10):
            rho = states.ginibre_mixed(4, 1 + i % 4, Seed(39, i)).reshaped((2, 2))
            c = choi(rho)
            assert np.linalg.norm(c.marginal([0]).matrix - np.eye(2) / 2) <= 1e-10


class TestCoordQ2:
    def test_bell_transfer(self):
        q2, raw = q2_of(states.bell_pair())
        assert np.isclose(q2, 1.0, atol=1e-9)

    def test_product_transfer_is_zero(self):
        rho = states.compose_product(states.maximally_mixed(2),
                                     states.maximally_mixed(2)).reshaped((2, 2))
        q2, raw = q2_of(rho)
        assert q2 == 0.0
        assert raw < 0

    def test_classical_correlation_scores_zero_singlet_ac(self):
        # (|00><00| + |11><11|)/2 has singlet fraction 1/2: no teleportation advantage
        rho_ac = states.classical_correlated(2).marginal([0, 2])
        q2, raw = q2_of(rho_ac, ProfileConfig(q2_mode="singlet-ac"))
        assert np.isclose(q2, 0.0, atol=1e-9)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            q2_of(states.bell_pair(), ProfileConfig(q2_mode="nope"))


def cloner_state() -> DensityMatrix:
    """The optimal universal 1 -> 2 qubit cloner (Bužek and Hillery, PRA 54,
    1844, 1996) on B of a Bell pair on AB, copying into C:
    (2/3)(I ⊗ P_sym)(Phi_AB ⊗ I_C)(I ⊗ P_sym), P_sym the symmetric projector on BC."""
    p_sym = linalg.kron(np.eye(2), (np.eye(4) + np.eye(4)[[0, 2, 1, 3]]) / 2)
    return DensityMatrix(2 / 3 * p_sym @ linalg.kron(states.bell_pair().matrix, np.eye(2))
                         @ p_sym, (2, 2, 2))


class TestMonogamyReading:
    """Under singlet-ac, q2 is C's teleportation advantage: the q1 map on rho_AC."""

    @pytest.mark.parametrize("mode", resources.Q2_MODES)
    def test_cloner_splits_the_bell_pair_evenly(self, mode):
        p = profile(cloner_state(), ProfileConfig(q2_mode=mode))
        assert np.allclose(p.coords(), (0.5, 0.5, 0.0), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_q2_is_invariant_under_local_unitaries_on_a_and_c(self, d):
        cfg = ProfileConfig(q2_mode="singlet-ac")
        for i in range(10):
            rho = states.haar_pure((d, d, d), Seed(3, i))
            u = linalg.kron_all([states.haar_unitary(d, Seed(4, i)), np.eye(d),
                                 states.haar_unitary(d, Seed(5, i))])
            before = profile(rho, cfg)
            after = profile(DensityMatrix(u @ rho.matrix @ linalg.dagger(u), (d, d, d)), cfg)
            # the raw advantage, which the clamp to [0, 1] would hide below 0
            assert abs(after.breakdown.q2_raw - before.breakdown.q2_raw) <= 1e-12
            assert abs(after.q2 - before.q2) <= 1e-12


class TestQuantumFisherInformation:
    def test_maximally_mixed_is_exactly_zero(self):
        g = sigma_z_generator()
        assert f_q(states.maximally_mixed(2), g) == 0.0

    def test_plus_state(self):
        g = sigma_z_generator()
        assert np.isclose(f_q(states.plus_state(), g), 4.0, atol=1e-12)

    def test_generator_eigenstate(self):
        g = sigma_z_generator()
        assert f_q(states.basis_state(2, 0), g) <= 1e-12

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_pure_state_is_four_variance(self, rng, d):
        g = CoherenceGenerator(random_hermitian(rng, d))
        for i in range(20):
            rho = states.haar_pure((d,), Seed(41, 20 * d + i))
            fq = f_q(rho, g)
            assert abs(fq - 4 * variance(rho, g)) <= 1e-9

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_stacked_variances_are_each_state_alone(self, rng, d):
        # the reference is Tr(H^2 rho) - Tr(H rho)^2 of one state at a time
        g = CoherenceGenerator(random_hermitian(rng, d))
        stack = np.array([states.ginibre_matrix(d, 1 + i % d, Seed(42, i)) for i in range(30)])
        ref = []
        for m in stack:
            mean = float(np.trace(g.h @ m).real)
            ref.append(float(np.trace(g.h @ g.h @ m).real) - mean * mean)
        assert resources.variances(stack, g).tolist() == ref

    def test_bounded_by_four_variance(self, rng):
        g = CoherenceGenerator(random_hermitian(rng, 3))
        for i in range(50):
            rho = states.ginibre_mixed(3, 1 + i % 3, Seed(42, i))
            fq = f_q(rho, g)
            assert fq <= 4 * variance(rho, g) + 1e-9

    def test_invariant_under_commuting_unitary(self):
        g = sigma_z_generator()
        for i in range(10):
            rho = states.ginibre_mixed(2, 2, Seed(43, i))
            theta = 0.3 + i
            u = np.diag([np.exp(-1j * theta), np.exp(1j * theta)])
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, (2,))
            assert abs(f_q(rho, g) - f_q(rotated, g)) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="generator dimension 2 does not match d_A=3"):
            f_q(states.maximally_mixed(3), sigma_z_generator())


class TestFqMax:
    def test_sigma_z(self):
        p = alone_on_a(states.plus_state(), sigma_z_generator())
        assert np.isclose(p.breakdown.f_q_max, 4.0)

    def test_two_qubit_collective(self):
        h = np.kron(states.SIGMA_Z, np.eye(2)) + np.kron(np.eye(2), states.SIGMA_Z)
        p = alone_on_a(states.maximally_mixed(4), CoherenceGenerator(h))
        assert np.isclose(p.breakdown.f_q_max, 16.0)

    def test_extreme_superposition_attains_it(self, rng):
        g = CoherenceGenerator(random_hermitian(rng, 4))
        v = g.eigen.vectors
        psi = (v[:, 0] + v[:, -1]) / np.sqrt(2)
        rho = states.ket_projector(psi, (4,))
        b = alone_on_a(rho, g).breakdown
        assert abs(f_q(rho, g) - b.f_q_max) <= 1e-9
        assert b.f_q == resources.fisher_q3(rho.matrix[None], g)[0][0]

    def test_random_pure_states_never_exceed(self, rng):
        g = CoherenceGenerator(random_hermitian(rng, 3))
        top = g.spread ** 2
        for i in range(300):
            rho = states.haar_pure((3,), Seed(44, i))
            assert f_q(rho, g) <= top + 1e-9

    def test_degenerate_generator_rejected(self):
        with pytest.raises(ValueError):
            CoherenceGenerator(np.eye(2, dtype=complex))


class TestCoordQ3:
    def test_plus_state_maximal(self):
        assert np.isclose(alone_on_a(states.plus_state(), sigma_z_generator()).q3, 1.0)

    def test_maximally_mixed_zero(self):
        assert alone_on_a(states.maximally_mixed(2), sigma_z_generator()).q3 == 0.0

    def test_basis_state_zero(self):
        assert alone_on_a(states.basis_state(2, 0), sigma_z_generator()).q3 <= 1e-12


class TestProfile:
    def test_teleportation_corner(self):
        p = profile(states.bell_spectator())
        assert np.allclose(p.coords(), (1, 0, 0), atol=1e-9)
        assert np.isclose(p.norm, 1.0, atol=1e-9)

    def test_coherence_corner(self):
        p = profile(states.coherent_spectator())
        assert np.allclose(p.coords(), (0, 0, 1), atol=1e-9)

    def test_transfer_corner(self):
        p = profile(states.bell_ac())
        assert np.allclose(p.coords(), (0, 1, 0), atol=1e-9)

    def test_ghz_is_origin(self):
        p = profile(states.ghz())
        assert np.allclose(p.coords(), (0, 0, 0), atol=1e-9)

    def test_norm_is_squared_length(self):
        for i in range(5):
            p = profile(states.haar_pure((2, 2, 2), Seed(45, i)))
            assert p.norm == p.q1**2 + p.q2**2 + p.q3**2
            assert all(0.0 <= q <= 1.0 for q in p.coords())

    def test_breakdown_consistency(self):
        p = profile(states.haar_pure((2, 2, 2), Seed(45, 9)))
        b = p.breakdown
        assert np.isclose(b.f_tele, (b.d * b.f_max + 1) / (b.d + 1))
        assert b.f_q <= b.f_q_max + 1e-9

    def test_exact_values_have_zero_gap(self):
        # the qubit closed form and a trivial factor are exact
        qutrit = states.haar_pure((3, 3, 3), Seed(45, 0))
        cases = [states.haar_pure((2, 2, 2), Seed(45, 9)),
                 qutrit.marginal([0, 2]).reshaped((3, 1, 3))]
        gaps = [(p.breakdown.f_max_gap, p.breakdown.f_choi_gap)
                for p in (profile(rho) for rho in cases)]
        assert gaps[0] == (0.0, 0.0)
        assert gaps[1][0] == 0.0

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            profile(states.bell_pair())  # bipartite
        with pytest.raises(ValueError):
            profile(states.maximally_mixed(12, dims=(2, 3, 2)))

    def test_generator_dimension_checked(self):
        with pytest.raises(ValueError):
            profile(states.ghz(), ProfileConfig(generator=default_generator(3)))

    def test_singlet_ac_mode_recorded(self):
        p = profile(states.bell_ac(), ProfileConfig(q2_mode="singlet-ac"))
        assert p.q2_mode == "singlet-ac"
        assert np.isclose(p.q2, 1.0)

    def test_unknown_q2_mode_rejected_on_entry(self):
        # a mode is checked where it enters, so a bad one never reaches profile
        assert [ProfileConfig(q2_mode=m).q2_mode for m in resources.Q2_MODES] == \
            ["transfer", "singlet-ac"]
        with pytest.raises(ValueError, match="unknown q2 mode 'bogus'"):
            ProfileConfig(q2_mode="bogus")

    def test_trivial_c_pins_q2(self):
        rho = states.compose_product(states.bell_pair(), states.maximally_mixed(1))
        assert rho.dims == (2, 2, 1)
        p = profile(rho)
        assert np.allclose(p.coords(), (1, 0, 0), atol=1e-9)

    def test_trivial_b_pins_q1(self):
        p = profile(states.classical_correlated(2))
        assert p.q1 == 0.0
        assert p.breakdown.q1_raw < 0

    def test_resource_norm_examples(self):
        p = profile(states.bell_spectator())
        assert np.isclose(p.norm, 1.0, atol=1e-9)
        q = profile(states.ghz())
        assert np.isclose(q.norm, 0.0, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_one_quantity_is_the_profile_of_trivial_factors(d, rng):
    # each documented route reads, bit for bit, its kernel on the state alone
    rhos = [states.haar_pure((d, d, d), Seed(7, i)) for i in range(40)]
    for rho in rhos:
        rho_ab, rho_ac, rho_a = rho.marginal([0, 1]), rho.marginal([0, 2]), rho.marginal([0])
        b = profile(rho_ab.reshaped((d, d, 1))).breakdown
        f, _, gap = resources._singlet_fractions(rho_ab.matrix[None], d)
        assert (b.f_max, b.f_max_gap) == (f[0], gap[0])
        b = profile(rho_ac.reshaped((d, 1, d))).breakdown
        f, _, gap = resources._singlet_fractions(
            resources._transfer_choi(rho_ac.matrix[None], d, d), d)
        raw = resources._q1_from_fraction(f, d)[1]
        assert (b.q2_raw, b.f_trans, b.f_choi_gap) == (raw[0], (raw[0] + d) / (d + 1), gap[0])
        g = CoherenceGenerator(random_hermitian(rng, d))
        b = alone_on_a(rho_a, g).breakdown
        assert b.f_q == resources.fisher_q3(rho_a.matrix[None], g)[0][0]
    stack = np.array([rho.marginal([0, 1]).matrix for rho in rhos])
    assert [resources.entropies(m[None])[0] for m in stack] == resources.entropies(stack).tolist()
    assert ([resources.mutual_informations(m[None], (d, d))[0] for m in stack]
            == resources.mutual_informations(stack, (d, d)).tolist())


def _bits(prof) -> tuple[str, ...]:
    """Every float of a profile, exactly."""
    values = (prof.q1, prof.q2, prof.q3, prof.norm, *dataclasses.astuple(prof.breakdown))
    return tuple(float(v).hex() for v in values)


class TestProfileBatch:
    """Row k of profile_batch is profile() of state k alone, bit for bit,
    whatever the order and size of the stack around it."""

    @pytest.mark.parametrize("dims, mode", [((2, 2, 2), "transfer"), ((3, 3, 3), "transfer"),
                                            ((2, 1, 2), "transfer"), ((2, 2, 1), "transfer"),
                                            ((2, 2, 2), "singlet-ac"),
                                            ((4, 4, 4), "transfer"),
                                            ((3, 3, 3), "singlet-ac")])
    def test_row_is_the_state_alone(self, dims, mode):
        # seed-7 stream 81 at d = 3: its rho_AB needs the Haar fallback, and
        # the fallback still leaves it uncertified (gap > EPS_CERT)
        streams = [81] + list(range(39))
        rhos = [states.haar_pure(dims, Seed(7, s)) for s in streams]
        cfg = ProfileConfig(q2_mode=mode)
        alone = [profile(rho, cfg) for rho in rhos]
        if dims == (3, 3, 3):
            assert alone[0].breakdown.f_max_gap > EPS_CERT
            assert any(p.breakdown.f_max_gap <= EPS_CERT for p in alone[1:])
        orders = [[0], [5, 0, 12, 3, 30, 21, 8],
                  list(np.random.default_rng(5).permutation(len(rhos)))]
        for order in orders:
            rows = profile_batch(np.array([rhos[k].matrix for k in order]), dims, cfg)
            assert [_bits(p) for p in rows] == [_bits(alone[k]) for k in order]
            assert all(p.q2_mode == mode for p in rows)
            assert all(np.array_equal(p.generator.h, alone[0].generator.h) for p in rows)

    def test_dims_are_checked_against_the_stack(self):
        stack = states.ghz().matrix[None]
        with pytest.raises(ValueError, match="do not multiply"):
            profile_batch(stack, (2, 2, 3))
        with pytest.raises(ValueError, match="tripartite"):
            profile_batch(stack, (2, 4))


class TestNearProductFamily:
    """sqrt(1-e)|+,0,0> + sqrt(e)|-,0,1>: norm 1 + (1 - 2e)^4, which tends to 2."""

    @pytest.mark.parametrize("e", [0.1, 1e-2, 1e-4, 1e-6])
    def test_closed_form(self, e):
        p = profile(states.ket_projector(near_product_ket(e), (2, 2, 2)))
        assert p.q1 == 0.0
        assert abs(p.q2 - 1.0) <= 1e-9
        assert abs(p.q3 - (1 - 2 * e) ** 2) <= 1e-12
        assert abs(p.norm - (1 + (1 - 2 * e) ** 4)) <= 3e-9

    def test_near_rank_deficient_marginal_profiles(self):
        # the q2 Choi state is scaled by rho_A^{-1/2}, which amplifies rounding
        # in its trace by 1/e; as a derived state it is not re-checked
        for e in np.logspace(-10, -3, 29):
            p = profile(states.ket_projector(near_product_ket(e), (2, 2, 2)))
            if e >= 1e-6:
                assert abs(p.q2 - 1.0) <= 1e-9, e

    def test_qutrit_near_rank_deficient_marginal_profiles(self, monkeypatch):
        # rho_A has eigenvalues (1-e)/2, (1-e)/2, e in a Haar-rotated basis; the
        # d = 3 search reads the Hermitian part of the q2 Choi state
        monkeypatch.setattr(resources, "HAAR_STARTS", 4)
        u = dynamics.local_product_unitary(states.haar_unitary(3, Seed(60, 0)),
                                           np.eye(3), np.eye(3))
        for e in np.logspace(-9, -3, 7):
            v = sum(np.sqrt(w) * np.kron(np.kron(np.eye(3)[k], np.eye(3)[0]),
                                         np.eye(3)[k])
                    for k, w in enumerate(((1 - e) / 2, (1 - e) / 2, e)))
            rho = dynamics.evolve(states.ket_projector(v, (3, 3, 3)), u)
            p = profile(rho)
            assert abs(p.q2 - 1.0) <= 1e-6, e

    def test_q2_reads_zero_at_the_support_cutoff(self):
        # rho_A's eigenvalue e at or below EPS_PSD is outside its support:
        # the state counts as a product state, the discontinuity at e = 0
        p = profile(states.ket_projector(near_product_ket(EPS_PSD / 2), (2, 2, 2)))
        assert p.q2 == 0.0


class TestEntropies:
    def test_bell_marginal_entropy(self):
        s = resources.entropies(states.bell_pair().marginal([0]).matrix[None])[0]
        assert np.isclose(s, np.log(2))

    def test_pure_state_entropy_zero(self):
        assert resources.entropies(states.ghz().matrix[None])[0] <= 1e-12

    def test_bell_mutual_information(self):
        rho = states.bell_pair()
        assert np.isclose(resources.mutual_informations(rho.matrix[None], rho.dims)[0],
                          2 * np.log(2))

    def test_entropy_bounds(self, rng):
        for i in range(10):
            rho = states.ginibre_mixed(4, 1 + i % 4, Seed(46, i))
            s = resources.entropies(rho.matrix[None])[0]
            assert -1e-10 <= s <= np.log(4) + 1e-10

    def test_mutual_information_nonnegative(self):
        for i in range(10):
            rho = states.haar_pure((2, 2), Seed(47, i))
            assert resources.mutual_informations(rho.matrix[None], rho.dims)[0] >= -1e-10

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4), (3, 1)])
    def test_stacked_entropies_match_one_state_at_a_time(self, dims):
        # the reference takes one eigvalsh per state and filters its spectrum
        def entropy(m):
            w = np.linalg.eigvalsh(m)
            w = w[w > EPS_PSD]
            return max(0.0, float(-(w * np.log(w)).sum()))

        d = dims[0] * dims[1]
        stack = np.array([states.ginibre_matrix(d, 1 + i % d, Seed(49, i)) for i in range(12)])
        assert resources.entropies(stack).tolist() == [entropy(m) for m in stack]
        ref = [max(0.0, entropy(linalg.partial_trace(m, dims, [0]))
                   + entropy(linalg.partial_trace(m, dims, [1])) - entropy(m)) for m in stack]
        assert resources.mutual_informations(stack, dims).tolist() == ref

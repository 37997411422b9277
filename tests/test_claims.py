import tracemalloc

import numpy as np
import pytest

from qirc import channels, claims, cli, dynamics, resources, serialize, states
from qirc.claims import (CampaignConfig, _sample_channel, check_convexity,
                         check_conservation, check_entropic_bounds, check_extremals,
                         check_monotonicity, check_qirc_ball,
                         normalize_claim_id, resolve_generator, run_check)
from qirc.generators import CoherenceGenerator, default_generator
from qirc.resources import ProfileConfig
from qirc.states import Seed

from conftest import haar_state, random_density, random_pure


def small(**kw):
    defaults = dict(seed=7, trials=12)
    defaults.update(kw)
    return CampaignConfig(**defaults)


class TestConfig:
    def test_claim_id_normalization(self):
        assert normalize_claim_id("t1") == "T1"
        assert normalize_claim_id("C3.monotonicity") == "C3"
        with pytest.raises(ValueError):
            normalize_claim_id("Z9")

    def test_generator_resolution(self):
        assert resolve_generator("default", 3).dim == 3
        assert np.allclose(resolve_generator("sigma-z", 2).h, np.diag([1, -1]))
        assert np.allclose(resolve_generator("diag:2,0,-2", 3).h,
                           np.diag([2.0, 0.0, -2.0]))
        with pytest.raises(ValueError):
            resolve_generator("sigma-z", 3)
        with pytest.raises(ValueError):
            resolve_generator("nope", 2)

    def test_tolerance_overrides(self):
        cfg = CampaignConfig(tolerances={"ball": 0.5})
        assert cfg.tolerance("ball") == 0.5
        assert cfg.tolerance("mi") == claims.DEFAULT_TOLERANCES["mi"]
        # a NaN tolerance would pass every comparison; a misspelt one would be ignored
        with pytest.raises(ValueError, match="finite"):
            CampaignConfig(tolerances={"extremal": float("nan")})
        with pytest.raises(ValueError, match="unknown tolerance 'bogus'"):
            CampaignConfig(tolerances={"bogus": 3.0})

    @pytest.mark.parametrize("rank", [0, -1, 9])
    def test_ginibre_rank_rejected_at_construction(self, rank):
        # rank 0 would otherwise sample full-rank states while the artifacts echo 0
        with pytest.raises(ValueError, match="ginibre rank"):
            CampaignConfig(sampler="ginibre-mixed", ginibre_rank=rank)

    def test_ginibre_rank_range_is_inclusive(self):
        for rank in (1, 8):
            CampaignConfig(sampler="ginibre-mixed", ginibre_rank=rank)

    @pytest.mark.parametrize("fields, message", [
        ({"family": "ghz"}, "the haar-pure sampler reads no family"),
        ({"sampler": "ginibre-mixed", "family": "ghz"}, "reads no family"),
        ({"ginibre_rank": 2}, "the haar-pure sampler reads no rank"),
        ({"sampler": "named-family", "family": "ghz", "ginibre_rank": 2}, "reads no rank"),
        ({"seed": -1}, "seed must be >= 0, got -1")])
    def test_unread_settings_and_negative_seeds_rejected(self, fields, message):
        # the artifacts echo every setting, so each must be one the run reads
        with pytest.raises(ValueError, match=message):
            CampaignConfig(**fields)

    def test_unknown_sampler_rejected_at_construction(self):
        # otherwise C1, which draws nothing, would hold before the first draw failed
        with pytest.raises(ValueError, match="unknown sampler 'bogus'"):
            CampaignConfig(sampler="bogus")

    @pytest.mark.parametrize("argv", [
        ["C1", "C2", "T2", "A2"], ["T1", "C3", "T2", "--dims", "3,3,3"]],
        ids=["claims-qubit", "campaign-qutrit"])
    def test_one_generator_per_spec_and_dimension(self, monkeypatch, tmp_path, capsys, argv):
        # every config step and every check reads the generator the first one
        # built, and no step builds one at dims the run does not use
        built, init = [], CoherenceGenerator.__post_init__
        monkeypatch.setattr(CoherenceGenerator, "__post_init__",
                            lambda self: (built.append(self), init(self)))
        resolve_generator.cache_clear()
        cli.main(["check", *argv, "--trials", "2", "--channels", "2", "--out", str(tmp_path)])
        assert len(built) == 1

    def test_shared_generator_is_read_only(self):
        g = resolve_generator("default", 3)
        assert resolve_generator("default", 3) is g
        for a in (g.h, g.eigen.values, g.eigen.vectors):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    @pytest.mark.parametrize("fields, message", [
        ({"q2_mode": "bogus"}, "unknown q2 mode 'bogus'"),
        ({"generator": "bogus"}, "unknown generator spec 'bogus'"),
        ({"dims": (3, 3, 3), "generator": "diag:1,2"}, "2 entries for d_A = 3"),
        ({"dims": (3, 3, 3), "generator": "diag:1,1,1"}, "fully degenerate")])
    def test_generator_and_q2_mode_rejected_at_construction(self, fields, message):
        # a bad value would otherwise be echoed by to_dict() until a check ran
        with pytest.raises(ValueError, match=message):
            CampaignConfig(**fields)


class TestExtremals:
    def test_holds(self):
        report = check_extremals(small())
        assert report.verdict == "holds-within-tolerance"
        assert report.violations == 0
        assert report.trials == 10
        assert report.stats["max_deviation"] <= 1e-6

    def test_vertices_reached_under_singlet_ac(self):
        report = check_extremals(small(q2_mode="singlet-ac"))
        assert report.verdict == "holds-within-tolerance"
        targets = {tuple(a["target"]) for a in report.stats["anchors"]}
        assert targets == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}
        assert report.stats["max_deviation"] <= 1e-12

    def test_targets_cover_all_axes(self):
        report = check_extremals(small())
        targets = {tuple(a["target"]) for a in report.stats["anchors"]}
        assert targets == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}

    def test_deterministic(self):
        a = check_extremals(small()).to_dict()
        b = check_extremals(small()).to_dict()
        assert a == b

    def test_forced_violation_with_zero_tolerance(self):
        report = check_extremals(small(tolerances={"extremal": -1.0}))
        assert report.verdict == "violated"
        assert report.worst_case is not None


class TestBallCampaign:
    def test_row_count_and_determinism(self):
        r1, cloud1 = check_qirc_ball(small(trials=30))
        r2, cloud2 = check_qirc_ball(small(trials=30))
        assert len(cloud1) == 30
        assert r1.to_dict() == r2.to_dict()
        assert cloud1 == cloud2

    def test_cloud_streams_reproduce_states(self):
        _, cloud = check_qirc_ball(small(trials=5))
        row = cloud[3]
        state = haar_state((2, 2, 2), Seed(7, row["stream"]))
        prof = resources.profile(state)
        assert np.isclose(prof.norm, row["norm"])

    def test_werner_family_sweep_matches_closed_form(self):
        cfg = small(trials=11, sampler="named-family", family="werner")
        _, cloud = check_qirc_ball(cfg)
        for row in cloud:
            p = row["trial"] / 10
            expected = max(0.0, (3 * p - 1) / 2) ** 2
            assert abs(row["norm"] - expected) <= 1e-9

    def test_ghz_family_norm_zero(self):
        cfg = small(trials=3, sampler="named-family", family="ghz")
        report, cloud = check_qirc_ball(cfg)
        assert report.stats["max_norm"] <= 1e-9

    def test_violation_bookkeeping(self):
        # seed 7 at 200 haar-pure trials contains a genuine excursion past 1
        report, _ = check_qirc_ball(small(trials=200))
        assert report.verdict == "report-only"
        if report.violations:
            assert report.worst_case is not None
            assert report.worst_case["margin"] > 0
            assert report.stats["violation_trials"]

    def test_ginibre_sampler(self):
        report, cloud = check_qirc_ball(small(trials=5, sampler="ginibre-mixed",
                                              ginibre_rank=2))
        assert len(cloud) == 5


class TestSamples:
    """claims._samples draws state k of a check from stream stream_offset + k,
    bit for bit as the test oracles draw it, however the stacks are cut."""

    @staticmethod
    def _oracle(cfg: CampaignConfig, pure: bool, stream: int) -> np.ndarray:
        rng, d = Seed(cfg.seed, stream).rng(), int(np.prod(cfg.dims))
        return random_pure(rng, d) if pure else random_density(rng, d, cfg.ginibre_rank)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (2, 1, 2)])
    @pytest.mark.parametrize("sampler, rank, pure_only", [
        ("haar-pure", None, False), ("ginibre-mixed", None, False),
        ("ginibre-mixed", 3, False), ("ginibre-mixed", 3, True)],
        ids=["haar", "ginibre-full", "ginibre-rank-3", "pure-only"])
    @pytest.mark.parametrize("offset, per, width", [(0, 1, 1), (claims._STREAM_PAIR, 2, 2)],
                             ids=["states", "c2-pairs"])
    @pytest.mark.parametrize("cut", [False, True], ids=["whole", "cut"])
    def test_stacks_match_the_oracles(self, monkeypatch, dims, sampler, rank, pure_only,
                                      offset, per, width, cut):
        cfg = small(dims=dims, seed=11, sampler=sampler, ginibre_rank=rank)
        d = int(np.prod(dims))
        if cut:  # three groups of per states a stack, each group scored as width states
            monkeypatch.setattr(claims.linalg, "MAX_STACK", 3 * width * d * d)
        n = 14
        drawn = list(claims._samples(cfg, n, pure_only=pure_only, stream_offset=offset,
                                     width=width, per=per))
        groups = n // per
        sizes = [3] * (groups // 3) + [groups % 3] if cut else [groups]
        assert [len(stack) for _, stack, _ in drawn] == [per * k for k in sizes]
        assert [k for trials, _, _ in drawn for k in trials] == list(range(n))
        for trials, stack, got_dims in drawn:
            assert got_dims == dims
            expected = [self._oracle(cfg, pure_only or sampler == "haar-pure", offset + k)
                        for k in trials]
            assert np.array_equal(stack, np.array(expected))


class TestStacks:
    """Checks profile in stacks of at most linalg.MAX_STACK entries; where
    the stacks are cut does not change a report."""

    @pytest.mark.parametrize("check", ["T1", "C1", "C2", "C3", "T2", "A2"])
    def test_three_state_stacks_give_the_same_reports(self, check, monkeypatch):
        cfg = small(trials=7, channels_per_state=4)
        whole = run_check(check, cfg)
        sizes = []
        real = resources.profile_batch
        monkeypatch.setattr(claims.linalg, "MAX_STACK", 3 * 8 * 8)
        monkeypatch.setattr(resources, "profile_batch",
                            lambda rho, *a: sizes.append(len(rho)) or real(rho, *a))
        cut = run_check(check, cfg)
        assert max(sizes) <= 3
        assert cut[0].to_dict() == whole[0].to_dict() and cut[1] == whole[1]

    def test_c3_memory_does_not_grow_with_the_channels(self, monkeypatch):
        # one dims-(4, 4, 4) state with MAX_STACK at two states: its channel
        # outputs are built one range at a time, so the peak stays flat
        monkeypatch.setattr(claims.linalg, "MAX_STACK", 2 * 64 * 64)

        def peak(n_ch):
            tracemalloc.start()
            try:
                check_monotonicity(small(dims=(4, 4, 4), trials=1, channels_per_state=n_ch))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-call caches
        assert peak(40) <= 1.1 * peak(20)

    def test_c3_profiles_each_state_once(self, monkeypatch):
        # one dims-(4, 4, 4) state with MAX_STACK at two states: the state and
        # its 4 outputs are each profiled once, in stacks of at most two
        monkeypatch.setattr(claims.linalg, "MAX_STACK", 2 * 64 * 64)
        rows = []
        real = resources.profile_batch
        monkeypatch.setattr(resources, "profile_batch",
                            lambda rho, *a: rows.append(len(rho)) or real(rho, *a))
        check_monotonicity(small(dims=(4, 4, 4), trials=1, channels_per_state=4))
        assert sum(rows) == 1 + 4 and max(rows) <= 2

    def test_c3_profiles_a_qutrit_chunk_in_one_stack(self, monkeypatch):
        # at the default MAX_STACK the chunk's 3 states lead the stack of their
        # 9 Haar outputs: one full-dims profile_batch call, where states and
        # outputs took one call each
        calls = []
        real = resources.profile_batch
        monkeypatch.setattr(resources, "profile_batch",
                            lambda rho, dims, *a: calls.append((len(rho), dims)) or real(rho, dims, *a))
        check_monotonicity(small(dims=(3, 3, 3), trials=3, channels_per_state=3))
        assert calls == [(3 + 3 * 3, (3, 3, 3))]

    def test_c3_stacks_of_one_state_give_the_same_report(self, monkeypatch):
        # with MAX_STACK at one state, each state and each output is a stack
        # of its own: a range of one state holds no slot
        cfg = small(trials=2, channels_per_state=3)
        whole = check_monotonicity(cfg).to_dict()
        monkeypatch.setattr(claims.linalg, "MAX_STACK", 8 * 8)
        rows = []
        real = resources.profile_batch
        monkeypatch.setattr(resources, "profile_batch",
                            lambda rho, *a: rows.append(len(rho)) or real(rho, *a))
        assert check_monotonicity(cfg).to_dict() == whole
        assert rows == [1] * (2 + 2 * 3)

    def test_c2_draws_its_endpoints_per_chunk(self, monkeypatch):
        # with one pair a chunk, the anchor pair is profiled before any
        # sampled endpoint is drawn, and each chunk draws its own pair
        monkeypatch.setattr(claims.linalg, "MAX_STACK", 7 * 8 * 8)
        events = []
        real_profile, real_ket = resources.profile_batch, states.haar_ket
        monkeypatch.setattr(resources, "profile_batch",
                            lambda *a: events.append("profile") or real_profile(*a))
        monkeypatch.setattr(states, "haar_ket",
                            lambda *a: events.append("draw") or real_ket(*a))
        check_convexity(small(trials=3))
        assert events == ["profile"] + ["draw", "draw", "profile"] * 2


class TestConvexity:
    def test_endpoints_reproduce_exactly(self):
        report = check_convexity(small(trials=6))
        assert report.stats["endpoint_mismatches"] == 0
        assert report.verdict == "report-only"

    def test_anchor_mixture_inside_ball(self, monkeypatch):
        monkeypatch.setattr(claims, "LAMBDAS", (0.0, 0.5, 1.0))
        report = check_convexity(small(trials=1))
        assert report.stats["max_mixture_norm"] <= 1.0 + 1e-6
        assert report.violations == 0

    def test_werner_endpoints_span_the_family(self, monkeypatch):
        # endpoint k of the 2 (n - 1) sampled ones is werner:k/(2n - 3); the
        # config, which builds the family once to check its d_A, comes first
        cfg = small(trials=4, sampler="named-family", family="werner")
        built = []
        real = claims.families.build
        monkeypatch.setattr(claims.families, "build",
                            lambda name: built.append(name) or real(name))
        report = check_convexity(cfg)
        assert report.verdict == "report-only"
        assert built == [f"werner:{k / 5}" for k in range(6)]

    def test_deterministic(self):
        a = check_convexity(small(trials=4)).to_dict()
        b = check_convexity(small(trials=4)).to_dict()
        assert a == b

    @staticmethod
    def _perturb(monkeypatch, index, **change):
        # one pair, the anchor pair: its row is rho, sigma, then one mixture per lambda
        real = claims.profiles

        def perturbed(group, pc):
            profs = real(group, pc)
            profs[index] = profs[index]._replace(**change)
            return profs
        monkeypatch.setattr(claims, "profiles", perturbed)

    def test_endpoint_mismatch_is_a_hard_violation(self, monkeypatch, capsys):
        # the lambda = 1 mixture is rho itself, so its profile must be rho's bit for bit
        self._perturb(monkeypatch, 2 + claims.LAMBDAS.index(1.0), q1=1.0 - 1e-12)
        report = check_convexity(small(trials=1))
        assert report.stats["endpoint_mismatches"] == 1
        assert report.violations == 0 and report.verdict == "violated"
        assert cli.main(["check", "C2", "--trials", "1"]) == 1
        assert "C2.convexity: violated" in capsys.readouterr().err

    def test_interior_mixture_outside_the_ball_is_report_only(self, monkeypatch):
        # both anchor endpoints lie in the ball; the lambda = 0.5 mixture is put outside
        self._perturb(monkeypatch, 2 + claims.LAMBDAS.index(0.5), norm=1.5)
        report = check_convexity(small(trials=1))
        assert report.violations == report.report_only_violations == 1
        assert report.stats["endpoint_mismatches"] == 0
        assert report.stats["max_mixture_norm"] == 1.5
        assert report.verdict == "report-only"


class TestMonotonicity:
    def test_bookkeeping_and_determinism(self):
        cfg = small(trials=6, channels_per_state=4)
        a = check_monotonicity(cfg)
        b = check_monotonicity(cfg)
        assert a.to_dict() == b.to_dict()
        assert a.trials == 24
        # hard tier: q3 under covariant channels; q1, q3 and norm increases
        # under Haar channels are findings
        assert a.violations == a.stats["covariant_q3_increases"]
        assert a.report_only_violations == (a.stats["q1_increases"]
                                            + a.stats["q3_increases"]
                                            + a.stats["norm_increases"])
        if a.violations:
            assert a.verdict == "violated"
            assert a.worst_case is not None
            assert "channel_stream" in a.worst_case

    def test_q1_never_increases(self):
        # empirical at seed 7: no slot of this campaign raises q1
        report = check_monotonicity(small(trials=15, channels_per_state=6))
        assert report.stats["q1_increases"] == 0

    def test_haar_q1_increase_is_a_finding(self):
        # a local channel can raise the fully entangled fraction (Badziąg et
        # al., PRA 62, 012311, 2000); seed 1 holds one such slot, reported
        # but not a violation
        report = check_monotonicity(CampaignConfig(seed=1, trials=4))
        assert report.stats["q1_increases"] >= 1
        assert report.stats["max_q1_increase"] > 1e-6
        assert report.violations == 0
        assert report.verdict == "holds-within-tolerance"
        assert report.report_only_violations >= report.stats["q1_increases"]
        # the Haar witness layout, in artifact order (the stats order is pinned
        # by test_stats_keys_and_order)
        assert list(report.worst_case) == [
            "margin", "trial", "channel_index", "channel_family", "state_stream",
            "channel_stream", "kraus_rank", "q1_increase", "q3_increase", "q2_increase",
            "norm_increase", "profile_before", "profile_after", "state"]
        assert report.worst_case["channel_family"] == "haar"

    def test_q3_never_increases_under_covariant_channels(self):
        for gen, dims in [("default", (2, 2, 2)), ("default", (3, 3, 3)),
                          ("diag:1,1,-2", (3, 3, 3))]:
            report = check_monotonicity(small(trials=4, channels_per_state=5,
                                              dims=dims, generator=gen))
            assert report.stats["covariant_q3_increases"] == 0
            assert report.stats["max_covariant_q3_increase"] <= 1e-8

    @pytest.mark.parametrize("dims,gen", [((2, 2, 2), "default"), ((3, 3, 3), "default"),
                                          ((3, 3, 3), "diag:1,1,-2")])
    def test_covariant_q3_is_the_profile_q3(self, dims, gen, monkeypatch):
        # the covariant row scores each output's A marginal with the q3 of
        # profile_batch on dims (d_A, 1, 1), bit for bit
        cfg = small(trials=3, channels_per_state=4, dims=dims, generator=gen)
        outs, scored = [], []
        real_apply, real_q3 = channels.apply_batch, resources.fisher_q3

        def apply_batch(kraus, rho, on, target):
            out = real_apply(kraus, rho, on, target)
            if len(on) == 1:  # a covariant range's outputs on A
                outs.append(out)
            return out

        def fisher_q3(rho_a, g):
            f_q, q3 = real_q3(rho_a, g)
            if any(rho_a is out for out in outs):
                scored.append((rho_a, q3))
            return f_q, q3

        monkeypatch.setattr(channels, "apply_batch", apply_batch)
        monkeypatch.setattr(resources, "fisher_q3", fisher_q3)
        check_monotonicity(cfg)
        monkeypatch.undo()
        assert sum(len(q3) for _, q3 in scored) == 3 * 4
        d_a = dims[0]
        for rho_a, q3 in scored:
            profs = resources.profile_batch(rho_a, (d_a, 1, 1), cfg.profile_config())
            assert q3.tobytes() == np.array([p.q3 for p in profs]).tobytes()

    def test_forced_covariant_violation_is_hard(self):
        # a negative q3 tolerance turns every covariant slot into a violation
        report = check_monotonicity(small(trials=2, channels_per_state=3,
                                          tolerances={"q3_mono": -1.0}))
        assert report.stats["covariant_q3_increases"] == 6
        assert report.verdict == "violated"
        assert report.worst_case["channel_family"] == "covariant"
        # a covariant witness scores q3 alone, on the A marginal: one increase,
        # and no profile after
        assert list(report.worst_case) == [
            "margin", "trial", "channel_index", "channel_family", "state_stream",
            "channel_stream", "kraus_rank", "q3_increase", "profile_before", "state"]

    def test_reset_to_plus_raises_q3(self):
        # q3 is not monotone under channels that break the phase symmetry:
        # resetting A from |0> to |+> takes q3 from 0 to 1
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        reset = channels.KrausChannel([np.outer(plus, np.eye(2)[i]) for i in range(2)])
        state = states.compose_product(states.basis_state(2, 0), states.bell_pair())
        before = resources.profile(state)
        after = resources.profile(channels.apply(reset, state, 0))
        assert before.q3 <= 1e-12
        assert np.isclose(after.q3, 1.0, atol=1e-12)

    def test_full_depolarization_kills_profile(self):
        rho = channels.apply(channels.depolarizing(2, 1.0),
                             states.bell_spectator(), 0)
        prof = resources.profile(rho)
        assert np.allclose(prof.coords(), (0, 0, 0), atol=1e-9)

    def test_full_dephasing_kills_q3(self):
        g = resolve_generator("sigma-z", 2)
        before = resources.profile(states.coherent_spectator(),
                                   ProfileConfig(generator=g))
        after = resources.profile(
            channels.apply(channels.dephasing(1.0, g),
                           states.coherent_spectator(), 0),
            ProfileConfig(generator=g))
        assert np.isclose(before.q3, 1.0, atol=1e-9)
        assert after.q3 <= 1e-9


class TestConservation:
    def test_local_family_invariance(self):
        report = check_conservation(small(trials=20))
        assert report.verdict == "holds-within-tolerance"
        assert report.violations == 0
        assert report.stats["local_max_coord_drift"] <= 1e-6
        assert report.stats["local_max_norm_drift"] <= 1e-6

    def test_global_drift_is_reported(self):
        report = check_conservation(small(trials=10))
        assert report.stats["global_trials"] == 10
        assert report.report_only_violations == report.stats["global_exceed_count"]
        # generic commutant elements shuffle resources between subsystems
        assert report.stats["global_max_drift"] > 1e-3
        assert report.worst_case is not None
        assert report.worst_case["family"] == "global"

    def test_deterministic(self):
        a = check_conservation(small(trials=5)).to_dict()
        b = check_conservation(small(trials=5)).to_dict()
        assert a == b


class TestStackIndependence:
    """A check scores its states and their images as one stack; each row is
    still the profile of its state alone."""

    def test_c3_witness_profiles_match_the_state_alone(self):
        cfg = small(dims=(3, 3, 3), trials=2, channels_per_state=3)
        w = check_monotonicity(cfg).worst_case
        state = serialize.state_from_dict(w["state"])
        assert w["profile_before"] == resources.profile(state).to_dict()
        assert w["channel_family"] == "haar"
        ch = channels.KrausChannel(_sample_channel(3, Seed(7, w["channel_stream"])))
        after = resources.profile(channels.apply(ch, state, 0))
        assert w["profile_after"] == after.to_dict()

    def test_t2_witness_profiles_match_the_state_alone(self):
        cfg = small(dims=(3, 3, 3), trials=3)
        w = check_conservation(cfg).worst_case
        state = serialize.state_from_dict(w["state"])
        assert w["profile_before"] == resources.profile(state).to_dict()
        assert w["family"] == "global"
        u_g = dynamics.sample_commutant_unitary(default_generator(3), (3, 3, 3),
                                                Seed(7, w["unitary_stream"]))
        assert w["profile_after"] == resources.profile(dynamics.evolve(state, u_g)).to_dict()
        # the witness is trial 0, the same whether it shares its stack with 2 or 3 states
        assert w == check_conservation(small(dims=(3, 3, 3), trials=2)).worst_case


class TestWorstCase:
    """Each check tracks its worst case once and serializes it once."""

    def test_conservation_profiles_each_state_once(self, monkeypatch):
        rows = []
        real = resources.profile_batch
        monkeypatch.setattr(resources, "profile_batch",
                            lambda rho, *a, **kw: rows.append(len(rho)) or real(rho, *a, **kw))
        check_conservation(small(trials=5))
        assert sum(rows) == 3 * 5

    def test_witness_state_serialized_at_most_once(self, monkeypatch):
        from qirc import serialize
        calls = []
        real = serialize.state_to_dict
        monkeypatch.setattr(serialize, "state_to_dict",
                            lambda rho: calls.append(1) or real(rho))
        for claim in claims.CHECK_ORDER:
            calls.clear()
            report, _ = run_check(claim, small(trials=6, channels_per_state=3))
            assert len(calls) <= 1, claim
            assert len(calls) == (report.worst_case is not None), claim

    def test_convexity_floor_without_interior_mixtures(self, monkeypatch):
        # endpoints only: no mixture is scored, so the floor stands
        monkeypatch.setattr(claims, "LAMBDAS", (0.0, 1.0))
        report = check_convexity(small(trials=2))
        assert report.stats["max_mixture_norm"] == -1.0
        assert report.worst_case is None

    def test_stats_read_the_witnessed_maximum(self):
        t1, _ = check_qirc_ball(small(trials=20))
        assert t1.stats["max_norm"] == t1.worst_case["profile"]["norm"]
        c1 = check_extremals(small())
        assert c1.stats["max_deviation"] == c1.worst_case["margin"]
        a2 = check_entropic_bounds(small(trials=5))
        assert a2.stats["max_mi_gap"] == a2.worst_case["margin"]

    def test_oversized_dims_rejected_at_construction(self):
        with pytest.raises(ValueError, match="exceeds"):
            CampaignConfig(dims=(17, 16, 16))


STATS_KEYS = {
    "C1": ["anchors", "max_deviation"],
    "T1": ["max_norm", "mean_norm", "violation_trials"],
    "C2": ["pairs", "lambda_grid", "endpoint_mismatches", "max_mixture_norm",
           "max_segment_deviation"],
    "C3": ["states", "channels_per_state", "q1_increases", "q3_increases",
           "q2_increases", "norm_increases", "covariant_q3_increases",
           "max_q1_increase", "max_q3_increase", "max_q2_increase",
           "max_norm_increase", "max_covariant_q3_increase"],
    "T2": ["local_trials", "local_max_coord_drift", "local_max_norm_drift",
           "global_trials", "global_max_drift", "global_mean_abs_drift",
           "global_exceed_count"],
    "A2": ["max_mi_gap", "anchor_saturation_gap", "q1q2_bound_violations",
           "q1q2_bound_max_excess", "fisher_bound_violations",
           "fisher_bound_max_excess"],
}


@pytest.mark.parametrize("claim", claims.CHECK_ORDER)
def test_stats_keys_and_order(claim):
    report, _ = run_check(claim, small(trials=3, channels_per_state=2))
    assert list(report.stats) == STATS_KEYS[claim]


# The tolerances each report echoes: its statements' tolerance names, once each, in row order.
TOLERANCE_KEYS = {"C1": ["extremal"], "T1": ["ball"], "C2": ["ball"],
                  "C3": ["q1_mono", "q3_mono", "mono_report"], "T2": ["traj"], "A2": ["mi"]}


@pytest.mark.parametrize("claim", claims.CHECK_ORDER)
def test_tolerance_keys_are_the_statements_in_row_order(claim):
    report, _ = run_check(claim, small(trials=3, channels_per_state=2))
    names = [tol for tol, _ in claims.CLAIMS[claim][3].values()]
    assert list(report.tolerances) == list(dict.fromkeys(names)) == TOLERANCE_KEYS[claim]


# Tolerances below every value a statement scores, so each statement fires on every case.
FORCED = {"traj": -1, "mi": -10, "q1_mono": -1, "q3_mono": -1, "mono_report": -1,
          "ball": -2, "extremal": -1}


@pytest.mark.parametrize("claim, fires, verdict, violations, report_only", [
    ("T2", 3, "violated", 3, 3), ("A2", 4, "violated", 4, 8), ("C3", 6, "violated", 6, 18),
    ("T1", 3, "report-only", 3, 3), ("C1", 10, "violated", 10, 0)])
def test_forced_statements_take_their_tier_from_the_table(claim, fires, verdict, violations,
                                                          report_only):
    # each statement counts `fires` cases: the hard ones sum to the violations and the
    # report-only ones to the findings, which a claim with no hard statement counts in both
    report, _ = run_check(claim, small(trials=3, channels_per_state=2, tolerances=FORCED))
    tiers = [is_hard for _, is_hard in claims.CLAIMS[claim][3].values()]
    hard, found = fires * sum(tiers), fires * tiers.count(False)
    implied = ("violated" if hard else "report-only", hard or found, found)
    assert implied == (verdict, violations, report_only)
    assert (report.verdict, report.violations, report.report_only_violations) == implied


class TestEntropicBounds:
    def test_mutual_information_bound_holds(self):
        report = check_entropic_bounds(small(trials=60))
        assert report.verdict == "holds-within-tolerance"
        assert report.violations == 0

    def test_anchor_saturates(self):
        report = check_entropic_bounds(small(trials=3))
        assert report.stats["anchor_saturation_gap"] <= 1e-9

    def test_heuristic_counters_present(self):
        report = check_entropic_bounds(small(trials=40))
        stats = report.stats
        assert stats["q1q2_bound_violations"] >= 0
        assert stats["fisher_bound_violations"] >= 0
        assert report.report_only_violations == (stats["q1q2_bound_violations"]
                                                 + stats["fisher_bound_violations"])

    def test_deterministic(self):
        a = check_entropic_bounds(small(trials=8)).to_dict()
        b = check_entropic_bounds(small(trials=8)).to_dict()
        assert a == b


class TestDispatch:
    def test_run_check_returns_cloud_only_for_ball(self):
        report, cloud = run_check("T1", small(trials=3))
        assert cloud is not None and len(cloud) == 3
        report, cloud = run_check("C1", small())
        assert cloud is None

    def test_run_check_takes_the_anchors_at_d_a(self):
        # C1, C2 and A2 build their anchors on (d_A, d_A, d_A)
        for claim in ("C1", "C2", "A2"):
            report, _ = run_check(claim, small(trials=2, dims=(3, 3, 3)))
            assert report.verdict != "violated"
        # anchors and C3's Haar isometries of d_A^3 = 4913 rows are rejected before
        # anything is drawn
        for claim in ("C1", "C2", "C3", "A2"):
            with pytest.raises(ValueError, match=f"4913 of the d_A\\^3 rows of "
                                                 f"{claims.CLAIM_IDS[claim]}"):
                run_check(claim, small(trials=1, channels_per_state=1, dims=(17, 1, 17)))

    def test_reports_are_serializable(self):
        import json
        from qirc import serialize
        for claim in ("C1", "T1", "C2"):
            report, _ = run_check(claim, small(trials=3))
            text = serialize.dumps(report.to_dict())
            assert json.loads(text)["claim_id"] == claims.CLAIM_IDS[claim]

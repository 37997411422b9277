import json

import numpy as np
import pytest

from qirc import claims, resources, serialize, states
from qirc.cli import main
from qirc.linalg import MAX_DIM
from qirc.tolerances import EPS_CERT

from conftest import near_product_ket


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProfileCommand:
    def test_bell_spectator(self, capsys):
        code, out, _ = run(capsys, "profile", "--family", "bell-spectator")
        assert code == 0
        doc = json.loads(out)
        assert doc["q1"] == 1.0
        assert doc["config"]["subcommand"] == "profile"
        assert "seed" not in doc["config"]

    def test_ghz_norm_zero(self, capsys):
        code, out, _ = run(capsys, "profile", "--family", "ghz")
        assert code == 0
        assert json.loads(out)["norm"] == 0.0

    def test_uncertified_gap_is_reported(self, capsys, tmp_path, monkeypatch):
        # the spectral start, and the identity start of the fallback, miss
        # this state's q2 Choi state optimum by 0.027; with no Haar starts in
        # the fallback, the artifact says so
        path = tmp_path / "state.json"
        path.write_text(serialize.dumps(serialize.state_to_dict(
            states.haar_pure((3, 3, 3), states.Seed(7, 403)))))
        gaps = []
        for starts in (0, 32):
            monkeypatch.setattr(resources, "HAAR_STARTS", starts)
            code, out, _ = run(capsys, "profile", "--state", str(path))
            assert code == 0
            b = json.loads(out)["breakdown"]
            gaps.append((b["f_max_gap"], b["f_choi_gap"]))
        assert gaps[0][0] <= EPS_CERT < gaps[0][1]
        assert max(gaps[1]) <= EPS_CERT

    def test_state_file_input(self, capsys, tmp_path):
        rho = states.werner(0.8)
        tri = states.compose_product(rho, states.maximally_mixed(2))
        path = tmp_path / "state.json"
        path.write_text(serialize.dumps(serialize.state_to_dict(tri)))
        code, out, _ = run(capsys, "profile", "--state", str(path))
        assert code == 0
        assert abs(json.loads(out)["q1"] - 0.7) <= 1e-6

    def test_unknown_family_exits_2(self, capsys):
        code, _, err = run(capsys, "profile", "--family", "bogus")
        assert code == 2
        assert "unknown family" in err

    def test_missing_input_exits_2(self, capsys):
        code, _, _ = run(capsys, "profile")
        assert code == 2

    def test_non_psd_state_exits_2(self, capsys, tmp_path):
        doc = {"dims": [2], "matrix": [[[1.5, 0.0], [0.0, 0.0]],
                                       [[0.0, 0.0], [-0.5, 0.0]]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "profile", "--state", str(path))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("dims", [[2.9, 2, 2], [2, 2.5, 2]])
    def test_non_integer_dims_exit_2(self, capsys, tmp_path, dims):
        # dims that are not whole numbers are rejected, not truncated to 2
        doc = serialize.state_to_dict(states.ghz())
        doc["dims"] = dims
        path = tmp_path / "ghz.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "profile", "--state", str(path))
        assert code == 2
        assert "whole numbers" in err

    def test_near_rank_deficient_marginal_exits_0(self, capsys, tmp_path):
        # rho_A has eigenvalues e and 1 - e; the q2 Choi state is derived from
        # the checked file state and is not rejected for its rounding
        path = tmp_path / "state.json"
        for e in np.logspace(-10, -3, 29):
            rho = states.ket_projector(near_product_ket(e), (2, 2, 2))
            path.write_text(serialize.dumps(serialize.state_to_dict(rho)))
            code, out, err = run(capsys, "profile", "--state", str(path))
            assert code == 0, (e, err)
            if e >= 1e-6:
                assert abs(json.loads(out)["q2"] - 1.0) <= 1e-9

    def test_broken_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code, _, _ = run(capsys, "profile", "--state", str(path))
        assert code == 2

    def test_usage_error_exits_2(self, capsys):
        code, _, _ = run(capsys, "profile", "--no-such-flag")
        assert code == 2
        # profile and sweep read no seed, so they take none
        for argv in (["profile", "--family", "ghz"], ["sweep", "werner"]):
            code, _, err = run(capsys, *argv, "--seed", "3")
            assert code == 2 and "--seed" in err

    def test_oversized_classical_family_exits_2(self, capsys):
        # d = 65 is the smallest d with d^2 above MAX_DIM; rejected before the
        # dense d^2 x d^2 matrix is built
        code, _, err = run(capsys, "profile", "--family", "classical:65")
        assert code == 2
        assert "exceeds" in err

    def test_reproducible_artifact(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "profile", "--family", "w", "--out", str(f1))[0] == 0
        assert run(capsys, "profile", "--family", "w", "--out", str(f2))[0] == 0
        assert f1.read_bytes() == f2.read_bytes()


class TestSweepCommand:
    def test_werner_closed_form(self, capsys):
        code, out, _ = run(capsys, "sweep", "werner", "--grid", "0:1:21")
        assert code == 0
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        header = rows[0].split(",")
        i_p, i_q1 = header.index("param"), header.index("q1")
        for line in rows[1:]:
            cells = line.split(",")
            p, q1 = float(cells[i_p]), float(cells[i_q1])
            assert abs(q1 - max(0.0, (3 * p - 1) / 2)) <= 1e-6

    def test_gibbs_beta_zero_row(self, capsys):
        code, out, _ = run(capsys, "sweep", "gibbs-beta", "--grid", "0:1:3")
        assert code == 0
        first = [l for l in out.splitlines() if not l.startswith("#")][1]
        assert float(first.split(",")[4]) == 0.0  # norm column at beta = 0

    def test_depolarize_bell_follows_werner_chain(self, capsys):
        code, out, _ = run(capsys, "sweep", "depolarize-bell", "--grid", "0:1:6")
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        for line in rows:
            cells = line.split(",")
            p, q1 = float(cells[0]), float(cells[1])
            assert abs(q1 - max(0.0, (3 * (1 - p) - 1) / 2)) <= 1e-6

    def test_grid_validation(self, capsys):
        assert run(capsys, "sweep", "werner", "--grid", "0:1:1")[0] == 2
        assert run(capsys, "sweep", "werner", "--grid", "oops")[0] == 2
        # rejected before numpy allocates the grid
        assert run(capsys, "sweep", "werner", "--grid", "0:1:1000000000000")[0] == 2
        assert run(capsys, "sweep", "werner", "--grid", f"0:1:{MAX_DIM + 1}")[0] == 2

    def test_unknown_family(self, capsys):
        assert run(capsys, "sweep", "bogus")[0] == 2


class TestCheckCommand:
    def test_extremal_check_exits_0(self, capsys):
        code, out, err = run(capsys, "check", "C1")
        assert code == 0
        docs = json.loads(out)
        assert docs[0]["claim_id"] == "C1.extremal"
        assert docs[0]["verdict"] == "holds-within-tolerance"
        assert "C1.extremal" in err

    def test_deterministic_reports(self, capsys, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            code, _, _ = run(capsys, "check", "T1", "--trials", "40",
                             "--seed", "11", "--out", str(d))
            assert code == 0
        assert (d1 / "T1.ball.json").read_bytes() == (d2 / "T1.ball.json").read_bytes()
        assert (d1 / "T1.ball.cloud.csv").read_bytes() == \
            (d2 / "T1.ball.cloud.csv").read_bytes()

    def test_cloud_row_count(self, capsys, tmp_path):
        out_dir = tmp_path / "rep"
        run(capsys, "check", "T1", "--trials", "25", "--out", str(out_dir))
        lines = (out_dir / "T1.ball.cloud.csv").read_text().splitlines()
        data = [l for l in lines if l and not l.startswith("#")]
        assert len(data) == 26  # header + 25 rows

    def test_forced_violation_exits_1(self, capsys):
        code, out, _ = run(capsys, "check", "C1", "--tol", "extremal=-1")
        assert code == 1
        assert json.loads(out)[0]["verdict"] == "violated"

    def test_strict_mode_escalates_global_drift(self, capsys):
        code, out, _ = run(capsys, "check", "T2", "--trials", "4", "--strict")
        assert code == 1
        doc = json.loads(out)[0]
        assert doc["verdict"] == "holds-within-tolerance"
        assert doc["report_only_violations"] > 0

    def test_without_strict_report_only_is_exit_0(self, capsys):
        code, _, _ = run(capsys, "check", "T2", "--trials", "4")
        assert code == 0

    def test_check_all_runs_every_claim(self, capsys):
        code, out, _ = run(capsys, "check", "all", "--trials", "2",
                           "--channels", "2", "--strict")
        docs = json.loads(out)
        assert {d["claim_id"] for d in docs} == {
            "C1.extremal", "T1.ball", "C2.convexity", "C3.monotonicity",
            "T2.conservation", "A2.entropic"}
        # strict mode surfaces the report-only findings as exit 1
        assert code == 1

    def test_named_family_sampler(self, capsys):
        code, out, _ = run(capsys, "check", "T1", "--trials", "5",
                           "--sampler", "named-family", "--family", "werner")
        assert code == 0
        assert json.loads(out)[0]["stats"]["max_norm"] <= 1.0 + 1e-9

    def test_named_family_convexity_exits_0(self, capsys):
        # C2 takes each endpoint's Werner weight from its index, not its stream
        code, out, err = run(capsys, "check", "T1", "C2", "--trials", "11",
                             "--sampler", "named-family", "--family", "werner")
        assert code == 0, err
        assert [d["verdict"] for d in json.loads(out)] == ["report-only"] * 2

    def test_unknown_claim_exits_2(self, capsys):
        assert run(capsys, "check", "Z9")[0] == 2

    def test_bad_tolerance_name_exits_2(self, capsys):
        code, _, err = run(capsys, "check", "C1", "--tol", "bogus=1")
        assert code == 2
        assert "--tol" in err and "--dims" not in err

    def test_non_finite_tolerance_exits_2(self, capsys):
        for value in ("nan", "inf", "-inf"):
            code, _, err = run(capsys, "check", "T1", "--trials", "2",
                               "--tol", f"ball={value}")
            assert code == 2
            assert "finite" in err and "--tol" in err and "--dims" not in err

    def test_zero_channels_exits_2(self, capsys, tmp_path):
        # no channel slots would make both hard tiers of C3 hold vacuously
        code, _, err = run(capsys, "check", "C3", "--trials", "2", "--channels", "0")
        assert code == 2
        assert "channels per state" in err
        # zero counts, and named-family configs whose states the generator and
        # C3's channels cannot act on, are rejected before the first check
        # writes its artifact
        cases = [(["C1", "C3", "--channels", "0"], "channels per state"),
                 (["all", "--trials", "0"], "trials must be >= 1"),
                 (["all", "--sampler", "named-family", "--trials", "3"],
                  "--family: the named-family sampler needs a family name"),
                 (["all", "--sampler", "named-family", "--family", "nope"],
                  "--family: unknown family 'nope'")]
        cases += [([claim, "--sampler", "named-family", "--family", "classical:3"],
                   "--family: family 'classical:3' has d_A = 3, the dims have d_A = 2")
                  for claim in ("T1", "C2", "C3", "T2")]
        # settings the sampler never reads, and negative seeds, which every
        # check would otherwise reach only when it draws
        cases += [(["T1", "--family", "ghz", "--trials", "2"],
                   "--family: the haar-pure sampler reads no family"),
                  (["T1", "--sampler", "ginibre-mixed", "--family", "ghz"],
                   "--family: the ginibre-mixed sampler reads no family"),
                  (["T1", "--rank", "2", "--trials", "2"],
                   "--rank 2: the haar-pure sampler reads no rank"),
                  (["all", "--sampler", "named-family", "--family", "ghz", "--rank", "2"],
                   "--rank 2: the named-family sampler reads no rank"),
                  (["all", "--seed", "-1", "--trials", "2", "--channels", "1"],
                   "--seed -1: seed must be >= 0, got -1")]
        for k, (argv, message) in enumerate(cases):
            out = tmp_path / f"out{k}"
            code, _, err = run(capsys, "check", *argv, "--out", str(out))
            assert code == 2 and message in err
            assert not out.exists() or not any(out.iterdir())
        assert run(capsys, "check", "C1", "--trials", "0")[0] == 0

    @pytest.mark.parametrize("argv, message", [
        (["--generator", "bogus"], "--generator bogus: unknown generator spec 'bogus'"),
        (["--generator", "diag:1,2", "--dims", "3,3,3"],
         "--generator diag:1,2: diag generator has 2 entries for d_A = 3"),
        (["--generator", "diag:1,1,1", "--dims", "3,3,3"],
         "--generator diag:1,1,1: generator spectrum is fully degenerate")],
        ids=["unknown", "wrong-length", "degenerate"])
    def test_bad_generator_exits_2_before_the_output_directory(self, capsys, tmp_path,
                                                                argv, message):
        out = tmp_path / "out"
        code, stdout, err = run(capsys, "check", "T1", *argv, "--out", str(out))
        assert code == 2
        assert f"error: {message}" in err
        assert not out.exists() and stdout == ""

    def test_t2_local_family_holds_under_singlet_ac(self, capsys):
        # q2 as the singlet fraction of rho_AC is invariant under u_A ⊗ u_C
        code, out, _ = run(capsys, "check", "T2", "--q2-mode", "singlet-ac", "--trials", "20")
        assert code == 0
        report = json.loads(out)[0]
        assert report["violations"] == 0
        assert report["stats"]["local_max_coord_drift"] <= report["tolerances"]["traj"]

    def test_t2_samples_on_the_family_dims(self, capsys):
        # bell-ac is (2, 1, 2) under the default --dims 2,2,2, as in T1, C2, C3 and A2
        code, out, _ = run(capsys, "check", "T2", "--sampler", "named-family",
                           "--family", "bell-ac", "--trials", "3")
        assert code == 0
        report = json.loads(out)[0]
        assert report["stats"]["local_max_coord_drift"] <= report["tolerances"]["traj"]

    def test_optimizer_echo_reports_the_applied_settings(self, capsys):
        # the d = 2 closed form reads none of the search settings
        expected = {"3,3,3": {"starts": 32, "tol": 1e-14, "max_iter": 400, "seed": 20240817,
                              "method": "power-newton+certificate", "cert_tol": 1e-12,
                              "cert_steps": 50},
                    "2,2,2": {"method": "closed-form"}}
        for dims, optimizer in expected.items():
            code, out, _ = run(capsys, "check", "T1", "--dims", dims, "--trials", "1")
            assert code == 0
            echo = json.loads(out)[0]["config"]
            assert "starts" not in echo
            assert echo["campaign"]["optimizer"] == optimizer

    def test_oversized_dims_exit_2(self, capsys, tmp_path):
        # 17 * 16 * 16 = 4352 is just above MAX_DIM; rejected before sampling
        code, _, err = run(capsys, "check", "T1", "--dims", "17,16,16",
                           "--trials", "1")
        assert code == 2
        assert "--dims" in err
        # dims a profile cannot take are rejected before the first artifact
        for dims, message in [("2,2", "tripartite"), ("0,2,2", "positive whole numbers"),
                              ("2,-2,2", "positive whole numbers"), ("2,3,2", "d_B == d_A")]:
            out = tmp_path / dims
            code, _, err = run(capsys, "check", "all", "--dims", dims, "--out", str(out))
            assert code == 2
            assert f"--dims {dims}:" in err and message in err
            assert not out.exists() or not any(out.iterdir())

    def test_oversized_c3_isometry_exits_2(self, capsys):
        # Kraus rank up to 17^2 on d_A = 17 needs a 4913-dimensional Haar unitary
        code, _, err = run(capsys, "check", "C3", "--dims", "17,1,17", "--trials", "1",
                           "--channels", "1")
        assert code == 2
        assert "4913" in err and "MAX_DIM" in err

    def test_ginibre_rank_out_of_range_exits_2(self, capsys):
        code, _, err = run(capsys, "check", "T1", "--sampler", "ginibre-mixed",
                           "--rank", "0", "--trials", "2")
        assert code == 2
        assert "--rank 0" in err and "--dims" not in err

    def test_env_seed_default(self, capsys, monkeypatch, tmp_path):
        # the command line alone sets the seed: the environment does not
        monkeypatch.setenv("QIRC_SEED", "123")
        d1 = tmp_path / "env"
        code, _, _ = run(capsys, "check", "T1", "--trials", "5", "--out", str(d1))
        assert code == 0
        doc = json.loads((d1 / "T1.ball.json").read_text())
        assert doc["seed"] == 7

    def test_starts_is_not_an_option(self, capsys):
        code, _, err = run(capsys, "check", "T1", "--starts", "4")
        assert code == 2
        assert "--starts" in err

    def test_stdout_is_the_list_of_the_artifacts(self, capsys, tmp_path):
        # stdout is built from the artifact texts; it must read as if the
        # list of their docs were rendered whole
        code, out, _ = run(capsys, "check", "T1", "C3", "T2", "--dims", "3,3,3",
                           "--trials", "3", "--channels", "3", "--out", str(tmp_path))
        assert code == 0
        docs = [json.loads((tmp_path / f"{name}.json").read_text())
                for name in ("T1.ball", "C3.monotonicity", "T2.conservation")]
        assert out == serialize.dumps(docs)

    def test_artifacts_are_canonical_json(self, capsys, tmp_path):
        # each JSON artifact is the standard encoder's text of its own document
        code, _, _ = run(capsys, "check", "all", "--trials", "3", "--channels", "2",
                         "--out", str(tmp_path))
        assert code == 0
        paths = sorted(tmp_path.glob("*.json"))
        assert len(paths) == len(claims.CHECK_ORDER)
        for path in paths:
            text = path.read_text()
            doc = json.loads(text)
            assert serialize.dumps(doc) == text == json.dumps(doc, indent=2) + "\n"


class TestEvolveCommand:
    def _write_schedule(self, tmp_path, steps):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(steps))
        return str(path)

    def test_identity_schedule_constant_norm(self, capsys, tmp_path):
        sched = self._write_schedule(tmp_path, [{"type": "unitary", "spec": "identity"}] * 3)
        code, out, _ = run(capsys, "evolve", "--family", "bell-spectator",
                           "--schedule", sched)
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        norms = {row.split(",")[-1] for row in rows}
        assert norms == {"1.0"}

    def test_depolarizing_ramp_monotone(self, capsys, tmp_path):
        sched = self._write_schedule(tmp_path, [
            {"type": "channel", "name": "depolarizing", "p": 0.3, "target": 0},
            {"type": "channel", "name": "depolarizing", "p": 0.6, "target": 0},
        ])
        code, out, _ = run(capsys, "evolve", "--family", "bell-spectator",
                           "--schedule", sched)
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        q1s = [float(r.split(",")[2]) for r in rows]
        assert q1s == sorted(q1s, reverse=True)
        assert '"q1": true' in out  # monotone flag comment

    def test_commutant_schedule_reports_drift(self, capsys, tmp_path):
        sched = self._write_schedule(tmp_path, [
            {"type": "unitary", "spec": "commutant-random", "seed": 5}])
        code, out, _ = run(capsys, "evolve", "--family", "ghz",
                           "--schedule", sched)
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == 2

    def test_malformed_schedule_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not a list")
        assert run(capsys, "evolve", "--family", "ghz",
                   "--schedule", str(path))[0] == 2
        path.write_text(json.dumps([{"type": "mystery"}]))
        assert run(capsys, "evolve", "--family", "ghz",
                   "--schedule", str(path))[0] == 2
        # a negative seed is rejected before anything is written
        out = tmp_path / "out.csv"
        path.write_text(json.dumps([{"type": "channel", "name": "random"}]))
        code, _, err = run(capsys, "evolve", "--family", "ghz", "--schedule", str(path),
                           "--seed", "-1", "--out", str(out))
        assert code == 2 and "--seed -1: seed must be >= 0" in err
        path.write_text(json.dumps([{"type": "unitary", "spec": "identity"},
                                    {"type": "channel", "name": "random", "seed": -2}]))
        code, _, err = run(capsys, "evolve", "--family", "ghz", "--schedule", str(path),
                           "--out", str(out))
        assert code == 2 and "schedule step 1: seed must be >= 0, got -2" in err
        assert not out.exists()
        for name, key in [("depolarizing", "p"), ("dephasing", "lambda"),
                          ("amplitude-damping", "gamma")]:
            path.write_text(json.dumps([{"type": "unitary", "spec": "identity"},
                                        {"type": "channel", "name": name}]))
            code, _, err = run(capsys, "evolve", "--family", "ghz", "--schedule", str(path))
            assert code == 2
            assert f"schedule step 1: channel {name!r} needs {key!r}" in err

    @pytest.mark.parametrize("name", ["depolarizing", "random"])
    def test_target_outside_the_state_exits_2(self, capsys, tmp_path, name):
        sched = self._write_schedule(tmp_path, [
            {"type": "channel", "name": name, "p": 0.1, "target": 5}])
        code, _, err = run(capsys, "evolve", "--family", "w", "--schedule", sched)
        assert code == 2
        assert "target 5 out of range" in err

    @pytest.mark.parametrize("key, value", [("target", 1.9), ("kraus_rank", 2.7),
                                            ("seed", 5.5), ("target", True),
                                            ("kraus_rank", True), ("seed", False)])
    def test_non_whole_schedule_numbers_exit_2(self, capsys, tmp_path, key, value):
        # rejected, not truncated: random(rank=2,seed=5)@1 must not run, and
        # JSON true and false are not read as 1 and 0
        step = {"type": "channel", "name": "random", "kraus_rank": 2, "target": 1, "seed": 5}
        sched = self._write_schedule(tmp_path, [{**step, key: value}])
        code, out, err = run(capsys, "evolve", "--family", "w", "--schedule", sched)
        assert code == 2
        assert f"{key} must be a whole number, got {value!r}" in err
        assert "random(" not in out

    def test_reproducible_csv(self, capsys, tmp_path):
        sched = self._write_schedule(tmp_path, [
            {"type": "unitary", "spec": "local-random", "seed": 3},
            {"type": "channel", "name": "random", "kraus_rank": 2, "seed": 4,
             "target": 0},
        ])
        f1, f2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        for f in (f1, f2):
            code, _, _ = run(capsys, "evolve", "--family", "w",
                             "--schedule", sched, "--out", str(f))
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("argv, message", [
    (["profile", "--family", "w", "--generator", "bogus"],
     "--generator bogus: unknown generator spec 'bogus'"),
    (["sweep", "werner", "--grid", "0:1:3", "--generator", "diag:1,1"],
     "--generator diag:1,1: generator spectrum is fully degenerate"),
    (["evolve", "--family", "w", "--schedule", "SCHEDULE", "--generator", "bogus"],
     "--generator bogus: unknown generator spec 'bogus'")],
    ids=["profile", "sweep", "evolve"])
def test_bad_generator_error_names_the_option(capsys, tmp_path, argv, message):
    # as check does: the message says which option holds the bad spec
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps([{"type": "unitary", "spec": "identity"}]))
    out = tmp_path / "out"
    argv = [str(schedule) if a == "SCHEDULE" else a for a in argv]
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 2 and f"error: {message}" in err
    assert not out.exists() and stdout == ""

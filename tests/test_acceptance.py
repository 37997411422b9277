"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion budgets and
tolerances are pinned here and never loosened at runtime; any failure is a
real finding, reported with its margin.
"""

import json
import time

import numpy as np

from qirc import channels, resources, states
from qirc.claims import CampaignConfig, check_conservation, check_entropic_bounds, \
    check_extremals, check_monotonicity
from qirc.cli import main
from qirc.generators import CoherenceGenerator
from qirc.resources import ProfileConfig
from qirc.states import Seed

from conftest import random_hermitian

SEED = 7


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" :: {detail}" if detail else ""
    print(f"[acceptance] {status} {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_extremal_anchors():
    """check C1 reaches (1,0,0), (0,1,0), (0,0,1) within 1e-6 in < 10 s."""
    t0 = time.monotonic()
    report = check_extremals(CampaignConfig(seed=SEED))
    elapsed = time.monotonic() - t0
    targets = {tuple(a["target"]) for a in report.stats["anchors"]}
    ok = (report.violations == 0
          and report.stats["max_deviation"] <= 1e-6
          and targets == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}
          and elapsed < 10.0)
    _report("1 extremal anchors", ok,
            f"max deviation {report.stats['max_deviation']:.2e}, {elapsed:.1f}s")


def test_criterion_2_werner_sweep():
    """q1 follows max(0, (3p-1)/2) within 1e-6; q2 = q3 = 0 within 1e-8."""
    worst_q1 = worst_q23 = 0.0
    threshold_ok = True
    for k in range(21):
        p = 0.05 * k
        state = states.compose_product(states.werner(p), states.maximally_mixed(2))
        prof = resources.profile(state)
        worst_q1 = max(worst_q1, abs(prof.q1 - max(0.0, (3 * p - 1) / 2)))
        worst_q23 = max(worst_q23, prof.q2, prof.q3)
        if p <= 1 / 3 + 1e-12 and prof.q1 > 1e-6:
            threshold_ok = False
        if p > 1 / 3 + 0.01 and prof.q1 <= 0.0:
            threshold_ok = False
    ok = worst_q1 <= 1e-6 and worst_q23 <= 1e-8 and threshold_ok
    _report("2 Werner sweep", ok,
            f"max |q1 - closed form| {worst_q1:.2e}, max q2/q3 {worst_q23:.2e}")


def _f_q(rho_a: states.DensityMatrix, g: CoherenceGenerator) -> float:
    """F_Q of rho_A along g: the profile of rho_A on trivial B and C."""
    return resources.profile(rho_a.reshaped((rho_a.dim, 1, 1)),
                             ProfileConfig(generator=g)).breakdown.f_q


def test_criterion_3_fisher_information():
    """Pure spectral = 4 Var within 1e-9; F_Q(I/d) = 0 exactly; F_Q <= max."""
    rng = np.random.default_rng(SEED)
    worst_pure = 0.0
    for i in range(100):
        d = 2 + i % 7
        g = CoherenceGenerator(random_hermitian(rng, d))
        rho = states.haar_pure((d,), Seed(SEED, 100 + i))
        fq = _f_q(rho, g)
        var = resources.variances(rho.matrix[None], g)[0]
        worst_pure = max(worst_pure, abs(fq - 4 * var))
    exact_zero = all(
        _f_q(states.maximally_mixed(d), CoherenceGenerator(random_hermitian(rng, d))) == 0.0
        for d in range(2, 9))
    worst_excess = -np.inf
    for i in range(1000):
        d = 2 + i % 7
        g = CoherenceGenerator(random_hermitian(rng, d))
        rank = 1 + i % d
        rho = states.ginibre_mixed(d, rank, Seed(SEED, 10_000 + i))
        excess = _f_q(rho, g) - g.spread ** 2
        worst_excess = max(worst_excess, excess)
    ok = worst_pure <= 1e-9 and exact_zero and worst_excess <= 1e-9
    _report("3 Fisher information", ok,
            f"pure gap {worst_pure:.2e}, I/d exact zero {exact_zero}, "
            f"max excess over bound {worst_excess:.2e}")


def test_criterion_4_monotonicity():
    """200 states x 20 channel slots on A: no q3 increase beyond 1e-8 under
    generator-covariant channels (the hard tier); the Haar-channel q3
    increases stay reported as a finding with a witness, and q1, q2 and norm
    increases are report-only. At this seed no Haar channel raises q1 beyond
    1e-6."""
    t0 = time.monotonic()
    report = check_monotonicity(CampaignConfig(seed=SEED))
    elapsed = time.monotonic() - t0
    s = report.stats
    w = report.worst_case
    finding_ok = (s["q3_increases"] > 0
                  and report.report_only_violations >= s["q3_increases"]
                  and w is not None and w["channel_family"] == "haar"
                  and w["q3_increase"] > 1e-8)
    ok = (report.tolerances["q1_mono"] == 1e-6
          and report.tolerances["q3_mono"] == 1e-8
          and report.trials == 4000
          and s["q1_increases"] == 0 and s["covariant_q3_increases"] == 0
          and finding_ok and elapsed < 300.0)
    _report(
        "4 monotonicity", ok,
        f"q1 increases {s['q1_increases']}, covariant q3 increases "
        f"{s['covariant_q3_increases']} (max {s['max_covariant_q3_increase']:.3e}), "
        f"report-only: Haar q3 {s['q3_increases']} "
        f"(max {s['max_q3_increase']:.3e}), q2 {s['q2_increases']}, "
        f"norm {s['norm_increases']}; {elapsed:.0f}s")


def test_criterion_5_conservation():
    """100 commuting local-product trials: max norm drift <= 1e-6; global
    commutant drift reported with witnesses."""
    report = check_conservation(CampaignConfig(seed=SEED))
    s = report.stats
    ok = (report.violations == 0
          and s["local_max_norm_drift"] <= 1e-6
          and s["global_trials"] == 100
          and report.worst_case is not None)
    _report("5 conservation", ok,
            f"local max drift {s['local_max_norm_drift']:.2e}, "
            f"global max drift {s['global_max_drift']:.3f} "
            f"({s['global_exceed_count']} report-only)")


def test_criterion_6_entropic_bound():
    """I(A:B) + I(A:C) <= 2 S(A) + 1e-8 on 1000 pure states; the Bell
    anchor saturates within 1e-9."""
    report = check_entropic_bounds(CampaignConfig(seed=SEED))
    ok = (report.violations == 0
          and report.stats["anchor_saturation_gap"] <= 1e-9)
    _report("6 entropic bound", ok,
            f"violations {report.violations}, max gap "
            f"{report.stats['max_mi_gap']:.2e}, anchor gap "
            f"{report.stats['anchor_saturation_gap']:.2e}")


def test_criterion_7_ball_campaign(tmp_path, capsys):
    """10^4 profiles in < 10 min, cloud CSV emitted, witnesses recorded,
    byte-identical rerun under the same master seed."""
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    elapsed = []
    for d in dirs:
        t0 = time.monotonic()
        code = main(["check", "T1", "--trials", "10000", "--seed", str(SEED),
                     "--out", str(d)])
        elapsed.append(time.monotonic() - t0)
        capsys.readouterr()
        assert code == 0
    report = json.loads((dirs[0] / "T1.ball.json").read_text())
    cloud = [l for l in (dirs[0] / "T1.ball.cloud.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    identical = ((dirs[0] / "T1.ball.json").read_bytes()
                 == (dirs[1] / "T1.ball.json").read_bytes()
                 and (dirs[0] / "T1.ball.cloud.csv").read_bytes()
                 == (dirs[1] / "T1.ball.cloud.csv").read_bytes())
    witnesses_ok = (report["violations"] == 0) or (
        report["worst_case"] is not None
        and len(report["stats"]["violation_trials"]) == report["violations"])
    ok = (max(elapsed) < 600.0 and len(cloud) == 10_001
          and "max_norm" in report["stats"] and witnesses_ok and identical)
    _report("7 ball campaign", ok,
            f"{elapsed[0]:.0f}s/run, max norm {report['stats']['max_norm']:.6f}, "
            f"violations {report['violations']}, byte-identical {identical}")


def test_criterion_8_channel_algebra():
    """Completeness within 1e-10 for every generated channel; apply keeps
    trace within 1e-12 and spectra above -1e-10."""
    worst_complete = 0.0
    worst_trace = 0.0
    worst_eig = 0.0
    g2 = CoherenceGenerator(np.diag([1.0, -1.0]).astype(complex))
    pool = [channels.depolarizing(2, 0.0), channels.depolarizing(2, 0.37),
            channels.depolarizing(3, 0.8), channels.dephasing(0.5, g2),
            channels.dephasing(1.0, g2), channels.amplitude_damping(0.25),
            channels.amplitude_damping(1.0)]
    pool += [channels.random_channel(2, 2, 1 + i % 4, Seed(SEED, 500 + i))
             for i in range(40)]
    pool += [channels.random_channel(2, 3, 2, Seed(SEED, 600)),
             channels.random_channel(3, 2, 3, Seed(SEED, 601))]
    for ch in pool:
        total = sum(k.conj().T @ k for k in ch.kraus)
        worst_complete = max(worst_complete,
                             float(np.linalg.norm(total - np.eye(ch.d_in))))
    for i in range(60):
        rho = states.haar_pure((2, 2, 2), Seed(SEED, 700 + i)) if i % 2 else \
            states.ginibre_mixed(8, 1 + i % 8, Seed(SEED, 700 + i)).reshaped((2, 2, 2))
        ch = channels.random_channel(2, 2, 1 + i % 4, Seed(SEED, 800 + i))
        out = channels.apply(ch, rho, i % 3)
        worst_trace = max(worst_trace, abs(float(np.trace(out.matrix).real) - 1.0))
        worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(out.matrix).min()))
    ok = worst_complete <= 1e-10 and worst_trace <= 1e-12 and worst_eig <= 1e-10
    _report("8 channel algebra", ok,
            f"completeness {worst_complete:.2e}, trace drift {worst_trace:.2e}, "
            f"negative eigenvalue {worst_eig:.2e}")


def test_criterion_9_cli_contract(tmp_path, capsys):
    """Exit codes 0/1/2, malformed inputs never crash, artifacts reproduce
    byte for byte from their embedded configuration."""
    def run(*argv):
        code = main(list(argv))
        capsys.readouterr()
        return code

    checks = []
    checks.append(run("profile", "--family", "bell-spectator") == 0)
    checks.append(run("check", "C1", "--seed", str(SEED)) == 0)
    checks.append(run("check", "C1", "--tol", "extremal=-1") == 1)
    checks.append(run("check", "T2", "--trials", "4", "--strict") == 1)
    bad = tmp_path / "bad.json"
    bad.write_text("{definitely not json")
    checks.append(run("profile", "--state", str(bad)) == 2)
    bad.write_text(json.dumps({"dims": [2], "matrix": [[[2.0, 0], [0, 0]],
                                                       [[0, 0], [0, 0]]]}))
    checks.append(run("profile", "--state", str(bad)) == 2)
    checks.append(run("profile", "--family", "bogus") == 2)
    checks.append(run("sweep", "werner", "--grid", "0:1:1") == 2)

    pairs = []
    for name, argv in [
        ("profile", ["profile", "--family", "ghz"]),
        ("sweep", ["sweep", "werner", "--grid", "0:1:5"]),
        ("check", ["check", "A2", "--trials", "10", "--seed", str(SEED)]),
    ]:
        f1, f2 = tmp_path / f"{name}1.out", tmp_path / f"{name}2.out"
        assert run(*argv, "--out", str(f1) if name != "check" else str(tmp_path / "c1")) == 0
        assert run(*argv, "--out", str(f2) if name != "check" else str(tmp_path / "c2")) == 0
        if name == "check":
            pairs.append(((tmp_path / "c1" / "A2.entropic.json").read_bytes(),
                          (tmp_path / "c2" / "A2.entropic.json").read_bytes()))
        else:
            pairs.append((f1.read_bytes(), f2.read_bytes()))
    reproducible = all(a == b for a, b in pairs)
    ok = all(checks) and reproducible
    _report("9 CLI contract", ok,
            f"exit-code checks {sum(checks)}/{len(checks)}, "
            f"byte-identical artifacts {reproducible}")

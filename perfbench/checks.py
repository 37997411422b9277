"""Correctness checks on one ``qirc check`` run's reports and artifacts.

Each claim check's report is compared against ``oracle`` (computed without
qirc) or against properties the method must have. ``check_reports`` returns,
per claim, the list of problems found; an empty list means the outputs are
right.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

CLAIM_IDS = {"T1": "T1.ball", "C1": "C1.extremal", "C2": "C2.convexity",
             "C3": "C3.monotonicity", "T2": "T2.conservation", "A2": "A2.entropic"}

ORACLE_TOL = 1e-9    # coordinate agreement with the oracle, and bound slack
EXACT_TOL = 1e-12    # relations the report's own numbers must satisfy
ANCHOR_TOL = 1e-6    # C1 anchors against their target corners
STATE_TOL = 1e-12    # a witness state against its regenerated Haar draw
BALL_TOL = 1e-6      # the default ball slack (no --tol is passed)


@dataclass(frozen=True)
class Run:
    """What a check needs to know about the command that produced a report."""

    dims: tuple[int, int, int]
    seed: int
    trials: int
    channels: int
    out_dir: Path


def _matrix(state: dict) -> tuple[np.ndarray, tuple[int, ...]]:
    m = np.array([[complex(re, im) for re, im in row] for row in state["matrix"]])
    return m, tuple(state["dims"])


def _read_cloud(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [{k: (int(v) if k in ("trial", "stream") else float(v))
             for k, v in zip(header, ln.split(","))} for ln in lines[1:]]


def _near(errs: list, label: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        errs.append(f"{label}: {got!r} vs {want!r} (tol {tol:g})")


def _within(errs: list, label: str, value: float, bounds: tuple[float, float]) -> None:
    lo, hi = bounds
    if not lo - ORACLE_TOL <= value <= hi + ORACLE_TOL:
        errs.append(f"{label}: {value!r} outside [{lo!r}, {hi!r}]")


def _check_profile(errs: list, label: str, rho: np.ndarray, d: int, prof: dict) -> None:
    """A profile of a d x d x d state against the oracle."""
    b = prof["breakdown"]
    if d == 2:
        ref = oracle.qubit_profile(rho)
        for k in ("q1", "q2", "q3", "norm"):
            _near(errs, f"{label} {k}", prof[k], ref[k], ORACLE_TOL)
        return
    ref = oracle.qudit_profile(rho, d)
    _near(errs, f"{label} f_q", b["f_q"], ref["f_q"], ORACLE_TOL)
    _near(errs, f"{label} q3", prof["q3"], ref["q3"], ORACLE_TOL)
    _within(errs, f"{label} f_max", b["f_max"], ref["f_max_bounds"])
    _within(errs, f"{label} f_trans", (b["q2_raw"] + d - 1) / d, ref["f_trans_bounds"])


def _check_witness(errs: list, doc: dict, run: Run) -> None:
    """The worst case's state regenerates from its stream, and its profile
    matches the oracle."""
    w = doc["worst_case"]
    if w is None:
        errs.append("no worst case recorded")
        return
    rho, dims = _matrix(w["state"])
    stream = w.get("stream", w.get("state_stream"))
    if stream is not None:
        ref = oracle.haar_pure(run.dims, run.seed, int(stream))
        _near(errs, "witness state", float(np.abs(rho - ref).max()), 0.0, STATE_TOL)
    prof = w.get("profile") or w.get("profile_before")
    if prof is not None and dims == run.dims:
        _check_profile(errs, "witness", rho, run.dims[0], prof)


def check_t1(doc: dict, run: Run) -> list[str]:
    """Every cloud row against the oracle; excursion count and max norm."""
    errs: list[str] = []
    d = run.dims[0]
    rows = _read_cloud(run.out_dir / "T1.ball.cloud.csv")
    if doc["trials"] != run.trials or len(rows) != run.trials:
        errs.append(f"trials {doc['trials']}, rows {len(rows)}, asked {run.trials}")
    norms = []
    for row in rows:
        label = f"trial {row['trial']}"
        if row["stream"] != row["trial"]:
            errs.append(f"{label}: stream {row['stream']}")
        rho = oracle.haar_pure(run.dims, run.seed, row["stream"])
        if d == 2:
            ref = oracle.qubit_profile(rho)
            for k in ("q1", "q2", "q3", "norm"):
                _near(errs, f"{label} {k}", row[k], ref[k], ORACLE_TOL)
            norms.append(ref["norm"])
            continue
        ref = oracle.qudit_profile(rho, d)
        _near(errs, f"{label} f_q", row["f_q"], ref["f_q"], ORACLE_TOL)
        _within(errs, f"{label} f_max", row["f_max"], ref["f_max_bounds"])
        _within(errs, f"{label} f_trans", (row["q2_raw"] + d - 1) / d,
                ref["f_trans_bounds"])
        q1_raw = d * row["f_max"] + 1 - d
        _near(errs, f"{label} q1_raw", row["q1_raw"], q1_raw, EXACT_TOL)
        _near(errs, f"{label} q1", row["q1"], min(1.0, max(0.0, q1_raw)), EXACT_TOL)
        _near(errs, f"{label} q3", row["q3"],
              min(1.0, row["f_q"] / (2.0 * (d - 1)) ** 2), EXACT_TOL)
        _near(errs, f"{label} norm", row["norm"],
              row["q1"] ** 2 + row["q2"] ** 2 + row["q3"] ** 2, EXACT_TOL)
        norms.append(row["norm"])
    if not norms:
        return errs + ["empty cloud"]
    # A norm within ORACLE_TOL of the threshold may fall on either side.
    threshold = 1.0 + BALL_TOL
    least = sum(n > threshold + ORACLE_TOL for n in norms)
    most = sum(n > threshold - ORACLE_TOL for n in norms)
    if not least <= doc["violations"] <= most:
        errs.append(f"excursions {doc['violations']}, oracle {least}..{most}")
    _near(errs, "max_norm", doc["stats"]["max_norm"], max(norms), ORACLE_TOL)
    _check_witness(errs, doc, run)
    return errs


def check_c1(doc: dict, run: Run) -> list[str]:
    errs: list[str] = []
    anchors = doc["stats"]["anchors"]
    if not anchors:
        errs.append("no anchors")
    for a in anchors:
        dev = max(abs(a[k] - t) for k, t in zip(("q1", "q2", "q3"), a["target"]))
        _near(errs, f"anchor {a['anchor']}", dev, 0.0, ANCHOR_TOL)
    if doc["violations"] != 0:
        errs.append(f"violations {doc['violations']}")
    return errs


def check_c2(doc: dict, run: Run) -> list[str]:
    errs: list[str] = []
    if doc["stats"]["endpoint_mismatches"] != 0:
        errs.append(f"endpoint mismatches {doc['stats']['endpoint_mismatches']}")
    _check_witness(errs, doc, run)
    return errs


def check_c3(doc: dict, run: Run) -> list[str]:
    """Both hard tiers hold. Whether the Haar-channel q3 finding is still
    reported is a property of many slots, so ``haar_q3_findings`` counts it
    over a whole run."""
    errs: list[str] = []
    s = doc["stats"]
    if doc["trials"] != run.trials * run.channels:
        errs.append(f"trials {doc['trials']}, asked {run.trials} x {run.channels}")
    for key in ("q1_increases", "covariant_q3_increases"):
        if s[key] != 0:
            errs.append(f"{key} {s[key]}")
    if doc["report_only_violations"] != s["q3_increases"] + s["norm_increases"]:
        errs.append("report-only count is not q3 + norm increases")
    _check_witness(errs, doc, run)
    return errs


def check_t2(doc: dict, run: Run) -> list[str]:
    errs: list[str] = []
    if doc["violations"] != 0:
        errs.append(f"local violations {doc['violations']}")
    if doc["stats"]["local_trials"] != run.trials:
        errs.append(f"local trials {doc['stats']['local_trials']}")
    _check_witness(errs, doc, run)
    return errs


def check_a2(doc: dict, run: Run) -> list[str]:
    """No mutual-information violation; the Bell anchor saturates the bound;
    the witness's entropies match the oracle."""
    errs: list[str] = []
    if doc["violations"] != 0:
        errs.append(f"mutual-information violations {doc['violations']}")
    _near(errs, "anchor gap", doc["stats"]["anchor_saturation_gap"], 0.0, ORACLE_TOL)
    w = doc["worst_case"]
    rho, dims = _matrix(w["state"])
    ref = oracle.mutual_informations(rho, dims)
    for k in ("s_a", "i_ab", "i_ac"):
        _near(errs, f"witness {k}", w[k], ref[k], ORACLE_TOL)
    _near(errs, "witness gap", w["margin"],
          ref["i_ab"] + ref["i_ac"] - 2.0 * ref["s_a"], ORACLE_TOL)
    return errs


CHECKS = {"T1": check_t1, "C1": check_c1, "C2": check_c2, "C3": check_c3,
          "T2": check_t2, "A2": check_a2}


def check_reports(claims, docs: list[dict], run: Run) -> dict[str, list[str]]:
    """Problems per claim; a claim without a report, or with a ``violated``
    verdict, is a problem too."""
    by_id = {doc.get("claim_id"): doc for doc in docs}
    out = {}
    for short in claims:
        doc = by_id.get(CLAIM_IDS[short])
        if doc is None:
            out[short] = ["no report"]
            continue
        errs = ["verdict violated"] if doc["verdict"] == "violated" else []
        try:
            errs += CHECKS[short](doc, run)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            errs.append(f"unreadable output: {exc!r}")
        out[short] = errs
    return out


def haar_q3_findings(docs: list[dict]) -> int:
    """q3 increases under Haar-random channels that C3 reported (report-only)."""
    return sum(int(doc["stats"]["q3_increases"]) for doc in docs
               if doc.get("claim_id") == CLAIM_IDS["C3"])


def trials_total(docs: list[dict]) -> int:
    return sum(int(doc.get("trials", 0)) for doc in docs)

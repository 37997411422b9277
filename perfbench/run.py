"""Claim-campaign benchmark for qirc.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload's ``qirc check`` command the way a user does, as a fresh
process, again and again for S seconds of measured wall time, and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

One operation is one claim check of one command. It fails when the command
exits 2, when the check emits no report, when it returns ``violated``, or
when its outputs fail the checks in ``checks.py``. Command 1 repeats
command 0 and must write byte-identical artifacts; every other command gets
its own seed (``command_seed``) and its outputs are checked against the
oracle. Checks run outside the timed window.

--trace 0 reports the end-to-end metrics (medians over the commands):
wall_s, trials_per_s, cpu_s, peak_rss_mb, and setup_s (median wall time of
``qirc --version`` over SETUP_REPS runs). wall_s, trials_per_s and cpu_s
are given at the reference host speed: a fixed computation that does not use
qirc (``Yardstick``) is timed before and after each command, and the
command's times are scaled by YARDSTICK_REF_S over the mean of the two. The
shared host's speed drifts over tens of seconds, and the program and the
yardstick slow down together, so the scaled times are steadier than the raw
ones. The raw medians and the range of the scales go to standard error. The
yardstick's time counts toward S. --trace 1 runs the same command
through ``spans.py`` instead, which calls ``qirc.cli.main`` in process with
tracing wrappers, and reports per traced function its calls per command, its
self time per command (ms) and its median inclusive time per call (us), plus
the bytes of artifacts and stdout and the traced command's wall time.

The runner and its commands run on one core, with one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# The runner and every command it starts share one core, so that the
# yardstick times the core the commands run on, and numpy uses one BLAS
# thread. Both are set before numpy is first imported.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 5
SEED_STRIDE = 100_003
BUDGET_S = 170.0        # the whole run, set-up included, ends within this
LAST_START_S = 140.0    # no command starts after this much time has passed
YARDSTICK_REF_S = 0.2   # the yardstick's time on the reference host


@dataclass(frozen=True)
class Workload:
    claims: tuple[str, ...]
    dims: tuple[int, int, int]
    trials: int
    channels: int

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        return ["check", *self.claims, "--seed", str(seed),
                "--dims", ",".join(map(str, self.dims)),
                "--trials", str(self.trials), "--channels", str(self.channels),
                "--out", str(out_dir)]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "ball-qubit": Workload(("T1",), (2, 2, 2), trials=100, channels=20),
    "claims-qubit": Workload(("C1", "C2", "T2", "A2"), (2, 2, 2),
                             trials=6, channels=20),
    "campaign-qutrit": Workload(("T1", "C3", "T2"), (3, 3, 3),
                                trials=3, channels=3),
}


@dataclass
class Command:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QIRC_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def run_command(argv: list[str], env: dict, stdout: Path, stderr: Path,
                timeout: float) -> Command:
    """Run to completion; wall time, CPU time and peak RSS of the child."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(code=proc.returncode, wall_s=wall,
                   cpu_s=usage.ru_utime + usage.ru_stime,
                   peak_rss_mb=usage.ru_maxrss / 1024.0)


def qirc_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "qirc.cli", *args]


class Yardstick:
    """A fixed computation that does not use qirc: oracle profiles of 800
    qubit and 100 qutrit Haar states drawn from master seed 0, the same in
    every run. Like the program, it is numpy on small matrices driven from
    Python. Calling it returns its wall time."""

    def __init__(self):
        self.qubits = [oracle.haar_pure((2, 2, 2), 0, s) for s in range(800)]
        self.qutrits = [oracle.haar_pure((3, 3, 3), 0, s) for s in range(100)]
        self()   # warm-up, not used

    def __call__(self) -> float:
        start = time.perf_counter()
        for rho in self.qubits:
            oracle.qubit_profile(rho)
        for rho in self.qutrits:
            oracle.qudit_profile(rho, 3)
        return time.perf_counter() - start


def scales(yards: list[float]) -> list[float]:
    """Scale of the i-th command, timed between yards[i] and yards[i + 1]."""
    return [YARDSTICK_REF_S / ((a + b) / 2) for a, b in zip(yards, yards[1:])]


def measure_setup(env: dict, work: Path, reps: int) -> float:
    """Median wall time of ``qirc --version``; the first run, which also
    writes the bytecode cache, is not timed. Raises if the program is
    missing or broken."""
    walls = []
    for i in range(reps + 1):
        out = work / "version.out"
        cmd = run_command(qirc_argv("--version"), env, out, work / "version.err", 60.0)
        text = out.read_text(encoding="utf-8", errors="replace")
        if cmd.code != 0 or not text.startswith("qirc "):
            err = (work / "version.err").read_text(encoding="utf-8", errors="replace")
            raise RuntimeError(f"qirc --version failed (exit {cmd.code}): {err.strip()}")
        if i > 0:
            walls.append(cmd.wall_s)
    return statistics.median(walls) if walls else 0.0


def artifacts(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def files_of(claim: str, names) -> list[str]:
    cid = checks.CLAIM_IDS[claim]
    return [n for n in names if n in (f"{cid}.json", f"{cid}.cloud.csv")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = time.perf_counter()
    if not (SRC / "qirc" / "cli.py").is_file():
        print(f"error: no qirc sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = child_env()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        return measure(args, wl, env, work, began)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def command_seed(seed: int, k: int) -> int:
    """Master seed of the k-th command: the run's seed twice (the repeat must
    write byte-identical artifacts), then a fresh seed per command, so that
    a run's medians average over many sampled states."""
    return seed if k < 2 else seed + SEED_STRIDE * (k - 1)


def measure(args, wl: Workload, env: dict, work: Path, began: float) -> int:
    setup_s = measure_setup(env, work, SETUP_REPS if args.trace == 0 else 0)
    yardstick = None if args.trace else Yardstick()
    yards = [yardstick()] if yardstick else []
    span_file = work / "spans.jsonl"
    commands: list[Command] = []
    trials: list[int] = []
    out_bytes: list[int] = []
    layers: list[dict] = []
    first: tuple[dict, dict, dict] | None = None   # artifacts, docs, ok per claim
    attempted = failed = haar_q3 = 0
    correct = True
    measured = 0.0
    while True:
        k = len(commands)
        out_dir = work / f"out{k}"
        argv = wl.argv(command_seed(args.seed, k), out_dir)
        if args.trace:
            argv = [sys.executable, str(Path(__file__).with_name("spans.py")),
                    str(span_file), "--", *argv]
        else:
            argv = qirc_argv(*argv)
        timeout = max(5.0, BUDGET_S - (time.perf_counter() - began))
        cmd = run_command(argv, env, work / "stdout.json", work / "stderr.txt", timeout)
        commands.append(cmd)
        measured += cmd.wall_s
        if yardstick:
            yards.append(yardstick())
            measured += yards[-1]

        # Outside the timed window: verify, then account.
        stdout = (work / "stdout.json").read_bytes()
        docs = parse_docs(stdout) if cmd.code != 2 else []
        found = artifacts(out_dir) if out_dir.is_dir() else {}
        by_id = {d.get("claim_id"): d for d in docs}
        trials.append(checks.trials_total(docs))
        out_bytes.append(len(stdout) + sum(len(b) for b in found.values()))
        attempted += len(wl.claims)
        if cmd.code == 2:
            failed += len(wl.claims)
            text = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
            print(f"command exited 2: {text.strip()[-500:]}", file=sys.stderr)
        elif k == 1 and first is not None:
            ref_found, ref_docs, ref_ok = first
            for claim in wl.claims:
                cid = checks.CLAIM_IDS[claim]
                names = set(files_of(claim, ref_found)) | set(files_of(claim, found))
                same = (cid in by_id and by_id[cid] == ref_docs.get(cid)
                        and all(found.get(n) == ref_found.get(n) for n in names))
                if not same:
                    print(f"{claim}: repeated command wrote different output",
                          file=sys.stderr)
                correct = correct and same
                failed += not (same and ref_ok[claim])
        else:
            run = checks.Run(dims=wl.dims, seed=command_seed(args.seed, k),
                             trials=wl.trials, channels=wl.channels, out_dir=out_dir)
            ok = {}
            for claim, errs in checks.check_reports(wl.claims, docs, run).items():
                ok[claim] = not errs
                for e in errs[:5]:
                    print(f"{claim} at seed {run.seed}: {e}", file=sys.stderr)
            correct = correct and all(ok.values())
            failed += sum(not v for v in ok.values())
            haar_q3 += checks.haar_q3_findings(docs)
            if k == 0:
                first = (found, by_id, ok)
        if args.trace and span_file.is_file():
            layers.append(spans.aggregate(str(span_file)))
            (OUT / "spans").mkdir(exist_ok=True)
            shutil.copyfile(span_file, OUT / "spans" / f"{args.workload}.jsonl")
        shutil.rmtree(out_dir, ignore_errors=True)
        if measured >= args.seconds or time.perf_counter() - began > LAST_START_S:
            break

    if "C3" in wl.claims and haar_q3 == 0:
        print("C3: no command reported a Haar-channel q3 increase", file=sys.stderr)
        correct = False

    walls = [c.wall_s for c in commands]
    if args.trace:
        metrics = layer_metrics(layers, out_bytes, walls)
    else:
        scale = scales(yards)
        metrics = {
            "wall_s": (statistics.median(w * f for w, f in zip(walls, scale)), "s"),
            "trials_per_s": (statistics.median(
                t / (w * f) for t, w, f in zip(trials, walls, scale)), "1/s"),
            "cpu_s": (statistics.median(
                c.cpu_s * f for c, f in zip(commands, scale)), "s"),
            "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in commands), "MB"),
            "setup_s": (setup_s, "s"),
        }
        print(f"raw medians: wall_s {statistics.median(walls):.4f}, "
              f"cpu_s {statistics.median(c.cpu_s for c in commands):.4f}; "
              f"yardstick {statistics.median(yards):.4f} s, "
              f"scale {min(scale):.3f} to {max(scale):.3f}", file=sys.stderr)
    print(f"{len(commands)} commands of {args.workload} from seed {args.seed}, "
          f"{measured:.2f} s measured; wall times (s): "
          + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def parse_docs(stdout: bytes) -> list[dict]:
    try:
        docs = json.loads(stdout)
    except ValueError:
        return []
    return [d for d in docs if isinstance(d, dict)] if isinstance(docs, list) else []


def layer_metrics(layers: list[dict], out_bytes: list[int], walls: list[float]) -> dict:
    """Per traced function: calls and self time per command (medians over
    commands), median inclusive time per call over all commands."""
    metrics = {}
    for name in spans.SPAN_NAMES:
        per = [agg.get(name, {"calls": 0, "self_ns": 0, "durations": []})
               for agg in layers] or [{"calls": 0, "self_ns": 0, "durations": []}]
        durations = [d for p in per for d in p["durations"]]
        metrics[f"{name}.calls"] = (int(statistics.median(p["calls"] for p in per)),
                                    "count")
        metrics[f"{name}.self_ms"] = (statistics.median(p["self_ns"] for p in per) / 1e6,
                                      "ms")
        metrics[f"{name}.p50_us"] = (statistics.median(durations) / 1e3
                                     if durations else 0.0, "us")
    metrics["serialize.bytes"] = (int(statistics.median(out_bytes)), "bytes")
    metrics["trace.wall_s"] = (statistics.median(walls), "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())

"""Where a fresh ``qirc check`` process spends its time, phase by phase.

    python3 tools/startup.py [--src DIR ...] [--runs N] [--bytecode cached|none]

Runs the command of each benchmark workload (``WORKLOADS`` in
``perfbench/run.py``) as N fresh processes on one core with one BLAS thread,
as the benchmark does, and prints for each phase the median and quartiles in
ms. Each process is a small probe script that stamps the monotonic clock
between the phases and enters the command line as ``python -m qirc.cli`` does:
through ``cli.run`` where the tree has one, else ``sys.exit(cli.main())``.
The phases:

    interpreter and site   process start (just before the spawn) to the probe's first line
    import numpy
    import qirc.cli        after numpy
    entry                  the probe's last line to main: cli.run's gc.freeze, where it has one
    first numpy.random     its import, which the command first reaches in main
    main                   cli.main, after that import
    exit                   main's return to the process's end, as this process sees it
    total                  the spawn to the process's end

``first numpy.random`` is timed inside the entry, just before ``main``, where
the command would import it. Given several ``--src`` trees (each holding a
``qirc`` package), the runs alternate between them, the order flipping every
run, so that they see the same drift of a shared host. Run k of a workload
uses ``command_seed(SEED, k + 2)`` of the benchmark, a seed of its own. One more
run per tree and workload, not timed, comes first: it fills the bytecode
cache and counts the objects the collector tracks at main's return (all of
them, and those frozen out of collection).

Each tree's ``qirc`` is copied, without bytecode, into a temporary
directory, and the processes run from there. ``--bytecode cached`` points
``PYTHONPYCACHEPREFIX`` at a directory inside it, so the untimed run writes
the bytecode of qirc and numpy there and nothing in the tree. ``--bytecode
none`` sets ``PYTHONDONTWRITEBYTECODE=1``: every process compiles qirc
again, as a fresh checkout does under the benchmark's first command. The
last line of standard output is one JSON object: per tree and workload, the
[q1, median, q3] of each phase in ms and the object counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
# Importing the benchmark runner pins this process, and so every process it
# starts, to one core, and sets one BLAS thread, as the benchmark runs.
sys.path.insert(0, str(REPO / "perfbench"))
from run import WORKLOADS, command_seed  # noqa: E402

SEED = 1  # master seed of every run: run k uses command_seed(SEED, k + 2)
PHASES = ("interpreter and site", "import numpy", "import qirc.cli", "entry",
          "first numpy.random", "main", "exit", "total")

# argv: STAMP_FILE COUNT qirc-arguments...
PROBE = """\
import time
t = [time.perf_counter_ns()]
import gc, sys
import numpy
t.append(time.perf_counter_ns())
from qirc import cli
t.append(time.perf_counter_ns())
stamps, count, *args = sys.argv[1:]
main = cli.main


def timed_main(argv=None):
    t.append(time.perf_counter_ns())
    import numpy.random
    t.append(time.perf_counter_ns())
    code = main(argv)
    t.append(time.perf_counter_ns())
    if count == "1":
        t.extend([len(gc.get_objects()) + gc.get_freeze_count(), gc.get_freeze_count()])
    with open(stamps, "w") as fp:
        fp.write(" ".join(map(str, t)))
    return code


cli.main = timed_main
sys.argv = ["qirc", *args]
cli.run() if hasattr(cli, "run") else sys.exit(cli.main())
"""


def one_run(tree: Path, env: dict, argv: list[str], work: Path, count: bool):
    """Phase times (ms) of one process, and its object counts when asked."""
    stamps = work / "stamps.txt"
    stamps.unlink(missing_ok=True)
    cmd = [sys.executable, "-c", PROBE, str(stamps), "1" if count else "0", *argv]
    start = time.perf_counter_ns()
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=work)
        _, status, _ = os.wait4(proc.pid, 0)
    end = time.perf_counter_ns()
    code = os.waitstatus_to_exitcode(status)
    if code == 2 or not stamps.is_file():
        text = (work / "stderr").read_text(encoding="utf-8", errors="replace")
        raise RuntimeError(f"{tree}: exit {code}: {text.strip()[-500:]}")
    values = [int(v) for v in stamps.read_text().split()]
    marks = [start, *values[:6], end]
    phases = [(b - a) / 1e6 for a, b in zip(marks, marks[1:])] + [(end - start) / 1e6]
    return phases, values[6:]


def quartiles(xs: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [round(q1, 2), round(q2, 2), round(q3, 2)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", type=Path,
                        help="directory holding a qirc package (default: src of this tree)")
    parser.add_argument("--runs", type=int, default=15)
    parser.add_argument("--bytecode", choices=("cached", "none"), default="cached")
    args = parser.parse_args()
    srcs = args.src or [REPO / "src"]
    if args.runs < 2 or not all((s / "qirc" / "cli.py").is_file() for s in srcs):
        parser.error("--runs must be >= 2, and each --src must hold qirc/cli.py")
    result: dict = {}
    with tempfile.TemporaryDirectory(prefix="qirc-startup-") as tmp:
        trees = []
        for k, src in enumerate(srcs):
            tree = Path(tmp) / f"tree{k}"
            shutil.copytree(src / "qirc", tree / "qirc",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items()
                   if k not in ("QIRC_SEED", "PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
            env["PYTHONPATH"] = str(tree)
            if args.bytecode == "cached":
                env["PYTHONPYCACHEPREFIX"] = str(tree / "pycache")
            else:
                env["PYTHONDONTWRITEBYTECODE"] = "1"
            work = tree / "work"
            work.mkdir()
            trees.append((str(src), tree, env, work))
        for name in WORKLOADS:
            wl = WORKLOADS[name]
            times = {label: [] for label, *_ in trees}
            counts = {}
            for label, tree, env, work in trees:
                counts[label] = one_run(tree, env, wl.argv(SEED, work / "out"),
                                        work, count=True)[1]
            for k in range(args.runs):
                order = trees if k % 2 == 0 else trees[::-1]
                for label, tree, env, work in order:
                    argv = wl.argv(command_seed(SEED, k + 2), work / "out")
                    times[label].append(one_run(tree, env, argv, work, count=False)[0])
            for label, runs in times.items():
                per_phase = {p: quartiles([r[i] for r in runs]) for i, p in enumerate(PHASES)}
                tracked, frozen = counts[label]
                result.setdefault(label, {})[name] = {
                    "phases_ms": per_phase, "tracked_at_main_return": tracked,
                    "frozen_at_main_return": frozen}
                print(f"{name} ({label}): {args.runs} runs, {args.bytecode} bytecode; "
                      f"ms, median (q1 to q3)")
                for p, (q1, q2, q3) in per_phase.items():
                    print(f"  {p:<22}{q2:8.1f}  ({q1:.1f} to {q3:.1f})")
                print(f"  objects tracked at main's return: {tracked:,}, "
                      f"of which {frozen:,} frozen")
    print(json.dumps({"runs": args.runs, "bytecode": args.bytecode, "seed": SEED,
                      "python": sys.version.split()[0], "results": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

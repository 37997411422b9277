"""Byte-for-byte parity of the qirc command line between two trees.

    python3 tools/parity.py REV

Runs a fixed list of ``qirc`` commands twice: against ``src/`` of the
working tree (HEAD plus any uncommitted edits) and against ``src/`` of the
git revision REV, exported into a temporary directory with ``git archive``.
Each command runs in its own empty directory, so the relative paths that
artifacts echo are the same on both sides. Stdout, stderr, the exit code and
every file the command leaves in its directory are compared byte for byte.
Prints one line per command, ``same`` or ``DIFF`` with what differs, and
exits 1 when any command differs. Under a ``DIFF`` line, each differing JSON
or CSV file, and stdout, gets one more line: the largest absolute difference
between the numbers the two sides print in the same place, and whether any
other token differs. That tells a change in the last digits from a real one.
In JSON files and stdout, the values of keys ending in ``_gap`` (such as the
certified ``f_max_gap``) are reported apart from every other number, so a
moved gap does not hide how far the values moved. The last line counts the
commands that are byte-identical, and the commands whose every difference is
in how equal numbers are spelled (``1`` and ``1.0``, say), the exit code and
stderr the same. The temporary directory is removed at the end; ``tempfile``
places it under TMPDIR.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]

# One step of every kind the evolve command knows.
SCHEDULE = [
    {"type": "channel", "name": "depolarizing", "p": 0.1, "target": 0},
    {"type": "channel", "name": "dephasing", "lambda": 0.3},
    {"type": "channel", "name": "amplitude-damping", "gamma": 0.2, "target": 0},
    {"type": "channel", "name": "random", "kraus_rank": 3, "target": 2},
    {"type": "unitary", "spec": "identity"},
    {"type": "unitary", "spec": "commutant-random"},
    {"type": "unitary", "spec": "local-commutant-random"},
    {"type": "unitary", "spec": "local-random"},
    {"type": "unitary", "spec": "haar-global"},
]


def qutrit_product_state(e: float) -> str:
    """The state file of sqrt(1-2e)|a0,0,0> + sqrt(e)|a1,0,1> + sqrt(e)|a2,0,2>,
    a0 = (|0>+|2>)/sqrt2, a1 = |1>, a2 = (|0>-|2>)/sqrt2. Its rho_AB is a
    product whose singlet fraction, (1 - 2e)/3, the d >= 3 search finds and
    certifies at rounding."""
    z = np.eye(3)
    a = [(z[0] + z[2]) / np.sqrt(2), z[1], (z[0] - z[2]) / np.sqrt(2)]
    v = sum(np.sqrt(p) * np.kron(np.kron(a[c], z[0]), z[c])
            for c, p in enumerate((1 - 2 * e, e, e)))
    return json.dumps({"dims": [3, 3, 3],
                       "matrix": [[[x, 0.0] for x in row] for row in np.outer(v, v).tolist()]})


def cloner_state() -> str:
    """The state file of the optimal universal 1 -> 2 qubit cloner (Bužek and
    Hillery, PRA 54, 1844, 1996) on B of a Bell pair on AB, copying into C:
    (2/3)(I ⊗ P_sym)(Phi_AB ⊗ I_C)(I ⊗ P_sym), P_sym the symmetric projector
    on BC. Both q2 readings profile it to (0.5, 0.5, 0)."""
    phi = np.outer(*2 * [np.eye(2).reshape(4) / np.sqrt(2)])
    p_sym = np.kron(np.eye(2), (np.eye(4) + np.eye(4)[[0, 2, 1, 3]]) / 2)
    m = 2 / 3 * p_sym @ np.kron(phi, np.eye(2)) @ p_sym
    return json.dumps({"dims": [2, 2, 2],
                       "matrix": [[[x, 0.0] for x in row] for row in m.tolist()]})


INPUTS = {"schedule.json": json.dumps(SCHEDULE), "qutrit_product.json": qutrit_product_state(1e-2),
          "cloner.json": cloner_state()}

COMMANDS = [
    "check all --trials 40 --channels 5 --seed 7 --out out",
    "check T1 C3 T2 --dims 3,3,3 --trials 4 --channels 3 --out out",
    "check T1 C3 T2 --dims 3,3,3 --trials 4 --channels 3 --generator diag:1,1,-2 --out out",
    # Stream 81 needs the certificate and the Haar fallback, inside a stack.
    "check T1 --dims 3,3,3 --trials 82 --seed 7 --out out",
    "check C3 --trials 4 --seed 1 --out out",
    "check C3 --trials 4 --seed 1 --strict --out out",
    # The exit path of every check's verdict: T2's and A2's findings exit 1.
    "check all --trials 3 --channels 2 --strict --out out",
    # Negative tolerances force a violation in every hard check.
    "check C1 C3 T2 A2 --trials 3 --channels 3 --tol extremal=-1 --tol q3_mono=-1"
    " --tol traj=-1 --tol mi=-1 --out out",
    "check T1 C2 C3 T2 --sampler ginibre-mixed --trials 6 --channels 3 --out out",
    "check T1 C2 C3 T2 --sampler ginibre-mixed --rank 2 --trials 6 --channels 3 --out out",
    "check T1 C2 C3 T2 --sampler named-family --family werner --trials 6 --channels 3 --out out",
    "check T1 C2 C3 T2 --sampler named-family --family w --trials 3 --channels 3 --out out",
    # Trivial B and C factors: profile's floor-fidelity branches.
    "check T1 C3 T2 --dims 2,1,2 --trials 3 --channels 2 --out out",
    "check T1 C3 T2 --dims 2,2,1 --trials 3 --channels 2 --out out",
    # C2's (2,2,2) anchor pair, then sampled pairs of the family's (2,1,2).
    "check C2 C3 T2 --sampler named-family --family bell-ac --dims 2,1,2 --trials 4"
    " --channels 2 --out out",
    # A family of d_A = 3 under --dims of the same d_A, as the config requires.
    "check T1 C3 T2 --sampler named-family --family classical:3 --dims 3,1,3 --trials 2"
    " --channels 2 --out out",
    "profile --family classical:3",
    # A d >= 3 search whose relaxation is tight and whose value is known.
    "profile --state qutrit_product.json",
    "profile --family w --out w.json",
    "profile --family ghz",
    # The cloner's rho_A is I/2, so the two q2 readings agree on it.
    "profile --state cloner.json",
    "profile --state cloner.json --q2-mode singlet-ac",
    "profile --family werner:0.8 --q2-mode singlet-ac",
    # The monogamy q2 reading on every sampled check; exits 0, as the singlet
    # fraction of rho_AC is invariant under u_A ⊗ u_C (T2's local family).
    "check T1 C2 C3 T2 A2 --q2-mode singlet-ac --trials 40 --channels 3 --seed 7 --out out",
    "sweep werner --out werner.csv",
    "sweep depolarize-bell --grid 0:1:11",
    "sweep gibbs-beta --grid 0:2:11 --coupling 0.5",
    "evolve --family w --schedule schedule.json --out w.csv",
    # A bad --generator exits 2, with an error that names the option.
    "profile --family w --generator bogus",
    "sweep werner --grid 0:1:3 --generator diag:1,1",
    "evolve --family w --schedule schedule.json --generator bogus",
]


# A number as the artifacts print it; the text between numbers is compared as is.
NUMBER = re.compile(rb"(-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|Infinity)|NaN)")


# The text before a number printed as the value of a JSON key ending in _gap.
GAP_KEY = re.compile(rb'_gap"\s*:\s*$')


def numeric_diff(a: bytes, b: bytes, gaps: bool) -> tuple[str, bool]:
    """The largest absolute difference between the numbers at the same place
    in a and b, and whether the rest of the text differs; with ``gaps``, the
    values of ``*_gap`` keys are reported apart from the other numbers. Also
    whether a and b print equal numbers (``1`` equals ``1.0``) among the
    same other tokens."""
    pa, pb = NUMBER.split(a), NUMBER.split(b)
    same_text = len(pa) == len(pb) and pa[::2] == pb[::2]
    if not same_text:
        return "other tokens differ", False
    moved = gap_moved = 0.0
    for before, x, y in zip(pa[::2], pa[1::2], pb[1::2]):
        if x == y:
            continue
        if gaps and GAP_KEY.search(before):
            gap_moved = max(gap_moved, abs(float(x) - float(y)))
        else:
            moved = max(moved, abs(float(x) - float(y)))
    in_gaps = f" ({gap_moved:.3g} in *_gap keys)" if gaps else ""
    return (f"max |difference| {moved:.3g}{in_gaps}, other tokens same",
            moved == gap_moved == 0)


def export_src(rev: str, dest: Path) -> Path:
    """Write ``src/`` of revision ``rev`` under ``dest``; return its path."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=REPO,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def run(src: Path, command: str, cwd: Path) -> dict:
    """Run one command in the empty directory ``cwd``; return what it left."""
    cwd.mkdir(parents=True)
    for name, text in INPUTS.items():
        (cwd / name).write_text(text, encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "qirc.cli", *command.split()],
                          cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True)
    files = {str(p.relative_to(cwd)): p.read_bytes()
             for p in sorted(cwd.rglob("*")) if p.is_file()}
    return {"stdout": proc.stdout, "stderr": proc.stderr,
            "exit code": proc.returncode, **files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    differ = unequal = 0
    with tempfile.TemporaryDirectory(prefix="qirc-parity-") as tmp:
        base = export_src(args.rev, Path(tmp) / "rev")
        for k, command in enumerate(COMMANDS):
            here = run(REPO / "src", command, Path(tmp) / "here" / str(k))
            there = run(base, command, Path(tmp) / "there" / str(k))
            diffs = [key for key in dict.fromkeys([*here, *there])
                     if here.get(key) != there.get(key)]
            differ += bool(diffs)
            status = f"DIFF ({', '.join(diffs)})" if diffs else "same"
            print(f"{status:<6} exit {here['exit code']}  qirc {command}", flush=True)
            equal = True
            for key in diffs:
                if key == "stdout" or key.endswith((".json", ".csv")):
                    diff, same = numeric_diff(here.get(key, b""), there.get(key, b""),
                                              gaps=not key.endswith(".csv"))
                    print(f"         {key}: {diff}", flush=True)
                    equal &= same
                else:
                    equal = False
            unequal += not equal
    print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} commands byte-identical "
          f"with {args.rev}, {len(COMMANDS) - unequal} of {len(COMMANDS)} equal in "
          f"every number")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

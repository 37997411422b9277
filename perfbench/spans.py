"""Traced run of one ``qirc`` command, in process.

    python3 perfbench/spans.py SPAN_FILE -- <qirc arguments>

Wraps the public functions of each qirc module listed in ``TRACED`` at every
name a caller can look them up by (module attributes, names other modules
bound at import, and methods on their classes), then calls
``qirc.cli.main`` with the given arguments. Each call records a span: a
name, a start and an end in nanoseconds, and the index of the enclosing
span (-1 at the top). Spans stay in memory and are written to SPAN_FILE as
JSON lines once the command returns. The process exits with the command's
exit code.

``aggregate`` turns a span file into per-name call counts, total self time
(duration minus the time covered by child spans) and inclusive durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute path, span name). Methods are named by "Class.method".
TRACED = (
    ("resources", "profile", "resources.profile"),
    ("resources", "fully_entangled_fraction", "resources.fully_entangled_fraction"),
    ("resources", "induced_transfer_channel", "resources.induced_transfer_channel"),
    ("resources", "quantum_fisher_information", "resources.quantum_fisher_information"),
    ("resources", "von_neumann_entropy", "resources.von_neumann_entropy"),
    ("channels", "apply", "channels.apply"),
    ("channels", "choi", "channels.choi"),
    ("channels", "kraus_from_choi", "channels.kraus_from_choi"),
    ("channels", "covariant_channel", "channels.covariant_channel"),
    ("states", "haar_pure", "states.haar_pure"),
    ("states", "DensityMatrix.__post_init__", "states.validate"),
    ("states", "DensityMatrix.marginal", "states.marginal"),
    ("states", "Seed.rng", "states.seed_rng"),
    ("linalg", "partial_trace", "linalg.partial_trace"),
    ("linalg", "psd_power", "linalg.psd_power"),
    ("linalg", "kron", "linalg.kron"),
    ("dynamics", "evolve", "dynamics.evolve"),
    ("dynamics", "sample_commutant_unitary", "dynamics.sample_commutant_unitary"),
    ("dynamics", "commuting_local_unitary", "dynamics.commuting_local_unitary"),
    ("serialize", "dumps", "serialize.dumps"),
    ("serialize", "csv_lines", "serialize.csv_lines"),
    ("serialize", "state_to_dict", "serialize.state_to_dict"),
    ("claims", "run_check", "claims.run_check"),
    ("cli", "main", "cli.main"),
)
SPAN_NAMES = tuple(name for _, _, name in TRACED)


class Tracer:
    """Span recorder. Calls are synchronous, so a stack gives each parent."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent]
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for name, start, end, parent in self.spans:
                fp.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function; return the span names that had no target."""
    modules = {m: importlib.import_module(f"qirc.{m}")
               for m in {m for m, _, _ in TRACED}}
    everywhere = [mod for name, mod in sys.modules.items()
                  if name == "qirc" or name.startswith("qirc.")]
    missing = []
    for module, path, name in TRACED:
        owner = modules[module]
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append(name)
            continue
        wrapped = tracer.wrap(name, original)
        if classes:
            setattr(owner, attr, wrapped)
            continue
        for mod in everywhere:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return missing


def aggregate(path: str) -> dict:
    """Per span name: calls, total self time (ns) and inclusive durations (ns)."""
    with open(path, "r", encoding="utf-8") as fp:
        spans = [json.loads(line) for line in fp]
    covered = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end_ns"] - s["start_ns"]
    out: dict = {}
    for s, child in zip(spans, covered):
        dur = s["end_ns"] - s["start_ns"]
        entry = out.setdefault(s["name"], {"calls": 0, "self_ns": 0, "durations": []})
        entry["calls"] += 1
        entry["self_ns"] += dur - child
        entry["durations"].append(dur)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py SPAN_FILE -- <qirc arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    missing = install(tracer)
    if missing:
        print(f"not traced (absent): {', '.join(missing)}", file=sys.stderr)
    from qirc import cli
    try:
        return cli.main(argv[2:])
    finally:
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line surface.

Subcommands: profile (one state -> JSON), sweep (family grid -> CSV),
check (claim campaigns -> JSON reports plus CSV point clouds), evolve
(state + schedule -> trajectory CSV).

Exit codes: 0 success, 1 hard-assertion or strict-mode violation,
2 input or usage error. Every artifact embeds the full run configuration
and reproduces byte for byte when rerun with the same configuration.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

import numpy as np

from . import __version__, claims, dynamics, families, linalg, resources, serialize, states
from .channels import amplitude_damping, apply, dephasing, depolarizing, random_channel
from .claims import CampaignConfig, resolve_generator
from .linalg import MAX_DIM
from .resources import ProfileConfig


def _parse_tolerances(entries) -> dict:
    out = {}
    for entry in entries or []:
        name, _, value = entry.partition("=")
        if not value:
            raise ValueError(f"expected NAME=VALUE, got {entry!r}")
        out[name] = float(value)
    return out


def _load_input_state(args) -> states.DensityMatrix:
    if getattr(args, "state", None):
        return serialize.load_state(args.state)
    if getattr(args, "family", None):
        return families.build(args.family)
    raise ValueError("provide --state FILE or --family NAME")


def _config_echo(args, subcommand: str, keys) -> dict:
    return {"tool": "qirc", "version": __version__, "subcommand": subcommand,
            **{key: getattr(args, key.replace("-", "_")) for key in keys}}


def _write_text(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _named(option: str, make):
    try:
        return make()
    except ValueError as exc:
        raise ValueError(f"{option}: {exc}") from exc


def _profile_config(args, d_a: int) -> ProfileConfig:
    g = _named(f"--generator {args.generator}", lambda: resolve_generator(args.generator, d_a))
    return ProfileConfig(generator=g, q2_mode=args.q2_mode)


# ---------------------------------------------------------------------------
# profile


def cmd_profile(args) -> int:
    state = _load_input_state(args)
    prof = resources.profile(state, _profile_config(args, state.dims[0]))
    echo = _config_echo(args, "profile",
                        ["family", "state", "q2_mode", "generator"])
    doc = {**prof.to_dict(), "generator": args.generator, "config": echo}
    _write_text(args.out, serialize.dumps(doc))
    return 0


# ---------------------------------------------------------------------------
# sweep

# Each sweep family: its state at one grid value, given the --coupling.
SWEEPS = {
    "werner": lambda value, coupling: families.build(f"werner:{value}"),
    "depolarize-bell": lambda value, coupling: apply(depolarizing(2, value),
                                                     states.bell_spectator(), 0),
    "gibbs-beta": lambda value, coupling: families.build(f"gibbs:{value}:{coupling}"),
}
SWEEP_HEADER = ("param", "q1", "q2", "q3", "norm", "q1_raw", "q2_raw",
                "f_max", "f_tele", "f_trans", "f_q", "f_q_max")


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ValueError(f"--grid expects START:STOP:COUNT, got {spec!r}") from exc
    if not 2 <= count <= MAX_DIM:
        raise ValueError(f"--grid COUNT must be in 2..{MAX_DIM}, got {count}")
    return np.linspace(start, stop, count)


def cmd_sweep(args) -> int:
    grid = _parse_grid(args.grid)
    echo = _config_echo(args, "sweep",
                        ["family", "grid", "coupling", "q2_mode", "generator"])
    grid_states = [SWEEPS[args.family](float(value), args.coupling) for value in grid]
    profs = resources.profiles(grid_states, _profile_config(args, grid_states[0].dims[0]))
    rows = [(float(v), p.q1, p.q2, p.q3, p.norm,
             *(getattr(p.breakdown, k) for k in SWEEP_HEADER[5:]))
            for v, p in zip(grid, profs)]
    lines = serialize.csv_lines(SWEEP_HEADER, rows,
                                comments=[f"config: {serialize.dumps_compact(echo)}"])
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# check

def _campaign_config(args) -> CampaignConfig:
    # Each error names its option; a d_A of 1, which no generator acts on, is an error of --dims.
    # Tolerances and dims come first, so the first config is built on the run's dims and generator.
    tolerances = _named("--tol", lambda: claims.check_tolerances(_parse_tolerances(args.tol)))
    try:
        dims = tuple(int(d) for d in args.dims.split(","))
    except ValueError:  # linalg.check_dims rejects what int() cannot read, as in a state file
        _named(f"--dims {args.dims}", lambda: linalg.check_dims(args.dims.split(","), 0))
    dims = _named(f"--dims {args.dims}", lambda: claims.check_campaign_dims(dims))
    _named(f"--dims {args.dims}", lambda: resolve_generator("default", dims[0]))
    cfg = _named(f"--generator {args.generator}", lambda: CampaignConfig(
        tolerances=tolerances, trials=args.trials, dims=dims, q2_mode=args.q2_mode,
        channels_per_state=args.channels, generator=args.generator))
    for option, fields in [(f"--seed {args.seed}", {"seed": args.seed}),
                           ("--family", {"sampler": args.sampler, "family": args.family}),
                           (f"--rank {args.rank}", {"ginibre_rank": args.rank})]:
        cfg = _named(option, lambda: CampaignConfig(**{**vars(cfg), **fields}))
    return cfg


def cmd_check(args) -> int:
    requested = list(args.claims) or ["all"]
    shorts = (list(claims.CHECK_ORDER) if any(c.lower() == "all" for c in requested)
              else [claims.normalize_claim_id(c) for c in requested])
    cfg = _campaign_config(args)
    for short in shorts:  # each claim's settings are checked before the first artifact
        _named(f"--dims {args.dims}", lambda: claims.check_claim_dims(short, cfg.dims[0]))
        _named(f"--trials {args.trials}", lambda: cfg.n_trials(short))
    if "C3" in shorts:
        _named(f"--channels {args.channels}", cfg.n_channels)
    echo = _config_echo(args, "check",
                        ["claims", "sampler", "trials", "dims", "q2_mode",
                         "generator", "seed", "family", "rank", "channels",
                         "strict", "tol"])
    echo["campaign"] = cfg.to_dict()
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    texts, exit_code = [], 0
    for short in shorts:
        report, cloud = claims.run_check(short, cfg)
        doc = report.to_dict()
        doc["config"] = echo
        texts.append(serialize.dumps(doc))
        summary = (f"{report.claim_id}: {report.verdict} "
                   f"(violations {report.violations}/{report.trials}, "
                   f"report-only {report.report_only_violations})")
        print(summary, file=sys.stderr)
        if out_dir:
            (out_dir / f"{report.claim_id}.json").write_text(texts[-1], encoding="utf-8")
            if cloud is not None:
                rows = [tuple(r.values()) for r in cloud]
                lines = serialize.csv_lines(
                    claims.CLOUD_HEADER, rows,
                    comments=[f"config: {serialize.dumps_compact(echo)}"])
                (out_dir / f"{report.claim_id}.cloud.csv").write_text(
                    "\n".join(lines) + "\n", encoding="utf-8")
        if report.verdict == "violated" or args.strict and (
                report.violations > 0 or report.report_only_violations > 0):
            exit_code = 1
    # serialize.dumps(docs) from the texts: in the list, every line of a doc
    # after the first is indented one more level (JSON strings hold no newline).
    sys.stdout.write("[\n" + ",\n".join("  " + t[:-1].replace("\n", "\n  ")
                                         for t in texts) + "\n]\n")
    return exit_code


# ---------------------------------------------------------------------------
# evolve


def _number(entry: dict, key: str, default, index: int, whole: bool = True):
    value = entry.get(key, default)
    # not isinstance(value, int): a bool is an int, and JSON true is not a number
    if not (type(value) is int or isinstance(value, float) and (value.is_integer() or not whole)):
        kind = "a whole number" if whole else "a number"
        raise ValueError(f"schedule step {index}: {key} must be {kind}, got {value!r}")
    if not whole and type(value) is int and abs(value) > sys.float_info.max:  # float() overflows
        raise ValueError(f"schedule step {index}: {key} is too large for a float")
    return int(value) if whole else float(value)


def _schedule_step(entry: dict, index: int, rho_dims, generator, master: int):
    if not isinstance(entry, dict) or "type" not in entry:
        raise ValueError(f"schedule step {index} must be an object with a 'type'")
    kind = entry["type"]
    stream = _number(entry, "seed", 9_000_000 + index, index)
    if stream < 0:
        raise ValueError(f"schedule step {index}: seed must be >= 0, got {stream}")
    seed = states.Seed(master, stream)
    if kind == "channel":
        name = entry.get("name")
        target = _number(entry, "target", 0, index)
        if not 0 <= target < len(rho_dims):
            raise ValueError(f"schedule step {index}: target {target} out of range "
                             f"for dims {tuple(rho_dims)}")
        # A one-parameter channel: its parameter's key and its constructor.
        makers = {"depolarizing": ("p", lambda x: depolarizing(int(rho_dims[target]), x)),
                  "dephasing": ("lambda", lambda x: dephasing(x, generator)),
                  "amplitude-damping": ("gamma", amplitude_damping)}
        if isinstance(name, str) and name in makers:
            key, make = makers[name]
            if key not in entry:
                raise ValueError(f"schedule step {index}: channel {name!r} needs {key!r}")
            strength = _number(entry, key, None, index, whole=False)
            ch, label = make(strength), f"{name}({key}={entry[key]})@{target}"
        elif name == "random":
            rank = _number(entry, "kraus_rank", 2, index)
            d = int(rho_dims[target])
            ch = random_channel(d, d, rank, seed)
            label = f"random(rank={rank},seed={stream})@{target}"
        else:
            raise ValueError(f"schedule step {index}: unknown channel {name!r}")
        return label, (ch, target)
    if kind == "unitary":
        spec = entry.get("spec")
        dims = tuple(int(d) for d in rho_dims)
        if spec == "identity":
            return "identity", dynamics.UnitaryOperator(np.eye(int(np.prod(dims))))
        if spec == "commutant-random":
            u = dynamics.sample_commutant_unitary(generator, dims, seed)
            return f"commutant-random(seed={stream})", u
        if spec in ("local-commutant-random", "local-random"):
            if spec == "local-random":
                u_a = states.haar_unitary(dims[0], seed)
            else:
                u_a = dynamics.commuting_local_unitary(generator, seed)
            u_bc = [states.haar_unitary(dims[k], states.Seed(master, stream + k))
                    for k in (1, 2)]
            return f"{spec}(seed={stream})", dynamics.local_product_unitary(u_a, *u_bc)
        if spec == "haar-global":
            u = dynamics.UnitaryOperator(states.haar_unitary(int(np.prod(dims)), seed))
            return f"haar-global(seed={stream})", u
        raise ValueError(f"schedule step {index}: unknown unitary spec {spec!r}")
    raise ValueError(f"schedule step {index}: unknown type {kind!r}")


def cmd_evolve(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed {args.seed}: seed must be >= 0, got {args.seed}")
    state = _load_input_state(args)
    entries = serialize.load_json(args.schedule)
    if not isinstance(entries, list):
        raise ValueError("schedule must be a JSON list of steps")
    cfg = _profile_config(args, state.dims[0])
    schedule = [_schedule_step(e, i, state.dims, cfg.generator, args.seed)
                for i, e in enumerate(entries)]
    traj = dynamics.trajectory(state, schedule, cfg)
    echo = _config_echo(args, "evolve",
                        ["family", "state", "schedule", "q2_mode", "generator", "seed"])
    rows = [(k, label, p.q1, p.q2, p.q3, p.norm)
            for k, (label, p) in enumerate(traj.steps)]
    lines = serialize.csv_lines(
        ("step", "label", "q1", "q2", "q3", "norm"), rows,
        comments=[f"config: {serialize.dumps_compact(echo)}",
                  f"monotone: {serialize.dumps_compact(traj.monotone)}"])
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q2-mode", choices=resources.Q2_MODES,
                   default="transfer")
    p.add_argument("--generator", default="default",
                   help="default | sigma-z | diag:v1,v2,...")
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qirc",
        description="Resource coordinates (q1, q2, q3) for tripartite quantum "
                    "states, and claim falsification campaigns.")
    parser.add_argument("--version", action="version", version=f"qirc {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("profile", help="profile one state")
    p.add_argument("--family", default=None,
                   help=f"one of: {families.KNOWN}")
    p.add_argument("--state", default=None, help="state JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("sweep", help="profile a one-parameter family over a grid")
    p.add_argument("family", choices=list(SWEEPS))
    p.add_argument("--grid", default="0:1:21", help="START:STOP:COUNT")
    p.add_argument("--coupling", type=float, default=1.0,
                   help="pair coupling for gibbs-beta")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", help="run claim checks")
    p.add_argument("claims", nargs="*", default=["all"],
                   help="claim ids (T1 C1 C2 C3 T2 A2 or full names) or 'all'")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--sampler", choices=claims.SAMPLERS, default="haar-pure")
    p.add_argument("--family", default=None, help="family for the named-family sampler")
    p.add_argument("--dims", default="2,2,2")
    p.add_argument("--rank", type=int, default=None, help="ginibre sampler rank")
    p.add_argument("--channels", type=int, default=20,
                   help="channels per state in the monotonicity campaign")
    p.add_argument("--strict", action="store_true",
                   help="report-only findings also set exit code 1")
    p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE")
    p.add_argument("--seed", type=int, default=7, help="master seed")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("evolve", help="run a schedule and emit the trajectory")
    p.add_argument("--family", default=None)
    p.add_argument("--state", default=None)
    p.add_argument("--schedule", required=True, help="schedule JSON file")
    p.add_argument("--seed", type=int, default=7, help="master seed")
    _add_common(p)
    p.set_defaults(func=cmd_evolve)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry. What the imports made lives until exit anyway: frozen,
    no later collection walks it, at exit included. main leaves collection alone."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()

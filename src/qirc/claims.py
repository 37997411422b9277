"""Falsification harness: each structural claim becomes a seeded, tolerance-
parameterized check that emits a ClaimReport.

Two verdict tiers keep mathematics and conjecture apart. Hard-assertion
checks (extremal anchors, q3 monotonicity under generator-covariant
channels, the local conservation family, the mutual-information bound)
report ``holds-within-tolerance`` or ``violated``. Report-only checks (ball
membership, convexity of mixtures, q1, q3 and norm increases under
Haar-random channels, global commutant drift, the heuristic entropy bounds)
always report ``report-only`` or sit in a hard check's
``report_only_violations``; their violations are findings, not failures.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import channels, dynamics, families, linalg, resources, serialize, states
from .generators import (CoherenceGenerator, default_generator,
                         diagonal_generator, sigma_z_generator)
from .resources import ProfileConfig, ResourceProfile, profiles
from .states import DensityMatrix, Seed
from .tolerances import (EPS_BALL, EPS_EXTREMAL, EPS_MI, EPS_MONO_REPORT,
                         EPS_Q1_MONO, EPS_Q3_MONO, EPS_TRAJ)

CLAIM_IDS = {
    "T1": "T1.ball",
    "C1": "C1.extremal",
    "C2": "C2.convexity",
    "C3": "C3.monotonicity",
    "T2": "T2.conservation",
    "A2": "A2.entropic",
}
CHECK_ORDER = ("C1", "T1", "C2", "C3", "T2", "A2")
SAMPLERS = ("haar-pure", "ginibre-mixed", "named-family")

DEFAULT_TOLERANCES = {
    "extremal": EPS_EXTREMAL,
    "ball": EPS_BALL,
    "q1_mono": EPS_Q1_MONO,
    "q3_mono": EPS_Q3_MONO,
    "mono_report": EPS_MONO_REPORT,
    "traj": EPS_TRAJ,
    "mi": EPS_MI,
}

DEFAULT_TRIALS = {
    "C1": 0,       # fixed anchor list, no sampling
    "T1": 1000,
    "C2": 100,     # state pairs
    "C3": 200,     # states (each hit by channels_per_state channels)
    "T2": 100,     # local trials; the global family reuses the count
    "A2": 1000,
}

# C2's mixing weights: the endpoints 0 and 1 and three interior mixtures.
LAMBDAS = (0.0, 0.25, 0.5, 0.75, 1.0)

# Stream layout: primary states sit at stream == trial index; derived draws
# (channels, unitaries, pair partners) live in disjoint offset blocks.
_STREAM_CHANNEL = 1_000_003
_STREAM_UA = 2_000_003
_STREAM_UB = 3_000_003
_STREAM_UC = 4_000_003
_STREAM_UG = 5_000_003
_STREAM_PAIR = 6_000_003
_STREAM_COVARIANT = 7_000_003


@functools.cache
def resolve_generator(spec: str, d: int) -> CoherenceGenerator:
    """Generator spec strings: 'default', 'sigma-z', 'diag:v1,v2,...'. Each
    (spec, d) is built and checked once; the read-only generator is shared."""
    if spec == "default":
        return default_generator(d)
    if spec == "sigma-z":
        if d != 2:
            raise ValueError(f"sigma-z generator needs d_A = 2, got {d}")
        return sigma_z_generator()
    if spec.startswith("diag:"):
        values = [float(x) for x in spec[len("diag:"):].split(",")]
        if len(values) != d:
            raise ValueError(f"diag generator has {len(values)} entries for d_A = {d}")
        return diagonal_generator(values)
    raise ValueError(f"unknown generator spec {spec!r}")


@dataclass
class CampaignConfig:
    """Sampling plan and tolerances for one check run."""

    sampler: str = "haar-pure"          # haar-pure | ginibre-mixed | named-family
    trials: int | None = None           # per-check default when None
    dims: tuple[int, ...] = (2, 2, 2)
    q2_mode: str = "transfer"
    generator: str = "default"
    seed: int = 7
    family: str | None = None           # named-family sampler target
    ginibre_rank: int | None = None
    channels_per_state: int = 20
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, value in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                known = ", ".join(sorted(DEFAULT_TOLERANCES))
                raise ValueError(f"unknown tolerance {name!r}; known: {known}")
            if not math.isfinite(float(value)):
                raise ValueError(f"tolerance {name} must be finite, got {value!r}")
        d = linalg.check_size(math.prod(self.dims), "the campaign dims")
        resources.check_profile_dims(self.dims, d)
        self.profile_config()  # the generator and the q2 mode
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}")
        # a setting the sampler never reads would be echoed by every artifact
        if self.family is not None and self.sampler != "named-family":
            raise ValueError(f"the {self.sampler} sampler reads no family")
        if self.ginibre_rank is not None:
            if self.sampler != "ginibre-mixed":
                raise ValueError(f"the {self.sampler} sampler reads no rank")
            if not 1 <= self.ginibre_rank <= d:
                raise ValueError(f"ginibre rank must lie in 1..{d}, got {self.ginibre_rank}")
        if self.sampler == "named-family":
            if not self.family:
                raise ValueError("the named-family sampler needs a family name")
            # the generator and C3's channels act on the d_A of dims
            d_a = _family_state(self, 0, 1).dims[0]
            if d_a != self.dims[0]:
                raise ValueError(f"family {self.family!r} has d_A = {d_a}, "
                                 f"the dims have d_A = {self.dims[0]}")

    def tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def n_trials(self, check: str) -> int:
        n = DEFAULT_TRIALS[check] if self.trials is None else int(self.trials)
        if n < 1 and check != "C1":
            raise ValueError(f"trials must be >= 1, got {n}")
        return n

    def n_channels(self) -> int:
        n = int(self.channels_per_state)
        if n < 1:
            raise ValueError(f"channels per state must be >= 1, got {n}")
        return n

    def profile_config(self) -> ProfileConfig:
        return ProfileConfig(generator=resolve_generator(self.generator, self.dims[0]),
                             q2_mode=self.q2_mode)

    def to_dict(self) -> dict:
        return {**asdict(self), "optimizer": resources.optimizer_settings(self.dims[0])}


@dataclass
class ClaimReport:
    claim_id: str
    verdict: str                 # holds-within-tolerance | violated | report-only
    trials: int
    violations: int
    report_only_violations: int
    tolerances: dict
    seed: int
    stats: dict
    worst_case: dict | None

    def to_dict(self) -> dict:
        """The fields, not deep copies: a report's values are built for it alone."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _family_state(cfg: CampaignConfig, trial: int, n_trials: int) -> DensityMatrix:
    """The named-family state of a trial; the Werner weight is trial / (n_trials - 1)."""
    if cfg.family == "werner":
        p = trial / (n_trials - 1) if n_trials > 1 else 1.0
        return families.build(f"werner:{p}")
    return families.build(cfg.family)


def _samples(cfg: CampaignConfig, n: int, pure_only: bool = False, stream_offset: int = 0,
             width: int = 1, per: int = 1):
    """Yield (trials, stack, dims): the states 0..n-1 of n, state k drawn from
    stream stream_offset + k, in stacks of whole groups of ``per`` states, at
    most linalg.MAX_STACK entries with ``width`` states scored per group, each
    checked once where it is drawn (family states where they are built)."""
    sampler = "haar-pure" if pure_only else cfg.sampler
    first = _family_state(cfg, 0, n) if sampler == "named-family" and n else None
    dims = cfg.dims if first is None else first.dims
    d = math.prod(dims)
    for part in linalg.chunks(n // per, d, width):
        trials = range(per * part.start, per * part.stop)
        if first is not None:
            yield trials, np.array([(_family_state(cfg, k, n) if k else first).matrix
                                    for k in trials]), dims
            continue
        seeds = [Seed(cfg.seed, stream_offset + k) for k in trials]
        if sampler == "haar-pure":
            v = np.array([states.haar_ket(d, seed) for seed in seeds])
            stack = v[:, :, None] * v[:, None, :].conj()
        else:
            stack = np.array([states.ginibre_matrix(d, cfg.ginibre_rank or d, seed)
                              for seed in seeds])
        states.check_states(stack, dims)
        yield trials, stack, dims


class _Tally:
    """Values added one at a time: how many exceed ``tol``, their sum, and
    the largest, ``max``, which starts at ``floor``; a tie keeps the first.

    A new maximum added with its state becomes the witness case. The witness
    dict is built once, by ``witness()``, from the stored case; profiles
    among the extra fields are serialized there too.
    """

    def __init__(self, tol: float = np.inf, floor: float = 0.0):
        self.tol, self.count, self.sum, self.max = tol, 0, 0.0, floor
        self._case = None

    def add(self, value: float, state: DensityMatrix | None = None,
            margin: float = 0.0, profile: ResourceProfile | None = None,
            **extra) -> None:
        if value > self.tol:
            self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value
            if state is not None:
                self._case = (state, profile, margin, extra)

    def witness(self) -> dict | None:
        if self._case is None:
            return None
        state, prof, margin, extra = self._case
        out = {"margin": float(margin)}
        out.update((k, v.to_dict() if isinstance(v, ResourceProfile) else v)
                   for k, v in extra.items())
        out["state"] = serialize.state_to_dict(state)
        if prof is not None:
            out["profile"] = prof.to_dict()
        return out


def _report(claim: str, cfg: CampaignConfig, tolerances: tuple[str, ...], trials: int,
            violations: int, report_only: int, stats: dict, worst: _Tally,
            verdict: str | None = None) -> ClaimReport:
    """A check's report, echoing the named tolerances in order and the
    witness of ``worst``. A hard check holds within tolerance when it has no
    violations and is violated otherwise; a finding passes its ``verdict``."""
    verdict = verdict or ("violated" if violations else "holds-within-tolerance")
    return ClaimReport(CLAIM_IDS[claim], verdict, trials, violations, report_only,
                       {name: cfg.tolerance(name) for name in tolerances}, cfg.seed,
                       stats, worst.witness())


# ---------------------------------------------------------------------------
# C1: extremal anchors


def _spectators() -> list[tuple[str, DensityMatrix]]:
    return [
        ("pure", states.basis_state(2, 0)),
        ("mixed", DensityMatrix(np.diag([0.75, 0.25]).astype(complex), (2,))),
        ("maximally-mixed", states.maximally_mixed(2)),
    ]


def _extremal_anchors() -> list[tuple[str, DensityMatrix, tuple[float, float, float]]]:
    anchors = []
    for tag, spec in _spectators():
        anchors.append((f"bell-spectator/{tag}", states.bell_spectator(spec), (1.0, 0.0, 0.0)))
    anchors.append(("bell-ac/trivial-B", states.bell_ac(), (0.0, 1.0, 0.0)))
    for tag, spec in _spectators():
        anchors.append((f"bell-ac/{tag}", states.bell_ac(spec), (0.0, 1.0, 0.0)))
    bc_pure = states.compose_product(states.basis_state(2, 0), states.basis_state(2, 0))
    bc_mixed = states.compose_product(
        DensityMatrix(np.diag([0.75, 0.25]).astype(complex), (2,)),
        DensityMatrix(np.diag([0.6, 0.4]).astype(complex), (2,)))
    bc_max = states.maximally_mixed(4, dims=(2, 2))
    for tag, spec in [("pure", bc_pure), ("mixed", bc_mixed), ("maximally-mixed", bc_max)]:
        anchors.append((f"coherent-spectator/{tag}", states.coherent_spectator(spec),
                        (0.0, 0.0, 1.0)))
    return anchors


def check_extremals(cfg: CampaignConfig) -> ClaimReport:
    """The three axis points are reached by the named anchor families."""
    pc = cfg.profile_config()
    anchors = _extremal_anchors()
    rows = []
    worst = _Tally(cfg.tolerance("extremal"), floor=-1.0)
    for (name, state, target), prof in zip(anchors, profiles([a[1] for a in anchors], pc)):
        dev = max(abs(prof.q1 - target[0]), abs(prof.q2 - target[1]),
                  abs(prof.q3 - target[2]))
        rows.append({"anchor": name, "target": list(target), "q1": prof.q1,
                     "q2": prof.q2, "q3": prof.q3, "norm": prof.norm,
                     "deviation": float(dev)})
        worst.add(dev, state, dev, prof, anchor=name)
    return _report("C1", cfg, ("extremal",), len(anchors), worst.count, 0,
                   {"anchors": rows, "max_deviation": float(worst.max)}, worst)


# ---------------------------------------------------------------------------
# T1: ball membership campaign


def check_qirc_ball(cfg: CampaignConfig) -> tuple[ClaimReport, list[dict]]:
    """Sample states and record where their profiles land relative to the
    unit ball. Report-only: excursions past 1 are findings."""
    tol = cfg.tolerance("ball")
    n = cfg.n_trials("T1")
    pc = cfg.profile_config()
    cloud = []
    violations = []
    worst = _Tally(floor=-1.0)
    for trials, stack, dims in _samples(cfg, n):
        for i, m, prof in zip(trials, stack, resources.profile_batch(stack, dims, pc)):
            b = prof.breakdown
            cloud.append({"trial": i, "stream": i, "q1": prof.q1, "q2": prof.q2,
                          "q3": prof.q3, "norm": prof.norm, "q1_raw": b.q1_raw,
                          "q2_raw": b.q2_raw, "f_max": b.f_max, "f_q": b.f_q})
            if prof.norm > 1.0 + tol:
                violations.append(i)
            worst.add(prof.norm, DensityMatrix._derived(m, dims), prof.norm - 1.0, prof,
                      trial=i, stream=i)
    stats = {"max_norm": float(worst.max), "mean_norm": worst.sum / n,
             "violation_trials": violations}
    return _report("T1", cfg, ("ball",), n, len(violations), len(violations), stats, worst,
                   "report-only"), cloud


# ---------------------------------------------------------------------------
# C2: convexity of mixtures


def check_convexity(cfg: CampaignConfig) -> ClaimReport:
    """Mixtures of in-ball endpoints stay in the ball; endpoint grid values
    reproduce the endpoint profiles exactly. The profile map itself is
    nonlinear, so deviation from the straight segment is informational."""
    tol = cfg.tolerance("ball")
    n_pairs = cfg.n_trials("C2")
    pc = cfg.profile_config()
    w = 2 + len(LAMBDAS)  # a pair is scored as its endpoints and mixtures, in a row
    # The anchor pair is the first chunk. Each later chunk draws its own whole
    # pairs: pair k is endpoints 2k and 2k + 1 of the pair streams.
    anchor = [("anchor", states.bell_spectator(), states.coherent_spectator())]
    sampled = ([(f"sampled[{(trials.start + r) // 2}]",
                 *(DensityMatrix._derived(m, dims) for m in stack[r:r + 2]))
                for r in range(0, len(stack), 2)] for trials, stack, dims in
               _samples(cfg, 2 * (n_pairs - 1), stream_offset=_STREAM_PAIR, width=w, per=2))
    endpoint_mismatches = 0
    ball_violations = 0
    max_segment_dev = 0.0
    worst = _Tally(floor=-1.0)
    for pairs in itertools.chain([anchor], sampled):
        group = []
        for _, rho, sig in pairs:
            mixes = (lam * rho.matrix + (1.0 - lam) * sig.matrix for lam in LAMBDAS)
            group += [rho, sig, *(DensityMatrix._derived(m, rho.dims) for m in mixes)]
        profs = profiles(group, pc)
        for k, (name, _, _) in enumerate(pairs):
            prof_r, prof_s, *prof_mixes = profs[w * k:w * (k + 1)]
            inside = prof_r.norm <= 1.0 + tol and prof_s.norm <= 1.0 + tol
            for lam, mix, prof_m in zip(LAMBDAS, group[w * k + 2:w * (k + 1)], prof_mixes):
                if lam in (0.0, 1.0):
                    ref = prof_r if lam == 1.0 else prof_s
                    if (prof_m.q1, prof_m.q2, prof_m.q3, prof_m.norm) != \
                            (ref.q1, ref.q2, ref.q3, ref.norm):
                        endpoint_mismatches += 1
                    continue
                seg = [lam * a + (1.0 - lam) * b
                       for a, b in zip(prof_r.coords(), prof_s.coords())]
                dev = max(abs(m - s) for m, s in zip(prof_m.coords(), seg))
                max_segment_dev = max(max_segment_dev, dev)
                worst.add(prof_m.norm, mix, prof_m.norm - 1.0, prof_m, pair=name,
                          mixing=float(lam))
                if inside and prof_m.norm > 1.0 + tol:
                    ball_violations += 1
    stats = {"pairs": n_pairs, "lambda_grid": list(LAMBDAS),
             "endpoint_mismatches": endpoint_mismatches, "max_mixture_norm": float(worst.max),
             "max_segment_deviation": float(max_segment_dev)}
    return _report("C2", cfg, ("ball",), n_pairs * len(LAMBDAS), ball_violations,
                   ball_violations, stats, worst,
                   "violated" if endpoint_mismatches else "report-only")


# ---------------------------------------------------------------------------
# C3: monotonicity under channels on A


def _sample_channel(d: int, seed: Seed) -> np.ndarray:
    """Kraus operators [rank, d, d] of a Haar-random channel with Kraus rank
    drawn uniformly from 1..d^2."""
    rng = seed.rng()
    return channels._isometry_kraus(d, d, int(rng.integers(1, d * d + 1)), rng)


def check_monotonicity(cfg: CampaignConfig) -> ClaimReport:
    """Coordinates under channels on A, in two channel families per slot.

    Haar-random channels (Kraus rank uniform in 1..d^2): q1, q3 and norm
    increases are report-only findings. q2 increases are recorded in the
    stats only: they count toward neither ``report_only_violations`` nor the
    witness margin. The fully entangled fraction can grow under a local
    channel (Badziąg et al., PRA 62, 012311, 2000), and no theorem makes q3
    monotone under channels that break the generator's phase symmetry (a
    reset of A to |+><+| takes q3 from 0 to 1).
    Generator-covariant channels: a q3 increase is a hard violation, because
    the Fisher information of the family e^{-iHt} rho_A e^{iHt} cannot grow
    under them (data processing). q3 after such a channel depends on
    Lambda(rho_A) only, so that tier scores the A marginal alone. The witness
    is the largest covariant q3 increase when there is a hard violation, so
    that outranks every report-only finding; otherwise it is the slot of
    largest margin in either family.
    """
    tol_q1, tol_q3, tol_rep = map(cfg.tolerance, ("q1_mono", "q3_mono", "mono_report"))
    n_states, n_ch = cfg.n_trials("C3"), cfg.n_channels()
    pc, d_a = cfg.profile_config(), cfg.dims[0]
    g = pc.generator
    linalg.check_size(d_a ** 3, "a C3 Haar channel's isometry")  # Kraus rank up to d_A^2
    # Increases per coordinate under Haar channels, then under covariant ones.
    incs = {"q1": _Tally(tol_q1), "q3": _Tally(tol_q3), "q2": _Tally(tol_rep),
            "norm": _Tally(tol_rep), "covariant_q3": _Tally(tol_q3)}

    def full_profile(kraus, rows):  # each output's profile, by field name; the witness shows it
        out = channels.apply_batch(kraus, stack[rows], dims, 0)
        profs = resources.profile_batch(np.concatenate([lead, out]), dims, pc)
        befores.extend(profs[:len(lead)])
        return [(vars(p), {"profile_after": p}) for p in profs[len(lead):]]

    def a_q3(kraus, rows):  # q3 of each output's A marginal alone
        _, q3 = resources.fisher_q3(channels.apply_batch(kraus, rho_a[rows], (d_a,), 0), g)
        return [({"q3": float(v)}, {}) for v in q3]

    # The families, scored in this order in each slot: name, stream block, Kraus
    # draw, score (per slot, the coordinates after and the witness fields it adds),
    # the tallies of the increases, the coordinates whose increase past its tally's
    # tol sets the slot's margin, and whether a margin above 0 is a hard violation.
    table = [("haar", _STREAM_CHANNEL, lambda seed: _sample_channel(d_a, seed), full_profile,
              {k: incs[k] for k in ("q1", "q3", "q2", "norm")}, ("q1", "q3", "norm"), False),
             ("covariant", _STREAM_COVARIANT, lambda seed: channels.covariant_kraus(g, seed),
              a_q3, {"q3": incs["covariant_q3"]}, ("q3",), True)]
    margins, hard = _Tally(floor=-np.inf), _Tally(0.0, floor=-np.inf)  # all slots; hard slots
    # Slot s = i * n_ch + j is channel j on state i. linalg.chunks cuts a chunk's
    # states, then its slots, into ranges; a range's states lead the profile stack
    # of its Haar outputs, and one whose slots do not fit beside a state holds it alone.
    for trials, stack, dims in _samples(cfg, n_states, width=1 + n_ch):
        sampled, befores, n = [DensityMatrix._derived(m, dims) for m in stack], [], len(trials)
        rho_a = linalg.partial_trace(stack, dims, [0])
        for part in linalg.chunks(n * (1 + n_ch), math.prod(dims)):
            lead = stack[part.start:min(part.stop, n)]
            part = range(max(part.start, n) - n, max(part.stop, n) - n)  # its slots
            if not part:
                befores += resources.profile_batch(lead, dims, pc)
                continue
            rows = np.arange(part.start, part.stop) // n_ch  # the state of each slot
            slots = [trials.start * n_ch + r for r in part]
            outs = []  # per family: the range's Kraus sets, and its score of each slot
            for _, stream, draw, score, *_ in table:
                kraus = [draw(Seed(cfg.seed, stream + s)) for s in slots]
                outs.append((kraus, score(channels.stack_kraus(kraus), rows)))
            for r, s in enumerate(slots):
                (i, j), state, before = divmod(s, n_ch), sampled[rows[r]], befores[rows[r]]
                for (name, stream, *_, tallies, coords, is_hard), (kraus, out) in zip(table, outs):
                    after, shown = out[r]
                    delta = {k: after[k] - getattr(before, k) for k in tallies}
                    for k, v in delta.items():
                        tallies[k].add(v)
                    margin = max(delta[k] - tallies[k].tol for k in coords)
                    case = dict(trial=i, channel_index=j, channel_family=name, state_stream=i,
                                channel_stream=stream + s, kraus_rank=len(kraus[r]),
                                **{f"{k}_increase": float(v) for k, v in delta.items()},
                                profile_before=before, **shown)
                    for tally in (margins, hard) if is_hard else (margins,):
                        tally.add(margin, state, margin, **case)
    stats = {"states": n_states, "channels_per_state": n_ch,
             **{f"{k}_increases": t.count for k, t in incs.items()},
             **{f"max_{k}_increase": float(t.max) for k, t in incs.items()}}
    return _report("C3", cfg, ("q1_mono", "q3_mono", "mono_report"), n_states * n_ch,
                   hard.count, sum(incs[k].count for k in ("q1", "q3", "norm")), stats,
                   hard if hard.count else margins)


# ---------------------------------------------------------------------------
# T2: conservation under symmetry-preserving unitaries


def check_conservation(cfg: CampaignConfig) -> ClaimReport:
    """Two families, scored on the same states: (a) local products
    u_A ⊗ u_B ⊗ u_C with u_A commuting with the generator (per-coordinate
    invariance asserted); (b) Haar elements of the global commutant of
    generator ⊗ I (drift reported). Each state is sampled and profiled once."""
    tol = cfg.tolerance("traj")
    n = cfg.n_trials("T2")
    pc = cfg.profile_config()
    g = pc.generator
    # Drifts are >= 0; from -inf, a state with zero local drift is a witness.
    local, local_norm, glob = _Tally(tol, floor=-np.inf), _Tally(), _Tally(tol)
    # A chunk of states and their two images is one profile stack: the
    # states, then the local and the global image of each in turn.
    for trials, stack, dims in _samples(cfg, n, width=3):
        sampled = [DensityMatrix._derived(m, dims) for m in stack]
        images = []
        for i, state in zip(trials, sampled):
            u_a = dynamics.commuting_local_unitary(g, Seed(cfg.seed, _STREAM_UA + i))
            u_b = states.haar_unitary(dims[1], Seed(cfg.seed, _STREAM_UB + i))
            u_c = states.haar_unitary(dims[2], Seed(cfg.seed, _STREAM_UC + i))
            u_l = dynamics.local_product_unitary(u_a, u_b, u_c)
            u_g = dynamics.sample_commutant_unitary(g, dims, Seed(cfg.seed, _STREAM_UG + i))
            images += [dynamics.evolve(state, u).matrix for u in (u_l, u_g)]
        profs = resources.profile_batch(np.concatenate([stack, images]), dims, pc)
        rest = iter(profs[len(trials):])
        for i, state, before, after, after_g in zip(trials, sampled, profs, rest, rest):
            drift = max(abs(after.q1 - before.q1), abs(after.q2 - before.q2),
                        abs(after.q3 - before.q3))
            local_norm.add(abs(after.norm - before.norm))
            local.add(drift, state, drift, family="local", trial=i,
                      profile_before=before, profile_after=after)

            d_norm = abs(after_g.norm - before.norm)
            glob.add(d_norm, state, d_norm, family="global", trial=i,
                     unitary_stream=_STREAM_UG + i, profile_before=before,
                     profile_after=after_g)
    stats = {"local_trials": n, "local_max_coord_drift": float(local.max),
             "local_max_norm_drift": float(local_norm.max),
             "global_trials": n, "global_max_drift": float(glob.max),
             "global_mean_abs_drift": glob.sum / n, "global_exceed_count": glob.count}
    # The global witness replaces the local one only when strictly larger.
    return _report("T2", cfg, ("traj",), 2 * n, local.count, glob.count, stats,
                   glob if glob.max > local.max else local)


# ---------------------------------------------------------------------------
# A2: entropic bounds


def check_entropic_bounds(cfg: CampaignConfig) -> ClaimReport:
    """I(A:B) + I(A:C) <= 2 S(A) for pure global states (hard; equality holds
    there) plus two heuristic entropy bounds, recorded report-only:
    q1 + q2 <= 2 S(A)/ln d_A and F_Q <= 4 Var (1 - S(A)/ln d_A)."""
    n = cfg.n_trials("A2")
    pc = cfg.profile_config()
    g = pc.generator
    log_d = float(np.log(cfg.dims[0]))

    mi, h1, h2 = (_Tally(cfg.tolerance("mi"), floor=-np.inf) for _ in range(3))
    anchor = states.compose_product(states.bell_pair(), states.basis_state(2, 0))
    groups = [(["anchor"], anchor.matrix[None], anchor.dims)]
    groups += ((map(str, trials), stack, dims) for trials, stack, dims
               in _samples(cfg, n, pure_only=True))
    for names, stack, dims in groups:
        # each marginal's entropies over the stack; S(A) from rho_A, rho_AB and
        # rho_AC, as three differently rounded matrices
        profs = resources.profile_batch(stack, dims, pc)  # first: it checks g's dimension
        rho_a = linalg.partial_trace(stack, dims, [0])
        s_a, var = resources.entropies(rho_a), resources.variances(rho_a, g)
        i_ab, i_ac = (resources.mutual_informations(linalg.partial_trace(stack, dims, [0, k]),
                                                    (dims[0], dims[k])) for k in (1, 2))
        for name, m, v, s, iab, iac, prof in zip(names, stack, var, s_a, i_ab, i_ac, profs):
            gap = iab + iac - 2.0 * s
            if name == "anchor":
                anchor_gap = abs(gap)
            mi.add(gap, DensityMatrix._derived(m, dims), gap, trial=name, s_a=float(s),
                   i_ab=float(iab), i_ac=float(iac))
            h1.add((prof.q1 + prof.q2) - 2.0 * s / log_d)
            h2.add(prof.breakdown.f_q - 4.0 * v * (1.0 - s / log_d))
    stats = {"max_mi_gap": float(mi.max), "anchor_saturation_gap": float(anchor_gap),
             "q1q2_bound_violations": h1.count, "q1q2_bound_max_excess": float(h1.max),
             "fisher_bound_violations": h2.count, "fisher_bound_max_excess": float(h2.max)}
    return _report("A2", cfg, ("mi",), n + 1, mi.count, h1.count + h2.count, stats, mi)


# ---------------------------------------------------------------------------
# Dispatch


def normalize_claim_id(claim: str) -> str:
    c = claim.strip()
    if c.upper() in CLAIM_IDS:
        return c.upper()
    for short, full in CLAIM_IDS.items():
        if c == full:
            return short
    raise ValueError(
        f"unknown claim {claim!r}; known: {', '.join(CLAIM_IDS.values())}")


_CHECKS = {"C1": check_extremals, "T1": check_qirc_ball, "C2": check_convexity,
           "C3": check_monotonicity, "T2": check_conservation,
           "A2": check_entropic_bounds}


def run_check(claim: str, cfg: CampaignConfig) -> tuple[ClaimReport, list[dict] | None]:
    """Run one check; the T1 campaign also returns its point cloud."""
    short = normalize_claim_id(claim)
    out = _CHECKS[short](cfg)
    return out if short == "T1" else (out, None)

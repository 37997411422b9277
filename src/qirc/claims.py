"""Falsification harness: each structural claim becomes a seeded, tolerance-
parameterized check that emits a ClaimReport, at any d_A with d_A^3 <= MAX_DIM
(C1, C2 and A2 build their anchors at d_A from the generator, ``_anchors``).

Two verdict tiers keep mathematics and conjecture apart: ``CLAIMS`` says, once,
which statements of each claim are hard assertions and which are report-only
findings, and ``_report`` derives every verdict and count from it.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from . import channels, dynamics, families, linalg, resources, serialize, states
from .generators import CoherenceGenerator, default_generator, diagonal_generator
from .resources import ProfileConfig, ResourceProfile, profiles
from .states import DensityMatrix, Seed
from .tolerances import (EPS_BALL, EPS_EXTREMAL, EPS_MI, EPS_MONO_REPORT,
                         EPS_Q1_MONO, EPS_Q3_MONO, EPS_TRAJ)

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
        return default_generator(2)
    if spec.startswith("diag:"):
        values = [float(x) for x in spec[len("diag:"):].split(",")]
        if len(values) != d:
            raise ValueError(f"diag generator has {len(values)} entries for d_A = {d}")
        return diagonal_generator(values)
    raise ValueError(f"unknown generator spec {spec!r}")


def check_tolerances(tolerances: dict) -> dict:
    """Tolerance overrides a campaign takes: known names with finite values."""
    for name, value in tolerances.items():
        if name not in DEFAULT_TOLERANCES:
            known = ", ".join(sorted(DEFAULT_TOLERANCES))
            raise ValueError(f"unknown tolerance {name!r}; known: {known}")
        if not math.isfinite(float(value)):
            raise ValueError(f"tolerance {name} must be finite, got {value!r}")
    return tolerances


def check_campaign_dims(dims: tuple[int, ...]) -> tuple[int, ...]:
    """Campaign dims: at most MAX_DIM in all, dims a profile takes (the generator checks d_A)."""
    return resources.check_profile_dims(
        dims, linalg.check_size(math.prod(dims), "the campaign dims"))


class CampaignConfig:
    """Sampling plan and tolerances for one check run, checked when it is
    built. Its attributes are its settings, set in the order artifacts print
    them (``to_dict``); a config compares and hashes by identity."""

    def __init__(self, sampler: str = "haar-pure", trials: int | None = None,
                 dims: tuple[int, ...] = (2, 2, 2), q2_mode: str = "transfer",
                 generator: str = "default", seed: int = 7, family: str | None = None,
                 ginibre_rank: int | None = None, channels_per_state: int = 20,
                 tolerances: dict | None = None):
        # sampler: one of SAMPLERS; trials: each check's default when None;
        # family: the named-family sampler's target
        self.sampler, self.trials, self.dims, self.q2_mode = sampler, trials, dims, q2_mode
        self.generator, self.seed, self.family = generator, seed, family
        self.ginibre_rank, self.channels_per_state = ginibre_rank, channels_per_state
        self.tolerances = check_tolerances({} if tolerances is None else tolerances)
        d = math.prod(check_campaign_dims(self.dims))
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
        default = CLAIMS[check][2]  # a check whose default count is 0 draws nothing
        n = default if self.trials is None else int(self.trials)
        if n < 1 and default:
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
        return {**vars(self), "optimizer": resources.optimizer_settings(self.dims[0])}


class ClaimReport(NamedTuple):
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
        return self._asdict()


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


def _report(claim: str, cfg: CampaignConfig, trials: int, counts: dict, stats: dict,
            worst: _Tally, broken: bool = False) -> ClaimReport:
    """A check's report from its count of each of the claim's statements in ``CLAIMS``.
    Hard counts sum to ``violations`` (findings do, if no statement is hard), report-only
    ones to ``report_only_violations``; a hard count or a ``broken`` check is ``violated``.
    It echoes each statement's tolerance once, in row order, and the witness of ``worst``."""
    report_id, _, _, statements = CLAIMS[claim]
    hard = [counts[s] for s, (_, is_hard) in statements.items() if is_hard]
    found = sum(counts[s] for s, (_, is_hard) in statements.items() if not is_hard)
    verdict = ("violated" if any(hard) or broken
               else "holds-within-tolerance" if hard else "report-only")
    return ClaimReport(report_id, verdict, trials, sum(hard) if hard else found, found,
                       {tol: cfg.tolerance(tol) for tol, _ in statements.values()},
                       cfg.seed, stats, worst.witness())


# ---------------------------------------------------------------------------
# C1: extremal anchors


def _anchors(g: CoherenceGenerator) -> tuple[DensityMatrix, DensityMatrix]:
    """On C^d, d = g.dim: the maximally entangled pair, which gives q1 = 1 on
    A,B and q2 = 1 on A,C, and the equal superposition of g's extreme
    eigenvectors, which gives q3 = 1 on A."""
    v = g.eigen.vectors
    return states.bell_pair(g.dim), states.ket_projector(v[:, -1] + v[:, 0], (g.dim,))


def _extremal_anchors(g: CoherenceGenerator) -> list[tuple[str, DensityMatrix, tuple]]:
    """Each of g's anchors beside pure, mixed and maximally mixed spectators on C^d (two
    on the q3 anchor's B,C), the A,C pair also beside a trivial B. At d = 2 the mixed
    spectators are diag(0.75, 0.25) and diag(0.6, 0.4)."""
    (pair, coherent), d, k = _anchors(g), g.dim, np.arange(g.dim)
    mixed = [DensityMatrix(np.diag(w).astype(complex), (d,))
             for w in ((2 * (d - k) - 1) / d ** 2, (d + 1 - k) / np.sum(d + 1 - k))]
    spectators = [("pure", *2 * [states.basis_state(d, 0)]), ("mixed", *mixed),
                  ("maximally-mixed", *2 * [states.maximally_mixed(d)])]
    return ([(f"bell-spectator/{tag}", states.compose_product(pair, c), (1.0, 0.0, 0.0))
             for tag, c, _ in spectators]
            + [(f"bell-ac/{tag}", states.bell_ac(b, d), (0.0, 1.0, 0.0))
               for tag, b, _ in [("trivial-B", None, None), *spectators]]
            + [(f"coherent-spectator/{tag}",
                states.compose_product(coherent, states.compose_product(b, c)), (0.0, 0.0, 1.0))
               for tag, b, c in spectators])


def check_extremals(cfg: CampaignConfig) -> ClaimReport:
    """The three axis points are reached at d_A by the generator's anchors
    (``_anchors``), each beside pure, mixed and maximally mixed spectators."""
    pc = cfg.profile_config()
    anchors = _extremal_anchors(pc.generator)
    rows = []
    worst = _Tally(cfg.tolerance("extremal"), floor=-1.0)
    for (name, state, target), prof in zip(anchors, profiles([a[1] for a in anchors], pc)):
        dev = max(abs(prof.q1 - target[0]), abs(prof.q2 - target[1]),
                  abs(prof.q3 - target[2]))
        rows.append({"anchor": name, "target": list(target), "q1": prof.q1,
                     "q2": prof.q2, "q3": prof.q3, "norm": prof.norm,
                     "deviation": float(dev)})
        worst.add(dev, state, dev, prof, anchor=name)
    return _report("C1", cfg, len(anchors), {"anchors": worst.count},
                   {"anchors": rows, "max_deviation": float(worst.max)}, worst)


# ---------------------------------------------------------------------------
# T1: ball membership campaign


# The columns of T1's cloud rows, in the order its CSV prints them.
CLOUD_HEADER = ("trial", "stream", "q1", "q2", "q3", "norm", "q1_raw", "q2_raw", "f_max", "f_q")


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
            cloud.append(dict(zip(CLOUD_HEADER, (i, i, prof.q1, prof.q2, prof.q3, prof.norm,
                                                 b.q1_raw, b.q2_raw, b.f_max, b.f_q))))
            if prof.norm > 1.0 + tol:
                violations.append(i)
            worst.add(prof.norm, DensityMatrix._derived(m, dims), prof.norm - 1.0, prof,
                      trial=i, stream=i)
    stats = {"max_norm": float(worst.max), "mean_norm": worst.sum / n,
             "violation_trials": violations}
    return _report("T1", cfg, n, {"ball": len(violations)}, stats, worst), cloud


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
    (pair, coherent), d = _anchors(pc.generator), cfg.dims[0]
    anchor = [("anchor", states.compose_product(pair, states.maximally_mixed(d)),
               states.compose_product(coherent, states.maximally_mixed(d * d, (d, d))))]
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
    return _report("C2", cfg, n_pairs * len(LAMBDAS), {"mixtures": ball_violations},
                   stats, worst, broken=endpoint_mismatches > 0)


# ---------------------------------------------------------------------------
# C3: monotonicity under channels on A


def _sample_channel(d: int, seed: Seed) -> np.ndarray:
    """Kraus operators [rank, d, d] of a Haar-random channel with Kraus rank
    drawn uniformly from 1..d^2."""
    rng = seed.rng()
    return channels._isometry_kraus(d, d, int(rng.integers(1, d * d + 1)), rng)


def check_monotonicity(cfg: CampaignConfig) -> ClaimReport:
    """Coordinates under channels on A, in two channel families per slot.

    Haar-random channels (Kraus rank uniform in 1..d^2) may raise q1, q3 and the
    norm: the fully entangled fraction can grow under a local channel (Badziąg et
    al., PRA 62, 012311, 2000), and no theorem makes q3 monotone under channels that
    break the generator's phase symmetry (a reset of A to |+><+| takes q3 from 0 to
    1). Their q2 increases are in the stats only, and set no witness margin.
    Generator-covariant channels cannot raise q3: the Fisher information of the
    family e^{-iHt} rho_A e^{iHt} cannot grow under them (data processing). q3 after
    such a channel depends on Lambda(rho_A) only, so that family scores the A
    marginal alone. The witness is the largest covariant q3 increase when there is
    a hard violation, so that outranks every report-only finding; otherwise it is
    the slot of largest margin in either family.
    """
    statements = CLAIMS["C3"][3]
    n_states, n_ch = cfg.n_trials("C3"), cfg.n_channels()
    pc, d_a = cfg.profile_config(), cfg.dims[0]
    g = pc.generator
    # Increases per coordinate under Haar channels, then under covariant ones, each
    # past its statement's tolerance; q2's, in the stats only, past mono_report's.
    incs = {k: _Tally(cfg.tolerance(statements[k][0] if k in statements else "mono_report"))
            for k in ("q1", "q3", "q2", "norm", "covariant_q3")}

    def full_profile(kraus, rows):  # each output's profile, by field name; the witness shows it
        out = channels.apply_batch(kraus, stack[rows], dims, 0)
        profs = resources.profile_batch(np.concatenate([lead, out]), dims, pc)
        befores.extend(profs[:len(lead)])
        return [(p._asdict(), {"profile_after": p}) for p in profs[len(lead):]]

    def a_q3(kraus, rows):  # q3 of each output's A marginal alone
        _, q3 = resources.fisher_q3(channels.apply_batch(kraus, rho_a[rows], (d_a,), 0), g)
        return [({"q3": float(v)}, {}) for v in q3]

    # The families, scored in this order in each slot: name, stream block, Kraus draw,
    # score (per slot, the coordinates after and the witness fields it adds) and the
    # tally of each coordinate's increase, named as its statement in CLAIMS (q2 has
    # none). A family's statements, all of one tier, set the slot's margin.
    table = [("haar", _STREAM_CHANNEL, lambda seed: _sample_channel(d_a, seed), full_profile,
              {k: k for k in ("q1", "q3", "q2", "norm")}),
             ("covariant", _STREAM_COVARIANT, lambda seed: channels.covariant_kraus(g, seed),
              a_q3, {"q3": "covariant_q3"})]
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
                for (name, stream, *_, keys), (kraus, out) in zip(table, outs):
                    after, shown = out[r]
                    delta = {k: after[k] - getattr(before, k) for k in keys}
                    for k, v in delta.items():
                        incs[keys[k]].add(v)
                    stated = [k for k in keys if keys[k] in statements]
                    margin = max(delta[k] - incs[keys[k]].tol for k in stated)
                    case = dict(trial=i, channel_index=j, channel_family=name, state_stream=i,
                                channel_stream=stream + s, kraus_rank=len(kraus[r]),
                                **{f"{k}_increase": float(v) for k, v in delta.items()},
                                profile_before=before, **shown)
                    for tally in (margins, hard) if statements[keys[stated[0]]][1] else (margins,):
                        tally.add(margin, state, margin, **case)
    stats = {"states": n_states, "channels_per_state": n_ch,
             **{f"{k}_increases": t.count for k, t in incs.items()},
             **{f"max_{k}_increase": float(t.max) for k, t in incs.items()}}
    return _report("C3", cfg, n_states * n_ch, {k: incs[k].count for k in statements},
                   stats, hard if hard.count else margins)


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
    return _report("T2", cfg, 2 * n, {"local": local.count, "global": glob.count}, stats,
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
    anchor = states.compose_product(_anchors(g)[0], states.basis_state(g.dim, 0))
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
    return _report("A2", cfg, n + 1, {"mi": mi.count, "q1q2": h1.count, "fisher": h2.count},
                   stats, mi)


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


def run_check(claim: str, cfg: CampaignConfig) -> tuple[ClaimReport, list[dict] | None]:
    """Run one check; the T1 campaign also returns its point cloud."""
    short = normalize_claim_id(claim)
    check_claim_dims(short, cfg.dims[0])
    out = CLAIMS[short][1](cfg)
    return out if short == "T1" else (out, None)


def check_claim_dims(claim: str, d_a: int) -> None:
    """C1, C2 and A2 score anchors on (d_A, d_A, d_A), and C3 draws Haar channels of
    Kraus rank up to d_A^2 from isometries of d_A^3 rows: each needs d_A^3 <= MAX_DIM."""
    if claim in ("C1", "C2", "C3", "A2"):
        linalg.check_size(d_a ** 3, f"the d_A^3 rows of {CLAIM_IDS[claim]}")


# Each claim: its report id, check, default trial count (C2's counts state pairs, C3's
# states, each hit by channels_per_state channels, T2's local trials, which the global
# family reuses) and its statements, {statement: (tolerance name, hard)}, in the order
# its report echoes their tolerances. A hard one is a theorem; a report-only one, a finding.
CLAIMS = {
    "T1": ("T1.ball", check_qirc_ball, 1000, {"ball": ("ball", False)}),
    "C1": ("C1.extremal", check_extremals, 0, {"anchors": ("extremal", True)}),
    "C2": ("C2.convexity", check_convexity, 100, {"mixtures": ("ball", False)}),
    "C3": ("C3.monotonicity", check_monotonicity, 200,
           {"q1": ("q1_mono", False), "q3": ("q3_mono", False), "norm": ("mono_report", False),
            "covariant_q3": ("q3_mono", True)}),
    "T2": ("T2.conservation", check_conservation, 100,
           {"local": ("traj", True), "global": ("traj", False)}),
    "A2": ("A2.entropic", check_entropic_bounds, 1000,
           {"mi": ("mi", True), "q1q2": ("mi", False), "fisher": ("mi", False)}),
}
CLAIM_IDS = {short: claim[0] for short, claim in CLAIMS.items()}

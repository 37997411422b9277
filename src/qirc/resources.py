"""The three operational resource coordinates and the entropy toolbox.

q1: teleportation advantage of rho_AB, from the maximal singlet fraction.
q2: transfer capacity of the state-induced A -> C channel, scored on its
    Choi state exactly like q1 (default mode), or the Uhlmann fidelity of
    the A and C marginals (diagnostic mode).
q3: Fisher-information utility of rho_A for phase estimation along a fixed
    Hermitian generator, normalized by the best pure state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import channels, linalg
from .generators import CoherenceGenerator, default_generator
from .states import DensityMatrix, Seed, _haar_unitary_from_rng
from .tolerances import EPS_PSD, EPS_QFI

# Reference constants for report annotations (qubit teleportation benchmarks
# and the universal-cloner ceiling). None of these enter the q2 score.
F_CLASSICAL_QUBIT = 2.0 / 3.0
F_QUANTUM = 1.0
UNIVERSAL_CLONER_QUBIT = 5.0 / 6.0


def universal_cloner_fidelity(d: int) -> float:
    """Optimal symmetric 1->2 cloner average fidelity, (d+3)/(2(d+1))."""
    return (d + 3) / (2.0 * (d + 1))


@dataclass(frozen=True)
class OptimizerSettings:
    """Multi-start settings for the singlet-fraction search at d >= 3.

    Each start is refined with a monotone polar-projected power iteration:
    each step maximizes the linearized objective over the unitary group,
    which never decreases the true objective. For d = 2 the fraction has a
    closed form and these settings are not used.
    """

    starts: int = 32
    tol: float = 1e-9
    max_iter: int = 400
    seed: int = 20240817


@dataclass(frozen=True)
class FidelityBreakdown:
    """Raw fidelities behind a profile, before clamping."""

    f_max: float
    f_tele: float
    f_trans: float
    f_q: float
    f_q_max: float
    q1_raw: float
    q2_raw: float
    d: int

    def to_dict(self) -> dict:
        return {
            "f_max": self.f_max,
            "f_tele": self.f_tele,
            "f_trans": self.f_trans,
            "f_q": self.f_q,
            "f_q_max": self.f_q_max,
            "q1_raw": self.q1_raw,
            "q2_raw": self.q2_raw,
            "d": self.d,
        }


@dataclass(frozen=True)
class ResourceProfile:
    q1: float
    q2: float
    q3: float
    norm: float
    breakdown: FidelityBreakdown
    q2_mode: str
    generator: CoherenceGenerator

    def coords(self) -> tuple[float, float, float]:
        return (self.q1, self.q2, self.q3)

    def to_dict(self) -> dict:
        return {
            "q1": self.q1,
            "q2": self.q2,
            "q3": self.q3,
            "norm": self.norm,
            "q2_mode": self.q2_mode,
            "breakdown": self.breakdown.to_dict(),
        }


@dataclass(frozen=True)
class EntropyReport:
    """Entropy summary for the A subsystem of a tripartite state (natural log)."""

    s: float
    h_meas: float
    i_ab: float
    i_ac: float
    d_rel: float
    c_coh: float


@dataclass(frozen=True)
class ProfileConfig:
    generator: CoherenceGenerator | None = None
    q2_mode: str = "transfer"
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)


# ---------------------------------------------------------------------------
# Maximal singlet fraction


def _objective_batch(rho: np.ndarray, w_batch: np.ndarray, d: int) -> np.ndarray:
    y = w_batch @ rho.conj()  # rows y_i = (rho @ w_i)^T since rho is Hermitian
    return np.einsum("ij,ij->i", w_batch.conj(), y).real / d


def _polar_batch(g: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(g)
    return u @ vh


def _power_refine(rho: np.ndarray, w0: np.ndarray, d: int,
                  settings: OptimizerSettings) -> tuple[np.ndarray, np.ndarray]:
    """Monotone ascent on f(W) = vec(W)† rho vec(W)/d over unitary W."""
    w = w0.copy()
    vals = _objective_batch(rho, w, d)
    for _ in range(settings.max_iter):
        y = w @ rho.conj()
        w_next = _polar_batch(y.reshape(-1, d, d)).reshape(-1, d * d)
        new_vals = _objective_batch(rho, w_next, d)
        w = w_next
        if float(np.max(new_vals - vals)) <= 1e-14:
            vals = new_vals
            break
        vals = new_vals
    return vals, w


@functools.lru_cache(maxsize=16)
def _haar_starts(d: int, starts: int, seed: int) -> np.ndarray:
    """The fixed Haar starts, one flattened unitary per row, read-only."""
    rng = Seed(seed, 0).rng()
    out = np.array([_haar_unitary_from_rng(d, rng).reshape(d * d)
                    for _ in range(max(0, starts))], dtype=complex)
    out = out.reshape(-1, d * d)
    out.setflags(write=False)
    return out


def _start_batch(rho: np.ndarray, d: int, settings: OptimizerSettings) -> np.ndarray:
    # Spectral hint: the closest maximally entangled state to the dominant
    # eigenvector is given by the polar unitary of its matrix reshape.
    top = linalg.hermitian_eigen(rho).vectors[:, -1].reshape(d, d)
    u, _, vh = np.linalg.svd(top)
    return np.concatenate([np.eye(d, dtype=complex).reshape(1, d * d),
                           (u @ vh).reshape(1, d * d),
                           _haar_starts(d, settings.starts, settings.seed)])


# Columns: the magic basis |Phi+>, i|Phi->, i|Psi+>, |Psi->, each times sqrt(2).
_MAGIC = np.array([[1, 1j, 0, 0],
                   [0, 0, 1j, 1],
                   [0, 0, 1j, -1],
                   [1, -1j, 0, 0]], dtype=complex)
_MAGIC.setflags(write=False)


def fully_entangled_fraction(rho: DensityMatrix,
                             settings: OptimizerSettings | None = None,
                             ) -> tuple[float, np.ndarray]:
    """max_U <Phi+| (U ⊗ I) rho (U ⊗ I)† |Phi+> and the maximizing U.

    d = 2 is exact: the maximally entangled two-qubit states are, up to a
    phase, the real unit vectors x in the magic basis, so the fraction is the
    top eigenvalue of Re(Q† rho Q)/2 (Badziąg et al., PRA 62, 012311, 2000)
    and Q x reshapes to U†. d >= 3 runs a multi-start local maximization over
    one-sided unitaries; the identity and a spectral warm start are always
    included alongside the Haar starts.
    """
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise ValueError(f"expected equal local dims, got {rho.dims}")
    d = rho.dims[0]
    if d == 2:
        vals, vecs = np.linalg.eigh((_MAGIC.conj().T @ rho.matrix @ _MAGIC).real / 2)
        f, w = vals[-1], (_MAGIC @ vecs[:, -1]).reshape(2, 2)
    else:
        settings = settings or OptimizerSettings()
        vals, ws = _power_refine(rho.matrix, _start_batch(rho.matrix, d, settings),
                                 d, settings)
        best = int(np.argmax(vals))
        f, w = vals[best], ws[best].reshape(d, d)
    # W parameterizes U† of the physical rotation.
    return float(min(1.0, f)), linalg.dagger(w)


def teleportation_fidelity(f_max: float, d: int) -> float:
    """(d f + 1)/(d + 1); the qubit case is the familiar (2f + 1)/3."""
    if d < 2:
        raise ValueError(f"local dimension d={d} must be >= 2")
    return (d * f_max + 1.0) / (d + 1.0)


def _clamp01(x: float) -> float:
    return float(min(1.0, max(0.0, x)))


def coord_q1(rho_ab: DensityMatrix,
             settings: OptimizerSettings | None = None) -> tuple[float, float]:
    """Teleportation advantage: raw (d+1) F_tele - d, clamped to [0, 1]."""
    f, _ = fully_entangled_fraction(rho_ab, settings)
    d = rho_ab.dims[0]
    raw = (d + 1) * teleportation_fidelity(f, d) - d
    return _clamp01(raw), float(raw)


def transfer_choi_state(rho_ac: DensityMatrix,
                        support_cutoff: float = EPS_PSD) -> DensityMatrix:
    """Normalized Choi state of the channel A -> C that rho_AC induces.

    ((B ⊗ I) rho_AC (B ⊗ I) + (I - P) ⊗ rho_C) / d_A, with P the support
    projector of rho_A and B = rho_A^{-1/2} on that support: the Choi state of
    the pretty-good recovery L(X) = Tr_A[(B X^T B ⊗ I) rho_AC], X^T the
    transpose in the computational basis, whose input weight outside the
    support is replaced by rho_C. Maximally entangled rho_AC induces the
    identity channel; product states induce replacement with rho_C.
    """
    if len(rho_ac.dims) != 2:
        raise ValueError(f"expected a bipartite state, got dims {rho_ac.dims}")
    d_a, d_c = rho_ac.dims
    w, v = linalg.hermitian_eigen(linalg.partial_trace(rho_ac.matrix, rho_ac.dims, [0]))
    on = w > support_cutoff
    b = (v * np.where(on, np.where(on, w, 1.0) ** -0.5, 0.0)) @ linalg.dagger(v)
    hole = (v * ~on) @ linalg.dagger(v)
    b_c = linalg.kron(b, np.eye(d_c))
    rho_c = linalg.partial_trace(rho_ac.matrix, rho_ac.dims, [1])
    j = b_c @ rho_ac.matrix @ b_c + linalg.kron(hole, rho_c)
    return DensityMatrix(j / d_a, (d_a, d_c))


def induced_transfer_channel(rho_ac: DensityMatrix,
                             support_cutoff: float = EPS_PSD) -> channels.KrausChannel:
    """The state-induced channel A -> C of ``transfer_choi_state``, in Kraus form."""
    choi_state = transfer_choi_state(rho_ac, support_cutoff)
    d_a, d_c = choi_state.dims
    return channels.kraus_from_choi(d_a * choi_state.matrix, d_in=d_a, d_out=d_c,
                                    cutoff=1e-12)


def coord_q2(rho_ac: DensityMatrix, mode: str = "transfer",
             settings: OptimizerSettings | None = None) -> tuple[float, float]:
    """Transfer capacity of rho_AC (or marginal Uhlmann fidelity, diagnostic)."""
    if mode == "transfer":
        if rho_ac.dims[0] != rho_ac.dims[1]:
            raise ValueError(f"transfer mode needs equal local dims, got {rho_ac.dims}")
        return coord_q1(transfer_choi_state(rho_ac), settings)
    if mode == "uhlmann-marginal":
        f = linalg.uhlmann_fidelity(rho_ac.marginal([0]), rho_ac.marginal([1]))
        return _clamp01(f), float(f)
    raise ValueError(f"unknown q2 mode {mode!r}")


# ---------------------------------------------------------------------------
# Fisher information


def quantum_fisher_information(rho: DensityMatrix | np.ndarray,
                               g: CoherenceGenerator) -> float:
    """Spectral formula 2 sum_{ij} (l_i - l_j)^2/(l_i + l_j) |<i|H|j>|^2."""
    m = getattr(rho, "matrix", rho)
    m = linalg.as_complex(m)
    if m.shape != g.h.shape:
        raise ValueError(f"state dim {m.shape} does not match generator {g.h.shape}")
    w, v = np.linalg.eigh((m + linalg.dagger(m)) / 2)
    hp = linalg.dagger(v) @ g.h @ v
    li = w[:, None]
    lj = w[None, :]
    denom = li + lj
    mask = denom > EPS_QFI
    num = (li - lj) ** 2
    ratio = np.where(mask, num / np.where(mask, denom, 1.0), 0.0)
    return float(2.0 * np.sum(ratio * np.abs(hp) ** 2))


def variance(rho: DensityMatrix | np.ndarray, g: CoherenceGenerator) -> float:
    m = getattr(rho, "matrix", rho)
    h = g.h
    mean_sq = float(np.trace(h @ h @ m).real)
    mean = float(np.trace(h @ m).real)
    return mean_sq - mean * mean


def fq_max(g: CoherenceGenerator) -> float:
    """(l_max - l_min)^2, reached by the equal superposition of the extremes."""
    return g.spread ** 2


def coord_q3(rho_a: DensityMatrix, g: CoherenceGenerator) -> float:
    return _clamp01(quantum_fisher_information(rho_a, g) / fq_max(g))


# ---------------------------------------------------------------------------
# Profile assembly


def profile(rho: DensityMatrix, cfg: ProfileConfig | None = None) -> ResourceProfile:
    """Map a tripartite state to its resource coordinates and norm.

    Subsystem layouts: dims (d, d, d) compute all three coordinates; a trivial
    B (d, 1, d) or C (d, d, 1) factor pins the corresponding coordinate to 0
    by convention, with the floor fidelity 1/d^2 recorded in the breakdown.
    """
    cfg = cfg or ProfileConfig()
    if len(rho.dims) != 3:
        raise ValueError(f"profile needs a tripartite state, got dims {rho.dims}")
    d_a, d_b, d_c = rho.dims
    if d_b > 1 and d_b != d_a:
        raise ValueError(f"unsupported dims {rho.dims}: need d_B == d_A or d_B == 1")
    if d_c > 1 and d_c != d_a:
        raise ValueError(f"unsupported dims {rho.dims}: need d_C == d_A or d_C == 1")
    g = cfg.generator or default_generator(d_a)
    if g.dim != d_a:
        raise ValueError(f"generator dimension {g.dim} does not match d_A={d_a}")

    floor = 1.0 / (d_a * d_a)
    if d_b > 1:
        f_ab, _ = fully_entangled_fraction(rho.marginal([0, 1]), cfg.optimizer)
    else:
        f_ab = floor
    f_tele = teleportation_fidelity(f_ab, d_a)
    q1_raw = (d_a + 1) * f_tele - d_a
    q1 = _clamp01(q1_raw)

    if d_c > 1:
        q2, q2_raw = coord_q2(rho.marginal([0, 2]), cfg.q2_mode, cfg.optimizer)
        if cfg.q2_mode == "transfer":
            f_trans = (q2_raw + d_a) / (d_a + 1)
        else:
            f_trans = q2_raw
    else:
        q2_raw = (d_a + 1) * teleportation_fidelity(floor, d_a) - d_a
        q2 = 0.0
        f_trans = teleportation_fidelity(floor, d_a)

    rho_a = rho.marginal([0])
    f_q = quantum_fisher_information(rho_a, g)
    f_q_top = fq_max(g)
    q3 = _clamp01(f_q / f_q_top)

    breakdown = FidelityBreakdown(
        f_max=float(f_ab), f_tele=float(f_tele), f_trans=float(f_trans),
        f_q=float(f_q), f_q_max=float(f_q_top),
        q1_raw=float(q1_raw), q2_raw=float(q2_raw), d=d_a)
    norm = q1 * q1 + q2 * q2 + q3 * q3
    return ResourceProfile(q1=q1, q2=q2, q3=q3, norm=float(norm),
                           breakdown=breakdown, q2_mode=cfg.q2_mode, generator=g)


def resource_norm(p: ResourceProfile) -> float:
    return p.q1 ** 2 + p.q2 ** 2 + p.q3 ** 2


# ---------------------------------------------------------------------------
# Entropy toolbox (natural logarithms throughout)


def _entropy_from_eigs(w: np.ndarray) -> float:
    w = w[w > EPS_PSD]
    return float(-(w * np.log(w)).sum()) if w.size else 0.0


def von_neumann_entropy(rho: DensityMatrix | np.ndarray) -> float:
    m = getattr(rho, "matrix", rho)
    w = np.linalg.eigvalsh(linalg.as_complex(m))
    return max(0.0, _entropy_from_eigs(np.clip(w, 0.0, None)))


def mutual_information(rho: DensityMatrix) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) for a bipartite state."""
    if len(rho.dims) != 2:
        raise ValueError(f"mutual information needs a bipartite state, got {rho.dims}")
    s_a = von_neumann_entropy(rho.marginal([0]))
    s_b = von_neumann_entropy(rho.marginal([1]))
    s_ab = von_neumann_entropy(rho)
    return max(0.0, s_a + s_b - s_ab)


def measurement_entropy(rho: DensityMatrix | np.ndarray, g: CoherenceGenerator) -> float:
    """Shannon entropy of outcomes when measuring in the generator eigenbasis."""
    m = getattr(rho, "matrix", rho)
    v = g.eigen.vectors
    p = np.real(np.einsum("ij,jk,ki->i", linalg.dagger(v), m, v))
    p = np.clip(p, 0.0, None)
    return max(0.0, _entropy_from_eigs(p))


def relative_entropy(rho: DensityMatrix | np.ndarray,
                     sigma: DensityMatrix | np.ndarray) -> float:
    """D(rho || sigma); +inf when rho has weight outside sigma's support."""
    r = linalg.as_complex(getattr(rho, "matrix", rho))
    s = linalg.as_complex(getattr(sigma, "matrix", sigma))
    if r.shape != s.shape:
        raise ValueError(f"dimension mismatch: {r.shape} vs {s.shape}")
    ws, vs = np.linalg.eigh((s + linalg.dagger(s)) / 2)
    probs = np.real(np.einsum("ij,jk,ki->i", linalg.dagger(vs), r, vs))
    outside = float(probs[ws <= EPS_PSD].sum())
    if outside > 1e-9:
        return math.inf
    wr = np.clip(np.linalg.eigvalsh((r + linalg.dagger(r)) / 2), 0.0, None)
    tr_r_log_r = float((wr[wr > EPS_PSD] * np.log(wr[wr > EPS_PSD])).sum())
    keep = ws > EPS_PSD
    tr_r_log_s = float((np.clip(probs[keep], 0.0, None) * np.log(ws[keep])).sum())
    return max(0.0, tr_r_log_r - tr_r_log_s)


def coherence_rel_ent(rho: DensityMatrix | np.ndarray, g: CoherenceGenerator) -> float:
    """Relative entropy of coherence, closed form S(diag(rho)) - S(rho)."""
    return max(0.0, measurement_entropy(rho, g) - von_neumann_entropy(rho))


def entropy_report(rho: DensityMatrix, g: CoherenceGenerator | None = None,
                   sigma: DensityMatrix | None = None) -> EntropyReport:
    """Entropy summary for the A subsystem of a tripartite state."""
    if len(rho.dims) != 3:
        raise ValueError(f"entropy report needs a tripartite state, got {rho.dims}")
    g = g or default_generator(rho.dims[0])
    rho_a = rho.marginal([0])
    d_rel = relative_entropy(rho_a, sigma) if sigma is not None else 0.0
    return EntropyReport(
        s=von_neumann_entropy(rho_a),
        h_meas=measurement_entropy(rho_a, g),
        i_ab=mutual_information(rho.marginal([0, 1])),
        i_ac=mutual_information(rho.marginal([0, 2])),
        d_rel=d_rel,
        c_coh=coherence_rel_ent(rho_a, g),
    )

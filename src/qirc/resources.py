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
from dataclasses import asdict, dataclass

import numpy as np

from . import channels, linalg
from .generators import CoherenceGenerator, default_generator
from .states import DensityMatrix, Seed, _haar_unitary_from_rng
from .tolerances import EPS_CERT, EPS_KRAUS, EPS_OPT, EPS_PSD, EPS_QFI

# The singlet-fraction search at d >= 3: the identity and spectral starts,
# each refined for at most MAX_ITER steps (the stop gain is EPS_OPT), then a
# dual certificate of at most CERT_STEPS descent steps; the HAAR_STARTS Haar
# starts, drawn from a fixed seed, run only when the certified gap exceeds
# EPS_CERT. Where 32 leave a gap, 1,024 raise f by under 1e-12.
HAAR_STARTS = 32
MAX_ITER = 400
CERT_STEPS = 50
START_SEED = 20240817


@dataclass(frozen=True)
class FidelityBreakdown:
    """Raw fidelities behind a profile, before clamping.

    ``f_max_gap`` and ``f_choi_gap`` are the certified gaps of the two
    singlet-fraction searches, on rho_AB and on the q2 Choi state: each true
    fraction lies within its gap above the value found. They are 0.0 where
    the value is exact (d = 2, a trivial factor, the Uhlmann q2 mode).
    """

    f_max: float
    f_tele: float
    f_trans: float
    f_q: float
    f_q_max: float
    q1_raw: float
    q2_raw: float
    d: int
    f_max_gap: float
    f_choi_gap: float

    def to_dict(self) -> dict:
        return asdict(self)


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
class ProfileConfig:
    generator: CoherenceGenerator | None = None
    q2_mode: str = "transfer"


# ---------------------------------------------------------------------------
# Maximal singlet fraction


def _polar_batch(g: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(g)
    return u @ vh


def _power_refine(rho: np.ndarray, w0: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Monotone ascent on f(W) = vec(W)† rho vec(W)/d over unitary W, one start
    per row of w0; returns each start's final value and W."""
    rho_t = rho.conj()  # rows of w @ rho_t are (rho vec w)^T since rho is Hermitian
    w = w0
    y = w @ rho_t
    vals = np.einsum("ij,ij->i", w.conj(), y).real / d
    for _ in range(MAX_ITER):
        w = _polar_batch(y.reshape(-1, d, d)).reshape(-1, d * d)
        y = w @ rho_t
        new_vals = np.einsum("ij,ij->i", w.conj(), y).real / d
        gain = float(np.max(new_vals - vals))
        vals = new_vals
        if gain <= EPS_OPT:
            break
    return vals, w


@functools.lru_cache(maxsize=16)
def _haar_starts(d: int, n: int) -> np.ndarray:
    """The first n fixed Haar starts, one flattened unitary per row, read-only."""
    rng = Seed(START_SEED, 0).rng()
    out = np.array([_haar_unitary_from_rng(d, rng).reshape(d * d)
                    for _ in range(n)], dtype=complex)
    out = out.reshape(-1, d * d)
    out.setflags(write=False)
    return out


def _start_batch(rho: np.ndarray, d: int) -> np.ndarray:
    """The identity and the spectral start, one flattened unitary per row."""
    # Spectral hint: the closest maximally entangled state to the dominant
    # eigenvector is given by the polar unitary of its matrix reshape. rho is
    # a state, possibly a derived one such as the q2 Choi state, whose
    # rounding is not re-checked; only its Hermitian part is read.
    top = np.linalg.eigh((rho + linalg.dagger(rho)) / 2)[1][:, -1].reshape(d, d)
    u, _, vh = np.linalg.svd(top)
    return np.concatenate([np.eye(d, dtype=complex).reshape(1, d * d),
                           (u @ vh).reshape(1, d * d)])


def _best_refined(rho: np.ndarray, w0: np.ndarray, d: int) -> tuple[float, np.ndarray]:
    """The highest value the starts w0 reach under ``_power_refine``, and its W."""
    vals, ws = _power_refine(rho, w0, d)
    best = int(np.argmax(vals))
    return float(vals[best]), ws[best].reshape(d, d)


def _certified_gap(rho: np.ndarray, w: np.ndarray, d: int) -> float:
    """How far max_W f can lie above f(w): d lambda_max(M(B)), minimized over B.

    The maximum of f(W) = vec(W)† rho vec(W)/d over unitary W is at most that
    of Tr(rho X)/d over X >= 0 whose two partial traces are I, so for any
    Hermitian A and B it is at most Tr A + Tr B + d lambda_max(rho/d - A ⊗ I -
    I ⊗ B). With G = reshape(rho vec w), Lambda = Herm(G w†) and A = Lambda/d
    - w B^T w†, Tr A + Tr B = f(w) and vec w has Rayleigh quotient 0 on
    M(B) = rho/d - A ⊗ I - I ⊗ B, so the bound is f(w) + d lambda_max(M(B))
    with lambda_max >= 0. lambda_max is convex in B: starting at B = 0, each
    step moves B against the top eigenvector's subgradient (w† V V† w)^T -
    (V† V)^T, V its d x d reshape, by the Polyak step toward 0, the value an
    exact relaxation reaches. Every B gives a bound; the smallest is kept,
    plus d^2 machine epsilons for the rounding of f(w) and lambda_max.
    """
    rounding = d * d * np.finfo(float).eps
    # Index order (i, j, k, l) of rho/d reshaped: X ⊗ I adds X[i, k] where
    # j == l, and I ⊗ X adds X[j, l] where i == k.
    eye = np.eye(d)
    on_a, on_b = eye[None, :, None, :], eye[:, None, :, None]
    w_dag = linalg.dagger(w)
    g = (rho @ w.reshape(d * d)).reshape(d, d) @ w_dag
    fixed = ((rho / d).reshape(d, d, d, d)
             - ((g + linalg.dagger(g)) / (2 * d))[:, None, :, None] * on_a)
    b = np.zeros((d, d), dtype=complex)
    gap = np.inf
    for _ in range(CERT_STEPS):
        m = fixed + (w @ b.T @ w_dag)[:, None, :, None] * on_a - on_b * b[None, :, None, :]
        vals, vecs = np.linalg.eigh(m.reshape(d * d, d * d))
        gap = min(gap, d * max(float(vals[-1]), 0.0) + rounding)
        if gap <= EPS_CERT:
            break
        v = vecs[:, -1].reshape(d, d)
        s = (w_dag @ v @ linalg.dagger(v) @ w - linalg.dagger(v) @ v).T
        norm2 = np.vdot(s, s).real
        if not norm2:
            break
        b = b - (vals[-1] / norm2) * s
    return gap


# Columns: the magic basis |Phi+>, i|Phi->, i|Psi+>, |Psi->, each times sqrt(2).
_MAGIC = np.array([[1, 1j, 0, 0],
                   [0, 0, 1j, 1],
                   [0, 0, 1j, -1],
                   [1, -1j, 0, 0]], dtype=complex)
_MAGIC.setflags(write=False)


def optimizer_settings(d: int) -> dict:
    """How ``fully_entangled_fraction`` searches at local dimension d."""
    out = {"starts": HAAR_STARTS, "tol": EPS_OPT, "max_iter": MAX_ITER,
           "seed": START_SEED, "method": "closed-form"}
    if d != 2:
        out.update(method="power+certificate", cert_tol=EPS_CERT, cert_steps=CERT_STEPS)
    return out


def fully_entangled_fraction(rho: DensityMatrix) -> tuple[float, np.ndarray, float]:
    """max_U <Phi+| (U ⊗ I) rho (U ⊗ I)† |Phi+>, the maximizing U, and the
    certified gap: how far the true maximum can lie above the returned value.

    d = 2 is exact (gap 0): the maximally entangled two-qubit states are, up
    to a phase, the real unit vectors x in the magic basis, so the fraction is
    the top eigenvalue of Re(Q† rho Q)/2 (Badziąg et al., PRA 62, 012311,
    2000) and Q x reshapes to U†. d >= 3 refines the identity and a spectral
    warm start by a local maximization over one-sided unitaries and bounds
    the result by ``_certified_gap``. Only when that gap exceeds EPS_CERT are
    the HAAR_STARTS Haar starts refined too; the gap is then the tighter of
    the two bounds, less the best value found.
    """
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise ValueError(f"expected equal local dims, got {rho.dims}")
    d = rho.dims[0]
    m = rho.matrix
    if d == 2:
        vals, vecs = np.linalg.eigh((_MAGIC.conj().T @ m @ _MAGIC).real / 2)
        f, w, gap = vals[-1], (_MAGIC @ vecs[:, -1]).reshape(2, 2), 0.0
    else:
        f, w = _best_refined(m, _start_batch(m, d), d)
        gap = _certified_gap(m, w, d)
        if gap > EPS_CERT and HAAR_STARTS:
            f_haar, w_haar = _best_refined(m, _haar_starts(d, HAAR_STARTS), d)
            if f_haar > f:
                gap = min(f + gap - f_haar, _certified_gap(m, w_haar, d))
                f, w = f_haar, w_haar
    # W parameterizes U† of the physical rotation.
    return float(min(1.0, f)), linalg.dagger(w), float(gap)


def teleportation_fidelity(f_max: float, d: int) -> float:
    """(d f + 1)/(d + 1); the qubit case is the familiar (2f + 1)/3."""
    if d < 2:
        raise ValueError(f"local dimension d={d} must be >= 2")
    return (d * f_max + 1.0) / (d + 1.0)


def _clamp01(x: float) -> float:
    return float(min(1.0, max(0.0, x)))


def _q1_from_fraction(f: float, d: int) -> tuple[float, float]:
    """Teleportation advantage of singlet fraction f: raw (d+1) F_tele - d,
    and that value clamped to [0, 1]."""
    raw = (d + 1) * teleportation_fidelity(f, d) - d
    return _clamp01(raw), float(raw)


def coord_q1(rho_ab: DensityMatrix) -> tuple[float, float]:
    """Teleportation advantage of rho_AB, (clamped, raw)."""
    f, _, _ = fully_entangled_fraction(rho_ab)
    return _q1_from_fraction(f, rho_ab.dims[0])


def transfer_choi_state(rho_ac: DensityMatrix) -> DensityMatrix:
    """Normalized Choi state of the channel A -> C that rho_AC induces.

    ((B ⊗ I) rho_AC (B ⊗ I) + (I - P) ⊗ rho_C) / d_A, with P the support
    projector of rho_A and B = rho_A^{-1/2} on that support: the Choi state of
    the pretty-good recovery L(X) = Tr_A[(B X^T B ⊗ I) rho_AC], X^T the
    transpose in the computational basis, whose input weight outside the
    support is replaced by rho_C. Maximally entangled rho_AC induces the
    identity channel; product states induce replacement with rho_C. A derived
    state: rounding that grows like 1/lambda_min(rho_A) is not re-checked.
    """
    if len(rho_ac.dims) != 2:
        raise ValueError(f"expected a bipartite state, got dims {rho_ac.dims}")
    d_a, d_c = rho_ac.dims
    w, v = linalg.hermitian_eigen(linalg.partial_trace(rho_ac.matrix, rho_ac.dims, [0]))
    on = w > EPS_PSD
    b = (v * np.where(on, np.where(on, w, 1.0) ** -0.5, 0.0)) @ linalg.dagger(v)
    hole = (v * ~on) @ linalg.dagger(v)
    b_c = linalg.kron(b, np.eye(d_c))
    rho_c = linalg.partial_trace(rho_ac.matrix, rho_ac.dims, [1])
    j = b_c @ rho_ac.matrix @ b_c + linalg.kron(hole, rho_c)
    return DensityMatrix._derived(j / d_a, (d_a, d_c))


def induced_transfer_channel(rho_ac: DensityMatrix) -> channels.KrausChannel:
    """The state-induced channel A -> C of ``transfer_choi_state``, in Kraus form."""
    choi_state = transfer_choi_state(rho_ac)
    d_a, d_c = choi_state.dims
    return channels.kraus_from_choi(d_a * choi_state.matrix, d_in=d_a, d_out=d_c,
                                    cutoff=EPS_KRAUS)


def coord_q2(rho_ac: DensityMatrix, mode: str = "transfer") -> tuple[float, float]:
    """Transfer capacity of rho_AC (or marginal Uhlmann fidelity, diagnostic)."""
    if mode == "transfer":
        if rho_ac.dims[0] != rho_ac.dims[1]:
            raise ValueError(f"transfer mode needs equal local dims, got {rho_ac.dims}")
        return coord_q1(transfer_choi_state(rho_ac))
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
    gap_ab = gap_choi = 0.0
    if d_b > 1:
        f_ab, _, gap_ab = fully_entangled_fraction(rho.marginal([0, 1]))
    else:
        f_ab = floor
    f_tele = teleportation_fidelity(f_ab, d_a)
    q1, q1_raw = _q1_from_fraction(f_ab, d_a)

    if d_c == 1:
        _, q2_raw = _q1_from_fraction(floor, d_a)
        q2 = 0.0
        f_trans = teleportation_fidelity(floor, d_a)
    elif cfg.q2_mode == "transfer":
        f_choi, _, gap_choi = fully_entangled_fraction(
            transfer_choi_state(rho.marginal([0, 2])))
        q2, q2_raw = _q1_from_fraction(f_choi, d_a)
        f_trans = (q2_raw + d_a) / (d_a + 1)
    else:
        q2, q2_raw = coord_q2(rho.marginal([0, 2]), cfg.q2_mode)
        f_trans = q2_raw

    rho_a = rho.marginal([0])
    f_q = quantum_fisher_information(rho_a, g)
    f_q_top = fq_max(g)
    q3 = _clamp01(f_q / f_q_top)

    breakdown = FidelityBreakdown(
        f_max=float(f_ab), f_tele=float(f_tele), f_trans=float(f_trans),
        f_q=float(f_q), f_q_max=float(f_q_top),
        q1_raw=float(q1_raw), q2_raw=float(q2_raw), d=d_a,
        f_max_gap=gap_ab, f_choi_gap=gap_choi)
    norm = q1 * q1 + q2 * q2 + q3 * q3
    return ResourceProfile(q1=q1, q2=q2, q3=q3, norm=float(norm),
                           breakdown=breakdown, q2_mode=cfg.q2_mode, generator=g)


# ---------------------------------------------------------------------------
# Entropy toolbox (natural logarithms throughout)


def von_neumann_entropy(rho: DensityMatrix | np.ndarray) -> float:
    m = getattr(rho, "matrix", rho)
    w = np.linalg.eigvalsh(linalg.as_complex(m))
    w = w[w > EPS_PSD]
    return max(0.0, float(-(w * np.log(w)).sum()))


def mutual_information(rho: DensityMatrix) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) for a bipartite state."""
    if len(rho.dims) != 2:
        raise ValueError(f"mutual information needs a bipartite state, got {rho.dims}")
    s_a = von_neumann_entropy(rho.marginal([0]))
    s_b = von_neumann_entropy(rho.marginal([1]))
    s_ab = von_neumann_entropy(rho)
    return max(0.0, s_a + s_b - s_ab)

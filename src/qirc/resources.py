"""The three operational resource coordinates and the entropy toolbox.

q1: teleportation advantage of rho_AB, from the maximal singlet fraction.
q2: transfer capacity of the state-induced A -> C channel, scored on its
    Choi state exactly like q1 (the default ``transfer`` mode), or C's
    teleportation advantage, the q1 map applied to rho_AC (``singlet-ac``).
q3: Fisher-information utility of rho_A for phase estimation along a fixed
    Hermitian generator, normalized by the best pure state.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import linalg
from .generators import CoherenceGenerator, default_generator
from .states import DensityMatrix, Seed, _haar_unitary_from_rng
from .tolerances import EPS_CERT, EPS_NEWTON, EPS_OPT, EPS_PSD, EPS_QFI

# The singlet-fraction search at d >= 3: the spectral start, refined by power
# and Newton steps for at most MAX_ITER steps (the stop gain is EPS_OPT), then
# a dual certificate of at most CERT_STEPS descent steps; the identity and the
# HAAR_STARTS Haar starts, drawn from a fixed seed, run only when the certified
# gap exceeds EPS_CERT.
HAAR_STARTS = 32
MAX_ITER = 400
CERT_STEPS = 50
START_SEED = 20240817


class FidelityBreakdown(NamedTuple):
    """Raw fidelities behind a profile, before clamping.

    ``f_max_gap`` and ``f_choi_gap`` are the certified gaps of the two
    singlet-fraction searches, on rho_AB and on the second searched matrix
    (the q2 Choi state, or rho_AC under ``singlet-ac``): each true fraction
    lies within its gap above the value found. They are 0.0 where the value
    is exact (d = 2, a trivial factor). ``f_trans`` is the teleportation
    fidelity of the second searched matrix.
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


class ResourceProfile(NamedTuple):
    """Fields in the order artifacts print them; a profile compares and hashes by them."""

    q1: float
    q2: float
    q3: float
    norm: float
    q2_mode: str
    breakdown: FidelityBreakdown

    def coords(self) -> tuple[float, float, float]:
        return (self.q1, self.q2, self.q3)

    def to_dict(self) -> dict:
        return {**self._asdict(), "breakdown": self.breakdown._asdict()}


Q2_MODES = ("transfer", "singlet-ac")


class ProfileConfig:
    """The generator of q3 (``default_generator(d_A)`` when None) and the q2
    reading; it compares and hashes by identity."""

    def __init__(self, generator: CoherenceGenerator | None = None, q2_mode: str = "transfer"):
        if q2_mode not in Q2_MODES:
            raise ValueError(f"unknown q2 mode {q2_mode!r}; expected one of {Q2_MODES}")
        self.generator, self.q2_mode = generator, q2_mode


# ---------------------------------------------------------------------------
# Maximal singlet fraction, over a stack of states rho[N, d*d, d*d]


def _polar_batch(g: np.ndarray, d: int) -> np.ndarray:
    """The polar unitary of each flattened d x d matrix of g[..., d*d], flattened."""
    u, _, vh = np.linalg.svd(g.reshape(g.shape[:-1] + (d, d)))
    return (u @ vh).reshape(g.shape)


@functools.lru_cache(maxsize=16)
def _hermitian_basis(d: int) -> np.ndarray:
    """An orthonormal basis E_k of the Hermitian d x d matrices under
    Tr(A B), one flattened matrix per row, read-only."""
    unit = np.eye(d * d, dtype=complex).reshape(d, d, d, d) / np.sqrt(2)  # |j><k|/sqrt(2)
    j, k = np.triu_indices(d, 1)
    out = np.concatenate([np.sqrt(2) * unit[range(d), range(d)], unit[j, k] + unit[k, j],
                          1j * (unit[j, k] - unit[k, j])]).reshape(d * d, -1)
    out.setflags(write=False)
    return out


def _newton_batch(w: np.ndarray, y: np.ndarray, rho_t: np.ndarray, d: int) -> np.ndarray:
    """W (I + iH) for each start w[N, S], whose polar unitary is a saddle-free
    Newton step on f(W e^{iH}): H = sum_k x_k E_k with x = V |Lambda|^-1 V^T g,
    from the gradient g and Hessian V Lambda V^T at H = 0, each |eigenvalue|
    floored at EPS_NEWTON times the largest. y = w @ rho_t: rows of rho vec W."""
    n, s, e = len(w), w.shape[1], _hermitian_basis(d)
    e_cols = e.reshape(-1, d, d).transpose(1, 0, 2).reshape(d, -1)  # [j, (k, l)]: E_k[j, l]
    wm = w.reshape(n, s, d, d)
    p = linalg.dagger(wm) @ y.reshape(n, s, d, d)
    b, pe = ((m @ e_cols).reshape(n, s, d, d * d, d).swapaxes(2, 3).reshape(n, s, d * d, -1)
             for m in (wm, (p + linalg.dagger(p)) / 2))  # row k: vec(W E_k), vec(P E_k)
    # f(W e^{iH}) = f + Re[2i Tr(Y† W H) - Tr(Y† W H^2) + vec(W H)† rho vec(W H)]/d + O(H^3),
    # where Re Tr(Y† W H^2) = Tr(H P H) with P = Herm(W† Y)
    grad = 2 * (b.conj() @ y[..., None]).imag / d
    hess = 2 * (b.conj() @ np.swapaxes(b @ rho_t[:, None], -1, -2)
                - e.conj() @ np.swapaxes(pe, -1, -2)).real / d
    lam, v = np.linalg.eigh(hess)
    scale = np.maximum(np.abs(lam), EPS_NEWTON * np.abs(lam).max(axis=-1, keepdims=True))
    x = v @ np.divide(np.swapaxes(v, -1, -2) @ grad, scale[..., None],
                      out=np.zeros_like(grad), where=scale[..., None] > 0)
    return (wm + 1j * wm @ (x[..., 0] @ e).reshape(n, s, d, d)).reshape(n, s, -1)


def _power_refine(rho: np.ndarray, w0: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Monotone ascent on f(W) = vec(W)† rho vec(W)/d over unitary W from the
    starts w0[N, S, d*d] (or w0[S, d*d], shared), stopped for each state once
    no start gains more than EPS_OPT; each state's best value [N] and W. Each
    step keeps, per start, the highest of W, the polar step W -> polar(mat(rho
    vec W)), which never lowers f, and the Newton step of ``_newton_batch``."""
    rho_t = rho.conj()  # rows of w @ rho_t are (rho vec w)^T since rho is Hermitian
    w = np.array(np.broadcast_to(w0, (len(rho),) + w0.shape[-2:]))
    vals = np.einsum("nij,nij->ni", w.conj(), w @ rho_t).real / d
    live, s = np.arange(len(rho)), w.shape[1]
    for _ in range(MAX_ITER):
        rows = slice(None) if len(live) == len(rho) else live  # no gather while all run
        w_r, r_t = w[rows], rho_t[rows]
        y_r = w_r @ r_t
        steps = np.concatenate([y_r, _newton_batch(w_r, y_r, r_t, d)], 1)
        w_new = np.concatenate([w_r, _polar_batch(steps, d)], 1)
        vals_new = np.einsum("nij,nij->ni", w_new.conj(), w_new @ r_t).real / d
        # per start, the highest of W and its two steps; a tie keeps W
        pick = np.arange(s) + s * np.argmax(vals_new.reshape(len(live), 3, s), axis=1)
        vals_new = np.take_along_axis(vals_new, pick, 1)
        gain = np.max(vals_new - vals[rows], axis=1)
        w[rows], vals[rows] = np.take_along_axis(w_new, pick[..., None], 1), vals_new
        live = live[~(gain <= EPS_OPT)]
        if not len(live):
            break
    rows, best = np.arange(len(rho)), np.argmax(vals, axis=1)
    return vals[rows, best], w[rows, best].reshape(-1, d, d)


@functools.lru_cache(maxsize=16)
def _haar_starts(d: int, n: int) -> np.ndarray:
    """The first n fixed Haar starts, one flattened unitary per row, read-only."""
    rng = Seed(START_SEED, 0).rng()
    out = np.array([_haar_unitary_from_rng(d, rng).reshape(d * d) for _ in range(n)])
    out.setflags(write=False)
    return out


def _start_batch(rho: np.ndarray, d: int) -> np.ndarray:
    """The spectral start of each state, [N, 1, d*d]."""
    # Spectral hint: the closest maximally entangled state to the dominant
    # eigenvector is given by the polar unitary of its matrix reshape. rho is
    # a state, possibly a derived one such as the q2 Choi state, whose
    # rounding is not re-checked; only its Hermitian part is read.
    top = np.linalg.eigh((rho + linalg.dagger(rho)) / 2)[1][..., -1]
    return _polar_batch(top, d)[:, None]


def _certified_gap(rho: np.ndarray, w: np.ndarray, d: int) -> np.ndarray:
    """How far max_W f can lie above f(w): d lambda_max(M(B)), minimized over
    B, for each state of rho[N] and its W, w[N].

    The maximum of f(W) = vec(W)† rho vec(W)/d over unitary W is at most that
    of Tr(rho X)/d over X >= 0 whose two partial traces are I, so for any
    Hermitian A and B it is at most Tr A + Tr B + d lambda_max(rho/d - A ⊗ I -
    I ⊗ B). With G = reshape(rho vec w), Lambda = Herm(G w†) and A = Lambda/d
    - w B^T w†, Tr A + Tr B = f(w) and vec w has Rayleigh quotient 0 on
    M(B) = rho/d - A ⊗ I - I ⊗ B, so the bound is f(w) + d lambda_max(M(B))
    with lambda_max >= 0. lambda_max is convex in B. The descent starts at
    the symmetric split B = (w† Lambda w)^T/(2d), A = Lambda/(2d): the dual
    optimum when rho is pure (Cauchy-Schwarz), and nearer to it than B = 0
    on most other states. Each step moves B against the top eigenvector's
    subgradient (w† V V† w)^T - (V† V)^T, V its d x d reshape, by the Polyak
    step toward 0, the value an exact relaxation reaches. Every B gives a
    bound; the smallest is kept, plus d^2 machine epsilons for the rounding of
    f(w) and lambda_max.
    """
    rounding = d * d * np.finfo(float).eps
    # Index order (i, j, k, l) of rho/d reshaped: X ⊗ I adds X[i, k] where
    # j == l, and I ⊗ X adds X[j, l] where i == k.
    eye = np.eye(d)
    on_a, on_b = eye[None, :, None, :], eye[:, None, :, None]
    w_dag = linalg.dagger(w)
    g = (rho @ w.reshape(-1, d * d, 1)).reshape(-1, d, d) @ w_dag
    lam = (g + linalg.dagger(g)) / 2
    fixed = (rho / d).reshape(-1, d, d, d, d) - (lam / d)[:, :, None, :, None] * on_a
    b = np.swapaxes(w_dag @ lam @ w, -1, -2) / (2 * d)
    gap = np.full(len(rho), np.inf)
    live = np.arange(len(rho))
    for _ in range(CERT_STEPS):
        rows = slice(None) if len(live) == len(rho) else live
        w_l, w_dag_l, b_l = w[rows], w_dag[rows], b[rows]
        wbw = (w_l @ np.swapaxes(b_l, -1, -2) @ w_dag_l)[:, :, None, :, None]
        m = fixed[rows] + wbw * on_a - on_b * b_l[:, None, :, None, :]
        vals, vecs = np.linalg.eigh(m.reshape(-1, d * d, d * d))
        top = vals[:, -1]
        gap[rows] = np.minimum(gap[rows], d * np.maximum(top, 0.0) + rounding)
        v = vecs[:, :, -1].reshape(-1, d, d)
        s = np.swapaxes(w_dag_l @ v @ linalg.dagger(v) @ w_l - linalg.dagger(v) @ v, -1, -2)
        norm2 = np.einsum("nij,nij->n", s.conj(), s).real
        b[rows] = b_l - (top / np.where(norm2 == 0, 1.0, norm2))[:, None, None] * s
        live = live[(gap[rows] > EPS_CERT) & (norm2 != 0)]
        if not len(live):
            break
    return gap


# Columns: the magic basis |Phi+>, i|Phi->, i|Psi+>, |Psi->, each times sqrt(2).
_MAGIC = np.array([[1, 1j, 0, 0],
                   [0, 0, 1j, 1],
                   [0, 0, 1j, -1],
                   [1, -1j, 0, 0]], dtype=complex)
_MAGIC.setflags(write=False)


def optimizer_settings(d: int) -> dict:
    """How ``_singlet_fractions`` searches at local dimension d."""
    if d == 2:
        return {"method": "closed-form"}
    return {"starts": HAAR_STARTS, "tol": EPS_OPT, "max_iter": MAX_ITER, "seed": START_SEED,
            "method": "power-newton+certificate", "cert_tol": EPS_CERT, "cert_steps": CERT_STEPS}


def _singlet_fractions(rho: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """max_U <Phi+| (U ⊗ I) rho (U ⊗ I)† |Phi+> of each state of rho[N], its
    maximizer W = U† and the certified gap: how far the true maximum can lie
    above the returned value.

    d = 2 is exact (gap 0): the maximally entangled two-qubit states are, up
    to a phase, the real unit vectors x in the magic basis, so the fraction is
    the top eigenvalue of Re(Q† rho Q)/2 (Badziąg et al., PRA 62, 012311,
    2000) and Q x reshapes to W. d >= 3 refines a spectral start by
    ``_power_refine`` and bounds the result by ``_certified_gap``; only when
    that gap exceeds EPS_CERT are the identity and the HAAR_STARTS Haar starts
    refined too, and the gap is the tighter bound less the best value.
    """
    if d == 2:
        vals, vecs = np.linalg.eigh((_MAGIC.conj().T @ rho @ _MAGIC).real / 2)
        w = (vecs[..., -1] @ _MAGIC.T).reshape(-1, 2, 2)
        return np.minimum(vals[:, -1], 1.0), w, np.zeros(len(rho))
    f, w = _power_refine(rho, _start_batch(rho, d), d)
    gap = _certified_gap(rho, w, d)
    redo = np.flatnonzero(gap > EPS_CERT)
    if len(redo):  # the identity and the Haar starts, as one shared set
        starts = [np.eye(d, dtype=complex).reshape(1, d * d)]
        starts += [_haar_starts(d, HAAR_STARTS)] if HAAR_STARTS else []
        f_more, w_more = _power_refine(rho[redo], np.concatenate(starts), d)
        up = f_more > f[redo]
        redo, f_more, w_more = redo[up], f_more[up], w_more[up]
        gap[redo] = np.minimum(f[redo] + gap[redo] - f_more,
                               _certified_gap(rho[redo], w_more, d))
        f[redo], w[redo] = f_more, w_more
    return np.minimum(f, 1.0), w, gap


def teleportation_fidelity(f_max, d: int):
    """(d f + 1)/(d + 1); the qubit case is the familiar (2f + 1)/3."""
    if d < 2:
        raise ValueError(f"local dimension d={d} must be >= 2")
    return (d * f_max + 1.0) / (d + 1.0)


def _q1_from_fraction(f, d: int):
    """Teleportation advantage of singlet fraction f: raw (d+1) F_tele - d,
    and that value clamped to [0, 1]."""
    raw = (d + 1) * teleportation_fidelity(f, d) - d
    return np.clip(raw, 0.0, 1.0), raw


def _transfer_choi(rho_ac: np.ndarray, d_a: int, d_c: int) -> np.ndarray:
    """Normalized Choi state of the channel A -> C that each state of
    rho_ac[N] induces.

    ((B ⊗ I) rho_AC (B ⊗ I) + (I - P) ⊗ rho_C) / d_A, with P the support
    projector of rho_A and B = rho_A^{-1/2} on that support: the Choi state of
    the pretty-good recovery L(X) = Tr_A[(B X^T B ⊗ I) rho_AC], X^T the
    transpose in the computational basis, whose input weight outside the
    support is replaced by rho_C. Maximally entangled rho_AC induces the
    identity channel; product states induce replacement with rho_C. The output
    is not re-checked: its rounding grows like 1/lambda_min(rho_A).
    """
    rho_a = linalg.partial_trace(rho_ac, (d_a, d_c), [0])
    w, v = np.linalg.eigh((rho_a + linalg.dagger(rho_a)) / 2)
    on = w > EPS_PSD
    b = (v * np.where(on, np.where(on, w, 1.0) ** -0.5, 0.0)[:, None, :]) @ linalg.dagger(v)
    hole = (v * ~on[:, None, :]) @ linalg.dagger(v)
    # Kronecker products, one per state: (B ⊗ I) and (I - P) ⊗ rho_C.
    b_c = np.einsum("nij,kl->nikjl", b, np.eye(d_c, dtype=complex)).reshape(rho_ac.shape)
    rho_c = linalg.partial_trace(rho_ac, (d_a, d_c), [1])
    j = b_c @ rho_ac @ b_c + np.einsum("nij,nkl->nikjl", hole, rho_c).reshape(rho_ac.shape)
    return j / d_a


# ---------------------------------------------------------------------------
# Fisher information


def fisher_q3(rho_a: np.ndarray, g: CoherenceGenerator) -> tuple[np.ndarray, np.ndarray]:
    """The Fisher information F_Q of each state of rho_a[N] along g's H, by the
    spectral formula 2 sum_{ij} (l_i - l_j)^2/(l_i + l_j) |<i|H|j>|^2, and
    q3 = F_Q / spread^2 clipped to [0, 1]: spread^2 is the largest F_Q,
    reached by the equal superposition of H's extreme eigenvectors."""
    w, v = np.linalg.eigh((rho_a + linalg.dagger(rho_a)) / 2)
    hp = linalg.dagger(v) @ g.h @ v
    li, lj = w[:, :, None], w[:, None, :]
    denom = li + lj
    mask = denom > EPS_QFI
    ratio = np.where(mask, (li - lj) ** 2 / np.where(mask, denom, 1.0), 0.0)
    f_q = 2.0 * np.sum((ratio * np.abs(hp) ** 2).reshape(len(rho_a), -1), axis=1)
    return f_q, np.clip(f_q / g.spread ** 2, 0.0, 1.0)


def variances(m: np.ndarray, g: CoherenceGenerator) -> np.ndarray:
    """Tr(H^2 rho) - Tr(H rho)^2 of each state rho of m[N] along g's H."""
    mean = np.trace(g.h @ m, axis1=1, axis2=2).real
    return np.trace(g.h @ g.h @ m, axis1=1, axis2=2).real - mean * mean


# ---------------------------------------------------------------------------
# Profile assembly


def check_profile_dims(dims: tuple[int, ...], dim: int) -> tuple[int, ...]:
    """The dims a profile takes: three positive whole numbers multiplying to
    dim, with d_B and d_C each equal to 1 or to d_A."""
    if len(dims) != 3:
        raise ValueError(f"profile needs a tripartite state, got dims {dims}")
    dims = linalg.check_dims(dims, dim)
    for name, d in (("B", dims[1]), ("C", dims[2])):
        if d > 1 and d != dims[0]:
            raise ValueError(f"unsupported dims {dims}: need d_{name} == d_A or d_{name} == 1")
    return dims


def profile_batch(rho: np.ndarray, dims: tuple[int, ...],
                  cfg: ProfileConfig | None = None) -> list[ResourceProfile]:
    """Profiles of the checked states rho[N, D, D] on ``dims``, in one pass.

    Row k is bit for bit the profile of state k alone: each step acts on each
    state by itself, and each d >= 3 search stops on its own. A trivial B
    (d, 1, d) or C (d, d, 1) factor pins that coordinate to 0 by convention,
    with the floor fidelity 1/d^2 recorded in the breakdown.
    """
    cfg = cfg or ProfileConfig()
    d_a, d_b, d_c = dims = check_profile_dims(dims, rho.shape[-1])
    g = cfg.generator or default_generator(d_a)
    if g.dim != d_a:
        raise ValueError(f"generator dimension {g.dim} does not match d_A={d_a}")

    n, floor = len(rho), 1.0 / (d_a * d_a)
    searched = [linalg.partial_trace(rho, dims, [0, 1])] if d_b > 1 else []
    if d_c > 1:  # the transfer Choi state of rho_AC, or rho_AC itself under singlet-ac
        rho_ac = linalg.partial_trace(rho, dims, [0, 2])
        searched.append(_transfer_choi(rho_ac, d_a, d_c) if cfg.q2_mode == "transfer" else rho_ac)
    if searched:  # rho_AB and the q2 matrix, as one stack
        f, _, gap = _singlet_fractions(np.concatenate(searched), d_a)
    f_ab, gap_ab = (f[:n], gap[:n]) if d_b > 1 else (floor, 0.0)
    f_tele = teleportation_fidelity(f_ab, d_a)
    q1, q1_raw = _q1_from_fraction(f_ab, d_a)
    # A trivial C gives the floor, clamped to q2 = 0.
    q2, q2_raw = _q1_from_fraction(f[-n:] if d_c > 1 else floor, d_a)
    f_trans = (q2_raw + d_a) / (d_a + 1) if d_c > 1 else teleportation_fidelity(floor, d_a)
    gap_choi = gap[-n:] if d_c > 1 else 0.0

    f_q, q3 = fisher_q3(linalg.partial_trace(rho, dims, [0]), g)
    norm = q1 * q1 + q2 * q2 + q3 * q3
    cols = zip(*(np.broadcast_to(c, n).tolist() for c in (
        q1, q2, q3, norm, f_ab, f_tele, f_trans, f_q, q1_raw, q2_raw, gap_ab, gap_choi)))
    return [ResourceProfile(a, b, c, nm, cfg.q2_mode, FidelityBreakdown(
                fm, ft, fr, fq, g.spread ** 2, r1, r2, d_a, g1, g2))
            for a, b, c, nm, fm, ft, fr, fq, r1, r2, g1, g2 in cols]


def profile(rho: DensityMatrix, cfg: ProfileConfig | None = None) -> ResourceProfile:
    """Map a tripartite state to its resource coordinates and norm: the N = 1
    call of ``profile_batch``."""
    return profile_batch(rho.matrix[None], rho.dims, cfg)[0]


def profiles(group: list[DensityMatrix],
             cfg: ProfileConfig | None = None) -> list[ResourceProfile]:
    """Profiles of the states, one stack per dims, of at most MAX_STACK entries."""
    out = {}
    for dims in dict.fromkeys(state.dims for state in group):
        ks = [k for k, state in enumerate(group) if state.dims == dims]
        for part in linalg.chunks(len(ks), group[ks[0]].dim):
            rows = ks[part.start:part.stop]
            out.update(zip(rows, profile_batch(np.array([group[k].matrix for k in rows]),
                                               dims, cfg)))
    return [out[k] for k in range(len(group))]


# ---------------------------------------------------------------------------
# Entropy toolbox (natural logarithms throughout)


def entropies(m: np.ndarray) -> np.ndarray:
    """The von Neumann entropy of each state of m[N], from one stacked eigvalsh."""
    w = np.linalg.eigvalsh(linalg.as_complex(m))
    return np.array([max(0.0, -(x * np.log(x)).sum()) for x in (r[r > EPS_PSD] for r in w)])


def mutual_informations(m: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """I(A:B) = S(A) + S(B) - S(AB) of each bipartite state of m[N] on dims."""
    s_a, s_b = (entropies(linalg.partial_trace(m, dims, [k])) for k in (0, 1))
    return np.maximum(0.0, s_a + s_b - entropies(m))

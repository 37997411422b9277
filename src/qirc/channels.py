"""CPTP maps in Kraus form: standard noise, random and generator-covariant
channels, Choi duality.

``apply`` and ``choi`` return derived states (``DensityMatrix._derived``):
their operands, the input state and the Kraus channel, were checked when
they were built, so the outputs are not checked again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .generators import CoherenceGenerator, clusters
from .states import DensityMatrix, Seed, _haar_unitary_from_rng, max_entangled_ket
from .tolerances import EPS_CPTP, EPS_PSD


@dataclass(frozen=True)
class KrausChannel:
    """CPTP map rho -> sum_k K_k rho K_k† with sum_k K_k† K_k = I."""

    kraus: tuple[np.ndarray, ...]
    d_in: int
    d_out: int

    def __post_init__(self):
        if not self.kraus:
            raise ValueError("channel needs at least one Kraus operator")
        ops = []
        for k in self.kraus:
            k = linalg.as_complex(k)
            if k.shape != (self.d_out, self.d_in):
                raise ValueError(
                    f"Kraus operator shape {k.shape} does not match "
                    f"({self.d_out}, {self.d_in})")
            k = k.copy()
            k.setflags(write=False)
            ops.append(k)
        total = sum(linalg.dagger(k) @ k for k in ops)
        resid = linalg.frobenius(total - np.eye(self.d_in))
        if resid > EPS_CPTP:
            raise ValueError(f"completeness violated: ||sum K†K - I|| = {resid:.3e}")
        object.__setattr__(self, "kraus", tuple(ops))

    def __call__(self, m: np.ndarray) -> np.ndarray:
        m = linalg.as_complex(m)
        return sum(k @ m @ linalg.dagger(k) for k in self.kraus)


def make_channel(kraus: Sequence[np.ndarray]) -> KrausChannel:
    ops = [linalg.as_complex(k) for k in kraus]
    if not ops:
        raise ValueError("channel needs at least one Kraus operator")
    d_out, d_in = ops[0].shape
    return KrausChannel(tuple(ops), d_in=d_in, d_out=d_out)


def _weyl_operators(d: int) -> list[np.ndarray]:
    """Shift/clock unitaries X^a Z^b; the d=2 case is the Pauli set up to phase."""
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    ops = []
    for a in range(d):
        for b in range(d):
            ops.append(np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
    return ops


def depolarizing(d: int, p: float) -> KrausChannel:
    """rho -> (1-p) rho + p I/d."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength p={p} outside [0, 1]")
    ops = _weyl_operators(d)
    kraus = [np.sqrt(1.0 - p + p / d**2) * ops[0]]
    for w in ops[1:]:
        if p > 0:
            kraus.append(np.sqrt(p / d**2) * w)
    return make_channel(kraus)


def dephasing(lam: float, basis: CoherenceGenerator) -> KrausChannel:
    """Scale off-diagonals in the generator eigenbasis by (1 - lam)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"dephasing strength lambda={lam} outside [0, 1]")
    d = basis.dim
    v = basis.eigen.vectors
    kraus: list[np.ndarray] = []
    if lam < 1.0:
        kraus.append(np.sqrt(1.0 - lam) * np.eye(d, dtype=complex))
    if lam > 0.0:
        for i in range(d):
            col = v[:, i]
            kraus.append(np.sqrt(lam) * np.outer(col, col.conj()))
    return make_channel(kraus)


def amplitude_damping(gamma: float) -> KrausChannel:
    """Standard qubit two-operator damping toward |0>."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping strength gamma={gamma} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return make_channel([k0, k1])


def _isometry_channel(d_in: int, d_out: int, kraus_rank: int,
                      rng: np.random.Generator) -> KrausChannel:
    """Channel from a Haar-random isometry d_in -> d_out * kraus_rank."""
    v = _haar_unitary_from_rng(d_out * kraus_rank, rng)[:, :d_in]
    kraus = tuple(v[i * d_out:(i + 1) * d_out, :] for i in range(kraus_rank))
    return KrausChannel(kraus, d_in=d_in, d_out=d_out)


def random_channel(d_in: int, d_out: int, kraus_rank: int, seed: Seed) -> KrausChannel:
    """Channel from a Haar-random isometry d_in -> d_out * kraus_rank."""
    if kraus_rank < 1:
        raise ValueError(f"kraus_rank {kraus_rank} must be >= 1")
    linalg.check_size(d_out * kraus_rank, "a random channel's isometry")
    return _isometry_channel(d_in, d_out, kraus_rank, seed.rng())


def covariant_channel(g: CoherenceGenerator, seed: Seed) -> KrausChannel:
    """Random channel covariant with the generator's phase group.

    Lambda(e^{-iHt} rho e^{iHt}) = e^{-iHt} Lambda(rho) e^{iHt} for every t:
    the free operations of asymmetry theory, under which the Fisher
    information along H cannot grow. In the eigenbasis of H each Kraus
    operator shifts the charge by one eigenvalue difference omega: a complex
    Gaussian A supported on the entries (m, k) with lambda_m - lambda_k =
    omega. K = A S^{-1/2} with S = sum A†A; S commutes with H, so every K
    keeps its shift. Each nonzero shift draws 0-2 operators and the zero
    shift 1-2, which keeps S invertible and covers degenerate spectra; no
    shift draws more operators than it has entries, so the operators are
    linearly independent and their count is the Kraus rank.
    """
    rng = seed.rng()
    d = g.dim
    tol = g.cluster_tol
    level = np.empty(d)
    for cluster in g.eigenvalue_clusters():
        level[cluster] = g.eigen.values[cluster[0]]
    shift = level[:, None] - level[None, :]
    shifts = np.sort(shift.ravel())
    ops = []
    for w in (shifts[c[0]] for c in clusters(shifts, tol)):
        mask = np.abs(shift - w) <= tol
        top = min(2, int(mask.sum()))
        for _ in range(int(rng.integers(0 if abs(w) > tol else 1, top + 1))):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            ops.append(a * mask)
    s_inv_half = linalg.psd_power(sum(linalg.dagger(a) @ a for a in ops), -0.5)
    v = g.eigen.vectors
    kraus = tuple(v @ a @ s_inv_half @ linalg.dagger(v) for a in ops)
    return KrausChannel(kraus, d_in=d, d_out=d)


def apply(ch: KrausChannel, rho: DensityMatrix, target: int) -> DensityMatrix:
    """Apply the channel to one subsystem, identity elsewhere."""
    if not 0 <= target < len(rho.dims):
        raise ValueError(f"target {target} out of range for dims {rho.dims}")
    if rho.dims[target] != ch.d_in:
        raise ValueError(
            f"channel input dimension {ch.d_in} does not match subsystem "
            f"dimension {rho.dims[target]}")
    left = int(np.prod(rho.dims[:target], dtype=int)) if target > 0 else 1
    right = int(np.prod(rho.dims[target + 1:], dtype=int)) if target + 1 < len(rho.dims) else 1
    eye_l = np.eye(left, dtype=complex)
    eye_r = np.eye(right, dtype=complex)
    out = None
    for k in ch.kraus:
        op = linalg.kron(linalg.kron(eye_l, k), eye_r)
        term = op @ rho.matrix @ linalg.dagger(op)
        out = term if out is None else out + term
    new_dims = tuple(ch.d_out if i == target else d for i, d in enumerate(rho.dims))
    return DensityMatrix._derived(out, new_dims)


def choi(ch: KrausChannel) -> DensityMatrix:
    """(id ⊗ channel) applied to the normalized maximally entangled state,
    on dims (d_in, d_out)."""
    omega = max_entangled_ket(ch.d_in)
    eye = np.eye(ch.d_in, dtype=complex)
    out = None
    for k in ch.kraus:
        w = (linalg.kron(eye, k) @ omega)
        term = np.outer(w, w.conj())
        out = term if out is None else out + term
    return DensityMatrix._derived(out, (ch.d_in, ch.d_out))


def kraus_from_choi(choi_unnormalized: np.ndarray, d_in: int, d_out: int,
                    cutoff: float = EPS_PSD) -> KrausChannel:
    """Extract Kraus operators from sum_ij |i><j| ⊗ L(|i><j|)."""
    eig = linalg.hermitian_eigen(choi_unnormalized)
    kraus = []
    for mu, vec in zip(eig.values, eig.vectors.T):
        if mu > cutoff:
            kraus.append(np.sqrt(mu) * vec.reshape(d_in, d_out).T)
    if not kraus:
        raise ValueError("Choi matrix has empty support")
    return KrausChannel(tuple(kraus), d_in=d_in, d_out=d_out)

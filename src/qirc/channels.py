"""CPTP maps in Kraus form: standard noise, random and generator-covariant
channels.

``apply`` returns a derived state (``DensityMatrix._derived``): its
operands, the input state and the Kraus channel, were checked when they were
built, so the output is not checked again.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import linalg
from .generators import CoherenceGenerator
from .states import DensityMatrix, Seed, _haar_unitary_from_rng
from .tolerances import EPS_CPTP, EPS_PSD


class KrausChannel:
    """CPTP map rho -> sum_k K_k rho K_k† with sum_k K_k† K_k = I, held as one
    read-only stack kraus[R, d_out, d_in]; it compares and hashes by identity."""

    def __init__(self, kraus: Sequence[np.ndarray]):
        ops = [linalg.as_complex(k) for k in kraus]
        if len({k.shape for k in ops}) != 1 or ops[0].ndim != 2:
            raise ValueError("a channel needs one or more Kraus matrices of one shape, "
                             f"got shapes {[k.shape for k in ops]}")
        self.kraus = stack_kraus([np.array(ops)])[0]
        self.kraus.setflags(write=False)

    @property
    def d_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def d_out(self) -> int:
        return self.kraus.shape[1]


def _weyl_operators(d: int) -> list[np.ndarray]:
    """Shift/clock unitaries X^a Z^b; the d=2 case is the Pauli set up to phase."""
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    return [np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            for a in range(d) for b in range(d)]


def depolarizing(d: int, p: float) -> KrausChannel:
    """rho -> (1-p) rho + p I/d."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength p={p} outside [0, 1]")
    ops = _weyl_operators(d)
    rest = [np.sqrt(p / d**2) * w for w in ops[1:]] if p > 0 else []
    return KrausChannel([np.sqrt(1.0 - p + p / d**2) * ops[0]] + rest)


def dephasing(lam: float, basis: CoherenceGenerator) -> KrausChannel:
    """Scale off-diagonals in the generator eigenbasis by (1 - lam)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"dephasing strength lambda={lam} outside [0, 1]")
    d = basis.dim
    v = basis.eigen.vectors
    kraus = [np.sqrt(1.0 - lam) * np.eye(d, dtype=complex)] if lam < 1.0 else []
    if lam > 0.0:
        kraus += [np.sqrt(lam) * np.outer(col, col.conj()) for col in v.T]
    return KrausChannel(kraus)


def amplitude_damping(gamma: float) -> KrausChannel:
    """Standard qubit two-operator damping toward |0>."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping strength gamma={gamma} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel([k0, k1])


def stack_kraus(sets: Sequence[np.ndarray]) -> np.ndarray:
    """The Kraus sets k[R_n, d_out, d_in] as one stack [N, max R_n, d_out, d_in],
    zero-padded to one rank; raises unless every channel is trace preserving."""
    out = np.zeros((len(sets), max(len(k) for k in sets)) + sets[0].shape[1:], dtype=complex)
    for n, k in enumerate(sets):
        out[n, :len(k)] = k
    resid = np.linalg.norm(np.sum(linalg.dagger(out) @ out, axis=1) - np.eye(out.shape[-1]),
                           axis=(-2, -1)).max()
    if not resid <= EPS_CPTP:
        raise ValueError(f"completeness violated: ||sum K†K - I|| = {resid:.3e}")
    return out


def _isometry_kraus(d_in: int, d_out: int, kraus_rank: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Kraus operators [kraus_rank, d_out, d_in] of a Haar-random isometry
    d_in -> d_out * kraus_rank."""
    v = _haar_unitary_from_rng(d_out * kraus_rank, rng)[:, :d_in]
    return v.reshape(kraus_rank, d_out, d_in)


def random_channel(d_in: int, d_out: int, kraus_rank: int, seed: Seed) -> KrausChannel:
    """Channel from a Haar-random isometry d_in -> d_out * kraus_rank."""
    if kraus_rank < 1:
        raise ValueError(f"kraus_rank {kraus_rank} must be >= 1")
    linalg.check_size(d_out * kraus_rank, "a random channel's isometry")
    return KrausChannel(_isometry_kraus(d_in, d_out, kraus_rank, seed.rng()))


def covariant_kraus(g: CoherenceGenerator, seed: Seed) -> np.ndarray:
    """Kraus operators [R, d, d] of a random channel covariant with g's phase group.

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
    ops = []
    for w, mask in g.charge_shifts:
        top = min(2, int(mask.sum()))
        for _ in range(int(rng.integers(0 if abs(w) > g.cluster_tol else 1, top + 1))):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            ops.append(a * mask)
    s = sum(linalg.dagger(a) @ a for a in ops)  # a sum of A†A is PSD: no check is needed
    w, u = np.linalg.eigh((s + linalg.dagger(s)) / 2)
    f = np.where(w > EPS_PSD, np.maximum(w, EPS_PSD) ** -0.5, 0.0)  # 0 off the support
    s_inv_half = (u * f[..., None, :]) @ linalg.dagger(u)
    v = g.eigen.vectors
    return np.array([v @ a @ s_inv_half @ linalg.dagger(v) for a in ops])


def apply_batch(kraus: np.ndarray, rho: np.ndarray, dims: Sequence[int],
                target: int) -> np.ndarray:
    """Channel n of the stack kraus[N, R, d_out, d_in] (``stack_kraus``) on
    subsystem ``target`` of the Hermitian state n of rho[N, D, D] on ``dims``:
    the sum over k of M_k (M_k rho)†, M_k = I ⊗ K_k ⊗ I acting through a
    reshape. Row n is bit for bit channel n on state n alone (the zero pad
    adds last)."""
    dims = linalg.check_dims(dims, rho.shape[-1])
    if not 0 <= target < len(dims):
        raise ValueError(f"target {target} out of range for dims {dims}")
    d_out, d_in = kraus.shape[-2:]
    if dims[target] != d_in:
        raise ValueError(
            f"channel input dimension {d_in} does not match subsystem "
            f"dimension {dims[target]}")
    linalg.check_size(rho.shape[-1] // d_in * d_out, "a channel's output")
    left = math.prod(dims[:target])

    def act(k: np.ndarray, m: np.ndarray) -> np.ndarray:
        """(I_left ⊗ k ⊗ I_right) m for each k[n] and m[n]."""
        n, _, cols = m.shape
        return (k[:, None] @ m.reshape(n, left, d_in, -1)).reshape(n, -1, cols)

    out = None
    for r in range(kraus.shape[1]):
        term = act(kraus[:, r], linalg.dagger(act(kraus[:, r], rho)))
        out = term if out is None else out + term
    return out


def apply(ch: KrausChannel, rho: DensityMatrix, target: int) -> DensityMatrix:
    """Apply the channel to one subsystem, identity elsewhere: the N = 1 call
    of ``apply_batch``."""
    out = apply_batch(ch.kraus[None], rho.matrix[None], rho.dims, target)
    new_dims = tuple(ch.d_out if i == target else d for i, d in enumerate(rho.dims))
    return DensityMatrix._derived(out[0], new_dims)


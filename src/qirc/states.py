"""Density matrices, seeded samplers, and the standard state zoo."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import linalg
from .tolerances import EPS_HERM, EPS_PSD, EPS_TRACE

SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class Seed(NamedTuple):
    """Deterministic RNG address: (master, stream) pins every draw.

    Streams are derived with numpy's SeedSequence spawn keys, so draws for
    stream i are independent of whether streams j < i were ever used.
    """

    master: int
    stream: int = 0

    def rng(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.master, spawn_key=(self.stream,))
        return np.random.default_rng(ss)


def check_states(m: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    """Check that each state of the stack m[N, D, D] on ``dims`` is finite,
    Hermitian, of unit trace and PSD, as ``DensityMatrix`` does for one state
    and with its messages; return the dims as whole numbers."""
    m = linalg.as_complex(m)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"density matrix must be square, got shape {m.shape[1:]}")
    dims = linalg.check_dims(dims, m.shape[-1])
    asym = np.linalg.norm(m - linalg.dagger(m), axis=(1, 2))
    if np.any(asym > EPS_HERM * np.maximum(1.0, np.linalg.norm(m, axis=(1, 2)))):
        raise ValueError("density matrix is not Hermitian within tolerance")
    tr = np.trace(m, axis1=1, axis2=2)
    for t in tr[np.abs(tr - 1.0) > EPS_TRACE][:1]:
        raise ValueError(f"trace {complex(t)} is not 1 within {EPS_TRACE}")
    wmin = np.linalg.eigvalsh((m + linalg.dagger(m)) / 2)[:, 0]
    for w in wmin[wmin < -EPS_PSD][:1]:
        raise ValueError(f"negative eigenvalue {w:.3e} below -{EPS_PSD}")
    return dims


@dataclass(frozen=True)
class DensityMatrix:
    """Quantum state: Hermitian, unit trace, PSD, with subsystem dims.

    Every state that enters qirc (state files, named families, samplers,
    library callers) is checked by ``check_states``, alone as here or in a
    stack. States qirc computes from checked states (marginals, products,
    channel outputs, unitary evolutions, mixtures, Choi states) are built by
    ``_derived`` and are not checked again.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        object.__setattr__(self, "dims", check_states(m[None], self.dims))
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _derived(cls, matrix: np.ndarray, dims: tuple[int, ...]) -> "DensityMatrix":
        """A state computed from checked states: a read-only copy, unchecked."""
        m = np.array(matrix, dtype=complex)
        m.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "matrix", m)
        object.__setattr__(out, "dims", tuple(dims))
        return out

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def marginal(self, keep: Iterable[int]) -> "DensityMatrix":
        keep = sorted(set(int(k) for k in keep))
        reduced = linalg.partial_trace(self.matrix, self.dims, keep)
        return DensityMatrix._derived(reduced, tuple(self.dims[k] for k in keep))

    def reshaped(self, dims: Sequence[int]) -> "DensityMatrix":
        """Same matrix, relabeled subsystem structure."""
        return DensityMatrix._derived(self.matrix, linalg.check_dims(dims, self.dim))


def ket_projector(vec: np.ndarray, dims: Sequence[int]) -> DensityMatrix:
    """|v><v| / <v|v>; v need not be normalized."""
    v = np.asarray(vec, dtype=complex)
    return DensityMatrix(np.outer(v, v.conj()) / np.vdot(v, v).real, tuple(dims))


def basis_state(d: int, i: int) -> DensityMatrix:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return ket_projector(v, (d,))


def plus_state() -> DensityMatrix:
    return ket_projector(np.array([1.0, 1.0]), (2,))


def maximally_mixed(d: int, dims: Sequence[int] | None = None) -> DensityMatrix:
    return DensityMatrix(np.eye(d, dtype=complex) / d, tuple(dims) if dims else (d,))


def max_entangled_ket(d: int) -> np.ndarray:
    """(1/sqrt(d)) sum_i |ii> as a flat vector on a d*d space."""
    return np.eye(d, dtype=complex).reshape(d * d) / np.sqrt(d)


def bell_pair() -> DensityMatrix:
    """Projector onto (|00> + |11>)/sqrt(2)."""
    return ket_projector(np.array([1, 0, 0, 1]), (2, 2))


def werner(p: float) -> DensityMatrix:
    """p |Bell><Bell| + (1-p) I/4 on two qubits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter p={p} outside [0, 1]")
    bell = bell_pair().matrix
    return DensityMatrix(p * bell + (1.0 - p) * np.eye(4) / 4.0, (2, 2))


def ghz() -> DensityMatrix:
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1.0
    return ket_projector(v, (2, 2, 2))


def w_state() -> DensityMatrix:
    v = np.zeros(8, dtype=complex)
    v[1] = v[2] = v[4] = 1.0
    return ket_projector(v, (2, 2, 2))


def gibbs(h_a: np.ndarray, h_b: np.ndarray, h_c: np.ndarray,
          coupling: float, beta: float) -> DensityMatrix:
    """Three-qubit thermal state exp(-beta H)/Z.

    H = H_A + H_B + H_C + coupling * (Z_A Z_B + Z_A Z_C); the pair coupling
    is fixed to sigma_z x sigma_z terms on (A,B) and (A,C).
    """
    if beta < 0:
        raise ValueError(f"inverse temperature beta={beta} must be >= 0")
    terms = []
    eye = np.eye(2, dtype=complex)
    for h in (h_a, h_b, h_c):
        h = linalg.as_complex(h)
        if h.shape != (2, 2):
            raise ValueError("local Hamiltonians must be 2x2 (qubit subsystems)")
        if not linalg.is_hermitian(h):
            raise ValueError("local Hamiltonian is not Hermitian")
        terms.append(h)
    h_total = (
        linalg.kron_all([terms[0], eye, eye])
        + linalg.kron_all([eye, terms[1], eye])
        + linalg.kron_all([eye, eye, terms[2]])
        + coupling * linalg.kron_all([SIGMA_Z, SIGMA_Z, eye])
        + coupling * linalg.kron_all([SIGMA_Z, eye, SIGMA_Z])
    )
    w, v = linalg.hermitian_eigen(h_total)
    # shift by the ground energy so the exponentials stay bounded
    boltz = np.exp(-beta * (w - w[0]))
    rho = (v * (boltz / boltz.sum())) @ linalg.dagger(v)
    return DensityMatrix(rho, (2, 2, 2))


def classical_correlated(d: int) -> DensityMatrix:
    """(1/d) sum_i |i><i|_A x |i><i|_C with a trivial middle subsystem."""
    if d < 2:
        raise ValueError(f"local dimension d={d} must be >= 2")
    linalg.check_size(d * d, f"classical:{d}")
    return DensityMatrix(np.diag(np.eye(d, dtype=complex).reshape(d * d) / d), (d, 1, d))


def compose_product(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    return DensityMatrix._derived(linalg.kron(a.matrix, b.matrix), a.dims + b.dims)


def _haar_unitary_from_rng(d: int, rng: np.random.Generator) -> np.ndarray:
    """QR of a complex Ginibre matrix with the phase-fixed diagonal."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_unitary(d: int, seed: Seed) -> np.ndarray:
    if d < 1:
        raise ValueError(f"dimension d={d} must be >= 1")
    return _haar_unitary_from_rng(d, seed.rng())


def haar_ket(n: int, seed: Seed) -> np.ndarray:
    """Haar-distributed unit ket: normalized complex Gaussian vector."""
    rng = seed.rng()
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # Normalizing the ket rather than the projector keeps sampled states, and
    # so campaign artifacts at d >= 3, bit-identical to earlier versions.
    return v / np.linalg.norm(v)


def haar_pure(dims: Sequence[int], seed: Seed) -> DensityMatrix:
    """Haar-distributed pure state, the projector onto ``haar_ket``."""
    dims = tuple(int(d) for d in dims)
    v = haar_ket(linalg.check_size(int(np.prod(dims)), f"dims {dims}"), seed)
    return DensityMatrix(np.outer(v, v.conj()), dims)


def ginibre_matrix(d: int, rank: int, seed: Seed) -> np.ndarray:
    """GG†/Tr(GG†) for a d x rank complex Gaussian G, unchecked."""
    rng = seed.rng()
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def ginibre_mixed(d: int, rank: int, seed: Seed) -> DensityMatrix:
    """GG†/Tr(GG†) for a d x rank complex Gaussian G."""
    if not 1 <= rank <= d:
        raise ValueError(f"rank {rank} outside [1, {d}]")
    linalg.check_size(d, f"Ginibre dimension {d}")
    return DensityMatrix(ginibre_matrix(d, rank, seed), (d,))


# Tripartite assemblies used by the named families and the claim checks.

def bell_spectator(spectator: DensityMatrix | None = None) -> DensityMatrix:
    """Bell pair on A,B with an uncorrelated spectator on C."""
    if spectator is None:
        spectator = maximally_mixed(2)
    return compose_product(bell_pair(), spectator)


def bell_ac(spectator_b: DensityMatrix | None = None) -> DensityMatrix:
    """Bell pair across A and C; B is a spectator (trivial if omitted)."""
    if spectator_b is None:
        return bell_pair().reshaped((2, 1, 2))
    acb = compose_product(bell_pair(), spectator_b)  # ordering (A, C, B)
    m = linalg.permute_subsystems(acb.matrix, acb.dims, [0, 2, 1])
    return DensityMatrix._derived(m, (2, spectator_b.dim, 2))


def coherent_spectator(spectator_bc: DensityMatrix | None = None) -> DensityMatrix:
    """|+><+| on A with an uncorrelated spectator on B,C."""
    if spectator_bc is None:
        spectator_bc = maximally_mixed(4, dims=(2, 2))
    if len(spectator_bc.dims) == 1:
        raise ValueError("spectator for B,C must carry two subsystem dims")
    return compose_product(plus_state(), spectator_bc)

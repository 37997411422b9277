"""Unitary evolution, commutant sampling, and discrete resource trajectories."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import channels, linalg, resources
from .generators import CoherenceGenerator
from .states import DensityMatrix, Seed, _haar_unitary_from_rng
from .tolerances import EPS_COMMUTANT, EPS_TRAJ, EPS_UNITARY


def _check_unitary(m: np.ndarray) -> np.ndarray:
    m = linalg.as_complex(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"unitary must be square, got shape {m.shape}")
    resid = np.linalg.norm(linalg.dagger(m) @ m - np.eye(m.shape[0]))
    if resid > EPS_UNITARY:
        raise ValueError(f"matrix is not unitary: ||U†U - I|| = {resid:.3e}")
    return m


class UnitaryOperator:
    """A unitary on the whole state: one read-only matrix, checked when built;
    it compares and hashes by identity."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = _check_unitary(matrix).copy()
        self.matrix.setflags(write=False)


def evolve(rho: DensityMatrix, u: UnitaryOperator) -> DensityMatrix:
    """U rho U†."""
    if u.matrix.shape[0] != rho.dim:
        raise ValueError(
            f"unitary dimension {u.matrix.shape[0]} does not match state "
            f"dimension {rho.dim}")
    return DensityMatrix._derived(u.matrix @ rho.matrix @ linalg.dagger(u.matrix),
                                  rho.dims)


def _block_commutant(g: CoherenceGenerator, d_rest: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary commuting with g ⊗ I of dimension d_rest.

    Block-diagonal across the generator's eigenspaces: one independent Haar
    block per eigenvalue, each acting on (eigenspace) ⊗ (the rest). The
    commutator vanishes by construction and is checked to EPS_COMMUTANT.
    """
    v = g.eigen.vectors
    total = g.dim * d_rest
    u = np.zeros((total, total), dtype=complex)
    eye = np.eye(d_rest, dtype=complex)

    def lift(m: np.ndarray) -> np.ndarray:  # m ⊗ I, and m itself where d_rest is 1
        return m if d_rest == 1 else linalg.kron(m, eye)

    for cluster in g.eigenvalue_clusters():
        iso = lift(v[:, cluster])  # (total, r * d_rest) isometry
        block = _haar_unitary_from_rng(len(cluster) * d_rest, rng)
        u += iso @ block @ linalg.dagger(iso)
    lifted = lift(g.h)
    resid = np.linalg.norm(u @ lifted - lifted @ u)
    if resid > EPS_COMMUTANT * max(1.0, np.linalg.norm(lifted)):
        raise AssertionError(f"commutant construction failed: residual {resid:.3e}")
    return u


def commuting_local_unitary(g: CoherenceGenerator, seed: Seed) -> np.ndarray:
    """Haar-random unitary on A commuting with the generator; for a
    non-degenerate spectrum this is a random phase on each eigenvector."""
    return _block_commutant(g, 1, seed.rng())


def sample_commutant_unitary(g: CoherenceGenerator, dims: Sequence[int],
                             seed: Seed) -> UnitaryOperator:
    """Haar-random global unitary commuting with (generator ⊗ I on B,C)."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3:
        raise ValueError(f"expected tripartite dims, got {dims}")
    if dims[0] != g.dim:
        raise ValueError(f"generator dimension {g.dim} does not match d_A={dims[0]}")
    return UnitaryOperator(_block_commutant(g, dims[1] * dims[2], seed.rng()))


def local_product_unitary(u_a: np.ndarray, u_b: np.ndarray,
                          u_c: np.ndarray) -> UnitaryOperator:
    a, b, c = (_check_unitary(m) for m in (u_a, u_b, u_c))
    return UnitaryOperator(linalg.kron(linalg.kron(a, b), c))


# ---------------------------------------------------------------------------
# Trajectories

Step = UnitaryOperator | tuple[channels.KrausChannel, int]


class Trajectory:
    """Profiles before the first step and after each one, with drift flags;
    it compares and hashes by identity."""

    def __init__(self, steps: tuple[tuple[str, resources.ResourceProfile], ...],
                 monotone: dict[str, bool]):
        self.steps, self.monotone = steps, monotone


def trajectory(rho0: DensityMatrix, schedule: Sequence[tuple[str, Step]],
               cfg: resources.ProfileConfig | None = None) -> Trajectory:
    """Profile the state before step 1 and after every scheduled step.

    Schedule entries are (label, step) pairs; a step is a unitary or a
    (channel, target) pair. Monotone flags report whether each coordinate and
    the norm were non-increasing along the whole trajectory within EPS_TRAJ.
    """
    rhos = [rho0]
    for _, step in schedule:
        rhos.append(evolve(rhos[-1], step) if isinstance(step, UnitaryOperator)
                    else channels.apply(step[0], rhos[-1], int(step[1])))
    # one stack per dims, since a channel may change a subsystem's dimension
    records = list(zip(["init"] + [label for label, _ in schedule], resources.profiles(rhos, cfg)))
    flags = {}
    for name in ("q1", "q2", "q3", "norm"):
        series = [getattr(p, name) for _, p in records]
        flags[name] = all(b <= a + EPS_TRAJ for a, b in zip(series, series[1:]))
    return Trajectory(steps=tuple(records), monotone=flags)

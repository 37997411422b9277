"""Hermitian generators defining the coherence task and its symmetry group."""

from __future__ import annotations

import functools

import numpy as np

from . import linalg
from .tolerances import EPS_CLUSTER, EPS_DEGENERATE


class CoherenceGenerator:
    """Fixed Hermitian observable whose eigenbasis is the coherence basis.

    The eigendecomposition is cached because everything downstream (the
    Fisher information task, dephasing, commutant sampling) consumes it.
    ``h`` and both halves of ``eigen`` are read-only, so one generator can
    be shared; it compares and hashes by identity. A fully degenerate
    spectrum defines no task and is rejected. ``__init__`` runs that check
    and the decomposition in a method of its own, ``__post_init__``, which
    the tests wrap to count the generators a command builds.
    """

    def __init__(self, h: np.ndarray):
        self.h = h
        self.__post_init__()

    def __post_init__(self):
        h = linalg.as_complex(self.h)
        eig = linalg.hermitian_eigen(h)
        spread = float(eig.values[-1] - eig.values[0])
        if spread <= EPS_DEGENERATE * max(1.0, abs(float(eig.values[-1]))):
            raise ValueError("generator spectrum is fully degenerate")
        h = h.copy()
        for a in (h, eig.values, eig.vectors):
            a.setflags(write=False)
        self.h, self.eigen = h, eig

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    @property
    def spread(self) -> float:
        return float(self.eigen.values[-1] - self.eigen.values[0])

    @property
    def cluster_tol(self) -> float:
        """Eigenvalues, and differences of eigenvalues, this close are equal."""
        return EPS_CLUSTER * max(1.0, self.spread)

    def eigenvalue_clusters(self) -> list[list[int]]:
        """Indices of (numerically) equal eigenvalues, ascending order."""
        return clusters(self.eigen.values, self.cluster_tol)

    @functools.cached_property
    def charge_shifts(self) -> list[tuple[float, np.ndarray]]:
        """The distinct eigenvalue differences omega, ascending, each with the
        mask of the eigenbasis entries (m, k) where lambda_m - lambda_k = omega."""
        level = self.eigen.values.copy()
        for cluster in self.eigenvalue_clusters():
            level[cluster] = level[cluster[0]]
        shift = level[:, None] - level[None, :]
        tol, shifts = self.cluster_tol, np.sort(shift.ravel())
        return [(shifts[c[0]], np.abs(shift - shifts[c[0]]) <= tol) for c in clusters(shifts, tol)]


def clusters(values: np.ndarray, tol: float) -> list[list[int]]:
    """Group ascending ``values``: each group holds the indices of the values
    within ``tol`` of the group's first."""
    out: list[list[int]] = []
    for i, w in enumerate(values):
        if out and w - values[out[-1][0]] <= tol:
            out[-1].append(i)
        else:
            out.append([i])
    return out


def default_generator(d: int) -> CoherenceGenerator:
    """Equally spaced diagonal generator diag(d-1, d-3, ..., -(d-1)).

    Reduces to sigma_z for d = 2; the computational basis is the coherence
    basis in every dimension.
    """
    if d < 2:
        raise ValueError(f"generator needs dimension >= 2, got {d}")
    return CoherenceGenerator(np.diag([d - 1 - 2 * k for k in range(d)]).astype(complex))


def diagonal_generator(values) -> CoherenceGenerator:
    return CoherenceGenerator(np.diag(np.asarray(values, dtype=float)).astype(complex))

"""Dense complex linear algebra primitives.

All quantum objects in this package are plain ``numpy`` arrays underneath;
this module provides the handful of operations everything else is built on:
tensor products, partial traces and validated Hermitian eigendecompositions.

Conventions: row-major storage, subsystem index 0 is the leftmost tensor
factor. Composite row index for dims (d0, d1, ...) is i0*d1*... + i1*... .
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .tolerances import EPS_HERM

# Dimensions beyond this are out of scope (dense storage only).
MAX_DIM = 4096
# A stack of states holds at most this many complex entries (256 MiB).
MAX_STACK = MAX_DIM * MAX_DIM


class HermitianEigen(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    values: np.ndarray   # real, ascending
    vectors: np.ndarray  # columns are orthonormal eigenvectors


def dagger(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a.conj(), -1, -2)


def as_complex(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix contains non-finite entries")
    return m


def check_dims(dims: Sequence[int], dim: int) -> tuple[int, ...]:
    """Validate a subsystem dimension list against a total dimension."""
    try:  # a bool is dropped, so that out differs from dims: JSON true is not a number
        out = tuple(int(d) for d in dims if not isinstance(d, bool))
    except (TypeError, ValueError, OverflowError):
        out = ()
    if not out or min(out) < 1 or out != tuple(dims):
        raise ValueError(f"dims must be positive whole numbers, got {dims!r}")
    if math.prod(out) != dim:
        raise ValueError(f"dims {out} do not multiply to matrix dimension {dim}")
    return out


def check_size(n: int, what: str) -> int:
    """Reject a total dimension above MAX_DIM before anything is allocated."""
    if n > MAX_DIM:
        raise ValueError(f"total dimension {n} of {what} exceeds MAX_DIM = {MAX_DIM}")
    return n


def chunks(n: int, dim: int, width: int = 1) -> list[range]:
    """Consecutive ranges of n items of ``width`` states of dimension dim each,
    MAX_STACK entries a range at most (one item when one exceeds it)."""
    per = max(1, MAX_STACK // (width * check_size(dim, "a stacked state") ** 2))
    return [range(k, min(n, k + per)) for k in range(0, n, per)]


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product a ⊗ b with row-major index (i*rb + k, j*cb + l)."""
    a = as_complex(a)
    b = as_complex(b)
    check_size(max(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]), "a tensor product")
    return np.kron(a, b)


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every subsystem not in ``keep`` of m or each m[k]; kept ones stay in order."""
    m = as_complex(m)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dims = check_dims(dims, m.shape[-1])
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep {keep} out of range for {n} subsystems")
    t = m.reshape(m.shape[:-2] + dims + dims)
    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out_axes = keep + [i + n for i in keep]
    reduced = np.einsum(t, [..., *row, *col], [..., *out_axes])
    d_keep = math.prod(dims[k] for k in keep)
    return reduced.reshape(m.shape[:-2] + (d_keep, d_keep))


def permute_subsystems(m: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors: new subsystem k is old subsystem perm[k]."""
    m = as_complex(m)
    dims = check_dims(dims, m.shape[0])
    n = len(dims)
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{n - 1}")
    t = m.reshape(dims + dims)
    t = t.transpose(perm + [p + n for p in perm])
    return t.reshape(m.shape)


def hermitian_eigen(m: np.ndarray) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix, or of each of a stack
    m[..., d, d] (symmetrized internally)."""
    m = as_complex(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    norm = np.maximum(1.0, np.linalg.norm(m, axis=(-2, -1)))
    resid = np.max(np.linalg.norm(m - dagger(m), axis=(-2, -1)) / norm, initial=0.0)
    if resid > EPS_HERM:
        raise ValueError(f"matrix is not Hermitian (residual {resid:.3e} > {EPS_HERM:.1e})")
    w, v = np.linalg.eigh((m + dagger(m)) / 2)
    return HermitianEigen(values=w, vectors=v)


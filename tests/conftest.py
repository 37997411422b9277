"""Shared test oracles, independent of the library's own code paths."""

import numpy as np
import pytest
from hypothesis import settings

_S2 = 1.0 / np.sqrt(2.0)
# Rows are the magic-basis vectors expressed in the computational basis.
MAGIC = np.array([
    [_S2, 0, 0, _S2],
    [1j * _S2, 0, 0, -1j * _S2],
    [0, 1j * _S2, 1j * _S2, 0],
    [0, _S2, -_S2, 0],
])


def fmax_two_qubit_oracle(rho: np.ndarray) -> float:
    """Exact two-qubit fully entangled fraction.

    Maximally entangled two-qubit states are exactly the real unit vectors
    in the magic basis (up to a global phase), so the maximal overlap is the
    top eigenvalue of the real part of rho in that basis.
    """
    m = MAGIC.conj() @ rho @ MAGIC.T
    return float(np.linalg.eigvalsh((m + m.conj().T).real / 2.0).max())


def random_density(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2.0


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# Property tests draw the same bounded examples on every run.
settings.register_profile("qirc", derandomize=True, max_examples=8,
                          deadline=None, database=None)
settings.load_profile("qirc")

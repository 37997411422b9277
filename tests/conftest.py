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


def near_product_ket(e: float) -> np.ndarray:
    """sqrt(1-e)|+,0,0> + sqrt(e)|-,0,1> in the order A, B, C.

    q1 = 0, q3 = (1 - 2e)^2, and q2 = 1 for every e > 0 (0 at e = 0): rho_A
    has eigenvalues e and 1 - e, and rescaled by rho_A^{-1/2} the pure rho_AC
    induces a unitary channel A -> C however small e is.
    """
    plus, minus = np.array([1, 1]) * _S2, np.array([1, -1]) * _S2
    zero, one = np.eye(2)
    return (np.sqrt(1 - e) * np.kron(np.kron(plus, zero), zero)
            + np.sqrt(e) * np.kron(np.kron(minus, zero), one))


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

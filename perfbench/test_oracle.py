"""Pins the benchmark's oracles on states whose coordinates are known by hand.

    python3 -m pytest perfbench/test_oracle.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402


def ket(*amps) -> np.ndarray:
    v = np.asarray(amps, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def kron(*ms) -> np.ndarray:
    out = ms[0]
    for m in ms[1:]:
        out = np.kron(out, m)
    return out


BELL = ket(1, 0, 0, 1)
ZERO = ket(1, 0)
PLUS = ket(1, 1)
MIXED = np.eye(2) / 2


def werner(p: float) -> np.ndarray:
    return p * BELL + (1 - p) * np.eye(4) / 4


def swap_bc(rho: np.ndarray) -> np.ndarray:
    """Reorder a 2x2x2 state from (A, C, B) to (A, B, C)."""
    return rho.reshape((2,) * 6).transpose(0, 2, 1, 3, 5, 4).reshape(8, 8)


@pytest.mark.parametrize("state, want", [
    (kron(BELL, ZERO), (1.0, 0.0, 0.0)),
    (kron(BELL, MIXED), (1.0, 0.0, 0.0)),
    (swap_bc(kron(BELL, ZERO)), (0.0, 1.0, 0.0)),
    (kron(PLUS, MIXED, MIXED), (0.0, 0.0, 1.0)),
    (kron(ZERO, ZERO, ZERO), (0.0, 0.0, 0.0)),
])
def test_qubit_corners(state, want):
    prof = oracle.qubit_profile(state)
    got = (prof["q1"], prof["q2"], prof["q3"])
    assert got == pytest.approx(want, abs=1e-12)
    assert prof["norm"] == pytest.approx(sum(x * x for x in want), abs=1e-12)


@pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 11))
def test_werner_q1(p):
    prof = oracle.qubit_profile(kron(werner(p), ZERO))
    assert prof["q1"] == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-12)
    assert oracle.fef_qubits(werner(p)) == pytest.approx((1 + 3 * p) / 4, abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
def test_bounds_bracket_the_exact_fraction(p):
    rho = werner(p)
    lo, hi = oracle.fef_bounds(rho, 2)
    exact = oracle.fef_qubits(rho)
    assert lo - 1e-12 <= exact <= hi + 1e-12
    assert lo == pytest.approx(exact, abs=1e-12)


def test_fraction_is_invariant_under_a_local_unitary():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, _ = np.linalg.qr(z)
    rotated = np.kron(u, np.eye(2)) @ werner(0.8) @ np.kron(u, np.eye(2)).conj().T
    assert oracle.fef_qubits(rotated) == pytest.approx(0.85, abs=1e-12)
    assert oracle.fef_bounds(rotated, 2)[0] < 0.85


def test_qutrit_bounds_on_maximally_entangled_and_product_states():
    d = 3
    phi = oracle.phi_plus(d)
    lo, hi = oracle.fef_bounds(np.outer(phi, phi.conj()), d)
    assert (lo, hi) == pytest.approx((1.0, 1.0), abs=1e-12)
    product = np.kron(np.eye(d) / d, np.diag([0.5, 0.3, 0.2]))
    lo, hi = oracle.fef_bounds(product, d)
    assert lo == pytest.approx(1 / d ** 2, abs=1e-12)
    assert hi >= lo


def test_transfer_choi_of_identity_and_replacement():
    d = 3
    phi = oracle.phi_plus(d)
    ideal = np.outer(phi, phi.conj())
    assert np.allclose(oracle.transfer_choi(ideal, d), ideal, atol=1e-12)
    rho_c = np.diag([0.5, 0.3, 0.2]).astype(complex)
    product = np.kron(np.diag([0.6, 0.4, 0.0]), rho_c)
    # Off the support of rho_A the induced channel replaces its input by rho_C.
    assert np.allclose(oracle.transfer_choi(product, d),
                       np.kron(np.eye(d) / d, rho_c), atol=1e-12)


def test_fisher_information():
    assert oracle.fisher(PLUS, oracle.generator(2)) == pytest.approx(4.0, abs=1e-12)
    assert oracle.fisher(MIXED, oracle.generator(2)) == pytest.approx(0.0, abs=1e-12)
    extremes = ket(1, 0, 1)
    assert oracle.fisher(extremes, oracle.generator(3)) == pytest.approx(16.0, abs=1e-12)
    prof = oracle.qudit_profile(kron(extremes, np.eye(9) / 9), 3)
    assert prof["q3"] == pytest.approx(1.0, abs=1e-12)
    # For qubits the spectral sum agrees with the closed form 4 |rho_01|^2.
    rho = 0.7 * PLUS + 0.3 * ZERO
    assert oracle.fisher(rho, oracle.generator(2)) / 4 == pytest.approx(
        4 * abs(rho[0, 1]) ** 2, abs=1e-12)


def test_haar_pure_is_a_deterministic_pure_state():
    a = oracle.haar_pure((2, 2, 2), 7, 3)
    assert np.allclose(a, a.conj().T)
    assert np.trace(a).real == pytest.approx(1.0, abs=1e-12)
    assert np.trace(a @ a).real == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(a, oracle.haar_pure((2, 2, 2), 7, 3))
    assert not np.allclose(a, oracle.haar_pure((2, 2, 2), 7, 4))


def test_marginal_of_a_product():
    a, b, c = ZERO, PLUS, np.diag([0.25, 0.75]).astype(complex)
    rho = kron(a, b, c)
    assert np.allclose(oracle.marginal(rho, (2, 2, 2), [1]), b)
    assert np.allclose(oracle.marginal(rho, (2, 2, 2), [0, 2]), np.kron(a, c))


def test_mutual_informations_of_bell_with_spectator():
    mi = oracle.mutual_informations(kron(BELL, ZERO), (2, 2, 2))
    assert mi["s_a"] == pytest.approx(math.log(2), abs=1e-12)
    assert mi["i_ab"] == pytest.approx(2 * math.log(2), abs=1e-12)
    assert mi["i_ac"] == pytest.approx(0.0, abs=1e-12)

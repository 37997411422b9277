"""Reference values for the benchmark's correctness checks.

This module does not import ``qirc``. Every quantity the checks compare
against is recomputed here from its definition, with numpy alone:

- Haar states are regenerated from ``SeedSequence(entropy=master,
  spawn_key=(stream,))``, the documented stream layout of the campaigns.
- For two qubits the fully entangled fraction is exact: the largest
  eigenvalue of the real part of the state in the magic basis (Badziag et
  al., PRA 62, 012311, 2000). It scores rho_AB (q1) and the Choi state of
  the state-induced A -> C channel (q2).
- For d >= 3 there is no closed form; the fraction is bracketed by
  <Phi+|rho|Phi+> below and min(lambda_max, ||rho^{T_B}||_1 / d) above.
- The Fisher information along the generator diag(d-1, d-3, ..., 1-d) is
  the spectral sum 2 sum_ij (l_i - l_j)^2 / (l_i + l_j) |<i|H|j>|^2.

Conventions: row-major, subsystem 0 is the leftmost tensor factor.
"""

from __future__ import annotations

import math

import numpy as np

SUPPORT_CUTOFF = 1e-10   # eigenvalues at or below this are outside the support
PAIR_CUTOFF = 1e-12      # spectral pairs with l_i + l_j below this are dropped

# Columns: |Phi+>, i|Phi->, i|Psi+>, |Psi-> in the computational basis.
MAGIC = np.array([[1, 1j, 0, 0],
                  [0, 0, 1j, 1],
                  [0, 0, 1j, -1],
                  [1, -1j, 0, 0]], dtype=complex) / math.sqrt(2.0)


def haar_pure(dims, master: int, stream: int) -> np.ndarray:
    """Density matrix of the Haar pure state drawn for (master, stream)."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=master, spawn_key=(stream,)))
    n = math.prod(dims)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def marginal(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every subsystem not in ``keep`` (kept ones stay in order)."""
    t = rho.reshape(tuple(dims) * 2)
    for k in sorted(set(range(len(dims))) - set(keep), reverse=True):
        t = np.trace(t, axis1=k, axis2=k + t.ndim // 2)
    d = math.prod(dims[k] for k in sorted(keep))
    return t.reshape(d, d)


def phi_plus(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex).reshape(d * d) / math.sqrt(d)


def fef_qubits(rho: np.ndarray) -> float:
    """Exact fully entangled fraction of a two-qubit state."""
    in_magic = MAGIC.conj().T @ rho @ MAGIC
    return float(np.linalg.eigvalsh(in_magic.real)[-1])


def fef_bounds(rho: np.ndarray, d: int) -> tuple[float, float]:
    """Lower and upper bounds on the fully entangled fraction on d x d."""
    phi = phi_plus(d)
    lower = float((phi.conj() @ rho @ phi).real)
    top = float(np.linalg.eigvalsh(rho)[-1])
    pt = rho.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
    trace_norm = float(np.abs(np.linalg.eigvalsh(pt)).sum())
    return lower, min(top, trace_norm / d)


def transfer_choi(rho_ac: np.ndarray, d: int) -> np.ndarray:
    """Normalized Choi state of the channel that rho_AC induces from A to C.

    ((rho_A^{-1/2} ⊗ I) rho_AC (rho_A^{-1/2} ⊗ I) + (I - P) ⊗ rho_C) / d,
    with the inverse square root taken on the support P of rho_A.
    """
    rho_a = marginal(rho_ac, (d, d), [0])
    rho_c = marginal(rho_ac, (d, d), [1])
    w, v = np.linalg.eigh((rho_a + rho_a.conj().T) / 2)
    on = w > SUPPORT_CUTOFF
    inv_sqrt = (v[:, on] / np.sqrt(w[on])) @ v[:, on].conj().T
    hole = np.eye(d) - v[:, on] @ v[:, on].conj().T
    b = np.kron(inv_sqrt, np.eye(d))
    return (b @ rho_ac @ b + np.kron(hole, rho_c)) / d


def generator(d: int) -> np.ndarray:
    return np.diag([float(d - 1 - 2 * k) for k in range(d)]).astype(complex)


def fisher(rho: np.ndarray, h: np.ndarray) -> float:
    """Quantum Fisher information of rho along the Hermitian generator h."""
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    hh = np.abs(v.conj().T @ h @ v) ** 2
    total = 0.0
    for i in range(len(w)):
        for j in range(len(w)):
            s = w[i] + w[j]
            if s > PAIR_CUTOFF:
                total += (w[i] - w[j]) ** 2 / s * hh[i, j]
    return 2.0 * total


def q_from_fraction(f: float, d: int) -> float:
    """Teleportation advantage (d + 1) F_tele - d with F_tele = (d f + 1)/(d + 1),
    clamped to [0, 1]."""
    return min(1.0, max(0.0, d * f + 1.0 - d))


def qubit_profile(rho: np.ndarray) -> dict:
    """Exact q1, q2, q3 and norm of a 2x2x2 state (generator sigma_z)."""
    rho_ab = marginal(rho, (2, 2, 2), [0, 1])
    rho_ac = marginal(rho, (2, 2, 2), [0, 2])
    rho_a = marginal(rho, (2, 2, 2), [0])
    q1 = q_from_fraction(fef_qubits(rho_ab), 2)
    q2 = q_from_fraction(fef_qubits(transfer_choi(rho_ac, 2)), 2)
    q3 = min(1.0, 4.0 * abs(rho_a[0, 1]) ** 2)
    return {"q1": q1, "q2": q2, "q3": q3, "norm": q1 * q1 + q2 * q2 + q3 * q3}


def qudit_profile(rho: np.ndarray, d: int) -> dict:
    """Exact Fisher information and bounds on both singlet fractions of a
    d x d x d state."""
    dims = (d, d, d)
    rho_a = marginal(rho, dims, [0])
    f_q = fisher(rho_a, generator(d))
    return {
        "f_q": f_q,
        "q3": min(1.0, f_q / (2.0 * (d - 1)) ** 2),
        "f_max_bounds": fef_bounds(marginal(rho, dims, [0, 1]), d),
        "f_trans_bounds": fef_bounds(
            transfer_choi(marginal(rho, dims, [0, 2]), d), d),
    }


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in nats."""
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    w = w[w > PAIR_CUTOFF]
    return float(-(w * np.log(w)).sum())


def mutual_informations(rho: np.ndarray, dims) -> dict:
    """S(A), I(A:B) and I(A:C) of a tripartite state."""
    s_a, s_b, s_c = (entropy(marginal(rho, dims, [k])) for k in range(3))
    s_ab = entropy(marginal(rho, dims, [0, 1]))
    s_ac = entropy(marginal(rho, dims, [0, 2]))
    return {"s_a": s_a, "i_ab": s_a + s_b - s_ab, "i_ac": s_a + s_c - s_ac}

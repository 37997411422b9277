"""Property tests: symmetries the coordinates must respect, and the state
check that derived states skip at run time, on Haar-pure and Ginibre-mixed
states at d = 2 and d = 3. Examples come from the derandomized ``qirc``
hypothesis profile registered in conftest.py."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qirc import channels, dynamics, linalg, resources, states
from qirc.claims import resolve_generator
from qirc.resources import ProfileConfig
from qirc.states import DensityMatrix, Seed
from qirc.tolerances import EPS_HERM, EPS_PSD, EPS_Q3_MONO, EPS_TRACE, EPS_TRAJ

from conftest import ginibre_state, haar_state

SEEDS = st.integers(0, 2**32 - 1)

# (d, generator spec, sampler); the d = 3 diagonal generator is degenerate
CASES = pytest.mark.parametrize("d, spec, sampler", [
    (d, spec, sampler)
    for d, spec in [(2, "default"), (3, "default"), (3, "diag:1,1,-2")]
    for sampler in ("haar-pure", "ginibre-mixed")])


def _state(d: int, sampler: str, seed: int, rank: int) -> states.DensityMatrix:
    if sampler == "haar-pure":
        return haar_state((d, d, d), Seed(seed, 0))
    rank = 1 + rank % d ** 3
    return ginibre_state(d ** 3, rank, Seed(seed, 0)).reshaped((d, d, d))


def _q3(rho_a: states.DensityMatrix, g) -> float:
    """q3 of rho_A alone: the profile of rho_A on trivial B and C."""
    return resources.profile(rho_a.reshaped((rho_a.dim, 1, 1)), ProfileConfig(generator=g)).q3


@CASES
@given(seed=SEEDS, rank=st.integers(0, 26))
def test_local_unitaries_on_b_and_c_leave_profile_unchanged(d, spec, sampler, seed, rank):
    rho = _state(d, sampler, seed, rank)
    u = dynamics.local_product_unitary(np.eye(d), states.haar_unitary(d, Seed(seed, 1)),
                                       states.haar_unitary(d, Seed(seed, 2)))
    pc = ProfileConfig(generator=resolve_generator(spec, d))
    before = resources.profile(rho, pc)
    after = resources.profile(dynamics.evolve(rho, u), pc)
    assert np.allclose(after.coords(), before.coords(), rtol=0.0, atol=EPS_TRAJ)


@CASES
@given(seed=SEEDS, rank=st.integers(0, 26))
def test_generator_commuting_unitary_on_a_leaves_q3_unchanged(d, spec, sampler, seed, rank):
    rho = _state(d, sampler, seed, rank)
    g = resolve_generator(spec, d)
    u_a = dynamics.commuting_local_unitary(g, Seed(seed, 1))
    after = dynamics.evolve(rho, dynamics.local_product_unitary(u_a, np.eye(d), np.eye(d)))
    q3_before = _q3(rho.marginal([0]), g)
    assert abs(_q3(after.marginal([0]), g) - q3_before) <= EPS_Q3_MONO


@CASES
@given(seed=SEEDS, rank=st.integers(0, 26), lam=st.floats(0.0, 1.0))
def test_dephasing_along_the_generator_never_raises_q3(d, spec, sampler, seed, rank, lam):
    rho_a = _state(d, sampler, seed, rank).marginal([0])
    g = resolve_generator(spec, d)
    after = channels.apply(channels.dephasing(lam, g), rho_a, 0)
    assert _q3(after, g) <= _q3(rho_a, g) + EPS_Q3_MONO


@pytest.mark.parametrize("d, sampler", [(d, sampler) for d in (2, 3)
                                        for sampler in ("haar-pure", "ginibre-mixed")])
@given(seed=SEEDS, rank=st.integers(0, 26), lam=st.floats(0.0, 1.0))
def test_derived_states_pass_the_entry_check(d, sampler, seed, rank, lam):
    # every constructor that skips DensityMatrix's check, held to its thresholds
    rho = _state(d, sampler, seed, rank)
    other = haar_state((d, d, d), Seed(seed, 1))
    rho_a = rho.marginal([0])
    ch = channels.random_channel(d, d, 1 + rank % (d * d), Seed(seed, 2))
    u = dynamics.local_product_unitary(
        *(states.haar_unitary(d, Seed(seed, k)) for k in (3, 4, 5)))
    derived = {
        "marginal": rho.marginal([1, 2]),
        "reshaped": rho.reshaped((d, d * d)),
        "compose_product": states.compose_product(rho_a, other.marginal([2])),
        "bell_ac": states.bell_ac(rho_a),
        "apply": channels.apply(ch, rho, rank % 3),
        "evolve": dynamics.evolve(rho, u),
        "mixture": DensityMatrix._derived(lam * rho.matrix + (1 - lam) * other.matrix,
                                          rho.dims),
        "_transfer_choi": DensityMatrix._derived(
            resources._transfer_choi(rho.marginal([0, 2]).matrix[None], d, d)[0], (d, d)),
    }
    for name, out in derived.items():
        m = out.matrix
        assert linalg.check_dims(out.dims, m.shape[0]) == out.dims, name
        assert np.linalg.norm(m - m.conj().T) <= EPS_HERM * max(1.0, np.linalg.norm(m)), name
        assert abs(np.trace(m) - 1.0) <= EPS_TRACE, name
        assert np.linalg.eigvalsh((m + m.conj().T) / 2)[0] >= -EPS_PSD, name

"""qirc's value types: the array holders compare and hash by identity, the
value records by their fields, and none of them is a dataclass, so that
importing the command line never loads ``dataclasses``."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qirc
from qirc import channels, dynamics, states
from qirc.claims import CampaignConfig, run_check
from qirc.generators import default_generator
from qirc.resources import ProfileConfig, profile


def _holder_pairs():
    """Two distinct objects of each array-holding type, built from equal inputs."""
    u = np.eye(8)

    def traj():
        return dynamics.trajectory(states.ghz(), [("u", dynamics.UnitaryOperator(u))])

    return {
        "DensityMatrix": (states.ghz(), states.ghz()),
        "KrausChannel": (channels.depolarizing(2, 0.3), channels.depolarizing(2, 0.3)),
        "UnitaryOperator": (dynamics.UnitaryOperator(u), dynamics.UnitaryOperator(u)),
        "CoherenceGenerator": (default_generator(3), default_generator(3)),
        "ProfileConfig": (ProfileConfig(q2_mode="singlet-ac"), ProfileConfig(q2_mode="singlet-ac")),
        "Trajectory": (traj(), traj()),
        "CampaignConfig": (CampaignConfig(trials=2), CampaignConfig(trials=2)),
    }


@pytest.mark.parametrize("name", sorted(_holder_pairs()))
def test_array_holders_compare_and_hash_by_identity(name):
    a, b = _holder_pairs()[name]
    assert type(a).__name__ == name
    assert a == a and not a == b and a != b  # no elementwise array comparison, no raise
    assert len({a, b, a}) == 2


def test_value_records_compare_and_hash_by_their_fields():
    # profiles themselves: tests/test_resources.py::test_profiles_compare_as_values
    p, q = profile(states.ghz()), profile(states.ghz())
    assert p.breakdown is not q.breakdown and p.breakdown == q.breakdown
    assert len({p.breakdown, q.breakdown}) == 1
    assert p._replace(q1=0.5) != p and p._replace(q1=0.5).breakdown == p.breakdown
    cfg = CampaignConfig(trials=1)
    assert run_check("C1", cfg)[0] == run_check("C1", cfg)[0]


def test_to_dict_keeps_the_printed_key_order():
    prof = profile(states.ghz()).to_dict()
    assert list(prof) == ["q1", "q2", "q3", "norm", "q2_mode", "breakdown"]
    assert list(prof["breakdown"]) == ["f_max", "f_tele", "f_trans", "f_q", "f_q_max",
                                       "q1_raw", "q2_raw", "d", "f_max_gap", "f_choi_gap"]
    cfg = CampaignConfig(tolerances={"ball": 0.5}, seed=3, dims=(2, 2, 2))
    assert list(cfg.to_dict()) == ["sampler", "trials", "dims", "q2_mode", "generator", "seed",
                                   "family", "ginibre_rank", "channels_per_state", "tolerances",
                                   "optimizer"]
    report = run_check("C1", CampaignConfig(trials=1))[0].to_dict()
    assert list(report) == ["claim_id", "verdict", "trials", "violations",
                            "report_only_violations", "tolerances", "seed", "stats",
                            "worst_case"]


def test_importing_the_command_line_loads_no_dataclasses():
    code = "import numpy, sys; import qirc.cli; print('dataclasses' in sys.modules)"
    src = str(Path(qirc.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


"""Every function the benchmark's span tracer wraps still exists in qirc,
except those listed in ``DELETED``, which must stay absent.

``perfbench/spans.py`` names its targets as (module, attribute path) pairs
and silently skips an absent one, so a renamed or deleted function would
drop out of the per-layer metrics. This test resolves each target without
wrapping anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


TRACED = _traced()


# Deleted from qirc with the Kraus-Choi round trip, and the single-state
# twins of the stacked singlet-fraction, Fisher-information and entropy
# kernels; the tracer still names them and reads 0 calls for each until the
# benchmark's span list drops them.
DELETED = {"channels.choi", "channels.kraus_from_choi", "channels.covariant_channel",
           "resources.induced_transfer_channel", "resources.fully_entangled_fraction",
           "resources.quantum_fisher_information", "resources.von_neumann_entropy"}


@pytest.mark.parametrize("module, path", [(m, p) for m, p, _ in TRACED],
                         ids=[name for _, _, name in TRACED])
def test_trace_target_exists(module, path):
    owner = importlib.import_module(f"qirc.{module}")
    if f"{module}.{path}" in DELETED:
        assert not hasattr(owner, path), f"qirc.{module}.{path} was deleted"
        return
    for attr in path.split("."):
        owner = getattr(owner, attr, None)
        assert owner is not None, f"qirc.{module}.{path} is absent"
    assert callable(owner), f"qirc.{module}.{path} is not callable"

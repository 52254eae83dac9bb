"""Exact outputs of the in-process benchmark workloads against perfbench/golden.json.

Replays the golden seed of ``chain``, ``corollary`` and ``large-t``: the
reference profiles and constants each workload checks against, and the
serialized results of its golden operations, must hash to the recorded
digests.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
workloads = importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["chain", "corollary", "large-t"])
def test_exact_outputs_match_the_golden_digests(name):
    golden = workloads.load_golden()[name]
    wl = workloads.make_workload(name, workloads.GOLDEN_SEED, work_dir=None)
    assert wl.prepare_checks(golden) == golden["references"]
    assert workloads.digest(wl.golden_lines()) == golden["digest"]

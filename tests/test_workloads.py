"""Each benchmark workload runs one op at its smoke sizes, so an API it calls cannot break unseen.

The workloads live in perfbench/workloads.py at the repository root; this
file only imports them.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

# calibrate_cold's published-row tolerance is sized for 10,001 replicates, not SMOKE's 1,000.
EXPECTED = {"calibrate_cold": {"strict_pair_off_published_by_more_than_0.06",
                               "relaxed_pair_off_published_by_more_than_0.06"}}


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("warm") / "thresholds.json")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_op_runs_and_checks(name, shared_cache, tmp_path):
    workload = workloads.make(name, 3, True, str(tmp_path))
    workload.generate()
    workload.prepare(shared_cache)
    workload.setup()
    output, error = workloads.run_op(workload, 0)
    assert error is None
    assert set(workload.check(0, output)) <= EXPECTED.get(name, set())

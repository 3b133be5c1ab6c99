"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

Run with `python3 -m pytest perfbench/smoke_check.py` from the repository
root. The file name keeps it out of the default test collection, so timing
noise in the benchmark never touches the unit suites.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace, capsys):
    result = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                       "--trace", str(trace), "--smoke"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_tracer_reports_missing_names_instead_of_failing(monkeypatch):
    import tracer

    names = dict(tracer.LAYER_NAMES, rng=("replicate_rng", "parallel_map", "no_such_function"),
                 stats=tracer.LAYER_NAMES["stats"] + ("NoSuchClass.method",))
    monkeypatch.setattr(tracer, "LAYER_NAMES", names)
    run.load_package()
    from diffswitch import rng

    original = rng.replicate_rng
    with tracer.Tracer() as t:
        t.op_id = 0
        rng.replicate_rng(1, 2)
    assert t.missing == ["rng.no_such_function", "stats.NoSuchClass.method"]
    assert t.count("rng.replicate_rng") == 1
    assert rng.replicate_rng is original

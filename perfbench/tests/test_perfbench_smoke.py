"""Tiny-size runs of every workload, untraced and traced."""

import json
from pathlib import Path

import pytest

from perfbench.bench import END_TO_END, PER_LAYER, run_benchmark
from perfbench.measure import LAYERS
from perfbench.workloads import TINY, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _quiet(_line):
    pass


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(name):
    result = run_benchmark(name, seed=3, seconds=0.0, size=TINY, log=_quiet)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    metrics = result["metrics"]
    assert [key for key, _, _ in END_TO_END] == list(metrics)
    for key, unit, _ in END_TO_END:
        assert metrics[key]["unit"] == unit
        assert metrics[key]["value"] > 0, key


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_accounts_for_its_wall_clock(name, tmp_path):
    lines = []
    result = run_benchmark(name, seed=3, seconds=0.0, trace=True, size=TINY,
                           out_dir=tmp_path, log=lines.append)
    assert result["correct"] is True
    values = {key: entry["value"] for key, entry in result["metrics"].items()}
    assert list(values) == [key for key, _, _ in PER_LAYER]
    layered = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    total = layered + values["trace.bench_self_s"] + values["trace.gap_s"]
    assert total == pytest.approx(values["trace.wall_s"], rel=1e-9)
    assert values["sim.events"] > 0 and values["core.messages_handled"] > 0
    assert list(tmp_path.glob("*.trace.json"))


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: why for name, (_, why) in WORKLOADS.items()
    }
    printed = [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER]
    assert spec["per_layer"] == printed
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)


def test_a_deterministic_output_that_changes_fails_loudly():
    from perfbench.bench import _check_same
    from perfbench.measure import BenchmarkError, Outcome
    from perfbench.workloads import eesmr_n2000

    plan = eesmr_n2000(1, TINY)[0]
    first, again = Outcome(plan, det={"events": 10}), Outcome(plan, det={"events": 11})
    _check_same([first], [Outcome(plan, det={"events": 10})], "a repeat")
    with pytest.raises(BenchmarkError, match="nondeterministic"):
        _check_same([first], [again], "a repeat")

"""Unit tests for the repro.perf benchmark harness (tier-1, fast)."""

import json

import pytest

from repro.crypto.hashing import canonical_cache
from repro.crypto.signatures import SignatureScheme
from repro.eval.runner import DeploymentSpec, ProtocolRunner
from repro.net.hypergraph import Hypergraph
from repro.net.network import SimulatedNetwork
from repro.perf.benchmarks import BenchResult, bench_event_throughput, bench_flood_fanout
from repro.perf.counters import StageTimer, collect_cache_stats
from repro.perf.legacy import LegacyEventQueue, legacy_mode
from repro.perf.__main__ import main as perf_main
from repro.perf.report import SATURATION_GATES, SPEEDUP_GATES, BenchReport, gate_status
from repro.sim.events import BucketedEventQueue, EventQueue
from repro.sim.scheduler import Simulator
from repro.testkit.trace import TraceRecorder


# ------------------------------------------------------------- BenchResult
def test_bench_result_statistics():
    result = BenchResult(
        name="x", params={}, samples_s=[0.2, 0.1, 0.3], metric_name="ops/s", work_units=100
    )
    assert result.best_s == 0.1
    assert result.mean_s == pytest.approx(0.2)
    assert result.throughput == pytest.approx(1000.0)
    payload = result.to_dict()
    assert payload["best_s"] == 0.1
    assert payload["metric"] == "ops/s"


def test_bench_report_gates_and_writer(tmp_path):
    report = BenchReport(name="hotpath")
    before = BenchResult(name="flood_fanout", params={"n": 8}, samples_s=[0.9], work_units=10)
    after = BenchResult(name="flood_fanout", params={"n": 8}, samples_s=[0.1], work_units=10)
    entry = report.add(before, after)
    assert entry.speedup == pytest.approx(9.0)
    gates = report.gates_passed()
    assert gates["flood_fanout"] is True  # 9x >= 3x floor
    assert gates["eesmr_steady_state"] is False  # missing entry
    path = report.write(tmp_path)
    assert path.name == "BENCH_hotpath.json"
    payload = json.loads(path.read_text())
    assert payload["entries"][0]["speedup"] == 9.0
    assert set(payload["gates"]) == set(SPEEDUP_GATES) | set(SATURATION_GATES)


def test_bench_report_rejects_mismatched_pairs():
    report = BenchReport(name="x")
    a = BenchResult(name="a", params={}, samples_s=[0.1], work_units=1)
    b = BenchResult(name="b", params={}, samples_s=[0.1], work_units=1)
    with pytest.raises(ValueError):
        report.add(a, b)


def matrix_report(cpus, parallel, before_s, after_s):
    report = BenchReport(name="hotpath")
    params = {"parallel": parallel, "cpus": cpus}
    report.add(
        BenchResult(name="matrix_wall_clock", params=params, samples_s=[before_s], work_units=36),
        BenchResult(name="matrix_wall_clock", params=params, samples_s=[after_s], work_units=36),
    )
    return report


def test_matrix_gate_is_skipped_when_host_has_fewer_cores_than_workers():
    # Even a 10x "speedup" is not a pass: the gate did not measure sharding.
    verdict = matrix_report(cpus=2, parallel=4, before_s=1.0, after_s=0.1).gates_detail()[
        "matrix_wall_clock"
    ]
    assert verdict["skipped"] is True
    assert "passed" not in verdict
    assert verdict["reason"] == (
        "not measurable: host has 2 usable core(s), sharding gate needs >= 4"
    )
    assert gate_status(verdict) == "skipped"
    assert "matrix_wall_clock" not in matrix_report(2, 4, 1.0, 0.1).gates_passed()


def test_matrix_gate_fails_when_measured_speedup_is_below_floor():
    floor = SPEEDUP_GATES["matrix_wall_clock"]
    report = matrix_report(cpus=4, parallel=4, before_s=1.0, after_s=1.0 / (floor - 0.2))
    verdict = report.gates_detail()["matrix_wall_clock"]
    assert verdict["passed"] is False
    assert "skipped" not in verdict
    assert gate_status(verdict) == "failed"
    passing = matrix_report(cpus=8, parallel=4, before_s=1.0, after_s=1.0 / (floor + 0.2))
    assert passing.gates_detail()["matrix_wall_clock"]["passed"] is True


def write_gates(tmp_path, gates):
    (tmp_path / "BENCH_hotpath.json").write_text(json.dumps({"gates": gates}))


def test_gate_check_lists_skipped_gates_and_fails_only_on_measured_misses(tmp_path, capsys):
    write_gates(
        tmp_path,
        {
            "flood_fanout": {"floor": 3.0, "passed": True},
            "matrix_wall_clock": {"floor": 1.7, "skipped": True, "reason": "1 core"},
        },
    )
    assert perf_main(["--gate-check", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "gate matrix_wall_clock: floor 1.7: SKIPPED (1 core)" in out
    assert "1 gate(s) skipped (not measured): matrix_wall_clock" in out

    write_gates(
        tmp_path,
        {
            "flood_fanout": {"floor": 3.0, "passed": False},
            "matrix_wall_clock": {"floor": 1.7, "skipped": True, "reason": "1 core"},
        },
    )
    assert perf_main(["--gate-check", "--out", str(tmp_path)]) == 1
    assert "1 gate(s) failing: flood_fanout" in capsys.readouterr().out


@pytest.mark.parametrize(
    "verdict",
    [
        {"floor": 1.7, "skipped": True},  # a skip must state its reason
        {"floor": 1.7, "skipped": True, "reason": ""},
        {"floor": 1.7},  # neither measured nor skipped
        {"floor": 1.7, "passed": "yes"},
    ],
)
def test_gate_check_fails_on_unreasoned_or_malformed_verdicts(tmp_path, verdict):
    write_gates(tmp_path, {"matrix_wall_clock": verdict})
    assert perf_main(["--gate-check", "--out", str(tmp_path)]) == 1


# ------------------------------------------------------------- legacy mode
def test_legacy_mode_flips_and_restores_every_switch():
    assert canonical_cache.enabled
    assert SignatureScheme.cache_operations
    assert Hypergraph.cache_topology
    assert SimulatedNetwork.gc_floods
    assert SimulatedNetwork.use_compiled_plans
    assert Simulator.queue_factory is BucketedEventQueue
    with legacy_mode():
        assert not canonical_cache.enabled
        assert not SignatureScheme.cache_operations
        assert not Hypergraph.cache_topology
        assert not SimulatedNetwork.gc_floods
        assert not SimulatedNetwork.use_compiled_plans
        assert SimulatedNetwork.eager_annotations
        assert Simulator.queue_factory is LegacyEventQueue
    assert canonical_cache.enabled
    assert SignatureScheme.cache_operations
    assert Hypergraph.cache_topology
    assert SimulatedNetwork.gc_floods
    assert SimulatedNetwork.use_compiled_plans
    assert not SimulatedNetwork.eager_annotations
    assert Simulator.queue_factory is BucketedEventQueue


def test_legacy_mode_restores_on_error():
    with pytest.raises(RuntimeError):
        with legacy_mode():
            raise RuntimeError("boom")
    assert canonical_cache.enabled
    assert Simulator.queue_factory is BucketedEventQueue


def test_legacy_queue_orders_like_optimized_queue():
    jobs = [(3.0, 1), (1.0, 0), (1.0, 5), (2.0, -2), (1.0, 0)]
    orders = []
    for factory in (EventQueue, LegacyEventQueue):
        queue = factory()
        fired = []
        for i, (time, priority) in enumerate(jobs):
            queue.push(time, lambda i=i: fired.append(i), priority=priority)
        while queue:
            queue.pop().callback()
        orders.append(fired)
    assert orders[0] == orders[1]


def test_legacy_mode_is_behaviour_preserving():
    """The determinism contract: legacy and optimized runs are byte-identical."""

    def fingerprint():
        spec = DeploymentSpec(protocol="eesmr", n=5, f=1, k=2, target_height=2, seed=41)
        return ProtocolRunner(recorder=TraceRecorder()).run(spec).trace.fingerprint()

    optimized = fingerprint()
    with legacy_mode():
        legacy = fingerprint()
    assert optimized == legacy


# -------------------------------------------------------------- benchmarks
def test_event_throughput_bench_runs_tiny():
    result = bench_event_throughput(n_events=500, repeats=1)
    assert result.work_units == 500
    assert result.best_s > 0


def test_flood_fanout_bench_verifies_delivery_count():
    result = bench_flood_fanout(n=6, floods=3, payload_bytes=64, repeats=1)
    assert result.work_units == 18
    assert result.best_s > 0


def test_stage_timer_accumulates():
    timer = StageTimer()
    timer.start("a")
    timer.stop("a")
    timer.start("a")
    timer.stop("a")
    assert timer.counts["a"] == 2
    assert timer.totals["a"] >= 0
    with pytest.raises(KeyError):
        timer.stop("never-started")


def test_cache_stats_shape():
    stats = collect_cache_stats()
    assert {"hits", "misses", "identity_entries", "value_entries"} <= set(stats)

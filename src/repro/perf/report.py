"""Benchmark report writer: the perf trajectory as data.

A :class:`BenchReport` pairs each benchmark's "before" (legacy mode —
every hot-path optimization disabled) and "after" (optimized) numbers and
writes them to ``BENCH_<name>.json`` at the repo root, so speedups are a
tracked, regression-gated artifact instead of a claim in a commit message.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.perf.benchmarks import (
    BenchResult,
    bench_eesmr_steady_state,
    bench_event_throughput,
    bench_flood_fanout,
    bench_matrix_wall_clock,
)
from repro.perf.counters import collect_cache_stats
from repro.perf.legacy import legacy_mode
from repro.perf.saturation import run_saturation_sweep

#: Speedup floors the perf PRs are gated on (see docs/performance.md).
#: ``flood_fanout``/``flood_fanout_n100``/``eesmr_steady_state`` compare
#: the optimized code against ``legacy_mode()`` (the seed's hot path);
#: ``matrix_wall_clock`` compares a serial scenario-matrix sweep against
#: the sharded ``run(parallel=4)`` execution.
SPEEDUP_GATES = {
    "flood_fanout": 3.0,
    "flood_fanout_n100": 2.0,
    "eesmr_steady_state": 2.0,
    "matrix_wall_clock": 1.7,
}

#: Capacity floors on the open-loop saturation sweep: the highest
#: sustainable arrival rate (SLO met, zero drops — virtual time, so the
#: verdict is host-independent) must not regress below the floor.
SATURATION_GATES = {
    "open_loop_saturation": 0.5,
}


@dataclass
class BenchEntry:
    """Before/after timings for one benchmark."""

    name: str
    params: Dict[str, Any]
    metric: str
    work_units: int
    before_s: float
    after_s: float
    before_samples_s: List[float]
    after_samples_s: List[float]

    @property
    def speedup(self) -> float:
        return self.before_s / self.after_s if self.after_s > 0 else float("inf")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "params": self.params,
            "metric": self.metric,
            "work_units": self.work_units,
            "before_s": round(self.before_s, 6),
            "after_s": round(self.after_s, 6),
            "before_samples_s": [round(s, 6) for s in self.before_samples_s],
            "after_samples_s": [round(s, 6) for s in self.after_samples_s],
            "before_throughput_per_s": round(self.work_units / self.before_s, 2)
            if self.before_s
            else 0.0,
            "after_throughput_per_s": round(self.work_units / self.after_s, 2)
            if self.after_s
            else 0.0,
            "speedup": round(self.speedup, 2),
        }


@dataclass
class BenchReport:
    """A set of before/after benchmark entries plus environment metadata."""

    name: str
    entries: List[BenchEntry] = field(default_factory=list)
    notes: Dict[str, Any] = field(default_factory=dict)
    #: Whether the last :meth:`write` rewrote the tracked JSON (as opposed
    #: to only refreshing the volatile ``.latest`` sidecar).
    last_write_updated_tracked: bool = field(default=False, compare=False)

    def add(self, before: BenchResult, after: BenchResult) -> BenchEntry:
        if before.name != after.name:
            raise ValueError(f"mismatched benchmarks: {before.name} vs {after.name}")
        entry = BenchEntry(
            name=after.name,
            params=after.params,
            metric=after.metric_name,
            work_units=after.work_units,
            before_s=before.best_s,
            after_s=after.best_s,
            before_samples_s=before.samples_s,
            after_samples_s=after.samples_s,
        )
        self.entries.append(entry)
        return entry

    def entry(self, name: str) -> Optional[BenchEntry]:
        for entry in self.entries:
            if entry.name == name:
                return entry
        return None

    def gates_detail(self) -> Dict[str, Dict[str, Any]]:
        """Per-gate verdicts: ``{name: {floor, passed[, note]}}`` or a skip.

        ``matrix_wall_clock`` compares serial against process-pool-sharded
        execution, which only measures anything when the host can schedule
        the workers concurrently: on a host with fewer usable cores than
        the benchmark's ``parallel``, the gate did not measure and is
        recorded as ``{floor, skipped: True, reason}`` — neither passed nor
        failed.  The measured ratio is still in the entry.
        """
        verdicts: Dict[str, Dict[str, Any]] = {}
        for name, floor in SPEEDUP_GATES.items():
            entry = self.entry(name)
            verdict: Dict[str, Any] = {"floor": floor}
            if entry is None:
                verdict["passed"] = False
                verdict["note"] = "benchmark missing from report"
            elif name == "matrix_wall_clock":
                cpus = int(entry.params.get("cpus", 0) or 0)
                workers = int(entry.params.get("parallel", 1) or 1)
                if cpus < workers:
                    verdict["skipped"] = True
                    verdict["reason"] = (
                        f"not measurable: host has {cpus} usable core(s), "
                        f"sharding gate needs >= {workers}"
                    )
                else:
                    verdict["passed"] = entry.speedup >= floor
            else:
                verdict["passed"] = entry.speedup >= floor
            verdicts[name] = verdict
        saturation = self.notes.get("saturation")
        for name, floor in SATURATION_GATES.items():
            verdict = {"floor": floor}
            if not saturation:
                verdict["passed"] = False
                verdict["note"] = "saturation sweep missing from report"
            else:
                measured = float(saturation.get("max_sustainable_rate", 0.0))
                verdict["passed"] = measured >= floor
                verdict["note"] = (
                    f"max sustainable open-loop rate {measured} "
                    f"(SLO p99 <= {saturation.get('slo_p99')}, zero drops; "
                    f"virtual time, host-independent)"
                )
            verdicts[name] = verdict
        return verdicts

    def gates_passed(self) -> Dict[str, bool]:
        """Whether each measured gate meets its floor (skipped gates are left out)."""
        return {
            name: detail["passed"]
            for name, detail in self.gates_detail().items()
            if gate_status(detail) != "skipped"
        }

    def to_dict(self) -> Dict[str, Any]:
        detail = self.gates_detail()
        return {
            "report": self.name,
            "generated_unix": int(time.time()),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "gates": {name: detail[name] for name in sorted(detail)},
            "entries": [entry.to_dict() for entry in self.entries],
            "notes": self.notes,
        }

    def stable_signature(self) -> Dict[str, Any]:
        """The report content that is meaningful across runs.

        Wall-clock samples (and therefore speedups), timestamps and host
        metadata churn on every invocation; gate verdicts and the
        benchmark roster do not.  The tracked ``BENCH_<name>.json`` is
        only rewritten when this signature changes, so ``make bench`` on
        an unchanged tree leaves the worktree clean.
        """
        payload = self.to_dict()
        return _stable_signature(payload)

    def write(self, repo_root: Path) -> Path:
        """Emit the benchmark report; returns the tracked-file path.

        Two artifacts:

        * ``BENCH_<name>.latest.json`` — the full volatile report
          (timestamps, fresh samples), rewritten every run and gitignored;
        * ``BENCH_<name>.json`` — the tracked perf trajectory, rewritten
          only when :meth:`stable_signature` (gate verdicts or the
          benchmark roster) changes.

        :attr:`last_write_updated_tracked` records whether the tracked
        file changed, so callers can tell the user which artifact to look
        at.
        """
        root = Path(repo_root)
        payload = self.to_dict()
        encoded = json.dumps(payload, indent=2, sort_keys=False) + "\n"
        (root / f"BENCH_{self.name}.latest.json").write_text(encoded)
        path = root / f"BENCH_{self.name}.json"
        rewrite = True
        if path.exists():
            try:
                existing = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                existing = None
            if existing is not None and _stable_signature(existing) == _stable_signature(payload):
                rewrite = False
        if rewrite:
            path.write_text(encoded)
        self.last_write_updated_tracked = rewrite
        return path


def gate_status(verdict: Dict[str, Any]) -> str:
    """``"passed"``, ``"failed"`` or ``"skipped"`` for one recorded gate verdict.

    A skip only counts as one when it states its reason; a verdict with
    neither a reasoned skip nor ``passed: true`` is a failure.
    """
    if verdict.get("skipped") is True and verdict.get("reason"):
        return "skipped"
    return "passed" if verdict.get("passed") is True else "failed"


def _stable_signature(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Gate verdicts plus the benchmark roster of a report payload.

    Host-dependent data is excluded on both sides of the comparison: the
    recorded core count (``params.cpus``) and the free-text gate notes and
    skip reasons that embed it would otherwise dirty the tracked file
    whenever a different machine reruns an unchanged tree.
    """

    def stable_params(params: Dict[str, Any]) -> Dict[str, Any]:
        return {key: value for key, value in params.items() if key != "cpus"}

    return {
        "report": payload.get("report"),
        "gates": {
            name: {
                key: value for key, value in verdict.items() if key not in ("note", "reason")
            }
            for name, verdict in (payload.get("gates") or {}).items()
        },
        "entries": [
            {
                "name": entry.get("name"),
                "params": stable_params(entry.get("params") or {}),
                "metric": entry.get("metric"),
            }
            for entry in payload.get("entries", ())
        ],
    }


def run_hotpath_suite(quick: bool = False) -> BenchReport:
    """Run the full before/after hot-path suite.

    Args:
        quick: Shrink every workload (smoke-test scale).  Quick mode checks
            that the harness runs end to end; only the full suite produces
            numbers meaningful against the speedup gates.
    """
    if quick:
        event_kw = {"n_events": 5_000, "repeats": 2}
        flood_kw = {"n": 8, "floods": 6, "payload_bytes": 512, "repeats": 2}
        flood100_kw = {
            "n": 12, "floods": 4, "payload_bytes": 256, "repeats": 1,
            "name": "flood_fanout_n100",
        }
        eesmr_kw = {"n": 5, "f": 1, "target_height": 4, "repeats": 2}
        matrix_kw = {
            "protocols": ("eesmr",), "fault_names": ("none",), "media": ("ble",),
            "n": 5, "f": 1, "k": 2, "target_height": 2, "repeats": 1,
        }
        matrix_parallel = 2
    else:
        event_kw = {"n_events": 150_000, "repeats": 3}
        flood_kw = {"n": 40, "floods": 60, "payload_bytes": 2048, "repeats": 3}
        # The n>=100 operating point the ROADMAP names: compiled
        # dissemination plans keep the per-hop path O(1) here.
        flood100_kw = {
            "n": 100, "floods": 40, "payload_bytes": 2048, "repeats": 3,
            "name": "flood_fanout_n100",
        }
        # A larger-n steady state (the ROADMAP's scaling direction) with
        # single-command blocks: the protocol hot path, not workload fill.
        eesmr_kw = {"n": 25, "f": 5, "target_height": 25, "batch_size": 1, "repeats": 7}
        # The canonical 36-cell sweep at the n=7 f=2 operating point.
        matrix_kw = {"n": 7, "f": 2, "k": 3, "target_height": 3, "repeats": 2}
        matrix_parallel = 4

    report = BenchReport(name="hotpath")
    suites = (
        (bench_event_throughput, event_kw),
        (bench_flood_fanout, flood_kw),
        (bench_flood_fanout, flood100_kw),
        (bench_eesmr_steady_state, eesmr_kw),
    )
    for bench, kwargs in suites:
        with legacy_mode():
            before = bench(**kwargs)
        after = bench(**kwargs)
        report.add(before, after)
    # The matrix gate measures sharding, not cache switches: "before" is
    # the same optimized code run serially, "after" shards the cells over
    # a process pool.
    matrix_before = bench_matrix_wall_clock(parallel=1, **matrix_kw)
    matrix_after = bench_matrix_wall_clock(parallel=matrix_parallel, **matrix_kw)
    report.add(matrix_before, matrix_after)
    # The saturation sweep runs in virtual time (deterministic, fast), so
    # quick and full mode run the identical sweep.
    report.notes["saturation"] = run_saturation_sweep().to_dict()
    report.notes["canonical_cache"] = collect_cache_stats()
    report.notes["quick"] = quick
    report.notes["mode"] = (
        "before = legacy mode (all hot-path switches off, seed event queue); "
        "after = optimized defaults; best-of-N wall clock per benchmark. "
        "matrix_wall_clock: before = serial sweep, after = run(parallel=N) "
        "sharded over a process pool (same optimized code both sides)."
    )
    return report

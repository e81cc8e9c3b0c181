"""One benchmark run: repeat a workload's sessions, check them, report metrics.

The untraced repeats give the end-to-end metrics (host time as the sum over
the iteration's sessions of each session's median over its repeats; the
deterministic metrics from the outputs, which must be identical in every
repeat).  With ``trace=True`` one more, traced, iteration follows and the
run reports the per-layer metrics.
"""

from __future__ import annotations

import resource
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import stats
from perfbench.measure import (
    LAYERS,
    STAGES,
    BenchmarkError,
    Instrumentation,
    Outcome,
    deterministic_metrics,
    layer_counts,
    rung_outcomes,
    run_session,
    slo_limit,
)
from perfbench.workloads import (
    BACKLOG_BOUND,
    DEFAULT_SEED,
    FULL,
    HELD_OUT_SEED,
    TINY,
    WORKLOADS,
    Size,
)

#: (name, unit, better) of every end-to-end metric, printed with --trace 0.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("session_ok_ratio", "ratio", "higher"),
    ("energy_per_block_mj", "mJ", "lower"),
    ("energy_per_command_mj", "mJ", "lower"),
    ("goodput_vt", "cmds/vt", "higher"),
    ("latency_p50_vt", "vt", "lower"),
    ("latency_p99_vt", "vt", "lower"),
    ("slo_met_ratio", "ratio", "higher"),
    ("capacity_rate", "cmds/vt", "higher"),
    ("outage_vt", "vt", "lower"),
)

#: (name, unit, better) of every per-layer metric, printed with --trace 1.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    [(f"session.{name}_s", "s", "lower") for _, name in STAGES]
    + [
        ("session.observer_self_s", "s", "lower"),
        ("session.self_s", "s", "lower"),
        ("sim.events", "count", "lower"),
        ("sim.self_s", "s", "lower"),
        ("sim.events_per_s", "1/s", "higher"),
        ("net.transmissions", "count", "lower"),
        ("net.bytes", "bytes", "lower"),
        ("net.deliveries", "count", "lower"),
        ("net.self_s", "s", "lower"),
        ("net.dropped", "count", "lower"),
        ("net.retransmitted", "count", "lower"),
        ("net.giveups", "count", "lower"),
        ("net.delivery_ratio", "ratio", "higher"),
        ("core.self_s", "s", "lower"),
        ("core.messages_handled", "count", "lower"),
        ("core.blocks_committed", "count", "higher"),
        ("core.batch_slots", "count", "higher"),
        ("core.batch_distinct_ratio", "ratio", "higher"),
        ("core.txpool_admitted", "count", "higher"),
        ("core.txpool_rejected_cmds", "count", "lower"),
        ("core.txpool_rejected_total", "count", "lower"),
        ("core.backlog_end", "count", "lower"),
        ("core.txpool_wait_p50_vt", "vt", "lower"),
        ("core.consensus_p50_vt", "vt", "lower"),
        ("core.view_changes", "count", "lower"),
        ("crypto.sign_ops", "count", "lower"),
        ("crypto.verify_ops", "count", "lower"),
        ("crypto.tags_computed", "count", "lower"),
        ("crypto.canonical_calls", "count", "lower"),
        ("crypto.canonical_hit_ratio", "ratio", "higher"),
        ("crypto.canonical_uncached", "count", "lower"),
        ("crypto.self_s", "s", "lower"),
        ("energy.charges", "count", "lower"),
        ("energy.self_s", "s", "lower"),
        ("energy.communication_mj_per_block", "mJ", "lower"),
        ("energy.cryptography_mj_per_block", "mJ", "lower"),
        ("workload.offered", "count", "higher"),
        ("workload.self_s", "s", "lower"),
        ("recovery.retransmit_events", "count", "lower"),
        ("recovery.recovered", "count", "higher"),
        ("recovery.giveups", "count", "lower"),
        ("recovery.self_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.bench_self_s", "s", "lower"),
        ("trace.gap_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)

#: Repeats of every session always measured, whatever ``seconds`` allows.
MIN_REPEATS = 2


def _sum(outs: Sequence[Outcome], key: str) -> float:
    return sum(getattr(out, key) for out in outs)


def _median_sum(repeats: Sequence[Sequence[Outcome]], value: Callable[[Outcome], float]) -> float:
    """Sum over sessions of each session's median ``value`` over its repeats."""
    return sum(statistics.median(value(out) for out in outs) for outs in repeats)


def _check_same(reference: Sequence[Outcome], other: Sequence[Outcome], what: str) -> None:
    for ref, out in zip(reference, other):
        if ref.ok and out.ok and ref.fingerprint() != out.fingerprint():
            raise BenchmarkError(
                f"nondeterministic output: {ref.plan.label} differs between its first "
                f"run and {what}; the tracer or the program is nondeterministic"
            )


def run_benchmark(
    name: str,
    seed: int = DEFAULT_SEED,
    seconds: float = 10.0,
    trace: bool = False,
    size: Size = FULL,
    out_dir: Optional[Path] = None,
    log: Callable[[str], None] = print,
) -> Dict[str, object]:
    """Run workload ``name``; returns the result object printed last."""
    build, why = WORKLOADS[name]
    plans = build(seed, size)
    log(f"workload {name}: {why}")
    log(
        f"seed {seed} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}); "
        f"sessions per iteration: {len(plans)}"
    )
    # Warm-up on the tiny shape of the same workload: lazy imports and
    # first-call costs that every user pays once per process, not per run.
    for plan in build(seed, TINY):
        run_session(plan)

    # The sessions run in turn until the time is up, so a workload of many
    # sessions uses the whole window and each session gets a median.
    repeats: List[List[Outcome]] = [[] for _ in plans]
    began = time.perf_counter()
    count = 0
    while True:
        started = time.perf_counter()
        repeats[count % len(plans)].append(run_session(plans[count % len(plans)]))
        count += 1
        now = time.perf_counter()
        if count >= MIN_REPEATS * len(plans) and (now - began) + (now - started) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = [outs[0] for outs in repeats]
    for outs in repeats:
        for index, out in enumerate(outs[1:], start=2):
            _check_same(outs[:1], [out], f"repeat {index}")

    traced: List[Outcome] = []
    instrumentation = None
    if trace:
        instrumentation = Instrumentation()
        instrumentation.install()
        try:
            traced = [run_session(plan, instrumentation) for plan in plans]
        finally:
            instrumentation.uninstall()
        _check_same(first, traced, "the traced iteration")

    sessions = [out for outs in repeats for out in outs] + traced
    failed = [out for out in sessions if not out.ok]
    for out in failed:
        log(f"FAILED session {out.plan.label}: {out.error.strip().splitlines()[-1]}")
    usable = [out for out in first if out.det]
    ladder = any(out.plan.rate is not None for out in first)
    # Preloads offer a few dozen commands at t=0: the tail rule applies
    # to the open-loop workloads, which are sized for it.
    open_loop = any(out.plan.spec.workload is not None for out in first)
    det = deterministic_metrics(usable, ladder, size.min_tail if open_loop else 0)
    setup = _median_sum(repeats, lambda out: out.setup_s)
    run = _median_sum(repeats, lambda out: out.run_s)
    for outs in repeats:
        log(
            f"{outs[0].plan.label}: {len(outs)} repeats: setup_s "
            + " ".join(f"{out.setup_s:.3f}" for out in outs)
            + " | run_s "
            + " ".join(f"{out.run_s:.3f}" for out in outs)
        )
    _log_workload(log, usable, det, ladder)

    if not trace:
        values = dict(det)
        values.update(
            setup_s=setup,
            run_s=run,
            peak_rss_mb=peak_rss_mb,
            session_ok_ratio=1.0 - len(failed) / len(sessions),
        )
        metrics = {key: {"value": values[key], "unit": unit} for key, unit, _ in END_TO_END}
    else:
        values = _layer_metrics(instrumentation, repeats, traced, run, log)
        if out_dir is not None:
            path = instrumentation.tracer.dump(
                out_dir, name, {"seed": seed, "metrics": values}
            )
            log(f"spans written to {path}")
        metrics = {key: {"value": values[key], "unit": unit} for key, unit, _ in PER_LAYER}
    return {
        "correct": not failed,
        "attempted": len(sessions),
        "failed": len(failed),
        "metrics": metrics,
    }


def _log_workload(log, outs: Sequence[Outcome], det: Dict[str, float], ladder: bool) -> None:
    log(
        f"latency over {det['_latency_samples']} offered commands, "
        f"{det['_p99_tail_samples']} beyond p99; never-committed commands are "
        "censored at the run's end (a lower bound)"
    )
    if any(out.plan.metrics_observer for out in outs):
        log(
            "open-loop arrivals are virtual-time events drawn before the run, "
            "so the generator never runs late (lateness 0 by construction)"
        )
    if ladder:
        limit = slo_limit(outs[0])
        for rung in rung_outcomes(outs):
            log(
                f"  rate {rung.rate:>7g}/vt offered {rung.offered:>5} misses "
                f"{rung.misses:>5} backlog_end {rung.backlog_end:>4} "
                f"(limit {limit:g} vt, backlog bound {BACKLOG_BOUND}) -> "
                f"{'meets SLO' if stats.rung_meets_slo(rung, BACKLOG_BOUND) else 'fails'}"
            )


def _layer_metrics(
    instrumentation: Instrumentation,
    repeats: List[List[Outcome]],
    traced: List[Outcome],
    untraced_run_s: float,
    log,
) -> Dict[str, float]:
    tracer = instrumentation.tracer
    own = instrumentation.layer_times()
    by_name = tracer.self_by_name()
    counts = tracer.count_by_name()
    canonical = instrumentation.canonical
    calls = sum(canonical.values())
    values: Dict[str, float] = layer_counts([o for o in traced if o.det])
    for _, stage in STAGES:
        values[f"session.{stage}_s"] = _median_sum(
            repeats, lambda out, name=stage: out.stage_s.get(name, 0.0)
        )
    wall = _sum(traced, "setup_s") + _sum(traced, "run_s")
    accounted = tracer.root_time()
    values.update(
        {
            "session.observer_self_s": by_name.get("session.observer", 0.0),
            "sim.events_per_s": values["sim.events"] / untraced_run_s,
            "crypto.tags_computed": instrumentation.tags,
            "crypto.canonical_calls": calls,
            "crypto.canonical_hit_ratio": canonical["hit"] / calls if calls else 0.0,
            "crypto.canonical_uncached": canonical["uncached"],
            "energy.charges": counts.get("energy.charge", 0),
            "trace.wall_s": wall,
            "trace.bench_self_s": own.get("bench", 0.0),
            "trace.gap_s": wall - accounted,
            "trace.overhead_ratio": _sum(traced, "run_s") / untraced_run_s,
        }
    )
    for layer in LAYERS:
        values[f"{layer}.self_s"] = own.get(layer, 0.0)
    unknown = set(own) - set(LAYERS) - {"bench"}
    if unknown:
        raise BenchmarkError(f"spans outside every layer: {sorted(unknown)}")
    log(f"traced iteration: {len(tracer)} spans, wall {wall:.3f} s")
    for layer in LAYERS + ("bench",):
        log(f"  {layer:<9} self {own.get(layer, 0.0):8.3f} s  {own.get(layer, 0.0) / wall:6.1%}")
    log(f"  {'gap':<9} self {wall - accounted:8.3f} s  {(wall - accounted) / wall:6.1%}"
        "  (the run loop and code between spans)")
    return values

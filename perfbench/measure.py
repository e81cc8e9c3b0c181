"""Build, run and check one session; turn sessions into metrics.

:func:`run_session` drives a deployment through the public
``DeploymentSpec`` -> ``SessionBuilder`` -> ``Session`` surface, timing the
seven ``build_*_stage`` calls (set-up) apart from
``run_to_quiescence()`` + ``finish()`` (run).  Everything the metrics need
is read from public results after the clock stops.  :class:`Instrumentation`
is the traced run: it patches the layers' entry points with span-recording
wrappers (see :mod:`perfbench.tracer`) and removes them afterwards.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.core.replica_base import BaseReplica
from repro.core.txpool import OVERFLOW, TxPool, TxPoolOverflowWarning
from repro.crypto.hashing import CanonicalCache, canonical_cache
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import SignatureScheme
from repro.energy.meter import EnergyMeter
from repro.net.network import SimulatedNetwork
from repro.session import MetricsObserver, SessionBuilder, SessionObserver
from repro.sim.scheduler import Simulator

from perfbench import stats
from perfbench.tracer import Tracer
from perfbench.workloads import BACKLOG_BOUND, SLO_LIMIT_DELTAS, Plan

#: (builder stage method infix, metric name), in pipeline order.
STAGES = (
    ("topology", "topology"),
    ("medium", "medium"),
    ("crypto", "crypto"),
    ("replica", "replicas"),
    ("workload", "workload"),
    ("fault", "faults"),
    ("observer", "observers"),
)

#: Layers whose self time the traced run reports, named after repro packages.
LAYERS = ("session", "sim", "net", "core", "crypto", "energy", "workload", "recovery")


class CommitTimes(SessionObserver):
    """First commit time per command and per height, by correct replicas."""

    def __init__(self, excluded: Sequence[int]) -> None:
        self.excluded = set(excluded)
        self.commands: Dict[str, float] = {}
        #: Block view -> first commit of a block proposed in that view.
        self.views: Dict[int, float] = {}
        self.retransmits: Counter = Counter()

    def on_block_commit(self, pid: int, block, view: int, time: float) -> None:
        if pid in self.excluded:
            return
        self.views.setdefault(block.view, time)
        for command_id in block.batch.command_ids:
            self.commands.setdefault(command_id, time)

    def on_retransmit(self, node: int, event: str, detail: str, time: float) -> None:
        self.retransmits[event] += 1


@dataclass
class Outcome:
    """What one session produced, read after the clock stopped."""

    plan: Plan
    setup_s: float = 0.0
    run_s: float = 0.0
    stage_s: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None
    #: Deterministic values (virtual time, energy, counts) keyed by name.
    det: Dict[str, Any] = field(default_factory=dict)
    arrivals: Dict[str, float] = field(default_factory=dict)
    commits: Dict[str, float] = field(default_factory=dict)
    dropped: Set[str] = field(default_factory=set)
    #: First ``store_block`` per command (traced runs only).
    first_store: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None

    def fingerprint(self) -> str:
        """Digest of every deterministic output of the session."""
        payload = json.dumps(
            [self.det, sorted(self.commits.items()), sorted(self.dropped)],
            sort_keys=True,
            default=repr,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def _record_overflows(pools: Sequence[TxPool], dropped: Set[str], wrap) -> None:
    """Note every command id a pool rejects as overflow."""
    for pool in pools:
        admit = pool.admit

        def recorded(command, _admit=admit):
            verdict = _admit(command)
            if verdict == OVERFLOW:
                dropped.add(command.command_id)
            return verdict

        pool.admit = wrap("bench.admit_record", recorded) if wrap else recorded


def run_session(plan: Plan, instrumentation: Optional["Instrumentation"] = None) -> Outcome:
    """Build, run and check one deployment; a failure is recorded, not raised."""
    canonical_cache.clear()
    gc.collect()
    out = Outcome(plan)
    spec = plan.spec
    commits = CommitTimes(spec.byzantine_nodes)
    observers: List[SessionObserver] = [MetricsObserver()] if plan.metrics_observer else []
    observers.append(commits)
    tracer = instrumentation.tracer if instrumentation else None
    clock = time.perf_counter
    try:
        with warnings.catch_warnings():
            # Overflow drops are what the open-loop workloads measure.
            warnings.simplefilter("ignore", TxPoolOverflowWarning)
            began = clock()
            builder = SessionBuilder(spec, observers=observers)
            for stage, name in STAGES:
                stage_began = clock()
                span = tracer.open(f"session.{name}") if tracer is not None else None
                getattr(builder, f"build_{stage}_stage")()
                if tracer is not None:
                    tracer.close(span)
                out.stage_s[name] = clock() - stage_began
            session = builder.build()
            out.setup_s = clock() - began

            _record_overflows(
                [r.txpool for r in session.replicas.values()],
                out.dropped,
                tracer.wrap if tracer is not None else None,
            )
            if instrumentation:
                instrumentation.attach(session, out)

            began = clock()
            session.run_to_quiescence()
            span = tracer.open("session.finish") if tracer is not None else None
            result = session.finish()
            if tracer is not None:
                tracer.close(span)
            out.run_s = clock() - began
    except Exception:  # a crashing session is a failed session, counted by the caller
        out.error = traceback.format_exc()
        return out
    finally:
        if instrumentation:
            instrumentation.detach()
    _collect(out, session, result, commits)
    return out


def _collect(out: Outcome, session, result, commits: CommitTimes) -> None:
    """Fill the deterministic outputs and check the run's correctness."""
    plan = out.plan
    byzantine = set(session.spec.byzantine_nodes)
    correct = [r for pid, r in sorted(session.replicas.items()) if pid not in byzantine]
    if plan.crash is not None and session.config.leader_of(1) != plan.crash[0]:
        out.error = f"crashed node {plan.crash[0]} is not the leader of view 1"
    elif not result.safety.consistent:
        out.error = f"inconsistent committed logs: {result.safety}"
    elif result.min_committed_height < session.spec.target_height:
        out.error = (
            f"min committed height {result.min_committed_height} "
            f"< target {session.spec.target_height}"
        )
    longest = max(correct, key=lambda r: r.committed_height)
    committed_ids = longest.log.committed_command_ids()
    pending: Set[str] = set()
    for replica in correct:
        pending.update(replica.txpool.pending_ids())
    out.arrivals = {
        c.command_id: (c.arrival_time if c.arrival_time is not None else 0.0)
        for c in session.commands
    }
    out.commits = dict(commits.commands)
    breakdown = result.energy.breakdown
    imp = session.network.impairment
    out.det = {
        "end_vt": session.sim.now,
        "delta": session.delta,
        "events": session.sim.executed_events,
        "min_height": result.min_committed_height,
        "blocks": longest.committed_height,
        "slots": len(committed_ids),
        "distinct": len(set(committed_ids)),
        "outage_vt": _outage(plan, commits.views),
        "view_changes": result.view_changes,
        "sign_ops": result.sign_operations,
        "verify_ops": result.verify_operations,
        "transmissions": result.network.physical_transmissions,
        "bytes": result.network.physical_bytes,
        "deliveries": result.network.deliveries,
        "messages_handled": sum(r.delivered_count for r in session.replicas.values()),
        "correct_mj": result.correct_energy_mj,
        "communication_mj": breakdown.communication * 1000.0,
        "cryptography_mj": breakdown.cryptography * 1000.0,
        "offered": len(session.commands),
        "admitted": sum(r.txpool.admitted for r in session.replicas.values()),
        "rejected_total": sum(r.txpool.dropped for r in session.replicas.values()),
        "backlog_end": len(pending),
        "dropped": result.deliveries_dropped,
        "retransmitted": result.deliveries_retransmitted,
        "giveups": result.delivery_giveups,
        "delivery_ratio": imp.delivery_ratio() if imp is not None else 1.0,
        "retransmit_events": dict(sorted(commits.retransmits.items())),
    }


def _outage(plan: Plan, views: Dict[int, float]) -> float:
    """Time from the event that stops service to the first commit after it.

    With a leader crash, that is the first commit of a block proposed in a
    later view than the crashed leader's: blocks it proposed before dying
    keep committing for about 4Δ and serve nobody who arrived after the
    crash.  Without one, the run's start is the only such event.
    """
    if not views:
        raise BenchmarkError(f"{plan.label}: no block committed")
    if plan.crash is None:
        return min(views.values())  # the run starts at vt 0
    later = [t for view, t in views.items() if view > 1]
    if not later:
        raise BenchmarkError(f"{plan.label}: nothing committed after the leader crash")
    return min(later) - plan.crash[1]


# ------------------------------------------------------------------ metrics
def slo_limit(out: Outcome) -> float:
    return SLO_LIMIT_DELTAS * out.det["delta"]


def _latencies(outs: Sequence[Outcome]) -> List[float]:
    values: List[float] = []
    for out in outs:
        values.extend(
            stats.censored_latencies(out.arrivals, out.commits, out.det["end_vt"]).values()
        )
    return values


def _misses(out: Outcome) -> int:
    return len(stats.slo_misses(out.arrivals, out.commits, out.dropped, slo_limit(out)))


def rung_outcomes(outs: Sequence[Outcome]) -> List[stats.RungOutcome]:
    """Ladder rungs, pooling the sub-seeds run at the same rate."""
    by_rate: Dict[float, List[Outcome]] = {}
    for out in outs:
        if out.plan.rate is not None:
            by_rate.setdefault(out.plan.rate, []).append(out)
    return [
        stats.RungOutcome(
            rate=rate,
            offered=sum(o.det["offered"] for o in group),
            misses=sum(_misses(o) for o in group),
            backlog_end=max(o.det["backlog_end"] for o in group),
        )
        for rate, group in sorted(by_rate.items())
    ]


def deterministic_metrics(outs: Sequence[Outcome], ladder: bool, min_tail: int) -> Dict[str, float]:
    """The end-to-end metrics that are pure functions of the seed."""
    measured = [o for o in outs if o.plan.measured]

    def total(key: str) -> float:
        return sum(o.det[key] for o in measured)

    distinct = total("distinct")
    if distinct < 1:
        raise BenchmarkError("no command committed; per-command metrics are undefined")
    latencies = _latencies(measured)
    tail = stats.tail_beyond(latencies, 0.99)
    if tail < min_tail:
        raise BenchmarkError(
            f"p99 has {tail} samples beyond it over {len(latencies)} offered; need {min_tail}"
        )
    misses = sum(_misses(o) for o in measured)
    if ladder:
        capacity = stats.capacity_rate(rung_outcomes(outs), BACKLOG_BOUND)
    else:
        in_slo = total("offered") - misses
        capacity = in_slo / total("end_vt")
    return {
        # RunResult.energy_per_block_mj, pooled over the measured sessions.
        "energy_per_block_mj": total("correct_mj")
        / sum(max(1, o.det["min_height"]) for o in measured),
        "energy_per_command_mj": total("correct_mj") / distinct,
        "goodput_vt": distinct / total("end_vt"),
        "latency_p50_vt": stats.nearest_rank(latencies, 0.50),
        "latency_p99_vt": stats.nearest_rank(latencies, 0.99),
        "slo_met_ratio": 1.0 - misses / total("offered"),
        "capacity_rate": capacity,
        "outage_vt": statistics.median([o.det["outage_vt"] for o in measured]),
        "_latency_samples": len(latencies),
        "_p99_tail_samples": tail,
    }


def layer_counts(outs: Sequence[Outcome]) -> Dict[str, float]:
    """Per-layer counts read from public results (identical traced or not)."""
    measured = [o for o in outs if o.plan.measured]

    def total(key: str) -> float:
        return sum(o.det[key] for o in outs)

    blocks = sum(max(1, o.det["min_height"]) for o in outs)
    retransmits = Counter()
    for out in outs:
        retransmits.update(out.det["retransmit_events"])
    waits, consensus = [], []
    for out in measured:
        for command_id, stored in out.first_store.items():
            arrival = out.arrivals.get(command_id)
            if arrival is not None:
                waits.append(stored - arrival)
            committed = out.commits.get(command_id)
            if committed is not None:
                consensus.append(committed - stored)
    return {
        "sim.events": total("events"),
        "net.transmissions": total("transmissions"),
        "net.bytes": total("bytes"),
        "net.deliveries": total("deliveries"),
        "net.dropped": total("dropped"),
        "net.retransmitted": total("retransmitted"),
        "net.giveups": total("giveups"),
        "net.delivery_ratio": min(o.det["delivery_ratio"] for o in outs),
        "core.messages_handled": total("messages_handled"),
        "core.blocks_committed": total("blocks"),
        "core.batch_slots": total("slots"),
        "core.batch_distinct_ratio": total("distinct") / max(1, total("slots")),
        "core.txpool_admitted": total("admitted"),
        "core.txpool_rejected_cmds": sum(len(o.dropped) for o in outs),
        "core.txpool_rejected_total": total("rejected_total"),
        "core.backlog_end": total("backlog_end"),
        "core.txpool_wait_p50_vt": stats.p50(waits),
        "core.consensus_p50_vt": stats.p50(consensus),
        "core.view_changes": total("view_changes"),
        "crypto.sign_ops": total("sign_ops"),
        "crypto.verify_ops": total("verify_ops"),
        "energy.communication_mj_per_block": total("communication_mj") / blocks,
        "energy.cryptography_mj_per_block": total("cryptography_mj") / blocks,
        "workload.offered": total("offered"),
        "recovery.retransmit_events": retransmits.get("retry", 0),
        "recovery.recovered": retransmits.get("recovered", 0),
        "recovery.giveups": retransmits.get("gave_up", 0),
    }


class BenchmarkError(RuntimeError):
    """The benchmark's own checks failed (not a failed session)."""


# ------------------------------------------------------------- traced run
def event_span(label: str) -> str:
    """The layer span an executed simulator event is charged to, by label."""
    if label.startswith("net:rtx"):
        return "recovery.event"
    if label.startswith(("net:", "fault:")):
        return "net.event"
    if label.startswith("workload:"):
        return "workload.event"
    return "core.event"


class Instrumentation:
    """The traced run's patches: installed around an iteration, then removed.

    Class-level wrappers (simulator step, network send paths, signatures,
    canonical serialization, energy charges, pool admission, block store,
    observer hooks) are installed by :meth:`install`; :meth:`attach` adds
    the per-session parts (event-label spans, replica ``on_message``).
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.canonical = Counter()
        self.tags = 0
        self._out: Optional[Outcome] = None
        self._depth = 0
        self._handlers: Set[type] = set()

    def install(self) -> None:
        tracer = self.tracer
        stack = tracer._stack
        original_step = Simulator.step

        def step(sim):
            depth = len(stack)
            index = tracer.open("sim.step")
            try:
                return original_step(sim)
            finally:
                while len(stack) > depth + 1:  # the event span opened by observe()
                    tracer.close(stack[-1])
                tracer.close(index)

        tracer.replace(Simulator, "step", step)
        for name in ("broadcast", "send", "multicast_neighbors"):
            tracer.patch(SimulatedNetwork, name, f"net.{name}")
        tracer.patch(SignatureScheme, "sign", "crypto.sign")
        tracer.patch(SignatureScheme, "verify", "crypto.verify")
        for name in ("bytes_for", "digest_for"):
            tracer.replace(
                CanonicalCache, name,
                tracer.wrap("crypto.canonical", self._counting(getattr(CanonicalCache, name))),
            )
        original_tag = KeyPair.sign_tag

        def sign_tag(pair, payload):
            self.tags += 1
            return original_tag(pair, payload)

        tracer.replace(KeyPair, "sign_tag", tracer.wrap("crypto.tag", sign_tag))
        tracer.patch(EnergyMeter, "charge", "energy.charge")
        tracer.patch(TxPool, "admit", "core.admit")
        original_store = BaseReplica.store_block

        def store_block(replica, block):
            if self._out is not None:
                first = self._out.first_store
                now = replica.sim.now
                for command_id in block.batch.command_ids:
                    first.setdefault(command_id, now)
            return original_store(replica, block)

        tracer.replace(BaseReplica, "store_block", tracer.wrap("core.store_block", store_block))
        for hook in ("on_session_start", "on_block_commit", "on_fault_window", "on_session_end"):
            tracer.patch(MetricsObserver, hook, "session.observer")
        for hook in ("on_block_commit", "on_retransmit"):
            tracer.patch(CommitTimes, hook, "bench.observer")

    def _counting(self, fn):
        """Classify outermost canonical-cache calls as hit, miss or uncached."""

        def counted(cache, payload):
            if self._depth:
                return fn(cache, payload)
            self._depth = 1
            hits, misses = cache.hits, cache.misses
            try:
                return fn(cache, payload)
            finally:
                self._depth = 0
                if cache.misses != misses:
                    self.canonical["miss"] += 1
                elif cache.hits != hits:
                    self.canonical["hit"] += 1
                else:
                    self.canonical["uncached"] += 1

        return counted

    def attach(self, session, out: Outcome) -> None:
        """Per-session parts: spans per executed event, replica message handlers."""
        tracer = self.tracer
        self._out = out
        names: Dict[str, str] = {}
        previous = session.sim.event_observer

        def observe(time_now: float, label: str) -> None:
            if previous is not None:
                previous(time_now, label)
            name = names.get(label)
            if name is None:
                name = names[label] = event_span(label)
            tracer.open(name)

        session.sim.event_observer = observe
        for replica in session.replicas.values():
            owner = next(c for c in type(replica).__mro__ if "on_message" in vars(c))
            if owner not in self._handlers:
                self._handlers.add(owner)
                tracer.patch(owner, "on_message", "core.on_message")

    def detach(self) -> None:
        self._out = None

    def uninstall(self) -> None:
        self.tracer.restore()
        self._handlers.clear()

    def layer_times(self) -> Dict[str, float]:
        """Self time per layer (first dotted part of the span name)."""
        out: Dict[str, float] = {}
        for name, own in self.tracer.self_by_name().items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own
        return out

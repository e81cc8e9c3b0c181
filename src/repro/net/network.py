"""Bounded-synchronous simulated network over a hypergraph.

This is the transport that every protocol in :mod:`repro.core` runs on.
It emulates the paper's CPS deployment:

* the topology is a :class:`repro.net.hypergraph.Hypergraph` of k-casts;
* a protocol-level *broadcast* is realised by flooding: the origin
  transmits on its outgoing hyper-edges and every correct node relays each
  unique message exactly once, so a single protocol message reaches all
  nodes with O(n * d) physical transmissions — the property EESMR exploits
  in the steady state;
* every physical transmission charges radio energy to the sender and to
  each receiver on the hyper-edge (receivers pay even for duplicates — the
  radio does not know the payload is old until it has received it), which
  is why measured energy grows linearly with the in-degree k, as in
  Fig. 2c;
* deliveries respect bounded synchrony: with per-hop delay at most
  ``hop_delay`` the end-to-end delay after flooding is bounded by
  ``diameter * hop_delay``, and experiments choose the protocol Δ above
  that bound (see :func:`repro.session.builder.compute_delta`);
* Byzantine nodes may silently refuse to relay (their relay policy is
  pluggable), which is exactly the partitioning threat the hypergraph fault
  bound (Appendix A) protects against.
"""

from __future__ import annotations

import itertools
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional

from repro.crypto.hashing import canonical_cache
from repro.energy.ledger import ClusterEnergyLedger
from repro.net.hypergraph import HyperEdge, Hypergraph
from repro.net.impairment import ImpairmentModel, ImpairmentSpec
from repro.radio.ble import BleAdvertisementKCast
from repro.radio.gatt import BleGattUnicast
from repro.sim.process import Process
from repro.sim.scheduler import Simulator
from repro.sim.rng import SeededRNG

#: Wire size of a reliable-delivery ACK (sequence number + flood id).
ACK_WIRE_BYTES = 8

#: Relay policy signature: (origin, message) -> should this node forward it?
RelayPolicy = Callable[[int, Any], bool]


def _never_relay(_origin: int, _message: Any) -> bool:
    """The relay policy installed while a refcounted relay denial is active."""
    return False


class DisseminationPlan:
    """A compiled flood plan: the per-hop path as flat lookup structures.

    Relaying a flood hop is a pure function of the (topology, relay-policy,
    partition) state and the message's wire size — none of which change
    between fault-window transitions.  The plan precomputes, per node:

    * whether the node relays at all (``True`` / ``False``), or ``None``
      with the custom policy callable to consult per flood (policies may
      inspect the message, so they cannot be folded into the plan);
    * the node's energy meter handle;
    * one record per outgoing hyper-edge: the radio cost object for this
      plan's wire size, the partition-filtered sorted receiver tuple, and
      the pre-rendered trace detail string.

    Executing the plan touches O(1) precompiled state per hop instead of
    re-querying the topology index, relay-policy dict, partition set,
    radio-cost memo and meter cache.  Plans are validated against the
    network's state epoch (and the hypergraph's topology version) at every
    relay, so the rare fault-window transitions that mutate policy or
    partition state invalidate them exactly where the uncompiled path
    would have observed the new state — traces stay byte-identical.
    """

    __slots__ = ("state_epoch", "topology_version", "size", "nodes")

    def __init__(self, state_epoch: int, topology_version: int, size: int, nodes: dict) -> None:
        self.state_epoch = state_epoch
        self.topology_version = topology_version
        self.size = size
        #: pid -> (relays, policy, meter, edge records); partitioned nodes
        #: are absent (they neither relay nor receive).
        self.nodes = nodes


def default_wire_size(message: Any) -> int:
    """Wire size of a message in bytes.

    Messages that know their own size expose ``wire_size_bytes``; anything
    else is serialized canonically and measured.  Both paths are flyweights:
    protocol messages memoize their size per instance, and raw payloads go
    through :data:`~repro.crypto.hashing.canonical_cache`, so a flood sizes
    each message once instead of once per relay.
    """
    size = getattr(message, "wire_size_bytes", None)
    if size is not None:
        return int(size)
    return canonical_cache.wire_size_for(message)


@dataclass
class NetworkStats:
    """Counters used for communication-complexity measurements (Table 3)."""

    broadcasts: int = 0
    unicasts: int = 0
    physical_transmissions: int = 0
    physical_bytes: int = 0
    deliveries: int = 0
    per_node_transmissions: Counter = field(default_factory=Counter)
    per_node_bytes: Counter = field(default_factory=Counter)

    def record_transmission(self, sender: int, size_bytes: int) -> None:
        self.physical_transmissions += 1
        self.physical_bytes += size_bytes
        self.per_node_transmissions[sender] += 1
        self.per_node_bytes[sender] += size_bytes


class SimulatedNetwork:
    """Flooding network over a hypergraph with energy accounting.

    Floods execute through compiled :class:`DisseminationPlan` objects by
    default (``use_compiled_plans``): the per-hop relay path reads flat
    precompiled records instead of re-querying the topology index, relay
    policies and partition set, and plans are invalidated by the (rare)
    fault-window transitions that mutate that state — behaviour and traces
    are byte-identical to the uncompiled path.

    Flood bookkeeping is garbage collected: the per-flood dedup sets
    (``_relayed`` / ``_delivered`` / ``_single_hop``) are retired as soon as
    a flood has no receptions left in flight, so long runs hold state for
    the handful of floods currently propagating instead of every flood ever
    broadcast.  Set :attr:`gc_floods` to ``False`` to retain everything
    (tests and the perf harness's legacy mode use this).

    Known limitations, accepted deliberately:

    * if in-flight reception events are discarded externally (via
      ``Simulator.drain``/``clear``), the affected floods' dedup state is
      kept until the network is rebuilt — the in-flight counters never
      reach zero.  No current caller drains network events mid-flood;
    * when the simulator is *not* tracing, reception/unicast events carry
      the constant labels ``"net:flood"``/``"net:uni"`` instead of the
      per-event strings, so label-selective ``Simulator.drain`` over
      network events only works on traced runs.  Traced runs (what the
      testkit fingerprints) see exactly the seed's labels.
    """

    #: Class-wide switches; the perf legacy mode flips them off to measure
    #: the seed's per-hop costs.
    gc_floods = True
    use_edge_caches = True
    #: Execute floods through compiled :class:`DisseminationPlan` objects
    #: instead of re-querying topology/policy/partition state per hop.
    use_compiled_plans = True
    #: When ``True``, trace labels and energy details are built eagerly even
    #: if nothing consumes them (seed behaviour; legacy mode only).
    eager_annotations = False

    def __init__(
        self,
        sim: Simulator,
        hypergraph: Hypergraph,
        ledger: ClusterEnergyLedger,
        rng: Optional[SeededRNG] = None,
        kcast_radio: Optional[BleAdvertisementKCast] = None,
        unicast_radio: Optional[BleGattUnicast] = None,
        hop_delay: float = 1.0,
        jitter: bool = True,
        charge_duplicate_receptions: bool = True,
    ) -> None:
        self.sim = sim
        self.hypergraph = hypergraph
        self.ledger = ledger
        # Reserved exclusively for hop-jitter draws (:meth:`_hop_latency`).
        # Every other stochastic consumer (the impairment model, the
        # reliable sublayer's backoff jitter) derives its own child stream,
        # so new randomness can never perturb baseline delivery timing.
        # detlint: ok rng-stream-discipline — constructor fallback for direct test construction; every session build injects the spec-derived stream (SessionBuilder passes SeededRNG(spec.seed))
        self.rng = rng or SeededRNG(0)
        self.kcast_radio = kcast_radio or BleAdvertisementKCast()
        self.unicast_radio = unicast_radio or BleGattUnicast()
        self.hop_delay = hop_delay
        self.jitter = jitter
        self.charge_duplicate_receptions = charge_duplicate_receptions

        self.processes: Dict[int, Process] = {}
        self.relay_policies: Dict[int, RelayPolicy] = {}
        self.stats = NetworkStats()
        self._flood_counter = itertools.count()
        # flood id -> set of node ids that have already relayed it
        self._relayed: Dict[int, set[int]] = {}
        # flood ids that must not be relayed beyond the first hop
        self._single_hop: set[int] = set()
        # flood id -> set of node ids that have already had it delivered
        self._delivered: Dict[int, set[int]] = {}
        # flood id -> receptions scheduled but not yet arrived; a flood's
        # dedup state is retired when this drops to zero.
        self._in_flight: Dict[int, int] = {}
        # pid -> isolation depth.  Overlapping partition windows each call
        # isolate()/reconnect(); the node rejoins only when every window
        # that cut it off has healed.  Membership tests treat the dict as
        # the set of currently-partitioned nodes.
        self._partition: Dict[int, int] = {}
        # pid -> relay-denial depth, and the base policy saved when the
        # first denial was pushed.  Interleaved relay-drop windows share
        # this state, so relaying resumes only when the *last* window lifts.
        self._relay_denial_depth: Dict[int, int] = {}
        self._relay_denial_saved: Dict[int, Optional[RelayPolicy]] = {}
        # (size, k) -> radio cost: transmission pricing is a pure function
        # of payload size and edge degree, recomputed once per shape.
        self._kcast_costs: Dict[tuple, Any] = {}
        # pid -> meter: skips the ledger's lazy-create indirection on the
        # two-charges-per-reception hot path.
        self._meter_cache: Dict[int, Any] = {}
        # Compiled dissemination plans, keyed by wire size.  Bumping
        # ``_state_epoch`` (any relay-policy or partition mutation)
        # invalidates every cached plan; the hypergraph's own
        # ``topology_version`` covers edge mutations.
        self._plans: Dict[int, DisseminationPlan] = {}
        self._state_epoch = 0
        # Optional (node, kind, active, time) callback fired on *effective*
        # fault-window transitions (relay denial and partition edges) — the
        # session observer bus's ``on_fault_window`` dispatch.
        self.fault_observer = None
        # Unbalanced reconnect() calls (no isolation active).  Kept out of
        # ``NetworkStats`` deliberately: the trace recorder fingerprints
        # that dataclass field-for-field and golden traces predate this
        # counter.  Exposed via :meth:`recovery_metrics`.
        self.unbalanced_reconnects = 0
        self._warned_unbalanced_reconnect = False
        # Wire-level impairment (off by default: ``None`` keeps the delivery
        # path byte-identical to the seed — one attribute test per hop).
        # Created lazily by :meth:`configure_impairment` / the timed
        # impairment fault atoms via :meth:`impair_node`.
        self.impairment: Optional[ImpairmentModel] = None
        #: Retry/backoff parameters of the reliable-delivery sublayer.
        #: Imported lazily: ``repro.recovery``'s package init reaches the
        #: session/eval layers, which import back into ``repro.net``.
        from repro.recovery.reliable import ReliabilityPolicy

        self.reliability = ReliabilityPolicy()
        # Optional (node, event, detail, time) callback fired on reliable
        # sublayer lifecycle transitions ("retry" / "recovered" /
        # "gave_up") — the session observer bus's ``on_retransmit``.
        self.retransmit_observer = None
        self._ack_cost_memo = None

    # ---------------------------------------------------------- registration
    def register(self, process: Process) -> None:
        """Attach a process (replica, client, control node) to the network."""
        if process.pid in self.processes:
            raise ValueError(f"process {process.pid} already registered")
        if process.pid not in self.hypergraph.nodes:
            raise ValueError(f"process {process.pid} is not a node of the topology")
        self.processes[process.pid] = process

    def set_relay_policy(self, pid: int, policy: RelayPolicy) -> None:
        """Override the relay behaviour of one node (used for Byzantine nodes).

        While a refcounted relay denial (:meth:`deny_relay`) is active the
        denial stays on top: the new policy becomes the base restored when
        the last denial lifts.
        """
        if pid in self._relay_denial_depth:
            self._relay_denial_saved[pid] = policy
        else:
            self.relay_policies[pid] = policy
        self.invalidate_plans()

    def deny_relay(self, pid: int) -> None:
        """Push one refcounted relay denial onto ``pid``.

        The node's base policy (if any) is saved on the first push and
        restored by the matching last :meth:`allow_relay`, so interleaved
        drop windows compose: the node resumes relaying only when every
        window has closed.
        """
        depth = self._relay_denial_depth.get(pid, 0)
        if depth == 0:
            self._relay_denial_saved[pid] = self.relay_policies.get(pid)
            self.relay_policies[pid] = _never_relay
            if self.fault_observer is not None:
                self.fault_observer(pid, "relay-deny", True, self.sim.now)
        self._relay_denial_depth[pid] = depth + 1
        self.invalidate_plans()

    def allow_relay(self, pid: int) -> None:
        """Pop one relay denial; restores the base policy at depth zero.

        Unbalanced calls (no denial active) are a no-op, so healing an
        already-healed window cannot clobber an unrelated policy.
        """
        depth = self._relay_denial_depth.get(pid, 0)
        if depth == 0:
            return
        if depth == 1:
            del self._relay_denial_depth[pid]
            previous = self._relay_denial_saved.pop(pid, None)
            if previous is None:
                self.relay_policies.pop(pid, None)
            else:
                self.relay_policies[pid] = previous
            if self.fault_observer is not None:
                self.fault_observer(pid, "relay-deny", False, self.sim.now)
        else:
            self._relay_denial_depth[pid] = depth - 1
        self.invalidate_plans()

    def isolate(self, pid: int) -> None:
        """Disconnect a node (failure injection helper).

        Refcounted: each :meth:`isolate` must be undone by its own
        :meth:`reconnect`, so overlapping partition windows on the same
        node cannot heal it early.
        """
        depth = self._partition.get(pid, 0)
        self._partition[pid] = depth + 1
        if depth == 0 and self.fault_observer is not None:
            self.fault_observer(pid, "partition", True, self.sim.now)
        self.invalidate_plans()

    def reconnect(self, pid: int) -> None:
        """Undo one :meth:`isolate`; the node rejoins at depth zero.

        Reconnecting a node that is not isolated leaves the partition
        state untouched, but it is *counted* (``unbalanced_reconnects``,
        surfaced via :meth:`recovery_metrics`) and warned about once per
        network: a silent no-op is exactly how the pre-refcount
        fault-composition bugs hid, and an unbalanced call almost always
        means a fault schedule healed a window it never opened.
        """
        depth = self._partition.get(pid, 0)
        if depth == 0:
            self.unbalanced_reconnects += 1
            if not self._warned_unbalanced_reconnect:
                self._warned_unbalanced_reconnect = True
                warnings.warn(
                    f"reconnect({pid}) without a matching isolate(): the call "
                    "is a no-op; check the fault schedule's window composition "
                    "(further unbalanced reconnects on this network are "
                    "counted but not warned about)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return
        if depth == 1:
            self._partition.pop(pid, None)
            if self.fault_observer is not None:
                self.fault_observer(pid, "partition", False, self.sim.now)
        else:
            self._partition[pid] = depth - 1
        self.invalidate_plans()

    def is_partitioned(self, pid: int) -> bool:
        """Whether ``pid`` is currently cut off by at least one open window."""
        return pid in self._partition

    def recovery_metrics(self) -> Dict[str, int]:
        """Net-layer counters surfaced to the recovery subsystem."""
        return {"unbalanced_reconnects": self.unbalanced_reconnects}

    # ----------------------------------------------------------- impairment
    def configure_impairment(self, spec: Optional[ImpairmentSpec]) -> ImpairmentModel:
        """Install a wire-level impairment (see :mod:`repro.net.impairment`).

        The model's RNG is derived from the network stream with a pure
        ``child()`` call, so configuring (or never configuring) an
        impairment leaves the hop-jitter stream byte-identical.  The
        spec's retransmission budget is mirrored onto
        :attr:`reliability` so one knob governs the reliable sublayer.
        """
        model = self._ensure_impairment()
        if spec is not None:
            model.spec = spec
            if spec.max_retries != self.reliability.max_retries:
                self.reliability = replace(self.reliability, max_retries=spec.max_retries)
        return model

    def _ensure_impairment(self) -> ImpairmentModel:
        model = self.impairment
        if model is None:
            model = ImpairmentModel(
                None,
                self.rng.child("impairment"),
                loss_model=getattr(self.kcast_radio, "loss_model", None),
            )
            self.impairment = model
        return model

    def impair_node(self, pid: int, kind: str, value: float) -> None:
        """Push one per-node impairment overlay (a fault window opening).

        Overlays stack like the refcounted relay/partition mutators:
        nested windows compose and each :meth:`unimpair_node` pops one.
        """
        self._ensure_impairment().push(pid, kind, value)
        if self.fault_observer is not None:
            self.fault_observer(pid, f"impair-{kind}", True, self.sim.now)
        self.invalidate_plans()

    def unimpair_node(self, pid: int, kind: str) -> None:
        """Pop the most recent ``kind`` overlay on ``pid`` (window closing)."""
        model = self.impairment
        if model is None:
            return
        model.pop(pid, kind)
        if self.fault_observer is not None:
            self.fault_observer(pid, f"impair-{kind}", False, self.sim.now)
        self.invalidate_plans()

    def impairment_metrics(self) -> Optional[Dict[str, int]]:
        """Aggregate impairment/retransmission counters, or ``None`` when
        the wire has never been impaired."""
        if self.impairment is None:
            return None
        return self.impairment.stats_dict()

    def invalidate_plans(self) -> None:
        """Invalidate every compiled dissemination plan.

        Called automatically by the relay-policy and partition mutators;
        cheap (one integer bump), so fault windows pay nothing beyond the
        recompile their first post-transition flood hop triggers.
        """
        self._state_epoch += 1

    # -------------------------------------------------------------- timing
    def _hop_latency(self) -> float:
        # Draws only from ``self.rng`` — the dedicated jitter stream.  The
        # impairment model and retransmission chains draw their latencies
        # from their own child stream, so the sequence of jitter draws (and
        # with it every baseline fingerprint) is independent of whether the
        # wire is impaired.
        if not self.jitter:
            return self.hop_delay
        return self.hop_delay * self.rng.uniform(0.5, 1.0)

    # ------------------------------------------------------------ broadcast
    def broadcast(self, origin: int, message: Any) -> int:
        """Flood ``message`` from ``origin`` to every node; returns the flood id.

        The origin is delivered its own message immediately (protocols rely
        on "the leader also acts as a node"); everyone else receives it when
        the flood first reaches them.
        """
        self._require_registered(origin)
        flood_id = next(self._flood_counter)
        self._relayed[flood_id] = set()
        self._delivered[flood_id] = set()
        self._in_flight[flood_id] = 0
        self.stats.broadcasts += 1
        # Local delivery to the origin (no radio energy).
        self._deliver(flood_id, origin, origin, message, local=True)
        if self.use_compiled_plans:
            size = default_wire_size(message)
            self._plan_relay(self._plan_for(size), flood_id, origin, origin, message)
        else:
            size = default_wire_size(message) if self.use_edge_caches else None
            self._relay_from(flood_id, origin, origin, message, size)
        self._maybe_retire_flood(flood_id)
        return flood_id

    # ------------------------------------------------------- compiled plans
    def _plan_for(self, size: int) -> DisseminationPlan:
        """The current compiled plan for ``size``-byte floods.

        Stale cached plans (state epoch or topology version moved) are
        discarded wholesale; compilation is O(nodes + edges) and happens
        once per (fault-window epoch, wire size).
        """
        state_epoch = self._state_epoch
        topology_version = self.hypergraph.topology_version
        plan = self._plans.get(size)
        if (
            plan is not None
            and plan.state_epoch == state_epoch
            and plan.topology_version == topology_version
        ):
            return plan
        plan = self._compile_plan(size, state_epoch, topology_version)
        if size in self._plans or len(self._plans) < 1024:
            self._plans[size] = plan
        return plan

    def _compile_plan(
        self, size: int, state_epoch: int, topology_version: int
    ) -> DisseminationPlan:
        partition = self._partition
        nodes: Dict[int, tuple] = {}
        for node in self.hypergraph.nodes:
            if node in partition:
                continue
            policy = self.relay_policies.get(node)
            if policy is None:
                relays: Optional[bool] = True
            elif policy is _never_relay:
                relays = False
            else:
                relays = None  # message-dependent: consult at flood time
            edges = []
            for edge in self.hypergraph.out_edges(node):
                k = edge.degree
                cost = self._kcast_cost(size, k)
                receivers = tuple(
                    r for r in edge.receivers_sorted if r not in partition
                )
                edges.append((cost, receivers, f"kcast k={k} {size}B"))
            nodes[node] = (relays, policy, self._meter(node), tuple(edges))
        return DisseminationPlan(state_epoch, topology_version, size, nodes)

    def _plan_relay(
        self, plan: DisseminationPlan, flood_id: int, node: int, origin: int, message: Any
    ) -> None:
        """Relay one flood hop through a compiled plan.

        Mirrors :meth:`_relay_from` exactly — same dedup bookkeeping, same
        charge/latency/schedule order — but against precompiled state.  The
        plan is revalidated here (one epoch compare per hop) so fault
        transitions that fired since compilation are observed at the same
        point the uncompiled path would re-read the mutated dicts.
        """
        if (
            plan.state_epoch != self._state_epoch
            or plan.topology_version != self.hypergraph.topology_version
        ):
            plan = self._plan_for(plan.size)
        record = plan.nodes.get(node)
        if record is None:  # partitioned at plan-compile time
            return
        relayed = self._relayed[flood_id]
        if node in relayed:
            return
        relays, policy, meter, edges = record
        if node != origin and (
            relays is False or (relays is None and not policy(origin, message))
        ):
            relayed.add(node)
            return
        relayed.add(node)
        size = plan.size
        sim_now = self.sim.now
        tracing = meter.trace_enabled or self.eager_annotations
        stats = self.stats
        for cost, receivers, detail in edges:
            meter.charge_transmit(
                cost.sender_energy_j, sim_now, detail=detail if tracing else ""
            )
            stats.record_transmission(node, size)
            latency = self._hop_latency()
            for receiver in receivers:
                self._schedule_reception(
                    flood_id, node, receiver, origin, message, cost, latency, size, plan
                )

    def _maybe_retire_flood(self, flood_id: int) -> None:
        """Drop a flood's dedup state once no receptions remain in flight."""
        if not self.gc_floods:
            return
        if self._in_flight.get(flood_id, 0) == 0:
            self._in_flight.pop(flood_id, None)
            self._relayed.pop(flood_id, None)
            self._delivered.pop(flood_id, None)
            self._single_hop.discard(flood_id)

    @property
    def live_floods(self) -> int:
        """Number of floods whose dedup state is still held (GC metric)."""
        return len(self._delivered)

    def _relay_from(
        self, flood_id: int, node: int, origin: int, message: Any, size: Optional[int] = None
    ) -> None:
        """Transmit ``message`` on all of ``node``'s outgoing hyper-edges.

        ``size`` is threaded down from the broadcast so a flood sizes its
        message once; when ``None`` (legacy mode, external callers) it is
        recomputed here, once per relaying node, as the seed did.
        """
        if node in self._partition:
            return
        relayed = self._relayed[flood_id]
        if node in relayed:
            return
        if node != origin and flood_id in self._single_hop:
            # One-hop multicast: receivers do not forward.
            relayed.add(node)
            return
        policy = self.relay_policies.get(node)
        if node != origin and policy is not None and not policy(origin, message):
            # Byzantine (or misconfigured) nodes may silently drop relays;
            # the hypergraph fault bound guarantees correct nodes still
            # receive the flood via other paths.
            relayed.add(node)
            return
        relayed.add(node)
        if size is None:
            size = default_wire_size(message)
        for edge in self.hypergraph.out_edges(node):
            self._transmit_edge(flood_id, edge, origin, message, size)

    def _meter(self, pid: int):
        meter = self._meter_cache.get(pid)
        if meter is None:
            meter = self.ledger.meter(pid)
            self._meter_cache[pid] = meter
        return meter

    def _kcast_cost(self, size: int, k: int):
        cost = self._kcast_costs.get((size, k))
        if cost is None:
            cost = self.kcast_radio.transmission_cost(size, k)
            if len(self._kcast_costs) < 4096:
                self._kcast_costs[(size, k)] = cost
        return cost

    def _transmit_edge(
        self, flood_id: int, edge: HyperEdge, origin: int, message: Any, size: int
    ) -> None:
        k = edge.degree
        if self.use_edge_caches:
            cost = self._kcast_cost(size, k)
            receivers = edge.receivers_sorted
        else:
            cost = self.kcast_radio.transmission_cost(size, k)
            receivers = sorted(edge.receivers)
        sender_meter = self._meter(edge.sender)
        detail = (
            f"kcast k={k} {size}B"
            if sender_meter.trace_enabled or self.eager_annotations
            else ""
        )
        sender_meter.charge_transmit(cost.sender_energy_j, self.sim.now, detail=detail)
        self.stats.record_transmission(edge.sender, size)
        latency = self._hop_latency()
        relay_size = size if self.use_edge_caches else None
        for receiver in receivers:
            if receiver in self._partition:
                continue
            self._schedule_reception(
                flood_id, edge.sender, receiver, origin, message, cost, latency, relay_size
            )

    def _schedule_reception(
        self,
        flood_id: int,
        hop_sender: int,
        receiver: int,
        origin: int,
        message: Any,
        cost,
        latency: float,
        size: Optional[int] = None,
        plan: Optional[DisseminationPlan] = None,
    ) -> None:
        imp = self.impairment
        if imp is not None and imp.engaged(self.sim.now):
            self._impaired_reception(
                flood_id, hop_sender, receiver, origin, message, cost, latency, size, plan, imp
            )
            return
        self._schedule_arrival(
            flood_id, hop_sender, receiver, origin, message, cost, latency, size, plan
        )

    def _schedule_arrival(
        self,
        flood_id: int,
        hop_sender: int,
        receiver: int,
        origin: int,
        message: Any,
        cost,
        latency: float,
        size: Optional[int] = None,
        plan: Optional[DisseminationPlan] = None,
    ) -> None:
        def arrive() -> None:
            delivered = self._delivered.get(flood_id)
            if delivered is None:
                # Defensive: the flood's state was dropped externally
                # (e.g. a test resetting the network); treat as duplicate.
                already_delivered = True
            else:
                already_delivered = receiver in delivered
            if self.charge_duplicate_receptions or not already_delivered:
                meter = self._meter(receiver)
                detail = (
                    f"kcast from {hop_sender}"
                    if meter.trace_enabled or self.eager_annotations
                    else ""
                )
                meter.charge_receive(cost.per_receiver_energy_j, self.sim.now, detail=detail)
            if not already_delivered:
                self._deliver(flood_id, origin, receiver, message)
                if plan is not None:
                    self._plan_relay(plan, flood_id, receiver, origin, message)
                else:
                    self._relay_from(flood_id, receiver, origin, message, size)
            if self.gc_floods:
                remaining = self._in_flight.get(flood_id)
                if remaining is not None:
                    self._in_flight[flood_id] = remaining - 1
                    self._maybe_retire_flood(flood_id)

        if self.gc_floods:
            self._in_flight[flood_id] = self._in_flight.get(flood_id, 0) + 1
        if self.sim.trace_enabled or self.eager_annotations:
            label = f"net:flood{flood_id}->{receiver}"
        else:
            label = "net:flood"
        self.sim.schedule(latency, arrive, label=label)

    # ------------------------------------------------- impaired delivery
    def _impaired_reception(
        self,
        flood_id: int,
        hop_sender: int,
        receiver: int,
        origin: int,
        message: Any,
        cost,
        latency: float,
        size: Optional[int],
        plan: Optional[DisseminationPlan],
        imp: ImpairmentModel,
    ) -> None:
        """Judge one hop delivery against the impairment model.

        A dropped delivery hands off to the reliable sublayer's
        retransmission chain; a duplicated one arrives twice (the radio
        does not dedup — the receiver pays energy for both copies, the
        flood dedup set drops the payload); jitter/reorder verdicts delay
        the arrival.  All extra latency draws come from the impairment
        stream, never from the hop-jitter stream.
        """
        dropped, duplicated, extra = imp.judge(receiver, cost, self.sim.now, self.hop_delay)
        if dropped:
            self._begin_retransmit(
                flood_id, hop_sender, receiver, origin, message, cost, size, plan, imp
            )
            return
        if extra:
            latency += extra
        self._schedule_arrival(
            flood_id, hop_sender, receiver, origin, message, cost, latency, size, plan
        )
        if duplicated:
            dup_latency = latency + self.hop_delay * imp.rng.uniform(0.25, 0.75)
            self._schedule_arrival(
                flood_id, hop_sender, receiver, origin, message, cost, dup_latency, size, plan
            )

    def _begin_retransmit(
        self,
        flood_id: int,
        hop_sender: int,
        receiver: int,
        origin: int,
        message: Any,
        cost,
        size: Optional[int],
        plan: Optional[DisseminationPlan],
        imp: ImpairmentModel,
    ) -> None:
        if self.reliability.max_retries <= 0:
            self._flood_giveup(flood_id, hop_sender, receiver, imp)
            return
        if self.gc_floods:
            # Chain token: hold the flood's dedup state alive while the
            # retransmission chain is pending.  Released on give-up, on an
            # implicit ACK (delivery via another edge), or once the
            # recovered copy's real arrival has been scheduled (which
            # takes its own in-flight reference).
            self._in_flight[flood_id] = self._in_flight.get(flood_id, 0) + 1
        self._schedule_retransmit(
            flood_id, hop_sender, receiver, origin, message, cost, size, plan, imp, attempt=0
        )

    def _schedule_retransmit(
        self,
        flood_id: int,
        hop_sender: int,
        receiver: int,
        origin: int,
        message: Any,
        cost,
        size: Optional[int],
        plan: Optional[DisseminationPlan],
        imp: ImpairmentModel,
        attempt: int,
    ) -> None:
        policy = self.reliability
        delay = policy.retry_delay(attempt, imp.rng)
        if self.sim.trace_enabled or self.eager_annotations:
            label = f"net:rtx{flood_id}->{receiver}"
        else:
            label = "net:rtx"

        def resend() -> None:
            delivered = self._delivered.get(flood_id)
            if (
                delivered is None
                or receiver in delivered
                or receiver in self._partition
                or hop_sender in self._partition
            ):
                # Implicit ACK — the receiver got this flood via another
                # edge in the meantime — or a partition cut the link.
                self._release_chain(flood_id)
                return
            meter = self._meter(hop_sender)
            tracing = meter.trace_enabled or self.eager_annotations
            wire = size if size is not None else default_wire_size(message)
            meter.charge_transmit(
                cost.sender_energy_j,
                self.sim.now,
                detail=f"retransmit->{receiver} {wire}B" if tracing else "",
            )
            self.stats.record_transmission(hop_sender, wire)
            imp.note_retransmit(receiver)
            if self.retransmit_observer is not None:
                self.retransmit_observer(
                    receiver,
                    "retry",
                    f"flood {flood_id} retry {attempt + 1} from {hop_sender}",
                    self.sim.now,
                )
            if imp.rng.chance(imp.loss_probability(receiver, cost, self.sim.now)):
                if attempt + 1 >= policy.max_retries:
                    self._flood_giveup(flood_id, hop_sender, receiver, imp)
                    self._release_chain(flood_id)
                else:
                    self._schedule_retransmit(
                        flood_id,
                        hop_sender,
                        receiver,
                        origin,
                        message,
                        cost,
                        size,
                        plan,
                        imp,
                        attempt + 1,
                    )
                return
            # Recovered: the copy got through and the receiver ACKs it.
            latency = (
                self.hop_delay * imp.rng.uniform(0.5, 1.0) if self.jitter else self.hop_delay
            )
            self._charge_ack(hop_sender, receiver)
            imp.note_recovered(receiver)
            if self.retransmit_observer is not None:
                self.retransmit_observer(
                    receiver,
                    "recovered",
                    f"flood {flood_id} retry {attempt + 1} from {hop_sender}",
                    self.sim.now,
                )
            self._schedule_arrival(
                flood_id, hop_sender, receiver, origin, message, cost, latency, size, plan
            )
            self._release_chain(flood_id)

        self.sim.schedule(delay, resend, label=label)

    def _flood_giveup(
        self, flood_id: int, hop_sender: int, receiver: int, imp: ImpairmentModel
    ) -> None:
        imp.note_giveup(receiver)
        if self.retransmit_observer is not None:
            self.retransmit_observer(
                receiver, "gave_up", f"flood {flood_id} from {hop_sender}", self.sim.now
            )

    def _release_chain(self, flood_id: int) -> None:
        if not self.gc_floods:
            return
        remaining = self._in_flight.get(flood_id)
        if remaining is not None:
            self._in_flight[flood_id] = remaining - 1
            self._maybe_retire_flood(flood_id)

    def _ack_cost(self):
        cost = self._ack_cost_memo
        if cost is None:
            cost = self.unicast_radio.transmission_cost(ACK_WIRE_BYTES)
            self._ack_cost_memo = cost
        return cost

    def _charge_ack(self, hop_sender: int, receiver: int) -> None:
        """Charge the per-message ACK of a recovered reliable delivery.

        The receiver transmits a small ACK unicast; the retransmitting
        sender receives it.  First-attempt deliveries stay ACK-free (the
        sublayer is lazy: it only engages explicit acknowledgements once
        a loss is suspected), so the baseline energy model is unchanged.
        """
        cost = self._ack_cost()
        now = self.sim.now
        receiver_meter = self._meter(receiver)
        tracing = receiver_meter.trace_enabled or self.eager_annotations
        receiver_meter.charge_transmit(
            cost.sender_energy_j, now, detail=f"ack->{hop_sender}" if tracing else ""
        )
        sender_meter = self._meter(hop_sender)
        sender_meter.charge_receive(
            cost.receiver_energy_j, now, detail=f"ack from {receiver}" if tracing else ""
        )
        self.stats.record_transmission(receiver, ACK_WIRE_BYTES)

    def _deliver(
        self, flood_id: int, origin: int, receiver: int, message: Any, local: bool = False
    ) -> None:
        self._delivered[flood_id].add(receiver)
        process = self.processes.get(receiver)
        if process is None:
            return
        self.stats.deliveries += 1
        process.deliver(origin, message)

    # -------------------------------------------------------------- unicast
    def send(self, src: int, dst: int, message: Any) -> None:
        """Point-to-point send from ``src`` to ``dst`` over the unicast radio.

        The base system model assumes point-to-point links exist between all
        node pairs; the CPS instantiation realises them as (serialised) GATT
        connections.  Energy is charged to both endpoints; delivery happens
        after at most one hop delay.
        """
        self._require_registered(src)
        if dst not in self.hypergraph.nodes:
            raise ValueError(f"destination {dst} is not a node of the topology")
        if src in self._partition or dst in self._partition:
            return
        size = default_wire_size(message)
        cost = self.unicast_radio.transmission_cost(size)
        src_meter = self._meter(src)
        detail = (
            f"unicast->{dst} {size}B"
            if src_meter.trace_enabled or self.eager_annotations
            else ""
        )
        src_meter.charge_transmit(cost.sender_energy_j, self.sim.now, detail=detail)
        self.stats.unicasts += 1
        self.stats.record_transmission(src, size)
        latency = self._hop_latency()

        imp = self.impairment
        if imp is not None and imp.engaged(self.sim.now):
            dropped, duplicated, extra = imp.judge(dst, cost, self.sim.now, self.hop_delay)
            if dropped:
                self._begin_unicast_retransmit(src, dst, message, cost, size, imp)
                return
            if extra:
                latency += extra
            self._schedule_unicast_arrival(src, dst, message, cost, latency)
            if duplicated:
                dup_latency = latency + self.hop_delay * imp.rng.uniform(0.25, 0.75)
                self._schedule_unicast_arrival(src, dst, message, cost, dup_latency)
            return
        self._schedule_unicast_arrival(src, dst, message, cost, latency)

    def _schedule_unicast_arrival(
        self, src: int, dst: int, message: Any, cost, latency: float
    ) -> None:
        def arrive() -> None:
            meter = self._meter(dst)
            detail = (
                f"unicast from {src}"
                if meter.trace_enabled or self.eager_annotations
                else ""
            )
            meter.charge_receive(cost.receiver_energy_j, self.sim.now, detail=detail)
            process = self.processes.get(dst)
            if process is not None:
                self.stats.deliveries += 1
                process.deliver(src, message)

        if self.sim.trace_enabled or self.eager_annotations:
            label = f"net:uni {src}->{dst}"
        else:
            label = "net:uni"
        self.sim.schedule(latency, arrive, label=label)

    def _begin_unicast_retransmit(
        self, src: int, dst: int, message: Any, cost, size: int, imp: ImpairmentModel
    ) -> None:
        if self.reliability.max_retries <= 0:
            imp.note_giveup(dst)
            if self.retransmit_observer is not None:
                self.retransmit_observer(
                    dst, "gave_up", f"unicast from {src}", self.sim.now
                )
            return
        self._schedule_unicast_retransmit(src, dst, message, cost, size, imp, attempt=0)

    def _schedule_unicast_retransmit(
        self, src: int, dst: int, message: Any, cost, size: int, imp: ImpairmentModel, attempt: int
    ) -> None:
        policy = self.reliability
        delay = policy.retry_delay(attempt, imp.rng)
        if self.sim.trace_enabled or self.eager_annotations:
            label = f"net:rtx-uni {src}->{dst}"
        else:
            label = "net:rtx-uni"

        def resend() -> None:
            if src in self._partition or dst in self._partition:
                return
            meter = self._meter(src)
            tracing = meter.trace_enabled or self.eager_annotations
            meter.charge_transmit(
                cost.sender_energy_j,
                self.sim.now,
                detail=f"retransmit->{dst} {size}B" if tracing else "",
            )
            self.stats.record_transmission(src, size)
            imp.note_retransmit(dst)
            if self.retransmit_observer is not None:
                self.retransmit_observer(
                    dst, "retry", f"unicast retry {attempt + 1} from {src}", self.sim.now
                )
            if imp.rng.chance(imp.loss_probability(dst, cost, self.sim.now)):
                if attempt + 1 >= policy.max_retries:
                    imp.note_giveup(dst)
                    if self.retransmit_observer is not None:
                        self.retransmit_observer(
                            dst, "gave_up", f"unicast from {src}", self.sim.now
                        )
                else:
                    self._schedule_unicast_retransmit(
                        src, dst, message, cost, size, imp, attempt + 1
                    )
                return
            latency = (
                self.hop_delay * imp.rng.uniform(0.5, 1.0) if self.jitter else self.hop_delay
            )
            self._charge_ack(src, dst)
            imp.note_recovered(dst)
            if self.retransmit_observer is not None:
                self.retransmit_observer(
                    dst, "recovered", f"unicast retry {attempt + 1} from {src}", self.sim.now
                )
            self._schedule_unicast_arrival(src, dst, message, cost, latency)

        self.sim.schedule(delay, resend, label=label)

    # ------------------------------------------------------------- helpers
    def multicast_neighbors(self, origin: int, message: Any) -> None:
        """One-hop k-cast (no flooding) — used by leader-to-neighbour patterns."""
        self._require_registered(origin)
        flood_id = next(self._flood_counter)
        self._relayed[flood_id] = {origin}
        self._delivered[flood_id] = {origin}
        self._single_hop.add(flood_id)
        self._in_flight[flood_id] = 0
        size = default_wire_size(message)
        for edge in self.hypergraph.out_edges(origin):
            self._transmit_edge(flood_id, edge, origin, message, size)
        self._maybe_retire_flood(flood_id)

    def _require_registered(self, pid: int) -> None:
        if pid not in self.processes:
            raise ValueError(f"process {pid} is not registered with the network")

    # -------------------------------------------------------------- queries
    def transmissions_by(self, pid: int) -> int:
        """Physical transmissions performed by ``pid``."""
        return self.stats.per_node_transmissions.get(pid, 0)

    def bytes_sent_by(self, pid: int) -> int:
        """Physical bytes transmitted by ``pid``."""
        return self.stats.per_node_bytes.get(pid, 0)

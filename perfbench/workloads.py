"""The four workloads: which deployments one iteration builds and runs.

Every workload uses a ring k-cast topology with k=3, the BLE medium, a
hop delay of 1.0 vt with seeded jitter, and seeds derived from the
``--seed`` argument.  An iteration is the list of :class:`Plan` s below;
the benchmark repeats its sessions for timing, so their deterministic
outputs must not change between repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.eval.runner import DeploymentSpec
from repro.net.impairment import ImpairmentSpec
from repro.sim.rng import derive_seed
from repro.testkit.faults import crash_at
from repro.workload import OpenLoopPoisson

#: Seed used while the benchmark was written; the default of ``--seed``.
DEFAULT_SEED = 1
#: Seed not used while writing; re-check any claimed gain on it.
HELD_OUT_SEED = 20261017

#: The latency limit, in units of the deployment's synchrony bound Δ.
#: EESMR commits 4Δ after a proposal; 2Δ more is the queueing slack.
SLO_LIMIT_DELTAS = 6.0

#: Leader of view 1 under the default round-robin schedule.
FIRST_LEADER = 0


@dataclass(frozen=True)
class Plan:
    """One deployment of an iteration, with how the benchmark reads it."""

    label: str
    spec: DeploymentSpec
    #: Whether its outputs feed the end-to-end deterministic metrics.
    measured: bool = True
    #: Offered rate (cmds/vt) for a ladder rung, else ``None``.
    rate: Optional[float] = None
    #: Attach a :class:`repro.session.MetricsObserver` (its cost is measured).
    metrics_observer: bool = False
    #: (node, virtual time) of the leader crash the fault schedule injects.
    crash: Optional[Tuple[int, float]] = None


@dataclass(frozen=True)
class Size:
    """Every size knob of the workloads (full runs and tiny smoke runs)."""

    eesmr_n: int = 2000
    eesmr_height: int = 10
    synchs_n: int = 200
    synchs_height: int = 20
    open_n: int = 25
    #: Arrival window of every open-loop run (vt).
    open_duration: float = 150.0
    #: Proposal time after the last arrival, so queued commands can commit.
    open_tail: float = 30.0
    #: Geometric, 0.125 (below today's knee) to batch / block_interval = 32.
    ladder: Tuple[float, ...] = tuple(0.125 * 4**i for i in range(5))
    latency_rate: float = 8.0
    crash_time: float = 60.0
    #: Sub-seeds pooled per ladder rate: at a rung near the knee one seed's
    #: ~70 arrivals decide the verdict by chance; two keep it stable.
    ladder_subseeds: int = 2
    #: Samples required beyond the reported p99.
    min_tail: int = 10


FULL = Size()
TINY = Size(
    eesmr_n=9,
    eesmr_height=3,
    synchs_n=7,
    synchs_height=3,
    open_n=7,
    open_duration=12.0,
    open_tail=12.0,
    ladder=(0.25, 8.0),
    crash_time=6.0,
    ladder_subseeds=1,
    min_tail=0,
)

BATCH = 16
BLOCK_INTERVAL = 0.5
TXPOOL_LIMIT = 4 * BATCH
#: Pending commands a rung may end with and still count as sustained.
BACKLOG_BOUND = BATCH


def _ring(protocol: str, n: int, height: int, seed: int, **extra) -> DeploymentSpec:
    return DeploymentSpec(
        protocol=protocol,
        n=n,
        f=(n - 1) // 2,
        k=3,
        topology="ring-kcast",
        medium="ble",
        hop_delay=1.0,
        jitter=True,
        target_height=height,
        seed=seed,
        **extra,
    )


def _open_loop(size: Size, rate: float, seed: int) -> DeploymentSpec:
    height = math.ceil((size.open_duration + size.open_tail) / BLOCK_INTERVAL)
    return _ring(
        "eesmr",
        size.open_n,
        height,
        seed,
        batch_size=BATCH,
        block_interval=BLOCK_INTERVAL,
        txpool_limit=TXPOOL_LIMIT,
        workload=OpenLoopPoisson(rate=rate, clients=4, duration=size.open_duration),
    )


def _subseeds(seed: int, count: int) -> List[int]:
    """``seed`` itself, then seeds derived from it."""
    return [seed] + [derive_seed(seed, "perfbench", i) for i in range(1, count)]


def eesmr_n2000(seed: int, size: Size) -> List[Plan]:
    return [Plan("eesmr", _ring("eesmr", size.eesmr_n, size.eesmr_height, seed))]


def synchs_n200(seed: int, size: Size) -> List[Plan]:
    return [Plan("sync-hotstuff", _ring("sync-hotstuff", size.synchs_n, size.synchs_height, seed))]


def openloop_ladder(seed: int, size: Size) -> List[Plan]:
    plans = []
    for index, sub in enumerate(_subseeds(seed, size.ladder_subseeds)):
        for rate in size.ladder:
            plans.append(
                Plan(
                    f"rate={rate:g} subseed={index}",
                    _open_loop(size, rate, sub),
                    measured=rate == size.latency_rate,
                    rate=rate,
                    metrics_observer=True,
                )
            )
    return plans


def leader_crash_lossy(seed: int, size: Size) -> List[Plan]:
    spec = replace(
        _open_loop(size, size.latency_rate, seed),
        fault_schedule=crash_at(FIRST_LEADER, size.crash_time),
        impairment=ImpairmentSpec(ble_calibrated=True),
    )
    return [Plan("crash", spec, metrics_observer=True, crash=(FIRST_LEADER, size.crash_time))]


#: name -> (iteration builder, one-line reason the workload exists).
WORKLOADS: Dict[str, Tuple[Callable[[int, Size], List[Plan]], str]] = {
    "eesmr-n2000": (
        eesmr_n2000,
        "EESMR at n=2000 with a preload: set-up (topology diameter) and the "
        "flood/event loop dominate while crypto is nearly idle",
    ),
    "synchs-n200": (
        synchs_n200,
        "Sync HotStuff at n=200 with a preload: the vote quorum makes "
        "signature checks and canonical serialization the main cost",
    ),
    "openloop-ladder": (
        openloop_ladder,
        "EESMR at n=25 under Poisson arrivals from 0.125 to 32 cmds/vt: "
        "txpool admission, batching, observer cost and capacity",
    ),
    "leader-crash-lossy": (
        leader_crash_lossy,
        "the 8 cmds/vt rung with the leader crashed mid-run on a lossy BLE "
        "medium: view change, impairment and the reliable sublayer",
    ),
}

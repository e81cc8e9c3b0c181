"""Pure statistics for the benchmark: percentiles, SLO misses, capacity.

Nothing here imports the simulator, so the arithmetic is unit-tested on
hand-made inputs (``perfbench/tests``).  Every latency is in virtual time
(vt): the simulator's clock, deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Set

#: Share of offered commands allowed to miss the latency limit at a rung
#: that meets the SLO: the p99 objective.
SLO_MISS_BUDGET = 0.01


def nearest_rank(values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile of a non-empty sample (no interpolation)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {quantile}")
    ordered = sorted(values)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[rank - 1]


def tail_beyond(values: Sequence[float], quantile: float) -> int:
    """How many samples lie strictly above the nearest-rank percentile."""
    cut = nearest_rank(values, quantile)
    return sum(1 for value in values if value > cut)


def censored_latencies(
    arrivals: Mapping[str, float],
    commits: Mapping[str, float],
    end: float,
) -> Dict[str, float]:
    """Arrival -> first commit per offered command, censored at ``end``.

    A command that never committed (dropped, or still queued when the run
    went quiescent) gets ``end - arrival``: a lower bound on its latency.
    Percentiles over the result are therefore lower bounds too.
    """
    out: Dict[str, float] = {}
    for command_id, arrival in arrivals.items():
        committed = commits.get(command_id)
        out[command_id] = (committed if committed is not None else end) - arrival
    return out


def slo_misses(
    arrivals: Mapping[str, float],
    commits: Mapping[str, float],
    dropped: Iterable[str],
    limit: float,
) -> Set[str]:
    """Offered command ids that missed the SLO.

    A command misses when a pool dropped it, when it never committed, or
    when its arrival -> first-commit latency exceeds ``limit``.
    """
    misses = {command_id for command_id in dropped if command_id in arrivals}
    for command_id, arrival in arrivals.items():
        committed = commits.get(command_id)
        if committed is None or committed - arrival > limit:
            misses.add(command_id)
    return misses


@dataclass(frozen=True)
class RungOutcome:
    """What one fixed-rate run of the ladder produced."""

    rate: float
    offered: int
    misses: int
    #: Distinct command ids still pending in correct replicas' pools when
    #: the run went quiescent.
    backlog_end: int


def rung_meets_slo(rung: RungOutcome, backlog_bound: int) -> bool:
    """Whether a rung sustained its rate.

    It must keep misses (drops, uncommitted and late commands) within the
    p99 budget *and* end with a bounded backlog: a queue that grew through
    the run means the offered rate exceeds what the system serves, even
    when the commands that did commit were fast.
    """
    if rung.offered <= 0:
        return False
    if rung.backlog_end > backlog_bound:
        return False
    return rung.misses <= math.floor(SLO_MISS_BUDGET * rung.offered)


def capacity_rate(rungs: Iterable[RungOutcome], backlog_bound: int) -> float:
    """The highest ladder rate that meets the SLO (0.0 when none does)."""
    return max(
        (rung.rate for rung in rungs if rung_meets_slo(rung, backlog_bound)),
        default=0.0,
    )


def p50(values: List[float]) -> float:
    return nearest_rank(values, 0.50) if values else 0.0

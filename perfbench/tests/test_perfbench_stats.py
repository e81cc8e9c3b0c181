"""The benchmark's statistics: censored percentiles, SLO misses, capacity."""

import pytest

from perfbench import stats


def test_nearest_rank_takes_the_ceiling_rank():
    values = [float(v) for v in range(1, 101)]  # 1..100
    assert stats.nearest_rank(values, 0.50) == 50.0
    assert stats.nearest_rank(values, 0.99) == 99.0
    assert stats.nearest_rank([7.0], 0.99) == 7.0
    assert stats.tail_beyond(values, 0.99) == 1
    with pytest.raises(ValueError):
        stats.nearest_rank([], 0.5)


def test_never_committed_commands_are_censored_at_the_end():
    arrivals = {"a": 0.0, "b": 10.0, "c": 20.0}
    commits = {"a": 40.0}
    latencies = stats.censored_latencies(arrivals, commits, end=100.0)
    assert latencies == {"a": 40.0, "b": 90.0, "c": 80.0}
    # The censored values are lower bounds, and they dominate the tail.
    assert stats.nearest_rank(list(latencies.values()), 0.99) == 90.0


def test_a_percentile_over_committed_commands_alone_would_hide_the_backlog():
    arrivals = {f"c{i}": float(i) for i in range(100)}
    commits = {f"c{i}": i + 5.0 for i in range(50)}  # half never commit
    censored = list(stats.censored_latencies(arrivals, commits, end=200.0).values())
    assert stats.nearest_rank(censored, 0.99) > 100.0
    assert max(commits[c] - arrivals[c] for c in commits) == 5.0


def test_slo_misses_count_drops_uncommitted_and_late_commands():
    arrivals = {"fast": 0.0, "late": 0.0, "lost": 0.0, "dropped": 0.0}
    commits = {"fast": 10.0, "late": 70.0, "dropped": 5.0}
    misses = stats.slo_misses(arrivals, commits, dropped={"dropped", "unknown"}, limit=60.0)
    assert misses == {"late", "lost", "dropped"}


def test_an_uncommitted_command_fails_a_rung():
    arrivals = {f"c{i}": float(i) for i in range(10)}
    commits = {f"c{i}": i + 1.0 for i in range(9)}  # c9 never commits
    misses = stats.slo_misses(arrivals, commits, dropped=(), limit=60.0)
    assert misses == {"c9"}
    rung = stats.RungOutcome(rate=1.0, offered=10, misses=len(misses), backlog_end=0)
    assert not stats.rung_meets_slo(rung, backlog_bound=16)


def test_a_growing_backlog_fails_a_rung_even_without_misses():
    fast_but_queued = stats.RungOutcome(rate=4.0, offered=600, misses=0, backlog_end=200)
    assert not stats.rung_meets_slo(fast_but_queued, backlog_bound=16)
    bounded = stats.RungOutcome(rate=4.0, offered=600, misses=6, backlog_end=16)
    assert stats.rung_meets_slo(bounded, backlog_bound=16)
    over_budget = stats.RungOutcome(rate=4.0, offered=600, misses=7, backlog_end=0)
    assert not stats.rung_meets_slo(over_budget, backlog_bound=16)


def test_capacity_is_the_highest_rate_that_meets_the_slo():
    rungs = [
        stats.RungOutcome(rate=0.25, offered=60, misses=0, backlog_end=0),
        stats.RungOutcome(rate=0.5, offered=150, misses=1, backlog_end=0),
        stats.RungOutcome(rate=1.0, offered=300, misses=90, backlog_end=40),
        stats.RungOutcome(rate=2.0, offered=600, misses=0, backlog_end=300),
    ]
    assert stats.capacity_rate(rungs, backlog_bound=16) == 0.5
    assert stats.capacity_rate(rungs[2:], backlog_bound=16) == 0.0

"""Span recording, self-time arithmetic and patch/restore of the tracer."""

import pytest

from perfbench import tracer as tracing
from perfbench.tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> c [5, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert tracing.self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0]
    # Self times of a tree always add up to its roots' durations.
    assert sum(tracing.self_times(parent, start, end)) == 10.0


def test_tracer_nests_spans_and_attributes_self_time_by_name():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    traced_leaf = tracer.wrap("crypto.verify", leaf)

    def handler():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 1.0

    tracer.wrap("core.on_message", handler)()
    assert len(tracer) == 3
    assert list(tracer.parent) == [-1, 0, 0]
    assert tracer.self_by_name() == {"core.on_message": 2.0, "crypto.verify": 4.0}
    assert tracer.count_by_name() == {"crypto.verify": 2, "core.on_message": 1}
    assert tracer.root_time() == 6.0


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("net.send", boom)()
    assert tracer._stack == []
    index = tracer.open("sim.step")
    tracer.close(index)
    assert list(tracer.parent) == [-1, -1]


def test_patch_and_restore_leave_the_class_untouched():
    class Target:
        def work(self):
            return 42

    original = Target.__dict__["work"]
    tracer = Tracer()
    tracer.patch(Target, "work", "core.work")
    assert Target.__dict__["work"] is not original
    assert Target().work() == 42
    assert tracer.count_by_name() == {"core.work": 1}
    tracer.restore()
    assert Target.__dict__["work"] is original

    class Child(Target):
        pass

    tracer.patch(Child, "work", "core.work")
    assert "work" in Child.__dict__
    tracer.restore()
    assert "work" not in Child.__dict__


def test_dump_round_trips_every_span(tmp_path):
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.open("sim.step")
    clock.now = 1.5
    inner = tracer.open("net.event")
    clock.now = 2.0
    tracer.close(inner)
    tracer.close(outer)
    header = tracer.dump(tmp_path, "t", {"note": 1})
    loaded = tracing.load(header)
    assert loaded["names"] == ["sim.step", "net.event"]
    assert loaded["name"] == [0, 1]
    assert loaded["parent"] == [-1, 0]
    assert loaded["start"] == [0.0, 1.5]
    assert loaded["end"] == [2.0, 2.0]
    assert loaded["summary"] == {"note": 1}

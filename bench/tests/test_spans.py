"""Span bookkeeping: self time is a span's duration minus the part of
it its children cover."""

import time

import pytest

from spans import NullTracer, Tracer, self_seconds


def test_self_seconds_subtracts_the_union_of_children():
    # Two overlapping children cover [2, 7]; one sticks out past the end.
    assert self_seconds((0.0, 10.0), [(2.0, 5.0), (4.0, 7.0)]) \
        == pytest.approx(5.0)
    assert self_seconds((0.0, 10.0), [(8.0, 14.0)]) == pytest.approx(8.0)
    assert self_seconds((0.0, 10.0), []) == pytest.approx(10.0)
    assert self_seconds((0.0, 10.0), [(-3.0, 12.0)]) == pytest.approx(0.0)


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_tracer_attributes_child_time_to_the_child():
    tracer = Tracer()
    tracer.group = "pass#1"
    with tracer.span("outer"):
        _spin(0.01)
        with tracer.span("inner"):
            _spin(0.02)
    assert tracer.calls("outer") == tracer.calls("inner") == 1
    assert tracer.total_s("outer") >= 0.03
    assert tracer.self_s("inner") == pytest.approx(tracer.total_s("inner"))
    assert tracer.self_s("outer") == pytest.approx(
        tracer.total_s("outer") - tracer.total_s("inner"))
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert outer.group == inner.group == "pass#1"
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_iterate_times_the_producer_not_the_consumer():
    def producer():
        for item in range(3):
            _spin(0.005)
            yield item

    tracer = Tracer()
    seen = []
    for item in tracer.iterate("producer", producer()):
        _spin(0.02)  # consumer time: must not be attributed
        seen.append(item)
    assert seen == [0, 1, 2]
    assert tracer.calls("producer") == 4  # three items and the stop
    assert 0.015 <= tracer.total_s("producer") < 0.04


class _Thing:
    def work(self, x):
        return x + 1

    def items(self):
        yield from (1, 2)


def test_wrap_rebinds_on_the_instance_and_unwraps():
    tracer = Tracer()
    thing = _Thing()
    tracer.wrap(thing, "work", "thing.work")
    tracer.wrap(thing, "items", "thing.items", iterator=True)
    assert thing.work(1) == 2
    assert list(thing.items()) == [1, 2]
    assert tracer.calls("thing.work") == 1
    assert "work" in vars(thing)
    tracer.unwrap_all()
    assert "work" not in vars(thing) and "items" not in vars(thing)
    assert _Thing().work(1) == 2 and tracer.calls("thing.work") == 1


def test_null_tracer_installs_nothing():
    tracer = NullTracer()
    thing = _Thing()
    tracer.wrap(thing, "work", "thing.work")
    assert "work" not in vars(thing)
    with tracer.span("x"):
        pass
    assert list(tracer.iterate("x", [1, 2])) == [1, 2]

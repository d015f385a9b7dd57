"""Tests for the discrete-event engine."""

import pytest

from repro.simulator import Engine


class TestEngine:
    def test_runs_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(5.0, lambda: fired.append("b"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(9.0, lambda: fired.append("c"))
        engine.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_fifo_at_same_instant(self):
        engine = Engine()
        fired = []
        for tag in ("first", "second", "third"):
            engine.schedule(1.0, lambda t=tag: fired.append(t))
        engine.run_until_idle()
        assert fired == ["first", "second", "third"]

    def test_run_until_stops(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(10))
        count = engine.run(until=5.0)
        assert count == 1
        assert fired == [1]
        assert engine.now == 5.0
        assert engine.run_until_idle() == 1  # the t=10 event still queued
        assert fired == [1, 10] and engine.processed == 2

    def test_callbacks_can_schedule(self):
        engine = Engine()
        fired = []

        def chain():
            fired.append(engine.now)
            if engine.now < 3:
                engine.schedule(engine.now + 1.0, chain)

        engine.schedule(1.0, chain)
        engine.run_until_idle()
        assert fired == [1.0, 2.0, 3.0]

    def test_past_scheduling_rejected(self):
        engine = Engine(start_time=10.0)
        with pytest.raises(ValueError):
            engine.schedule(5.0, lambda: None)

    def test_processed_counter(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run_until_idle()
        assert engine.processed == 2

    def test_now_advances_to_until_with_empty_queue(self):
        engine = Engine()
        engine.run(until=42.0)
        assert engine.now == 42.0

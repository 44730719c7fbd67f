"""Unit tests for the discrete-event engine."""

import pytest

from repro.cluster.event import EventEngine, SimulationError


def drain(engine):
    """Fire events until none remain, the way ``SimBackend`` drives the engine."""
    while engine.step():
        pass


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert EventEngine().now == 0.0

    def test_events_fire_in_time_order(self):
        engine = EventEngine()
        fired = []
        engine.schedule(2.0, lambda: fired.append("late"))
        engine.schedule(1.0, lambda: fired.append("early"))
        drain(engine)
        assert fired == ["early", "late"]
        assert engine.now == 2.0

    def test_ties_fire_in_insertion_order(self):
        engine = EventEngine()
        fired = []
        for name in ("a", "b", "c"):
            engine.schedule(1.0, lambda n=name: fired.append(n))
        drain(engine)
        assert fired == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        engine = EventEngine()
        with pytest.raises(SimulationError):
            engine.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        engine = EventEngine()
        engine.schedule(1.0, lambda: None)
        drain(engine)
        with pytest.raises(SimulationError):
            engine.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_run_are_processed(self):
        engine = EventEngine()
        fired = []

        def first():
            fired.append("first")
            engine.schedule(0.5, lambda: fired.append("second"))

        engine.schedule(1.0, first)
        drain(engine)
        assert fired == ["first", "second"]
        assert engine.now == pytest.approx(1.5)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = EventEngine()
        fired = []
        event = engine.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        drain(engine)
        assert fired == []

    def test_cancelled_events_not_counted_as_pending(self):
        engine = EventEngine()
        event = engine.schedule(1.0, lambda: None)
        event.cancel()
        assert engine.step() is False
        assert engine.now == 0.0


class TestRunControl:
    def test_step_returns_false_when_empty(self):
        assert EventEngine().step() is False

    def test_step_processes_single_event(self):
        engine = EventEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(2.0, lambda: fired.append("b"))
        assert engine.step() is True
        assert fired == ["a"]
        assert engine.now == 1.0

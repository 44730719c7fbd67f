"""Unit tests for the discrete-event engine."""

import pytest

from repro.cluster.event import EventEngine, SimulationError


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert EventEngine().now == 0.0

    def test_events_fire_in_time_order(self):
        engine = EventEngine()
        fired = []
        engine.schedule(2.0, lambda: fired.append("late"))
        engine.schedule(1.0, lambda: fired.append("early"))
        engine.run()
        assert fired == ["early", "late"]
        assert engine.now == 2.0

    def test_ties_fire_in_insertion_order(self):
        engine = EventEngine()
        fired = []
        for name in ("a", "b", "c"):
            engine.schedule(1.0, lambda n=name: fired.append(n))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        engine = EventEngine()
        with pytest.raises(SimulationError):
            engine.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        engine = EventEngine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_run_are_processed(self):
        engine = EventEngine()
        fired = []

        def first():
            fired.append("first")
            engine.schedule(0.5, lambda: fired.append("second"))

        engine.schedule(1.0, first)
        engine.run()
        assert fired == ["first", "second"]
        assert engine.now == pytest.approx(1.5)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = EventEngine()
        fired = []
        event = engine.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        engine.run()
        assert fired == []

    def test_cancelled_events_not_counted_as_pending(self):
        engine = EventEngine()
        event = engine.schedule(1.0, lambda: None)
        assert engine.peek_time() == pytest.approx(1.0)
        event.cancel()
        assert engine.peek_time() is None


class TestRunControl:
    def test_run_until_stops_clock_at_limit(self):
        engine = EventEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(5.0, lambda: fired.append(5))
        engine.run(until=2.0)
        assert fired == [1]
        assert engine.now == 2.0
        # The remaining event still fires when the run resumes.
        engine.run()
        assert fired == [1, 5]

    def test_max_events_guard(self):
        engine = EventEngine()

        def reschedule():
            engine.schedule(0.1, reschedule)

        engine.schedule(0.1, reschedule)
        with pytest.raises(SimulationError):
            engine.run(max_events=50)

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

    def test_peek_time(self):
        engine = EventEngine()
        assert engine.peek_time() is None
        engine.schedule(3.0, lambda: None)
        assert engine.peek_time() == pytest.approx(3.0)

    def test_run_not_reentrant(self):
        engine = EventEngine()

        def recurse():
            engine.run()

        engine.schedule(1.0, recurse)
        with pytest.raises(SimulationError):
            engine.run()

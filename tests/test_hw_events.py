"""Unit tests for the discrete-event engine and the inert engine field."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.hardware import ENGINES, EventEngine, Machine, MachineConfig


@pytest.fixture
def eng():
    return EventEngine()


def test_time_starts_at_zero(eng):
    assert eng.now == 0
    assert eng.idle()


def test_events_fire_in_time_order(eng):
    order = []
    eng.schedule(30, order.append, "c")
    eng.schedule(10, order.append, "a")
    eng.schedule(20, order.append, "b")
    eng.run()
    assert order == ["a", "b", "c"]
    assert eng.now == 30


def test_ties_break_in_scheduling_order(eng):
    order = []
    for tag in "abc":
        eng.schedule(5, order.append, tag)
    eng.run()
    assert order == ["a", "b", "c"]


def test_nested_scheduling(eng):
    order = []

    def outer():
        order.append("outer")
        eng.schedule(5, order.append, "inner")

    eng.schedule(10, outer)
    eng.run()
    assert order == ["outer", "inner"]
    assert eng.now == 15


def test_zero_delay_event_runs_after_current(eng):
    order = []

    def first():
        order.append(1)
        eng.schedule(0, order.append, 3)
        order.append(2)

    eng.schedule(1, first)
    eng.run()
    assert order == [1, 2, 3]


def test_negative_delay_rejected(eng):
    with pytest.raises(SimulationError):
        eng.schedule(-1, lambda: None)


def test_schedule_at_past_rejected(eng):
    eng.schedule(10, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.schedule_at(5, lambda: None)


def test_run_until_stops_clock(eng):
    fired = []
    eng.schedule(100, fired.append, 1)
    eng.run(until=50)
    assert not fired
    assert eng.now == 50
    eng.run()
    assert fired == [1]


def test_run_until_advances_clock_with_empty_queue(eng):
    eng.run(until=500)
    assert eng.now == 500


def test_max_events_bound(eng):
    for i in range(10):
        eng.schedule(i + 1, lambda: None)
    assert eng.run(max_events=4) == 4
    assert eng.run() == 6


def test_cancel_skips_event(eng):
    fired = []
    ev = eng.schedule(10, fired.append, "x")
    eng.schedule(20, fired.append, "y")
    ev.cancel()
    eng.run()
    assert fired == ["y"]
    assert eng.events_processed == 1


def test_step_returns_false_when_drained(eng):
    assert eng.step() is False
    eng.schedule(1, lambda: None)
    assert eng.step() is True
    assert eng.step() is False


def test_determinism_across_runs():
    def build():
        e = EventEngine()
        log = []
        e.schedule(3, lambda: log.append(("a", e.now)))
        e.schedule(3, lambda: log.append(("b", e.now)))
        e.schedule(1, lambda: e.schedule(2, lambda: log.append(("c", e.now))))
        e.run()
        return log

    assert build() == build()


class TestEngineContract:
    def test_snapshot_form_and_restore(self, eng):
        eng.schedule(4, lambda: None)
        eng.run()
        snap = eng.snapshot()
        assert snap == {"now": 4, "events_processed": 1, "halted": False}
        eng.schedule(10, lambda: None)  # dropped by restore
        eng.restore({"now": 7, "events_processed": 2, "halted": False})
        assert (eng.now, eng.events_processed) == (7, 2)
        assert eng.idle()


class TestEngineField:
    """``MachineConfig.engine`` survives as two spellings of one engine."""

    def test_both_spellings_build_the_one_engine(self):
        assert ENGINES == ("default", "reference")
        for kind in ENGINES:
            assert type(Machine(MachineConfig(engine=kind)).engine) is EventEngine

    @pytest.mark.parametrize("gone", ["fast", "compiled"])
    def test_deleted_engines_are_rejected_by_name(self, gone):
        with pytest.raises(ConfigurationError, match="default.*reference"):
            MachineConfig(engine=gone).validate()
        with pytest.raises(ConfigurationError, match="default.*reference"):
            Machine(MachineConfig(engine=gone))

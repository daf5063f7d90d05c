"""Unit tests for the discrete-event engine and engine resolution."""

import json

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.hardware import (
    ENGINES,
    EventEngine,
    FastEventEngine,
    Machine,
    MachineConfig,
    forced_engine,
    resolve_engine,
)


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
    assert eng.pending() == 6


def test_cancel_skips_event(eng):
    fired = []
    ev = eng.schedule(10, fired.append, "x")
    eng.schedule(20, fired.append, "y")
    ev.cancel()
    eng.run()
    assert fired == ["y"]
    assert eng.events_processed == 1


def test_pending_counts_live_events(eng):
    a = eng.schedule(1, lambda: None)
    eng.schedule(2, lambda: None)
    a.cancel()
    assert eng.pending() == 1


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


# -- engine resolution -----------------------------------------------------


class TestEngineResolution:
    def test_default_resolves_to_fast(self, monkeypatch):
        monkeypatch.delenv("FEM2_ENGINE", raising=False)
        assert resolve_engine("default") == "fast"

    def test_env_overrides_default_only(self, monkeypatch):
        monkeypatch.setenv("FEM2_ENGINE", "reference")
        assert resolve_engine("default") == "reference"
        # an explicit config beats the environment
        assert resolve_engine("fast") == "fast"

    def test_forced_overrides_explicit_config(self, monkeypatch):
        monkeypatch.setenv("FEM2_ENGINE", "fast")
        with forced_engine("reference"):
            assert resolve_engine("fast") == "reference"
            engine = Machine(MachineConfig(engine="fast")).engine
        assert type(engine) is EventEngine

    def test_unknown_env_value_is_an_error(self, monkeypatch):
        monkeypatch.setenv("FEM2_ENGINE", "ref")
        with pytest.raises(ConfigurationError, match="FEM2_ENGINE"):
            resolve_engine("default")
        # explicit configs never consult the (broken) environment
        assert resolve_engine("fast") == "fast"

    def test_unknown_config_and_forced_values_are_errors(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            resolve_engine("calendar")
        with pytest.raises(ConfigurationError, match="forced_engine"):
            with forced_engine("default"):
                pass  # pragma: no cover - forced_engine raises first

    def test_machine_engine_classes(self, monkeypatch):
        monkeypatch.delenv("FEM2_ENGINE", raising=False)
        for kind, cls in (("reference", EventEngine),
                          ("fast", FastEventEngine),
                          ("default", FastEventEngine)):
            assert type(Machine(MachineConfig(engine=kind)).engine) is cls
        assert ENGINES == ("default", "reference", "fast")

    def test_compiled_is_not_an_engine(self, monkeypatch):
        """The deleted third engine is rejected by every knob, and the
        error names the kinds that survive."""
        with pytest.raises(ConfigurationError, match="reference.*fast"):
            MachineConfig(engine="compiled").validate()
        with pytest.raises(ConfigurationError, match="reference.*fast"):
            with forced_engine("compiled"):
                pass  # pragma: no cover - forced_engine raises first
        monkeypatch.setenv("FEM2_ENGINE", "compiled")
        with pytest.raises(ConfigurationError, match="reference.*fast"):
            resolve_engine("default")

    def test_every_entry_point_shares_the_default(self, capsys):
        """Campaign, its runner and its CLI leave the engine to
        resolve_engine, like a bare MachineConfig."""
        from repro.campaign import Campaign, ParamSpace, RunOptions
        from repro.campaign.__main__ import main
        from repro.campaign.runner import build_config

        default = MachineConfig().engine
        assert build_config({}, RunOptions()).engine == default
        assert Campaign(ParamSpace({"nx": [2]})).engine == default
        assert main(["--axis", "nx=2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["engine"] == default

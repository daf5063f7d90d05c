"""Engine equivalence: the fast calendar-queue engine must be
observationally identical to the reference heapq engine.

Three layers of evidence, all with pinned hypothesis seeds
(``derandomize=True``) so CI failures reproduce exactly:

* raw-engine scripts — generated schedule/cancel/halt programs
  interpreted on both engines must produce the same dispatch order,
  clock, processed count, pending count, and snapshot;
* full-stack programs — generated :class:`~repro.langvm.Fem2Program`
  runs compared through :func:`repro.perf.assert_equivalent`
  (result, clock, events, flat metrics, byte-identical fem2-ckpt/1)
  across the two-engine matrix;
* the canned :data:`repro.perf.WORKLOADS` suite, which covers fault
  cancellation and message storms the generators keep small.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hardware.calqueue import FastEventEngine
from repro.hardware.events import EventEngine
from repro.hardware.machine import MachineConfig
from repro.langvm.program import Fem2Program
from repro.perf import WORKLOADS, assert_equivalent

ENGINES = (EventEngine, FastEventEngine)

SCRIPTS = settings(max_examples=60, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow])
PROGRAMS = settings(max_examples=8, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


# -- raw-engine scripts ----------------------------------------------------

#: one scheduled root event: (delay, fan-out depth, cancel-before-run)
script_entries = st.tuples(
    st.integers(0, 5), st.integers(0, 2), st.booleans()
)
scripts = st.lists(script_entries, min_size=1, max_size=8)


def interpret(engine_cls, script, until=None, max_events=None, halt_tag=None):
    """Run a schedule script and capture everything observable."""
    eng = engine_cls()
    order = []

    def fire(tag, depth, delay):
        order.append((eng.now, tag))
        if tag == halt_tag:
            eng.halt()
        for j in range(depth):
            # children collide on shared cycles (delay 0 is legal)
            eng.schedule((delay + j) % 4, fire, (tag, j), depth - 1, delay + j)

    roots = [
        eng.schedule(delay, fire, i, depth, delay)
        for i, (delay, depth, _cancel) in enumerate(script)
    ]
    for ev, (_d, _n, cancel) in zip(roots, script):
        if cancel:
            ev.cancel()
    eng.run(until=until, max_events=max_events)
    state = (order[:], eng.now, eng.events_processed, eng.pending(),
             eng.snapshot())
    if eng.halted:
        eng.resume_halted()
        eng.run(until=until)
        state += (order[:], eng.now, eng.events_processed, eng.pending())
    return state


def agree(**kwargs):
    """Interpret one script on every engine; all states must match the
    reference engine's (the first in ENGINES)."""
    ref, *rest = (interpret(cls, **kwargs) for cls in ENGINES)
    for state, cls in zip(rest, ENGINES[1:]):
        assert state == ref, f"{cls.__name__} diverged from the reference"


class TestScriptedEquivalence:
    @SCRIPTS
    @given(scripts)
    def test_drain_to_completion(self, script):
        agree(script=script)

    @SCRIPTS
    @given(scripts, st.integers(0, 12))
    def test_run_until(self, script, until):
        agree(script=script, until=until)

    @SCRIPTS
    @given(scripts, st.integers(0, 6))
    def test_max_events(self, script, max_events):
        agree(script=script, max_events=max_events)

    @SCRIPTS
    @given(scripts, st.integers(0, 7))
    def test_halt_and_resume(self, script, halt_tag):
        agree(script=script, halt_tag=halt_tag)

    @SCRIPTS
    @given(scripts, st.integers(0, 12), st.integers(0, 6))
    def test_until_and_max_events_together(self, script, until, max_events):
        agree(script=script, until=until, max_events=max_events)


class TestEngineContract:
    """Shared API behaviours both engines must honour identically."""

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_rejects_past_scheduling(self, engine_cls):
        from repro.errors import SimulationError
        eng = engine_cls()
        with pytest.raises(SimulationError):
            eng.schedule(-1, lambda: None)
        eng.schedule(5, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule_at(3, lambda: None)

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_snapshot_form_and_restore(self, engine_cls):
        eng = engine_cls()
        eng.schedule(4, lambda: None)
        eng.run()
        snap = eng.snapshot()
        assert snap == {"now": 4, "events_processed": 1, "halted": False}
        eng.schedule(10, lambda: None)  # dropped by restore
        eng.restore({"now": 7, "events_processed": 2, "halted": False})
        assert (eng.now, eng.events_processed, eng.pending()) == (7, 2, 0)
        assert eng.idle()

    def test_cross_engine_snapshot_identical(self):
        def drive(eng):
            eng.schedule(3, eng.schedule, 2, lambda: None)
            eng.run()
            return eng.snapshot()
        snaps = [drive(cls()) for cls in ENGINES]
        assert all(s == snaps[0] for s in snaps[1:])


# -- generated full-stack programs ----------------------------------------

@st.composite
def program_specs(draw):
    return dict(
        n_clusters=draw(st.integers(1, 3)),
        pes=draw(st.integers(2, 4)),
        count=draw(st.integers(1, 5)),
        flops=tuple(draw(st.lists(st.integers(0, 300), min_size=1,
                                  max_size=4))),
        use_window=draw(st.booleans()),
        size=draw(st.integers(8, 48)),
    )


def build_workload(spec):
    """A deterministic zero-arg workload from a generated spec."""
    def workload():
        prog = Fem2Program(
            MachineConfig(n_clusters=spec["n_clusters"],
                          pes_per_cluster=spec["pes"],
                          memory_words_per_cluster=500_000),
            journal=True,
        )

        @prog.task()
        def work(ctx, index):
            yield ctx.compute(flops=spec["flops"][index % len(spec["flops"])])
            return index + 1

        @prog.task()
        def main(ctx):
            acc = 0.0
            if spec["use_window"]:
                h = yield ctx.create(np.linspace(0.0, 1.0, spec["size"]))
                win = ctx.window(h)
                data = yield ctx.read(win)
                yield ctx.write(win, data * 2.0)
            tids = yield ctx.initiate("work", count=spec["count"])
            results = yield ctx.wait(tids)
            if spec["use_window"]:
                out = yield ctx.read(win)
                acc = float(out.sum())
            return acc + sum(results.values())

        result = prog.run("main")
        return prog, result

    return workload


class TestProgramEquivalence:
    @PROGRAMS
    @given(program_specs())
    def test_generated_programs_identical(self, spec):
        assert_equivalent(build_workload(spec), require_ckpt=True,
                          label=f"generated program {spec}")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_canned_workloads_identical(name):
    report = assert_equivalent(WORKLOADS[name], require_ckpt=True, label=name)
    ref = report["reference"]
    assert ref.ckpt and ref.metrics  # non-vacuous comparison
    for run in report["runs"].values():
        assert run.ckpt == ref.ckpt  # byte-identical blobs
        assert run.metrics == ref.metrics

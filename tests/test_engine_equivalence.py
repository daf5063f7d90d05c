"""The engine contract, stated as properties of the one engine.

Generated schedule/cancel/halt scripts (pinned hypothesis seeds,
``derandomize=True``, so CI failures reproduce exactly) are interpreted
on :class:`~repro.hardware.EventEngine` and checked against what the
layers above rely on:

* dispatch order is the non-cancelled events sorted by ``(time, seq)``;
* the clock never decreases, and ends at ``until`` when one is given;
* ``events_processed`` counts exactly the dispatched events;
* ``max_events`` is honoured before ``until``;
* a halted-then-resumed run ends where the unhalted run of the same
  script ends;
* ``snapshot()`` carries exactly ``now``, ``events_processed`` and
  ``halted=False``.

These scripts once ran on two engines and asserted agreement (hence the
module and class names, kept so test ids stay comparable across PRs);
DESIGN.md §11 records the deletion of the second engine.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hardware import EventEngine

SCRIPTS = settings(max_examples=60, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow])

#: one scheduled root event: (delay, fan-out depth, cancel-before-run)
script_entries = st.tuples(
    st.integers(0, 5), st.integers(0, 2), st.booleans()
)
scripts = st.lists(script_entries, min_size=1, max_size=8)


class Run:
    """One interpreted script: the engine, what fired and what was filed."""

    def __init__(self):
        self.eng = EventEngine()
        #: (clock, tag) per dispatched event, in dispatch order
        self.order = []
        #: (event, tag) per schedule() call, in call order
        self.filed = []

    def final(self):
        return self.order, self.eng.now, self.eng.events_processed


def interpret(script, until=None, max_events=None, halt_tag=None):
    """Run a schedule script and keep everything observable."""
    run = Run()
    eng = run.eng

    def file(delay, tag, depth, base):
        run.filed.append((eng.schedule(delay, fire, tag, depth, base), tag))

    def fire(tag, depth, delay):
        run.order.append((eng.now, tag))
        if tag == halt_tag:
            eng.halt()
        for j in range(depth):
            # children collide on shared cycles (delay 0 is legal)
            file((delay + j) % 4, (tag, j), depth - 1, delay + j)

    for i, (delay, depth, _cancel) in enumerate(script):
        file(delay, i, depth, delay)
    for (ev, _tag), (_d, _n, cancel) in zip(run.filed, script):
        if cancel:
            ev.cancel()
    assert eng.run(until=until, max_events=max_events) == len(run.order)
    return run


def pending(eng):
    """Live (non-cancelled) events still queued."""
    return sum(1 for _, _, ev in eng._queue if not ev.cancelled)


def check(run):
    """The invariants that hold wherever a run stops."""
    eng, order = run.eng, run.order
    live = sorted((ev.time, ev.seq, tag) for ev, tag in run.filed
                  if not ev.cancelled)
    # what fired is a prefix of the live events in (time, seq) order
    assert order == [(time, tag) for time, _seq, tag in live[:len(order)]]
    assert pending(eng) == len(live) - len(order)
    assert eng.events_processed == len(order)
    assert eng.now >= (order[-1][0] if order else 0)
    assert eng.snapshot() == {"now": eng.now,
                              "events_processed": len(order), "halted": False}


class TestScriptedEquivalence:
    @SCRIPTS
    @given(scripts)
    def test_drain_to_completion(self, script):
        run = interpret(script)
        check(run)
        assert run.eng.idle() and pending(run.eng) == 0
        assert run.eng.now == (run.order[-1][0] if run.order else 0)

    @SCRIPTS
    @given(scripts, st.integers(0, 12))
    def test_run_until(self, script, until):
        run = interpret(script, until=until)
        check(run)
        assert run.eng.now == until
        assert run.order == [e for e in interpret(script).order
                             if e[0] <= until]

    @SCRIPTS
    @given(scripts, st.integers(0, 6))
    def test_max_events(self, script, max_events):
        run = interpret(script, max_events=max_events)
        check(run)
        assert run.order == interpret(script).order[:max_events]

    @SCRIPTS
    @given(scripts, st.integers(0, 7))
    def test_halt_and_resume(self, script, halt_tag):
        run = interpret(script, halt_tag=halt_tag)
        check(run)
        if run.eng.halted:
            assert run.order[-1][1] == halt_tag
            run.eng.halted = False
            run.eng.run()
            check(run)
        assert run.final() == interpret(script).final()

    @SCRIPTS
    @given(scripts, st.integers(0, 12), st.integers(0, 6))
    def test_until_and_max_events_together(self, script, until, max_events):
        run = interpret(script, until=until, max_events=max_events)
        check(run)
        bounded = interpret(script, until=until).order
        assert run.order == bounded[:max_events]
        if len(bounded) > max_events:
            # cut short by the count: the clock stays at the last event
            # fired rather than jumping to ``until``
            assert run.eng.now == (run.order[-1][0] if run.order else 0)
        elif len(bounded) < max_events:
            assert run.eng.now == until

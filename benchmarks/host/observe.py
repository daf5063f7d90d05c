"""The benchmark's observers: everything here watches the program from
outside and edits none of it.

* :class:`ProgramLedger` — counts what every simulated machine did
  (events, cycles, flops, messages, tasks), read from public attributes
  when a batch ends.  It is the one observer that is always on, because
  pools and campaigns build and drop their programs internally and the
  counts would otherwise be lost; it costs one list append per program
  built.
* :class:`Spans` — boundary timers around each public call the driver
  makes (traced runs only).
* :func:`rollup` — a ``cProfile`` profile rolled up by top-level package
  under ``src/repro/`` (traced runs only), with time spent in stdlib,
  numpy and builtin frames charged to the ``repro`` function that called
  them.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from collections import defaultdict
from pathlib import Path

import repro
from repro.langvm import Fem2Program

REPRO_ROOT = str(Path(repro.__file__).resolve().parent)

#: the layers the roll-up reports; any other package under src/repro/,
#: and the benchmark driver itself, is "other"
LAYERS = ("hardware", "sysvm", "langvm", "fem", "appvm", "lint", "compile",
          "ckpt", "campaign", "obs", "other")


def direct(_name, fn, *args, **kwargs):
    """The untraced stand-in for :meth:`Spans.call`."""
    return fn(*args, **kwargs)


class Spans:
    """Boundary timers: one ``(name, start_ns, end_ns, batch)`` row per
    public call, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.rows = []
        self.batch = 0

    def call(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.rows.append((name, t0, time.perf_counter_ns(), self.batch))

    def ms(self, name):
        """Durations of every span called *name*, in milliseconds."""
        return [(t1 - t0) / 1e6 for n, t0, t1, _ in self.rows if n == name]


class ProgramLedger:
    """Sums the simulated work of every :class:`Fem2Program` built while
    installed.  :meth:`fold` reads the machines built since the last
    fold and lets them go, so it must be called when they are quiescent
    (every workload's batch ends with its simulations drained)."""

    FIELDS = ("programs", "events", "cycles", "flops", "messages", "tasks")

    def __init__(self) -> None:
        self.totals = dict.fromkeys(self.FIELDS, 0)
        self.busy = 0.0     # sum of utilization x cycles, for the mean
        self._open = []
        self._saved = None

    def __enter__(self) -> "ProgramLedger":
        init, restore = Fem2Program.__init__, Fem2Program.restore
        self._saved = (init, restore)
        ledger = self

        def counted_init(program, *args, **kwargs):
            init(program, *args, **kwargs)
            ledger._open.append(program.machine)

        def counted_restore(program, state):
            restore(program, state)
            # the restored machine inherits the counters of the machine
            # it was checkpointed from, which this ledger counts as well
            ledger._add(program.machine, -1)

        Fem2Program.__init__ = counted_init
        Fem2Program.restore = counted_restore
        return self

    def __exit__(self, *exc) -> None:
        Fem2Program.__init__, Fem2Program.restore = self._saved

    def _add(self, machine, sign: int) -> None:
        t, m = self.totals, machine.metrics
        t["events"] += sign * machine.engine.events_processed
        t["cycles"] += sign * machine.now
        t["flops"] += sign * int(m.get("proc.flops"))
        t["messages"] += sign * int(m.get("comm.messages"))
        t["tasks"] += sign * int(m.get("task.initiated"))

    def fold(self) -> None:
        for machine in self._open:
            self._add(machine, +1)
            self.totals["programs"] += 1
            self.busy += machine.utilization() * machine.now
        self._open.clear()

    def take(self) -> dict:
        """The totals so far (with the cycle-weighted mean utilization),
        and start again from zero."""
        self.fold()
        out = dict(self.totals)
        out["pe_utilization"] = self.busy / out["cycles"] if out["cycles"] else 0.0
        self.totals = dict.fromkeys(self.FIELDS, 0)
        self.busy = 0.0
        return out


_HERE = str(Path(__file__).resolve().parent)


def _layer_of(filename: str):
    """The roll-up layer of a code object's file, or None for code that
    is neither ``repro`` nor the driver (stdlib, numpy, builtins)."""
    if filename.startswith(REPRO_ROOT):
        head = filename[len(REPRO_ROOT) + 1:].split("/", 1)[0]
        return head if head in LAYERS else "other"
    if filename.startswith(_HERE):
        return "other"
    return None


def rollup(profile: cProfile.Profile) -> dict:
    """Roll a profile up by layer: ``{layer: {"self_s", "calls"}}`` plus
    ``ext_s`` / ``numpy_s``, the time spent outside ``repro``.

    A function outside ``repro`` has its self time split over its
    callers exactly (cProfile keeps self time per caller edge); what
    lands on a caller that is itself outside ``repro`` is passed on to
    that caller's callers in proportion to the cumulative time of each
    edge, until it reaches a ``repro`` frame.  Time that reaches no
    ``repro`` frame (the profiler's own entry) goes to "other".
    """
    stats = pstats.Stats(profile).stats
    layer = {func: _layer_of(func[0]) for func in stats}
    self_s = defaultdict(float)
    calls = defaultdict(int)
    ext_s = numpy_s = 0.0
    carried = defaultdict(float)    # ext function -> time to pass up

    def hand_up(func, amount, column):
        """Split *amount* of *func*'s time over its callers, weighted by
        *column* of each caller edge (2 = self time, 3 = cumulative)."""
        edges = {c: e[column] for c, e in stats[func][4].items() if c != func}
        weight = sum(edges.values())
        if weight <= 0.0:
            self_s["other"] += amount
            return
        for caller, share in edges.items():
            if layer[caller] is not None:
                self_s[layer[caller]] += amount * share / weight
            else:
                carried[caller] += amount * share / weight

    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        if layer[func] is not None:
            self_s[layer[func]] += tt
            calls[layer[func]] += nc
            continue
        ext_s += tt
        if any(lib in part for lib in ("numpy", "scipy")
               for part in (func[0], func[2])):
            numpy_s += tt
        hand_up(func, tt, 2)

    # chains of non-repro callers; recursion among them (ast visitors,
    # copy, pickle) converges geometrically, and what is left after the
    # cap goes to "other"
    for _ in range(64):
        if sum(carried.values()) < 1e-9:
            break
        passing, carried = carried, defaultdict(float)
        for func, amount in passing.items():
            hand_up(func, amount, 3)
    self_s["other"] += sum(carried.values())

    out = {name: {"self_s": self_s[name], "calls": calls[name]}
           for name in LAYERS}
    out["ext_s"] = ext_s
    out["numpy_s"] = numpy_s
    return out

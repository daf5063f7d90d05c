"""The numerical analyst's programming interface.

A :class:`TaskContext` is handed to every task body as its first
argument.  Its methods build the effects of :mod:`repro.sysvm.effects`
with the language-level conveniences the paper lists — flop-denominated
compute, window constructors, task control, broadcast, data-located
remote calls — so a task body reads like the paper's language sketch:

    def solve(ctx, a_win, b_win, index):
        a = yield ctx.read(a_win)
        yield ctx.compute(flops=2 * a.size)
        ...

:class:`Fem2Program` assembles a runtime whose tasks receive
TaskContexts, and is the entry point used by the application VM, the
examples, and the benchmarks.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..errors import LangVMError
from ..hardware.machine import Machine, MachineConfig
from ..sysvm import effects as fx
from ..sysvm.runtime import Runtime, SimpleContext
from ..sysvm.scheduler import DispatchPolicy
from . import windows as W
from .ownership import check_owner


class TaskContext(SimpleContext):
    """Language-level view of one executing task."""

    # -- computation ------------------------------------------------------

    def compute(self, flops: int = 0, cycles: Optional[int] = None) -> fx.Compute:
        """Charge arithmetic: *flops* floating-point ops (converted with
        the machine's ``flop_cycles``), or raw *cycles*."""
        cfg = self._runtime.machine.config
        total = int(cycles) if cycles is not None else 0
        total += int(flops) * cfg.flop_cycles
        return fx.Compute(cycles=total, flops=int(flops))

    # -- data and windows ----------------------------------------------------

    def create(self, data: Any) -> fx.CreateArray:
        """Create an array owned by this task in the local cluster."""
        return fx.CreateArray(np.asarray(data, dtype=float))

    def free(self, handle) -> fx.FreeArray:
        return fx.FreeArray(handle)

    def local(self, handle) -> np.ndarray:
        """Direct storage access, legal only for the owner task."""
        check_owner(handle, self.task_id)
        return self._runtime.data.raw(handle)

    def window(self, handle) -> W.Window:
        return W.whole(handle)

    def read(self, window: W.Window) -> fx.ReadWindow:
        return fx.ReadWindow(window)

    def write(self, window: W.Window, data: Any) -> fx.WriteWindow:
        return fx.WriteWindow(window, np.asarray(data, dtype=float))

    def accumulate(self, window: W.Window, data: Any) -> fx.WriteWindow:
        """``window += data`` at the owner — the FEM assembly primitive."""
        return fx.WriteWindow(window, np.asarray(data, dtype=float), accumulate=True)

    # -- task control ------------------------------------------------------------

    def initiate(
        self,
        task_type: str,
        *args: Any,
        count: int = 1,
        cluster: Optional[int] = None,
        index_arg: bool = True,
    ) -> fx.Initiate:
        """"Initiate a task" / create *count* replications."""
        return fx.Initiate(task_type, tuple(args), count, cluster, index_arg)

    def wait(self, tids: Iterable[int]) -> fx.WaitChildren:
        return fx.WaitChildren(tuple(tids))

    def wait_pause(self, tid: int) -> fx.WaitPause:
        return fx.WaitPause(tid)

    def pause(self) -> fx.Pause:
        return fx.Pause()

    def resume(self, tid: int) -> fx.ResumeChild:
        return fx.ResumeChild(tid)

    # -- communication -------------------------------------------------------------

    def broadcast(self, tids: Iterable[int], value: Any) -> fx.Broadcast:
        return fx.Broadcast(tuple(tids), value)

    def receive(self) -> fx.Receive:
        return fx.Receive()

    def call(
        self, proc: str, *args: Any, cluster: Optional[int] = None
    ) -> fx.RemoteCall:
        """Remote procedure call, located by its first window argument
        unless *cluster* pins it."""
        return fx.RemoteCall(proc, tuple(args), cluster)


class Fem2Program:
    """A complete FEM-2 program: machine + runtime + registered tasks.

    >>> prog = Fem2Program(MachineConfig.small())
    >>> @prog.task()
    ... def hello(ctx):
    ...     yield ctx.compute(flops=10)
    ...     return ctx.cluster
    >>> prog.run("hello")
    0
    """

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        dispatch_policy: Optional[DispatchPolicy] = None,
        placement: str = "round_robin",
        strict: bool = True,
        tracer=None,
        journal: bool = False,
    ) -> None:
        self.machine = Machine(config or MachineConfig(), tracer=tracer)
        self.runtime = Runtime(
            self.machine,
            dispatch_policy=dispatch_policy,
            placement=placement,
            strict=strict,
        )
        self.runtime.ctx_factory = TaskContext
        #: journal=True records every coroutine input, making the whole
        #: program snapshottable (see :mod:`repro.ckpt`)
        self.runtime.journaling = journal

    # -- program definition ---------------------------------------------------------

    def task(self, name: Optional[str] = None, **sizes) -> Callable:
        """Decorator registering a generator function as a task type."""
        return self.runtime.task(name, **sizes)

    def define(self, name: str, body: Callable, **sizes) -> None:
        self.runtime.define_task(name, body, **sizes)

    # -- static plan analysis -------------------------------------------------------

    def compile_plan(self):
        """Classify the registered task graph (pure analysis, no effect
        on execution; see :func:`repro.compile.compile_program`)."""
        from ..compile import compile_program

        return compile_program(self)

    # -- execution ----------------------------------------------------------------------

    def start(self, task_type: str, *args: Any, cluster: Optional[int] = None,
              retain_data: bool = False) -> int:
        """Spawn a root task without running the clock."""
        return self.runtime.spawn(
            task_type, *args, cluster=cluster, retain_data=retain_data
        )

    def run(self, task_type: str, *args: Any, cluster: Optional[int] = None,
            retain_data: bool = False, max_events: int = 5_000_000) -> Any:
        """Spawn a root task, run to quiescence, return its result."""
        tid = self.start(task_type, *args, cluster=cluster, retain_data=retain_data)
        self.runtime.run(max_events=max_events)
        return self.runtime.result_of(tid)

    def run_all(self, spawns: Sequence[Tuple[str, Tuple[Any, ...]]],
                max_events: int = 5_000_000) -> Dict[int, Any]:
        """Spawn several root tasks at t=0 (independent user problems) and
        run them concurrently — the paper's outermost level of
        parallelism.  Returns ``{tid: result}``."""
        tids = [self.start(name, *args) for name, args in spawns]
        results = self.runtime.run(max_events=max_events)
        missing = [t for t in tids if t not in results]
        if missing:
            raise LangVMError(f"root tasks {missing} produced no result")
        return {t: results[t] for t in tids}

    # -- checkpoint/restore ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The whole machine's mutable state — hardware and OS — as one
        plain-data tree.  Safe points are *between* engine events; the
        checkpoint driver (:class:`repro.ckpt.Checkpointer`) guarantees
        that by stepping the engine itself.  Registered task bodies are
        not captured: restore targets a program rebuilt by the same
        factory, which re-registers them."""
        return {
            "machine": self.machine.snapshot(),
            "runtime": self.runtime.snapshot(),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Install a snapshot into this (freshly built) program.  Every
        layer contributes re-schedule thunks tagged with their original
        (time, seq); running them sorted preserves the original event
        order, which is what makes the resumed run bit-identical."""
        pending: list = []
        self.machine.restore(state["machine"], pending)
        self.runtime.restore(state["runtime"], pending)
        for _time, _seq, thunk in sorted(pending, key=lambda e: (e[0], e[1])):
            thunk()

    # -- measurement -----------------------------------------------------------------------

    @property
    def metrics(self):
        return self.machine.metrics

    @property
    def tracer(self):
        """The machine's span tracer (see :mod:`repro.obs`), or None."""
        return self.machine.tracer

    @property
    def now(self) -> int:
        return self.machine.now

    def data_of(self, handle) -> np.ndarray:
        """Post-run inspection of a retained array (host-side, free)."""
        return self.runtime.data.raw(handle).copy()

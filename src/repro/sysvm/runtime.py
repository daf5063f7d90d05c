"""The FEM-2 run-time system: effect interpretation over the machine.

This module implements the system programmer's virtual machine proper:
it owns the task table, per-cluster heaps / code stores / ready queues /
kernels, and the global data store, and it interprets every effect a
task body yields (see :mod:`repro.sysvm.effects`) by charging PE cycles
and exchanging the paper's seven message types over the simulated
network.

The numerical analyst's VM builds its language constructs on this; the
application VM builds on that.  Nothing here knows about finite
elements.
"""

from __future__ import annotations

import copy
from collections import defaultdict, deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import (
    CkptError,
    MemoryCapacityError,
    MessageError,
    RoutingError,
    SchedulingError,
    SysVMError,
)
from ..hardware.machine import Machine
from ..hardware.metrics import Cells
from ..hardware.pe import ProcessingElement
from . import effects as fx
from .activation import ActivationRecord, allocate_record, release_record
from .code import ClusterCodeStore, CodeBlock, CodeRegistry
from .codec import decode, encode
from .heap import Heap
from .kernel import Kernel
from .messages import (
    Message,
    MsgKind,
    initiate_task,
    load_code,
    pause_notify,
    remote_call,
    remote_return,
    resume_task,
    terminate_notify,
)
from .scheduler import AnyPEDispatch, DispatchPolicy, ReadyQueue, TaskState, TCB
from .storage import ArrayHandle, DataStore

PLACEMENTS = ("round_robin", "least_loaded", "local")

#: the two counters _send bumps per message, by kind (names built once)
_MSG_COUNTERS = {
    kind: {f"comm.messages.{kind.value}": 0.0, f"comm.message_words.{kind.value}": 0.0}
    for kind in MsgKind
}


def journal_copy(value: Any) -> Any:
    """The journal's copy of a value sent into a task: equal to
    ``copy.deepcopy(value)`` in value, type, dtype and layout, and never
    an alias of a mutable one.  ``None``, exact ``int`` and the frozen
    :class:`ArrayHandle` are kept as they are; a plain numeric array is
    copied in its own memory order (what ``ndarray.__deepcopy__`` does);
    everything else goes through ``copy.deepcopy``."""
    cls = type(value)
    if value is None or cls is int or cls is ArrayHandle:
        return value
    if cls is np.ndarray and not value.dtype.hasobject:
        return value.copy(order="K")
    return copy.deepcopy(value)


class RemoteFault:
    """Error outcome of a remote call, delivered back to the caller and
    re-raised in its task body as a :class:`SysVMError`."""

    __slots__ = ("message",)

    def __init__(self, message: str) -> None:
        self.message = message

    def size_words(self) -> int:
        return 1 + (len(self.message) + 3) // 4


class SimpleContext:
    """Default first argument handed to task bodies.

    Exposes identity and the clock; the language layer installs a
    richer context via :attr:`Runtime.ctx_factory`.
    """

    def __init__(self, runtime: "Runtime", tcb: TCB) -> None:
        self._runtime = runtime
        self._tcb = tcb

    @property
    def task_id(self) -> int:
        return self._tcb.tid

    @property
    def cluster(self) -> int:
        return self._tcb.cluster

    @property
    def now(self) -> int:
        return self._runtime.machine.now

    # -- observability ------------------------------------------------------

    def obs_begin(self, kind: str, label: str, **attrs):
        """Open a span parented to this task's span; None when tracing is
        off, so callers pass the result straight to :meth:`obs_end`.
        During journal replay spans are suppressed — the original run
        already recorded them."""
        obs = self._runtime.obs
        if obs is None or self._runtime._replaying:
            return None
        return obs.begin(
            kind, label, self.now,
            parent=self._runtime.span_of(self.task_id), **attrs,
        )

    def obs_end(self, span, **attrs) -> None:
        if span is not None:
            self._runtime.obs.end(span, self.now, **attrs)


class Runtime:
    """One executing FEM-2 system: machine + operating system state."""

    def __init__(
        self,
        machine: Machine,
        dispatch_policy: Optional[DispatchPolicy] = None,
        placement: str = "round_robin",
        strict: bool = True,
    ) -> None:
        if placement not in PLACEMENTS:
            raise SchedulingError(f"unknown placement {placement!r}; one of {PLACEMENTS}")
        self.machine = machine
        self.registry = CodeRegistry()
        self.dispatch_policy = dispatch_policy or AnyPEDispatch()
        self.placement = placement
        self.strict = strict
        self.data = DataStore(machine)
        self.metrics = machine.metrics
        # per-kind message/word counter cells for _send
        self._msg_cells = {
            kind: Cells(self.metrics, counters) for kind, counters in _MSG_COUNTERS.items()
        }
        #: the machine's span tracer (duck-typed; see repro.obs), or None.
        #: Tracing is observational only — it never charges cycles.
        self.obs = machine.tracer
        #: span to parent the next *root* task's span under (set by the
        #: application layer around spawn so job → task trees link up)
        self.obs_root_parent = None
        self._task_spans: Dict[int, Any] = {}
        self.ctx_factory: Callable[["Runtime", TCB], Any] = SimpleContext
        #: optional observer called as hook(task_id, window, kind) for every
        #: window access; kind in {"read", "write", "accumulate"}
        self.window_hook: Optional[Callable[[int, Any, str], None]] = None

        ncl = machine.config.n_clusters
        self.heaps: List[Heap] = [
            Heap(
                machine.config.memory_words_per_cluster,
                shared_memory=machine.cluster(c).memory,
                tag="heap",
            )
            for c in range(ncl)
        ]
        self.code_stores: List[ClusterCodeStore] = [
            ClusterCodeStore(c, machine.cluster(c).memory) for c in range(ncl)
        ]
        self.ready: List[ReadyQueue] = [ReadyQueue(c) for c in range(ncl)]
        self.kernels: List[Kernel] = [Kernel(self, machine.cluster(c)) for c in range(ncl)]

        self.tasks: Dict[int, TCB] = {}
        self.root_results: Dict[int, Any] = {}
        # plain-int counters (not itertools.count) so snapshots can
        # capture and restore them exactly
        self._tid = 1
        self._call_id = 1
        self._rr = 0
        self._msg_id = 1
        #: record every value fed to task coroutines, enabling
        #: checkpoint/restore via deterministic replay (costs a journal_copy
        #: per value, so it is opt-in — Fem2Program(journal=True) turns it on)
        self.journaling = False
        #: True only while journals are being replayed into recreated
        #: coroutines during restore; suppresses span emission
        self._replaying = False
        self._code_sent: set = set()  # (cluster, task_type) LOAD_CODE in flight
        self._awaiting_code: Dict[Tuple[int, str], List] = defaultdict(list)
        self._pending_rpc: Dict[int, int] = {}  # call_id -> caller tid
        #: where every issued tid lives (or will live once its INITIATE lands)
        self._task_home: Dict[int, int] = {}
        #: live (issued, not yet finished) tasks per cluster — the signal
        #: the least_loaded placement policy balances on
        self.cluster_load: List[int] = [0] * ncl
        #: mail/resumes that arrived before the task's INITIATE did
        self._early: Dict[int, Dict[str, Any]] = defaultdict(
            lambda: {"mail": [], "resume": False}
        )

    # -- program definition ---------------------------------------------------

    def define_task(
        self,
        task_type: str,
        body: Callable,
        code_words: int = 256,
        constants_words: int = 32,
        locals_words: int = 64,
    ) -> CodeBlock:
        """Register a task type (generator function) with the system."""
        return self.registry.define(
            CodeBlock(task_type, body, code_words, constants_words, locals_words)
        )

    def task(self, task_type: Optional[str] = None, **sizes) -> Callable:
        """Decorator form of :meth:`define_task`."""

        def wrap(fn: Callable) -> Callable:
            self.define_task(task_type or fn.__name__, fn, **sizes)
            return fn

        return wrap

    # -- task lifecycle ----------------------------------------------------------

    def spawn(
        self,
        task_type: str,
        *args: Any,
        cluster: Optional[int] = None,
        retain_data: bool = False,
    ) -> int:
        """Create a root task (no parent) directly at a cluster."""
        c = self._place(None) if cluster is None else cluster
        block = self.registry.get(task_type)
        self.code_stores[c].load(block)  # root code is pre-loaded
        tcb = self._create_task(task_type, args, c, parent=None, retain_data=retain_data)
        return tcb.tid

    def _create_task(
        self,
        task_type: str,
        args: Tuple[Any, ...],
        cluster: int,
        parent: Optional[int],
        retain_data: bool = False,
        tid: Optional[int] = None,
        rpc_reply_to: Optional[Tuple] = None,
    ) -> TCB:
        block = self.registry.get(task_type)
        record = allocate_record(
            self.heaps[cluster],
            tid if tid is not None else -1,
            task_type,
            cluster,
            args,
            locals_words=block.locals_words,
        )
        tcb = TCB(
            tid=tid if tid is not None else self._alloc_tid(),
            task_type=task_type,
            cluster=cluster,
            parent=parent,
            coro=None,
            record=record,
            retain_data=retain_data,
            rpc_reply_to=rpc_reply_to,
            created_at=self.machine.now,
        )
        record.task_id = tcb.tid
        ctx = self.ctx_factory(self, tcb)
        tcb.coro = block.body(ctx, *args)
        if not hasattr(tcb.coro, "send"):
            raise SysVMError(
                f"task type {task_type!r}: body must be a generator function"
            )
        self.tasks[tcb.tid] = tcb
        self._set_home(tcb.tid, cluster)
        if tcb.tid in self._early:
            early = self._early.pop(tcb.tid)
            tcb.mailbox.extend(early["mail"])
            tcb.pending_resume = early["resume"]
        self.metrics.incr("task.initiated")
        obs = self.obs
        if obs is not None:
            pspan = (
                self._task_spans.get(parent)
                if parent is not None
                else self.obs_root_parent
            )
            span = obs.begin(
                "sysvm.task", task_type, self.machine.now, parent=pspan,
                tid=tcb.tid, cluster=cluster, parent_tid=parent,
            )
            self._task_spans[tcb.tid] = span
            obs.point(
                "sysvm.heap.alloc", task_type, self.machine.now, parent=span,
                words=record.size_words, cluster=cluster,
            )
        self.ready[cluster].push(tcb)
        self.kernels[cluster].kick()
        return tcb

    def span_of(self, tid: Optional[int]):
        """The open/closed span of a task, for causal parenting (or None)."""
        if tid is None:
            return None
        return self._task_spans.get(tid)

    def _alloc_tid(self) -> int:
        tid = self._tid
        self._tid += 1
        return tid

    def _alloc_call_id(self) -> int:
        cid = self._call_id
        self._call_id += 1
        return cid

    def _set_home(self, tid: int, cluster: int) -> None:
        if tid not in self._task_home:
            self._task_home[tid] = cluster
            self.cluster_load[cluster] += 1

    def requeue(self, tcb: TCB) -> None:
        """Put a picked-but-undispatchable task back on its ready queue."""
        self.ready[tcb.cluster].push(tcb)

    def start_on_pe(self, tcb: TCB, pe: ProcessingElement) -> None:
        """Kernel hand-off: begin or continue a task on a worker PE."""
        tcb.transition(TaskState.RUNNING)
        tcb.pe = pe
        if tcb.first_run_at is None:
            tcb.first_run_at = self.machine.now
            self.metrics.observe("task.start_latency", tcb.first_run_at - tcb.created_at)
        value, tcb.wake_value = tcb.wake_value, None
        if isinstance(value, RemoteFault):
            self._throw(tcb, SysVMError(f"remote call failed: {value.message}"))
            return
        self._step(tcb, value)

    # -- coroutine driving ---------------------------------------------------------

    def _step(self, tcb: TCB, value: Any) -> None:
        if self.journaling:
            tcb.journal.append(("send", journal_copy(value)))
        try:
            effect = tcb.coro.send(value)
        except StopIteration as stop:
            self._finish(tcb, getattr(stop, "value", None))
            return
        except Exception as exc:  # task body raised
            self._fail(tcb, exc)
            return
        try:
            self._interpret(tcb, effect)
        except (SysVMError, RoutingError, MemoryCapacityError) as exc:
            # deliver system errors into the task body so it may handle them
            self._throw(tcb, exc)

    def _throw(self, tcb: TCB, exc: BaseException) -> None:
        if self.journaling:
            tcb.journal.append(("throw", exc))
        try:
            effect = tcb.coro.throw(exc)
        except StopIteration as stop:
            self._finish(tcb, getattr(stop, "value", None))
            return
        except Exception as exc2:
            self._fail(tcb, exc2)
            return
        self._interpret(tcb, effect)

    def _replay(self, tcb: TCB) -> None:
        """Recreate a live task's coroutine from the registered body and
        re-feed its journal, discarding the yielded effects — their
        consequences (heap, arrays, messages, metrics) are already part
        of the restored state.  Bodies must be deterministic functions of
        the journaled inputs, which is the safe-point contract documented
        in DESIGN.md."""
        block = self.registry.get(tcb.task_type)
        ctx = self.ctx_factory(self, tcb)
        tcb.coro = block.body(ctx, *tcb.record.params)
        self._replaying = True
        try:
            for op, value in tcb.journal:
                if op == "send":
                    tcb.coro.send(value)
                else:
                    tcb.coro.throw(value)
        finally:
            self._replaying = False

    def _burst(self, tcb: TCB, cycles: int, cont: Tuple) -> None:
        """Charge a PE burst; *cont* is a continuation descriptor (not a
        closure) stored on the TCB so checkpoints can serialize it."""
        tcb.cont = cont
        # bound method + TCB ride the completion event (no per-burst closure)
        tcb.pe.execute(cycles, self._continue, tcb)

    def _continue(self, tcb: TCB) -> None:
        """Dispatch the task's pending continuation descriptor.  This is
        the single completion path for every worker-PE burst."""
        cont, tcb.cont = tcb.cont, None
        tag = cont[0]
        if tag == "step":
            self._step(tcb, cont[1])
        elif tag == "send_rpc":
            _, dst, msg, call_id = cont
            self._send(tcb.cluster, dst, msg)
            self._block(tcb, ("rpc", call_id))
        elif tag == "send_initiate":
            _, messages, tids = cont
            for target, msg in messages:
                self._send(tcb.cluster, target, msg)
            self._step(tcb, list(tids))
        elif tag == "send_pause":
            if tcb.parent is not None:
                parent = self.tasks.get(tcb.parent)
                pcluster = parent.cluster if parent else tcb.cluster
                self._send(tcb.cluster, pcluster, pause_notify(tcb.tid, tcb.parent))
            tcb.transition(TaskState.PAUSED)
            tcb.pe = None
            self.metrics.incr("task.pauses")
            if tcb.pending_resume:
                tcb.pending_resume = False
                self._wake(tcb, None)
            self.kernels[tcb.cluster].kick()
        elif tag == "send_bcast":
            # call ids are allocated here, at completion time, so a
            # restored burst allocates the same ids the original would
            _, targets, value = cont
            for tid, home in targets:
                call_id = self._alloc_call_id()
                msg = remote_call(
                    "deliver_value", call_id, tcb.tid, target=tid, value=value
                )
                self._send(tcb.cluster, home, msg)
            self._step(tcb, None)
        elif tag == "send_resume":
            _, home, msg = cont
            self._send(tcb.cluster, home, msg)
            self._step(tcb, None)
        else:  # pragma: no cover - tags are exhaustive
            raise SysVMError(f"task {tcb.tid}: unknown continuation {tag!r}")

    def _block(self, tcb: TCB, waiting: Tuple) -> None:
        tcb.transition(TaskState.BLOCKED)
        tcb.waiting = waiting
        tcb.pe = None
        self.metrics.incr("task.blocks")
        self.kernels[tcb.cluster].kick()

    def _wake(self, tcb: TCB, value: Any) -> None:
        tcb.waiting = None
        tcb.wake_value = value
        tcb.transition(TaskState.READY)
        self.ready[tcb.cluster].push(tcb)
        self.kernels[tcb.cluster].kick()

    def _finish(self, tcb: TCB, result: Any) -> None:
        tcb.transition(TaskState.DONE)
        tcb.result = result
        tcb.finished_at = self.machine.now
        tcb.pe = None
        tcb.cont = None
        tcb.journal.clear()  # finished tasks are never replayed
        self.cluster_load[tcb.cluster] -= 1
        release_record(self.heaps[tcb.cluster], tcb.record)
        if not tcb.retain_data:
            self.data.drop_owned_by(tcb.tid)
        self.metrics.incr("task.completed")
        self.metrics.observe("task.turnaround", tcb.finished_at - tcb.created_at)
        if self.obs is not None:
            self.obs.end(self._task_spans.get(tcb.tid), self.machine.now,
                         outcome="done")
        if tcb.rpc_reply_to is not None:
            rcluster, _rtask, call_id = tcb.rpc_reply_to
            self._send(tcb.cluster, rcluster, remote_return(call_id, result, _rtask))
        elif tcb.parent is not None:
            parent = self.tasks.get(tcb.parent)
            pcluster = parent.cluster if parent else tcb.cluster
            self._send(
                tcb.cluster, pcluster, terminate_notify(tcb.tid, tcb.parent, result)
            )
        else:
            self.root_results[tcb.tid] = result
        self.kernels[tcb.cluster].kick()

    def _fail(self, tcb: TCB, exc: BaseException) -> None:
        tcb.transition(TaskState.FAILED)
        tcb.error = exc
        tcb.finished_at = self.machine.now
        tcb.pe = None
        tcb.cont = None
        tcb.journal.clear()
        self.cluster_load[tcb.cluster] -= 1
        release_record(self.heaps[tcb.cluster], tcb.record)
        if not tcb.retain_data:
            self.data.drop_owned_by(tcb.tid)
        self.metrics.incr("task.failed")
        if self.obs is not None:
            self.obs.end(self._task_spans.get(tcb.tid), self.machine.now,
                         outcome="failed", error=repr(exc))
        if self.strict:
            raise SysVMError(f"task {tcb.tid} ({tcb.task_type}) failed") from exc
        if tcb.parent is not None:
            parent = self.tasks.get(tcb.parent)
            pcluster = parent.cluster if parent else tcb.cluster
            self._send(
                tcb.cluster,
                pcluster,
                terminate_notify(tcb.tid, tcb.parent, ("__error__", repr(exc))),
            )
        else:
            self.root_results[tcb.tid] = ("__error__", repr(exc))
        self.kernels[tcb.cluster].kick()

    # -- message plumbing -------------------------------------------------------------

    def _send(self, src: int, dst: int, msg: Message, extra_delay: int = 0) -> None:
        # stamp the wire id from OS state, not the construction-time
        # default: ids must be a function of this run's own history so a
        # mid-run checkpoint (which pickles in-flight messages) is
        # byte-identical across host processes
        msg.msg_id = self._msg_id
        self._msg_id += 1
        encode(msg, src, dst)
        cells = self._msg_cells[msg.kind]
        if cells.version != self.metrics.version:
            cells.fetch()
        messages, words = cells.items
        messages.value += 1
        words.value += msg.size_words
        if self.obs is not None:
            self.obs.point(
                f"sysvm.msg.{msg.kind.value}", msg.kind.value, self.machine.now,
                parent=self._task_spans.get(msg.src_task),
                src=src, dst=dst, words=msg.size_words,
            )
        self.machine.deliver(src, dst, msg.size_words, msg, extra_delay=extra_delay)

    def handle_message(self, cluster_id: int, msg: Message) -> None:
        """Kernel upcall: decode and execute one message."""
        payload = decode(msg)
        kind = msg.kind
        if self.obs is not None:
            self.obs.point(
                "sysvm.decode", kind.value, self.machine.now,
                parent=self._task_spans.get(msg.src_task),
                cluster=cluster_id, words=msg.size_words,
            )
        if kind is MsgKind.INITIATE_TASK:
            self._handle_initiate(cluster_id, payload)
        elif kind is MsgKind.PAUSE_NOTIFY:
            self._handle_pause_notify(payload)
        elif kind is MsgKind.RESUME_TASK:
            self._handle_resume(payload)
        elif kind is MsgKind.TERMINATE_NOTIFY:
            self._handle_terminate_notify(payload)
        elif kind is MsgKind.REMOTE_CALL:
            self._handle_remote_call(cluster_id, msg, payload)
        elif kind is MsgKind.REMOTE_RETURN:
            self._handle_remote_return(payload)
        elif kind is MsgKind.LOAD_CODE:
            self._handle_load_code(cluster_id, payload)
        else:  # pragma: no cover - MsgKind is exhaustive
            raise MessageError(f"unhandled message kind {kind}")

    def _handle_initiate(self, cluster_id: int, payload: Dict) -> None:
        task_type = payload["task_type"]
        if not self.code_stores[cluster_id].is_resident(task_type):
            # "find code for task" failed: park until the code block arrives
            self._awaiting_code[(cluster_id, task_type)].append(("initiate", payload))
            return
        args = tuple(payload["args"])
        for tid, index in zip(payload["tids"], payload["indices"]):
            task_args = args + (index,) if payload.get("index_arg") else args
            self._create_task(
                task_type,
                task_args,
                cluster_id,
                parent=payload.get("parent"),
                retain_data=payload.get("retain", False),
                tid=tid,
            )

    def _handle_pause_notify(self, payload: Dict) -> None:
        child = payload["child"]
        child_tcb = self.tasks.get(child)
        parent = self.tasks.get(child_tcb.parent) if child_tcb else None
        if parent is None:
            return
        parent.pause_events.add(child)
        if parent.waiting == ("pause_of", child):
            parent.pause_events.discard(child)
            self._wake(parent, None)

    def _handle_resume(self, payload: Dict) -> None:
        child = payload["child"]
        tcb = self.tasks.get(child)
        if tcb is None:
            if child in self._task_home:
                self._early[child]["resume"] = True
            return
        if not tcb.is_live():
            return
        if tcb.state is TaskState.PAUSED:
            self._wake(tcb, None)
        else:
            # resume raced ahead of the pause: honour it when the pause lands
            tcb.pending_resume = True

    def _handle_terminate_notify(self, payload: Dict) -> None:
        child, result = payload["child"], payload["result"]
        child_tcb = self.tasks.get(child)
        parent = self.tasks.get(child_tcb.parent) if child_tcb else None
        if parent is None or not parent.is_live():
            return
        parent.children.discard(child)
        parent.child_results[child] = result
        if parent.waiting and parent.waiting[0] == "children":
            wanted = parent.waiting[1]
            if wanted.issubset(parent.child_results.keys()):
                results = {t: parent.child_results.pop(t) for t in wanted}
                self._wake(parent, results)

    def _handle_remote_call(self, cluster_id: int, msg: Message, payload: Dict) -> None:
        service = payload["service"]
        call_id = payload["call_id"]
        cfg = self.machine.config
        if service == "window_read":
            window = payload["window"]
            try:
                arr = self.data.raw(window.handle)
                value = window.read_from(arr)
                copy_cost = cfg.word_touch_cycles * window.words
            except SysVMError as exc:
                value = RemoteFault(str(exc))
                copy_cost = 0
            self._send(
                cluster_id,
                msg.src_cluster,
                remote_return(call_id, value, msg.src_task),
                extra_delay=copy_cost,
            )
        elif service == "window_write":
            window = payload["window"]
            try:
                arr = self.data.raw(window.handle)
                window.write_to(arr, payload["data"],
                                accumulate=payload.get("accumulate", False))
                value = None
                copy_cost = cfg.word_touch_cycles * window.words
            except SysVMError as exc:
                value = RemoteFault(str(exc))
                copy_cost = 0
            self._send(
                cluster_id,
                msg.src_cluster,
                remote_return(call_id, value, msg.src_task),
                extra_delay=copy_cost,
            )
        elif service == "deliver_value":
            target_tid = payload["target"]
            tcb = self.tasks.get(target_tid)
            if tcb is None:
                if target_tid in self._task_home:
                    # the target's INITIATE is still in flight: park the value
                    self._early[target_tid]["mail"].append(payload["value"])
                return
            if not tcb.is_live():
                return
            tcb.mailbox.append(payload["value"])
            if tcb.waiting == ("receive",):
                self._wake(tcb, tcb.mailbox.popleft())
        elif service == "proc":
            if not self.code_stores[cluster_id].is_resident(payload["proc"]):
                self._awaiting_code[(cluster_id, payload["proc"])].append(
                    ("proc", msg, payload)
                )
                return
            self._create_task(
                payload["proc"],
                tuple(payload["args"]),
                cluster_id,
                parent=None,
                rpc_reply_to=(msg.src_cluster, msg.src_task, call_id),
            )
        else:
            raise MessageError(f"unknown remote-call service {service!r}")

    def _handle_remote_return(self, payload: Dict) -> None:
        call_id = payload["call_id"]
        caller = self._pending_rpc.pop(call_id, None)
        if caller is None:
            raise MessageError(f"remote return for unknown call {call_id}")
        tcb = self.tasks[caller]
        if tcb.waiting == ("rpc", call_id):
            self._wake(tcb, payload["result"])
        else:  # pragma: no cover - callers always block on the call
            raise SchedulingError(f"task {caller} not waiting on call {call_id}")

    def _handle_load_code(self, cluster_id: int, payload: Dict) -> None:
        task_type = payload["task_type"]
        self.code_stores[cluster_id].load(self.registry.get(task_type))
        parked = self._awaiting_code.pop((cluster_id, task_type), [])
        for entry in parked:
            if entry[0] == "initiate":
                self._handle_initiate(cluster_id, entry[1])
            else:
                _tag, parked_msg, parked_payload = entry
                self._handle_remote_call(cluster_id, parked_msg, parked_payload)

    # -- effect interpretation ------------------------------------------------------

    def _interpret(self, tcb: TCB, effect: Any) -> None:
        cfg = self.machine.config
        kind = type(effect)  # exact match: no effect class is subclassed
        if kind is fx.Compute:
            if effect.flops:
                self.metrics.incr("proc.flops", effect.flops)
            self._burst(tcb, effect.cycles, ("step", None))
        elif kind is fx.CreateArray:
            arr = np.array(effect.data, copy=True)
            handle = self.data.register(arr, tcb.cluster, owner_task=tcb.tid)
            cost = cfg.word_touch_cycles * int(arr.size)
            self._burst(tcb, cost, ("step", handle))
        elif kind is fx.FreeArray:
            if effect.handle.owner_task != tcb.tid:
                raise SysVMError(
                    f"task {tcb.tid} freeing array owned by task "
                    f"{effect.handle.owner_task}"
                )
            self.data.drop(effect.handle)
            self._burst(tcb, 1, ("step", None))
        elif kind is fx.ReadWindow:
            self._do_window_read(tcb, effect.window)
        elif kind is fx.WriteWindow:
            self._do_window_write(tcb, effect.window, effect.data, effect.accumulate)
        elif kind is fx.Initiate:
            self._do_initiate(tcb, effect)
        elif kind is fx.WaitChildren:
            self._do_wait_children(tcb, tuple(effect.tids))
        elif kind is fx.WaitPause:
            if effect.tid in tcb.pause_events:
                tcb.pause_events.discard(effect.tid)
                self._burst(tcb, 1, ("step", None))
            else:
                self._block(tcb, ("pause_of", effect.tid))
        elif kind is fx.Pause:
            self._do_pause(tcb)
        elif kind is fx.ResumeChild:
            home = self._task_home.get(effect.tid)
            if home is None:
                raise SysVMError(f"resume of unknown task {effect.tid}")
            msg = resume_task(effect.tid, tcb.tid)
            self._burst(tcb, cfg.message_fixed_cycles, ("send_resume", home, msg))
        elif kind is fx.Broadcast:
            self._do_broadcast(tcb, tuple(effect.tids), effect.value)
        elif kind is fx.Receive:
            if tcb.mailbox:
                value = tcb.mailbox.popleft()
                self._burst(tcb, 1, ("step", value))
            else:
                self._block(tcb, ("receive",))
        elif kind is fx.RemoteCall:
            self._do_remote_call(tcb, effect)
        else:
            raise SysVMError(
                f"task {tcb.tid} yielded a non-effect: {effect!r}"
            )

    # -- effect helpers ---------------------------------------------------------------

    def _do_window_read(self, tcb: TCB, window) -> None:
        cfg = self.machine.config
        if self.window_hook is not None:
            self.window_hook(tcb.tid, window, "read")
        owner_cluster = window.handle.cluster
        if owner_cluster == tcb.cluster:
            value = window.read_from(self.data.raw(window.handle))
            cost = cfg.word_touch_cycles * window.words
            self.metrics.incr("win.local_reads")
            self._burst(tcb, cost, ("step", value))
        else:
            self.metrics.incr("win.remote_reads")
            call_id = self._alloc_call_id()
            msg = remote_call("window_read", call_id, tcb.tid, window=window)
            self._pending_rpc[call_id] = tcb.tid
            self._burst(
                tcb, cfg.message_fixed_cycles,
                ("send_rpc", owner_cluster, msg, call_id),
            )

    def _do_window_write(self, tcb: TCB, window, data, accumulate: bool) -> None:
        cfg = self.machine.config
        if self.window_hook is not None:
            self.window_hook(tcb.tid, window, "accumulate" if accumulate else "write")
        owner_cluster = window.handle.cluster
        data = np.asarray(data)
        if owner_cluster == tcb.cluster:
            window.write_to(self.data.raw(window.handle), data, accumulate=accumulate)
            cost = cfg.word_touch_cycles * window.words
            self.metrics.incr("win.local_writes")
            self._burst(tcb, cost, ("step", None))
        else:
            self.metrics.incr("win.remote_writes")
            call_id = self._alloc_call_id()
            msg = remote_call(
                "window_write", call_id, tcb.tid,
                window=window, data=data, accumulate=accumulate,
            )
            self._pending_rpc[call_id] = tcb.tid
            self._burst(
                tcb, cfg.message_fixed_cycles,
                ("send_rpc", owner_cluster, msg, call_id),
            )

    def _do_initiate(self, tcb: TCB, effect: fx.Initiate) -> None:
        cfg = self.machine.config
        block = self.registry.get(effect.task_type)  # validates the type
        tids = [self._alloc_tid() for _ in range(effect.count)]
        # group replications by target cluster
        by_cluster: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for index, tid in enumerate(tids):
            target = effect.cluster if effect.cluster is not None else self._place(tcb.cluster)
            by_cluster[target].append((tid, index))
            self._set_home(tid, target)
        tcb.children.update(tids)
        messages: List[Tuple[int, Message]] = []
        for target, pairs in sorted(by_cluster.items()):
            if (
                not self.code_stores[target].is_resident(effect.task_type)
                and (target, effect.task_type) not in self._code_sent
            ):
                self._code_sent.add((target, effect.task_type))
                messages.append((target, load_code(effect.task_type, block.load_words)))
            msg = initiate_task(effect.task_type, len(pairs), effect.args, tcb.tid)
            msg.payload["tids"] = [p[0] for p in pairs]
            msg.payload["indices"] = [p[1] for p in pairs]
            msg.payload["index_arg"] = effect.index_arg
            msg.payload["parent"] = tcb.tid
            messages.append((target, msg))
        format_cost = cfg.message_fixed_cycles * len(messages)
        self._burst(tcb, format_cost, ("send_initiate", messages, tids))

    def _do_wait_children(self, tcb: TCB, tids: Tuple[int, ...]) -> None:
        have = set(tcb.child_results.keys())
        wanted = set(tids)
        if wanted.issubset(have):
            results = {t: tcb.child_results.pop(t) for t in wanted}
            self._burst(tcb, 1, ("step", results))
        else:
            self._block(tcb, ("children", frozenset(wanted)))

    def _do_pause(self, tcb: TCB) -> None:
        cfg = self.machine.config
        self._burst(tcb, cfg.message_fixed_cycles, ("send_pause",))

    def _do_broadcast(self, tcb: TCB, tids: Tuple[int, ...], value: Any) -> None:
        cfg = self.machine.config
        targets = []
        for tid in tids:
            home = self._task_home.get(tid)
            if home is None:
                raise SysVMError(f"broadcast to unknown task {tid}")
            targets.append((tid, home))
        self.metrics.incr("comm.broadcasts")
        self._burst(
            tcb, cfg.message_fixed_cycles * max(1, len(targets)),
            ("send_bcast", targets, value),
        )

    def _do_remote_call(self, tcb: TCB, effect: fx.RemoteCall) -> None:
        cfg = self.machine.config
        self.registry.get(effect.proc)  # validates
        target = effect.cluster
        if target is None:
            # "location determined by location of data visible in a window"
            for arg in effect.args:
                handle = getattr(arg, "handle", None)
                if handle is not None:
                    target = handle.cluster
                    break
        if target is None:
            raise SysVMError(
                "remote call needs an explicit cluster or a window argument"
            )
        if not self.code_stores[target].is_resident(effect.proc):
            block = self.registry.get(effect.proc)
            if (target, effect.proc) not in self._code_sent:
                self._code_sent.add((target, effect.proc))
                self._send(tcb.cluster, target, load_code(effect.proc, block.load_words))
        call_id = self._alloc_call_id()
        msg = remote_call("proc", call_id, tcb.tid, proc=effect.proc, args=effect.args)
        self._pending_rpc[call_id] = tcb.tid
        self._burst(tcb, cfg.message_fixed_cycles, ("send_rpc", target, msg, call_id))

    # -- fault recovery -----------------------------------------------------------------

    def recover_pe_failure(self, pe: ProcessingElement) -> None:
        """Reconfiguration after a worker-PE fault: the task that was
        running on it lost its in-flight work and is *restarted from the
        beginning* on the surviving PEs.

        Restart-from-start is the recovery model of the original FEM task
        farm: tasks are assumed idempotent.  Tasks that externalize state
        mid-run (window writes before termination) are not restart-safe;
        the fault experiments use compute-and-return tasks.
        """
        victims = [
            t for t in self.tasks.values()
            if t.pe is pe and t.state is TaskState.RUNNING
        ]
        for tcb in victims:
            block = self.registry.get(tcb.task_type)
            self.data.drop_owned_by(tcb.tid)  # recreated on restart
            tcb.coro.close()
            ctx = self.ctx_factory(self, tcb)
            tcb.coro = block.body(ctx, *tcb.record.params)
            tcb.pe = None
            tcb.waiting = None
            tcb.wake_value = None
            tcb.cont = None
            tcb.journal.clear()  # the restart begins a fresh history
            tcb.transition(TaskState.READY)
            self.metrics.incr("fault.task_restarts")
            self.ready[tcb.cluster].push(tcb)
            self.kernels[tcb.cluster].kick()

    def recover_cluster_failure(
        self, cluster_id: int, dropped: Sequence = ()
    ) -> None:
        """A whole cluster is gone: its tasks (and their data) are lost.

        Parents waiting on lost children are woken with an error result —
        the system "detects" the failure rather than deadlocking.  Beyond
        the cluster's resident tasks, two more populations must be
        reported: tasks whose INITIATE was sitting in the dead cluster's
        input queue (*dropped*, captured by the fault injector before the
        queue was cleared) and tasks whose INITIATE is still traversing
        the network toward the dead cluster (``machine.in_flight()``).
        """
        lost = [
            t for t in self.tasks.values()
            if t.cluster == cluster_id and t.is_live()
        ]
        for tcb in lost:
            if tcb.coro is not None:
                tcb.coro.close()
            tcb.state = TaskState.FAILED  # direct: heap/records died with the cluster
            tcb.error = RoutingError(f"cluster {cluster_id} failed")
            tcb.pe = None
            tcb.cont = None
            tcb.journal.clear()
            self.cluster_load[tcb.cluster] -= 1
            self.metrics.incr("fault.tasks_lost")
            result = ("__error__", f"lost to cluster {cluster_id} failure")
            if tcb.rpc_reply_to is not None:
                rcluster, rtask, call_id = tcb.rpc_reply_to
                caller = self._pending_rpc.pop(call_id, None)
                if caller is not None:
                    waiter = self.tasks.get(caller)
                    if waiter is not None and waiter.waiting == ("rpc", call_id):
                        self._wake(waiter, result)
            elif tcb.parent is not None:
                self._report_lost_child(tcb.tid, tcb.parent, result)
            else:
                self.root_results[tcb.tid] = result
        # INITIATEs that never ran: queued at the cluster when it died,
        # or still in flight toward it
        doomed = list(dropped)
        doomed.extend(
            p for dst, p in self.machine.in_flight() if dst == cluster_id
        )
        for msg in doomed:
            if not isinstance(msg, Message) or msg.kind is not MsgKind.INITIATE_TASK:
                continue
            payload = msg.payload
            result = ("__error__", f"lost to cluster {cluster_id} failure")
            for tid in payload.get("tids", []):
                if tid in self.tasks:
                    continue  # the task exists somewhere; not this message's loss
                self.metrics.incr("fault.tasks_lost")
                home = self._task_home.get(tid)
                if home is not None:
                    self.cluster_load[home] -= 1
                parent_tid = payload.get("parent")
                if parent_tid is not None:
                    self._report_lost_child(tid, parent_tid, result)
                else:
                    self.root_results[tid] = result

    def _report_lost_child(self, tid: int, parent_tid: int, result: Any) -> None:
        """Record a lost child's error result with its parent, waking the
        parent if this completes the set it was waiting on."""
        parent = self.tasks.get(parent_tid)
        if parent is None or not parent.is_live():
            return
        parent.children.discard(tid)
        parent.child_results[tid] = result
        if parent.waiting and parent.waiting[0] == "children":
            wanted = parent.waiting[1]
            if wanted.issubset(parent.child_results.keys()):
                results = {t: parent.child_results.pop(t) for t in wanted}
                self._wake(parent, results)

    # -- placement ---------------------------------------------------------------------

    def _place(self, parent_cluster: Optional[int]) -> int:
        live = [c.cluster_id for c in self.machine.live_clusters()]
        if not live:
            raise SchedulingError("no live clusters to place task on")
        if self.placement == "local" and parent_cluster in live:
            return parent_cluster
        if self.placement == "least_loaded":
            return min(
                live, key=lambda c: (self.cluster_load[c], len(self.ready[c]), c)
            )
        # round robin over live clusters
        self._rr = (self._rr + 1) % len(live)
        return live[self._rr]

    # -- running ------------------------------------------------------------------------

    def run(self, max_events: int = 5_000_000) -> Dict[int, Any]:
        """Run the machine to quiescence; returns root-task results.

        Raises :class:`SchedulingError` with a diagnosis if tasks remain
        live after the event queue drains (deadlock or lost wakeup).
        A halted engine (fault recovery pending) returns the results so
        far without the stuck-task check — the recovery driver decides
        how to resume.
        """
        self.machine.run_to_completion(max_events=max_events)
        if self.machine.engine.halted:
            return dict(self.root_results)
        stuck = [t for t in self.tasks.values() if t.is_live()]
        if stuck:
            detail = ", ".join(
                f"task {t.tid}({t.task_type}) {t.state.value} waiting={t.waiting}"
                for t in stuck[:8]
            )
            raise SchedulingError(f"{len(stuck)} tasks never completed: {detail}")
        return dict(self.root_results)

    def result_of(self, tid: int) -> Any:
        if tid in self.root_results:
            return self.root_results[tid]
        tcb = self.tasks.get(tid)
        if tcb is None:
            raise SysVMError(f"unknown task {tid}")
        if tcb.state is not TaskState.DONE:
            raise SysVMError(f"task {tid} has not completed ({tcb.state.value})")
        return tcb.result

    # -- checkpoint/restore --------------------------------------------------------------

    def snapshot(self) -> Dict:
        """Every piece of OS state as checkpoint data.  Requires journaling —
        task coroutines cannot be serialized, so restore recreates them
        from the registered bodies and replays the journals.

        Worker-PE bursts in flight are captured as (tid, end time, seq,
        cycles); the continuation each one completes into is already on
        the TCB (``cont``).  The registry and task bodies are *not*
        serialized — restore targets a freshly built program that has
        re-registered the same types.
        """
        if not self.journaling:
            raise CkptError(
                "runtime journaling is off; build the program with "
                "journal=True to make it checkpointable"
            )
        bursts = []
        for tcb in self.tasks.values():
            if tcb.state is TaskState.RUNNING and tcb.pe is not None:
                ev = tcb.pe._burst_event
                if ev is not None:
                    bursts.append((tcb.tid, ev.time, ev.seq, ev.args[0]))
        return {
            "tid": self._tid,
            "call_id": self._call_id,
            "rr": self._rr,
            "msg_id": self._msg_id,
            "data": self.data.snapshot(),
            "heaps": [h.snapshot() for h in self.heaps],
            "code_stores": [cs.snapshot() for cs in self.code_stores],
            "tasks": [t.snapshot() for t in self.tasks.values()],
            "root_results": dict(self.root_results),
            "code_sent": sorted(self._code_sent),
            "awaiting_code": [
                (k, list(v)) for k, v in sorted(self._awaiting_code.items())
            ],
            "pending_rpc": dict(self._pending_rpc),
            "task_home": dict(self._task_home),
            "cluster_load": list(self.cluster_load),
            "early": {
                tid: {"mail": list(e["mail"]), "resume": e["resume"]}
                for tid, e in self._early.items()
            },
            "ready": [[t.tid for t in rq] for rq in self.ready],
            "kernels": [k.snapshot() for k in self.kernels],
            "bursts": sorted(bursts, key=lambda b: (b[1], b[2])),
        }

    def restore(self, state: Dict, pending: List) -> None:
        """Install OS state into this (freshly built) runtime.  Burst and
        kernel completions are appended to *pending* as (time, seq,
        thunk); the coordinator re-schedules them in original order."""
        if not self.journaling:
            raise CkptError("cannot restore into a runtime without journaling")
        self._tid = state["tid"]
        self._call_id = state["call_id"]
        self._rr = state["rr"]
        self._msg_id = state["msg_id"]
        self.data.restore(state["data"])
        for heap, hstate in zip(self.heaps, state["heaps"]):
            heap.restore(hstate)
        for store, cstate in zip(self.code_stores, state["code_stores"]):
            store.restore(cstate)
        self.root_results = dict(state["root_results"])
        self._code_sent = {tuple(k) for k in state["code_sent"]}
        self._awaiting_code = defaultdict(list)
        for key, entries in state["awaiting_code"]:
            self._awaiting_code[tuple(key)] = list(entries)
        self._pending_rpc = dict(state["pending_rpc"])
        self._task_home = dict(state["task_home"])
        self.cluster_load = list(state["cluster_load"])
        self._early = defaultdict(lambda: {"mail": [], "resume": False})
        for tid, entry in state["early"].items():
            self._early[tid] = {"mail": list(entry["mail"]), "resume": entry["resume"]}
        self.tasks = {}
        self._task_spans = {}
        for tstate in state["tasks"]:
            tcb = self._restore_task(tstate)
            self.tasks[tcb.tid] = tcb
        # recreate coroutines of live tasks by replaying their journals
        for tcb in self.tasks.values():
            if tcb.is_live():
                self._replay(tcb)
        for rq, tids in zip(self.ready, state["ready"]):
            rq._queue = deque(self.tasks[t] for t in tids)
        # kernels reference TCBs, so tasks had to come first
        for kernel, kstate in zip(self.kernels, state["kernels"]):
            kernel.restore(kstate, pending)
        for tid, end_time, seq, cycles in state["bursts"]:
            tcb = self.tasks[tid]
            pending.append((
                end_time, seq,
                lambda t=tcb, c=cycles, e=end_time: t.pe.resume_burst(
                    c, e, self._continue, t
                ),
            ))

    def _restore_task(self, s: Dict) -> TCB:
        rec = s["record"]
        record = ActivationRecord(
            task_id=rec["task_id"],
            task_type=rec["task_type"],
            cluster=rec["cluster"],
            heap_addr=rec["heap_addr"],
            size_words=rec["size_words"],
            params=rec["params"],
            locals=dict(rec["locals"]),
            released=rec["released"],
        )
        tcb = TCB(
            tid=s["tid"],
            task_type=s["task_type"],
            cluster=s["cluster"],
            parent=s["parent"],
            coro=None,
            record=record,
        )
        tcb.restore(s)
        tcb.pe = (
            self.machine.cluster(tcb.cluster).pes[s["pe_index"]]
            if s["pe_index"] is not None
            else None
        )
        # reopen a fresh span for live tasks so post-restore activity has
        # a home; the original parent link is lost across the restore
        if tcb.is_live() and self.obs is not None:
            self._task_spans[tcb.tid] = self.obs.begin(
                "sysvm.task", tcb.task_type, self.machine.now,
                parent=self.obs_root_parent, tid=tcb.tid, cluster=tcb.cluster,
                restored=True,
            )
        return tcb

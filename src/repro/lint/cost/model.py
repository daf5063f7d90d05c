"""Per-task abstract cost interpretation over the flow IR.

The interpreter walks a task's :class:`~repro.lint.astutil.Region`
tree — the same control-flow skeleton the happens-before engine uses —
and accumulates, per activation, interval bounds for:

* **cycles** — PE burst cycles the activation executes itself (kernel
  decode/dispatch overhead is added at program level, where message
  totals are known),
* **messages** — sysvm messages per kind the activation's effects put
  on the wire (including the machine-attributed ``remote_return`` /
  ``load_code`` traffic its effects provoke),
* **alloc** — DataStore words registered under the ``arrays`` tag
  (descriptor + payload per ``create``/``zeros``),
* **dispatches** — kernel dispatch events (one base dispatch plus one
  per potentially-blocking effect),
* **spawns** — replication-count bounds per initiation site, the input
  to program-level activation counting.

The cost semantics mirror :mod:`repro.sysvm.runtime` exactly: an
initiation bursts ``message_fixed_cycles`` per target-cluster message
(between 1 and ``count``); window ops on locally-created windows burst
``word_touch_cycles * words``; remote window ops burst one message
cost and provoke a ``remote_call``/``remote_return`` pair; pause /
resume / broadcast / rpc burst message costs; blocking effects cost at
most one cycle plus one re-dispatch.

Quantities the source does not resolve become named parameters —
``loop:<task>:<name-or-line>``, ``count:…``, ``flops:…``, ``cycles:…``,
``alloc:…``, ``win:…``, ``bcast:…`` — contributing ``[0, P]`` (or
``[1, P]`` for replication counts, which the runtime requires to be
positive).  Machine constants appear as reserved ``cfg.*`` parameters.
The calibration harness binds parameters to per-run ground truth;
unbound parameters keep bounds symbolic but still sound.

Loop bodies are summarized with a widening pass: every name the body
rebinds is forgotten before interpretation, so first-iteration
constants never leak into later-iteration bounds.  The one tracked
accumulation — ``tids.extend(got)`` against a pre-loop binding — is
restored afterwards as ``pre + delta × trips``; a rebinding of the
accumulator inside the body poisons the restore.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from ..astutil import Event, InitiateSite, Region, TaskIndex, TaskInfo
from .expr import CostExpr, Interval, ONE, TOP, ZERO

#: message kinds the model bounds (superset of the task-attributed
#: SOURCE_MSG_KINDS: remote_return/load_code are machine-attributed but
#: still counted, since ``comm.messages.*`` counts them)
MESSAGE_KINDS = (
    "initiate_task",
    "load_code",
    "terminate_notify",
    "pause_notify",
    "resume_task",
    "remote_call",
    "remote_return",
)

_MFC = CostExpr.param("cfg.message_fixed_cycles")
_WTC = CostExpr.param("cfg.word_touch_cycles")
_FC = CostExpr.param("cfg.flop_cycles")

#: DataStore descriptor overhead per registered array (storage.py)
ARRAY_DESCRIPTOR_WORDS = 6

#: event kinds whose ``names`` rebind the targets (loop widening set)
_BINDING_KINDS = ("const", "assign", "assign_empty", "clobber",
                  "window", "initiate", "subcall")


@dataclass
class SpawnBound:
    """One initiation site's contribution to the spawn graph."""

    line: int
    target: Optional[str]  # literal task type, None when dynamic
    count: Interval


@dataclass
class WindowDecl:
    """A create/zeros site: its target and its size."""

    name: Optional[str]
    line: int
    size: Interval


@dataclass
class UnboundedSite:
    """A C1 site: unresolvable replication inside an unresolvable loop."""

    line: int
    reason: str


@dataclass
class TaskCost:
    """Interval cost bounds for one activation of one task type."""

    task: str
    file: str
    line: int
    cycles: Interval
    messages: Dict[str, Interval]
    alloc: Interval
    dispatches: Interval
    spawns: List[SpawnBound] = field(default_factory=list)
    windows: List[WindowDecl] = field(default_factory=list)
    unbounded: List[UnboundedSite] = field(default_factory=list)
    frees: bool = False

    def params(self) -> Set[str]:
        out = self.cycles.params() | self.alloc.params() \
            | self.dispatches.params()
        for iv in self.messages.values():
            out |= iv.params()
        for s in self.spawns:
            out |= s.count.params()
        return {p for p in out if not p.startswith("cfg.")}

    def to_record(self) -> Dict[str, Any]:
        return {
            "task": self.task,
            "file": self.file,
            "line": self.line,
            "cycles": self.cycles.to_record(),
            "messages": {k: v.to_record()
                         for k, v in sorted(self.messages.items())
                         if not v.is_zero()},
            "alloc": self.alloc.to_record(),
            "dispatches": self.dispatches.to_record(),
            "spawns": [{"line": s.line, "target": s.target,
                        "count": s.count.to_record()}
                       for s in self.spawns],
            "windows": [{"name": w.name, "line": w.line,
                         "size": w.size.to_record()}
                        for w in self.windows],
            "unbounded": [{"line": u.line, "reason": u.reason}
                          for u in self.unbounded],
            "frees": self.frees,
        }


class _Vec:
    """Mutable cost accumulator for one region."""

    __slots__ = ("cycles", "alloc", "dispatches", "msgs", "spawns",
                 "may_exit")

    def __init__(self) -> None:
        self.cycles = Interval.zero()
        self.alloc = Interval.zero()
        self.dispatches = Interval.zero()
        self.msgs: Dict[str, Interval] = {}
        self.spawns: Dict[Tuple[int, Optional[str]], Interval] = {}
        self.may_exit = False

    def msg(self, kind: str, iv: Interval) -> None:
        self.msgs[kind] = self.msgs.get(kind, Interval.zero()) + iv

    def spawn(self, line: int, target: Optional[str], iv: Interval) -> None:
        key = (line, target)
        self.spawns[key] = self.spawns.get(key, Interval.zero()) + iv

    def add(self, other: "_Vec", lo_zero: bool = False) -> None:
        """Accumulate *other*; ``lo_zero`` drops its lower bounds (used
        after a possible early exit, when later code may never run)."""
        def fix(iv: Interval) -> Interval:
            return Interval(ZERO, iv.hi) if lo_zero else iv
        self.cycles = self.cycles + fix(other.cycles)
        self.alloc = self.alloc + fix(other.alloc)
        self.dispatches = self.dispatches + fix(other.dispatches)
        for kind, iv in other.msgs.items():
            self.msg(kind, fix(iv))
        for (line, target), iv in other.spawns.items():
            self.spawn(line, target, fix(iv))
        self.may_exit = self.may_exit or other.may_exit

    def join(self, other: "_Vec") -> "_Vec":
        out = _Vec()
        out.cycles = self.cycles.join(other.cycles)
        out.alloc = self.alloc.join(other.alloc)
        out.dispatches = self.dispatches.join(other.dispatches)
        for kind in set(self.msgs) | set(other.msgs):
            out.msgs[kind] = self.msgs.get(kind, Interval.zero()).join(
                other.msgs.get(kind, Interval.zero()))
        for key in set(self.spawns) | set(other.spawns):
            out.spawns[key] = self.spawns.get(key, Interval.zero()).join(
                other.spawns.get(key, Interval.zero()))
        out.may_exit = self.may_exit or other.may_exit
        return out

    def mul(self, trips: Interval) -> "_Vec":
        out = _Vec()
        out.cycles = self.cycles * trips
        out.alloc = self.alloc * trips
        out.dispatches = self.dispatches * trips
        out.msgs = {k: v * trips for k, v in self.msgs.items()}
        out.spawns = {k: v * trips for k, v in self.spawns.items()}
        out.may_exit = self.may_exit
        return out


class _Env:
    """Constant, tid-list-size, and window-size bindings along one path."""

    __slots__ = ("consts", "tids", "winsize", "tid_delta", "touched",
                 "poisoned")

    def __init__(self) -> None:
        self.consts: Dict[str, int] = {}
        self.tids: Dict[str, Interval] = {}
        self.winsize: Dict[str, Interval] = {}
        #: per-iteration tid-list growth, for loop summarization
        self.tid_delta: Dict[str, Interval] = {}
        self.touched: Set[str] = set()
        #: accumulators whose delta history is invalid (rebound mid-loop)
        self.poisoned: Set[str] = set()

    def copy(self) -> "_Env":
        """A child scope: bindings carry in, delta/touch tracking is
        fresh (the parent merges it back explicitly)."""
        out = _Env()
        out.consts = dict(self.consts)
        out.tids = dict(self.tids)
        out.winsize = dict(self.winsize)
        return out

    def forget(self, name: str) -> None:
        self.consts.pop(name, None)
        self.tids.pop(name, None)
        self.winsize.pop(name, None)
        self.touched.add(name)

    def rebind(self, name: str) -> None:
        """A fresh binding: forget, and invalidate any growth history."""
        self.forget(name)
        self.tid_delta.pop(name, None)
        self.poisoned.add(name)

    def join(self, other: "_Env") -> "_Env":
        out = _Env()
        out.consts = {n: v for n, v in self.consts.items()
                      if other.consts.get(n) == v}
        out.tids = {n: self.tids[n].join(other.tids[n])
                    for n in set(self.tids) & set(other.tids)}
        out.winsize = {n: self.winsize[n].join(other.winsize[n])
                       for n in set(self.winsize) & set(other.winsize)}
        out.tid_delta = {
            n: self.tid_delta.get(n, Interval.zero()).join(
                other.tid_delta.get(n, Interval.zero()))
            for n in set(self.tid_delta) | set(other.tid_delta)
        }
        out.touched = self.touched | other.touched
        out.poisoned = self.poisoned | other.poisoned
        return out


def _binding_names(region: Region) -> Set[str]:
    """Every name the region's events may rebind or grow."""
    out: Set[str] = set()
    for child in region.children:
        if isinstance(child, Event):
            if child.kind in _BINDING_KINDS:
                out.update(n for n in child.names if n)
            elif child.kind == "augment" and child.names and child.names[0]:
                out.add(child.names[0])
        else:
            out |= _binding_names(child)
    return out


def _first_line(region: Region) -> int:
    for child in region.children:
        if isinstance(child, Event):
            return child.line
        line = _first_line(child)
        if line:
            return line
    return 0


class _CostInterpreter:
    """One task body → one :class:`TaskCost`."""

    def __init__(self, task: TaskInfo, index: TaskIndex,
                 analyzer: "CostAnalyzer") -> None:
        self.task = task
        self.key = index.key(task)
        self.index = index
        self.analyzer = analyzer
        self.windows: List[WindowDecl] = []
        self.unbounded: List[UnboundedSite] = []
        self.frees = False

    # -- parameter naming --------------------------------------------------

    def _param(self, kind: str, tail: str) -> CostExpr:
        return CostExpr.param(f"{kind}:{self.key}:{tail}")

    def _upper(self, kind: str, tail: str, lo: int = 0) -> Interval:
        return Interval.of(lo, self._param(kind, tail))

    # -- region walk -------------------------------------------------------

    def run(self) -> TaskCost:
        env = _Env()
        vec = self._seq(self.task.body, env, loop_unresolved=False)
        vec.dispatches = vec.dispatches + Interval.exact(1)  # first dispatch
        vec.msg("terminate_notify", Interval.of(0, 1))  # unless a root
        msgs = {k: vec.msgs.get(k, Interval.zero()) for k in MESSAGE_KINDS}
        return TaskCost(
            task=self.key,
            file=self.task.file,
            line=self.task.line,
            cycles=vec.cycles,
            messages=msgs,
            alloc=vec.alloc,
            dispatches=vec.dispatches,
            spawns=[SpawnBound(line, target, iv)
                    for (line, target), iv in sorted(
                        vec.spawns.items(),
                        key=lambda kv: (kv[0][0], kv[0][1] or ""))],
            windows=self.windows,
            unbounded=self.unbounded,
            frees=self.frees,
        )

    def _node(self, child: Union[Event, Region], env: _Env,
              loop_unresolved: bool) -> _Vec:
        if isinstance(child, Event):
            return self._event(child, env, loop_unresolved)
        if child.kind == "branch":
            return self._branch(child, env, loop_unresolved)
        if child.kind == "loop":
            return self._loop(child, env, loop_unresolved)
        return self._seq(child, env, loop_unresolved)

    def _seq(self, region: Region, env: _Env,
             loop_unresolved: bool) -> _Vec:
        vec = _Vec()
        exited = False
        for child in region.children:
            sub = self._node(child, env, loop_unresolved)
            vec.add(sub, lo_zero=exited)
            exited = exited or sub.may_exit
        vec.may_exit = vec.may_exit or region.exits
        return vec

    def _branch(self, region: Region, env: _Env,
                loop_unresolved: bool) -> _Vec:
        arms: List[Tuple[_Vec, _Env]] = []
        for alt in region.children:
            arm_env = env.copy()
            arm_vec = self._seq(alt, arm_env, loop_unresolved)
            arm_vec.may_exit = arm_vec.may_exit or alt.exits
            arms.append((arm_vec, arm_env))
        if not arms:
            return _Vec()
        vec, joined = arms[0]
        for arm_vec, arm_env in arms[1:]:
            vec = vec.join(arm_vec)
            joined = joined.join(arm_env)
        env.consts = joined.consts
        env.tids = joined.tids
        env.winsize = joined.winsize
        for name, delta in joined.tid_delta.items():
            env.tid_delta[name] = \
                env.tid_delta.get(name, Interval.zero()) + delta
        env.touched |= joined.touched
        env.poisoned |= joined.poisoned
        for name in joined.poisoned:
            env.tid_delta.pop(name, None)
        return vec

    def _loop(self, region: Region, env: _Env,
              loop_unresolved: bool) -> _Vec:
        trips, resolved = self._trips(region, env)
        unresolved = loop_unresolved or not resolved
        # widening: anything the body rebinds is unknown on iterations
        # after the first — forget it before interpreting the body
        assigned = _binding_names(region)
        pre_tids = dict(env.tids)
        body_env = env.copy()
        for name in assigned:
            body_env.forget(name)
        body_env.touched.clear()
        body = _Vec()
        for child in region.children:
            body.add(self._node(child, body_env, unresolved))
        if body.may_exit:
            # a return/raise inside the body can cut the loop short
            trips = Interval(ZERO, trips.hi)
        vec = body.mul(trips)
        # fold the body's effect back into the outer env: tracked
        # accumulators grow by delta × trips, everything else touched
        # becomes unknown
        for name in assigned | body_env.touched:
            env.forget(name)
            env.tid_delta.pop(name, None)
        for name, delta in body_env.tid_delta.items():
            if name in body_env.poisoned or name not in pre_tids:
                continue
            inc = delta * trips
            env.tids[name] = pre_tids[name] + inc
            env.tid_delta[name] = \
                env.tid_delta.get(name, Interval.zero()) + inc
        env.poisoned |= body_env.poisoned | \
            ((assigned | body_env.touched) - set(body_env.tid_delta))
        return vec

    def _trips(self, region: Region, env: _Env) -> Tuple[Interval, bool]:
        """Loop trip-count bound and whether it was statically resolved."""
        ref = region.trips
        if ref is not None:
            kind, val = ref
            if kind == "int":
                return Interval.exact(max(0, int(val))), True
            if kind in ("name", "name_ub"):
                c = env.consts.get(val)
                if c is not None:
                    c = max(0, c)
                    if kind == "name":
                        return Interval.exact(c), True
                    return Interval.of(0, c), True
                if val in env.tids:
                    t = env.tids[val]
                    if kind == "name_ub":
                        t = Interval(ZERO, t.hi)
                    return t, True
                return Interval.of(0, self._param("loop", str(val))), False
        line = _first_line(region)
        return Interval.of(0, self._param("loop", f"L{line}")), False

    # -- events ------------------------------------------------------------

    def _event(self, ev: Event, env: _Env, loop_unresolved: bool) -> _Vec:
        handler = getattr(self, f"_ev_{ev.kind}", None)
        if handler is None:
            return _Vec()
        return handler(ev, env, loop_unresolved)

    # ... bindings

    def _ev_const(self, ev: Event, env: _Env, _: bool) -> _Vec:
        for name in ev.names:
            if name:
                env.rebind(name)
                if ev.value is not None:
                    env.consts[name] = ev.value
        return _Vec()

    def _ev_assign(self, ev: Event, env: _Env, _: bool) -> _Vec:
        src = ev.name
        for name in ev.names:
            if not name:
                continue
            env.rebind(name)
            if src in env.consts:
                env.consts[name] = env.consts[src]
            elif src in env.tids:
                env.tids[name] = env.tids[src]
            elif src in env.winsize:
                env.winsize[name] = env.winsize[src]
        return _Vec()

    def _ev_assign_empty(self, ev: Event, env: _Env, _: bool) -> _Vec:
        for name in ev.names:
            if name:
                env.rebind(name)
                env.tids[name] = Interval.zero()
        return _Vec()

    def _ev_augment(self, ev: Event, env: _Env, _: bool) -> _Vec:
        target = ev.names[0] if ev.names else None
        if not target:
            return _Vec()
        src = ev.name
        if src in env.tids:
            inc = env.tids[src]
            env.tid_delta[target] = \
                env.tid_delta.get(target, Interval.zero()) + inc
            env.touched.add(target)
            if target in env.tids:
                env.tids[target] = env.tids[target] + inc
        else:
            env.rebind(target)
        return _Vec()

    def _ev_clobber(self, ev: Event, env: _Env, _: bool) -> _Vec:
        for name in ev.names:
            if name:
                env.rebind(name)
        return _Vec()

    # ... data

    def _ev_window(self, ev: Event, env: _Env, _: bool) -> _Vec:
        vec = _Vec()
        if ev.args:  # a create/zeros site: args are size refs
            size = self._size(ev, env)
            for name in ev.names:
                if name:
                    env.rebind(name)
                    env.winsize[name] = size
            self.windows.append(WindowDecl(
                name=ev.names[0] if ev.names else None,
                line=ev.line, size=size))
            vec.cycles = size * Interval.exact(_WTC)
            vec.alloc = size + Interval.exact(ARRAY_DESCRIPTOR_WORDS)
        elif ev.name:  # ctx.window(h): targets alias the handle
            for name in ev.names:
                if name:
                    env.rebind(name)
                    if ev.name in env.winsize:
                        env.winsize[name] = env.winsize[ev.name]
        return vec

    def _size(self, ev: Event, env: _Env) -> Interval:
        """Words of a create/zeros site from its captured size refs."""
        total = Interval.exact(1)
        for ref in ev.args:
            if ref is None:
                return self._upper("alloc", f"L{ev.line}")
            kind, val = ref
            if kind == "int":
                total = total * Interval.exact(max(0, int(val)))
            elif kind == "name" and val in env.consts:
                total = total * Interval.exact(max(0, env.consts[val]))
            elif kind == "name":
                return self._upper("alloc", str(val))
            else:
                return self._upper("alloc", f"L{ev.line}")
        return total

    def _ev_free(self, ev: Event, env: _Env, _: bool) -> _Vec:
        self.frees = True
        vec = _Vec()
        vec.cycles = Interval.exact(1)
        return vec

    def _window_op(self, ev: Event, env: _Env) -> _Vec:
        vec = _Vec()
        if ev.name and ev.name in env.winsize:
            # locally created → the op runs at the owner, no messages
            vec.cycles = env.winsize[ev.name] * Interval.exact(_WTC)
            return vec
        tail = ev.name or f"L{ev.line}"
        vec.cycles = self._upper("win", tail)
        vec.msg("remote_call", Interval.of(0, 1))
        vec.msg("remote_return", Interval.of(0, 1))
        return vec

    def _ev_read(self, ev: Event, env: _Env, _: bool) -> _Vec:
        return self._window_op(ev, env)

    def _ev_write(self, ev: Event, env: _Env, _: bool) -> _Vec:
        return self._window_op(ev, env)

    def _ev_accumulate(self, ev: Event, env: _Env, _: bool) -> _Vec:
        return self._window_op(ev, env)

    # ... computation

    def _ev_compute(self, ev: Event, env: _Env, _: bool) -> _Vec:
        vec = _Vec()
        flops_ref = ev.args[0] if len(ev.args) > 0 else None
        cycles_ref = ev.args[1] if len(ev.args) > 1 else (
            ("int", ev.value) if ev.value is not None else None)
        cycles = self._magnitude(cycles_ref, env, "cycles", ev.line)
        flops = self._magnitude(flops_ref, env, "flops", ev.line)
        vec.cycles = cycles + flops * Interval.exact(_FC)
        return vec

    def _magnitude(self, ref, env: _Env, kind: str, line: int) -> Interval:
        if ref is None:
            return self._upper(kind, f"L{line}")
        rk, val = ref
        if rk == "int":
            return Interval.exact(max(0, int(val)))
        if rk == "name":
            c = env.consts.get(val)
            if c is not None:
                return Interval.exact(max(0, c))
            return self._upper(kind, str(val))
        return self._upper(kind, f"L{line}")

    # ... task control

    def _ev_initiate(self, ev: Event, env: _Env,
                     loop_unresolved: bool) -> _Vec:
        vec = _Vec()
        site = ev.site
        count, resolved = self._count(site, env)
        if not resolved and loop_unresolved:
            self.unbounded.append(UnboundedSite(
                ev.line,
                "replication count is unresolvable inside a loop with "
                "no resolvable trip bound"))
        # one initiate_task message per distinct target cluster:
        # [min(1, count), count]
        lo = CostExpr.join_min(ONE, count.lo)
        messages = Interval(lo, count.hi if count.bounded else TOP)
        vec.cycles = messages * Interval.exact(_MFC)
        vec.msg("initiate_task", messages)
        vec.msg("load_code", Interval(ZERO, messages.hi))
        vec.spawn(ev.line, self._target(site.task_type), count)
        for name in ev.names:
            if name:
                env.rebind(name)
                env.tids[name] = count
        return vec

    def _count(self, site: InitiateSite, env: _Env) \
            -> Tuple[Interval, bool]:
        if site.count is not None:
            return Interval.exact(max(0, site.count)), True
        if site.count_name:
            c = env.consts.get(site.count_name)
            if c is not None:
                return Interval.exact(max(0, c)), True
            return Interval.of(
                1, self._param("count", site.count_name)), False
        return Interval.of(1, self._param("count", f"L{site.line}")), False

    def _blocking(self) -> _Vec:
        """wait / wait_pause / receive: ≤ 1 cycle, ≤ 1 re-dispatch."""
        vec = _Vec()
        vec.cycles = Interval.of(0, 1)
        vec.dispatches = Interval.of(0, 1)
        return vec

    def _ev_wait(self, ev: Event, env: _Env, _: bool) -> _Vec:
        return self._blocking()

    def _ev_wait_pause(self, ev: Event, env: _Env, _: bool) -> _Vec:
        return self._blocking()

    def _ev_receive(self, ev: Event, env: _Env, _: bool) -> _Vec:
        return self._blocking()

    def _ev_pause(self, ev: Event, env: _Env, _: bool) -> _Vec:
        vec = _Vec()
        vec.cycles = Interval.exact(_MFC)
        vec.msg("pause_notify", Interval.of(0, 1))  # only with a parent
        vec.dispatches = Interval.of(0, 1)  # the matching resume
        return vec

    def _ev_resume(self, ev: Event, env: _Env, _: bool) -> _Vec:
        vec = _Vec()
        vec.cycles = Interval.exact(_MFC)
        vec.msg("resume_task", Interval.exact(1))
        return vec

    def _ev_broadcast(self, ev: Event, env: _Env, _: bool) -> _Vec:
        vec = _Vec()
        if ev.name and ev.name in env.tids:
            targets = env.tids[ev.name]
        else:
            targets = self._upper("bcast", f"L{ev.line}")
        # burst = mfc * max(1, len(targets)); a single-tid argument may
        # alias a tracked list's element, so keep the lower bounds loose
        hi = TOP if not targets.bounded \
            else _MFC * CostExpr.join_max(targets.hi, ONE)
        vec.cycles = Interval(_MFC, hi)
        vec.msg("remote_call",  # one deliver_value per target
                Interval(CostExpr.join_min(targets.lo, ONE),
                         targets.hi if targets.bounded else TOP))
        return vec

    def _ev_rpc(self, ev: Event, env: _Env, _: bool) -> _Vec:
        vec = _Vec()
        vec.cycles = Interval.exact(_MFC)
        vec.msg("remote_call", Interval.exact(1))
        vec.msg("remote_return", Interval.exact(1))
        vec.msg("load_code", Interval.of(0, 1))
        proc = self.index.resolve(ev.name, self.task)
        if proc is not None:
            # the proc runs as a task activation of a registered type
            vec.spawn(ev.line, self.index.key(proc), Interval.exact(1))
        return vec

    def _target(self, name: Optional[str]) -> Optional[str]:
        """A spawn target as the cost report names it: the key of the
        task *name* resolves to here, else the literal name."""
        task = self.index.resolve(name, self.task)
        return name if task is None else self.index.key(task)

    def _ev_subcall(self, ev: Event, env: _Env,
                    loop_unresolved: bool) -> _Vec:
        vec = _Vec()
        for name in ev.names:
            if name:
                env.rebind(name)
        callee = self.index.resolve(ev.name, self.task)
        if callee is None or callee is self.task:
            return vec
        sub = self.analyzer.task_cost(callee)
        if sub is None:  # recursion through sub-generators: unbounded
            vec.cycles = Interval.unbounded()
            vec.alloc = Interval.unbounded()
            self.unbounded.append(UnboundedSite(
                ev.line, f"recursive sub-generator chain through "
                         f"{ev.name!r}"))
            return vec
        vec.cycles = sub.cycles
        vec.alloc = sub.alloc
        vec.dispatches = sub.dispatches
        for kind, iv in sub.messages.items():
            if kind != "terminate_notify" and not iv.is_zero():
                # the callee inlines into this activation: its body
                # costs apply, its task-exit notify does not
                vec.msg(kind, iv)
        for s in sub.spawns:
            vec.spawn(ev.line, s.target, s.count)
            if loop_unresolved and not (s.count.bounded
                                        and s.count.hi.is_const):
                self.unbounded.append(UnboundedSite(
                    ev.line,
                    f"sub-generator {ev.name!r} spawns an unresolvable "
                    f"replication inside a loop with no resolvable "
                    f"trip bound"))
        self.frees = self.frees or sub.frees
        return vec


class CostAnalyzer:
    """Memoizing per-task cost analysis over one resolved task set."""

    def __init__(self, tasks: List[TaskInfo], index: TaskIndex) -> None:
        self.tasks = tasks
        self.index = index
        self._memo: Dict[int, Optional[TaskCost]] = {}

    def task_cost(self, task: TaskInfo) -> Optional[TaskCost]:
        """The task's cost, or None while it is being analyzed (a
        recursive sub-generator chain — the caller goes unbounded)."""
        key = id(task)
        if key in self._memo:
            return self._memo[key]
        self._memo[key] = None  # recursion guard
        cost = _CostInterpreter(task, self.index, self).run()
        self._memo[key] = cost
        return cost

    def all_costs(self) -> List[TaskCost]:
        """One cost per task of the set, each named by its index key."""
        return [self.task_cost(t) for t in self.tasks]


def analyze_costs(tasks: List[TaskInfo],
                  index: TaskIndex) -> List[TaskCost]:
    """Per-activation cost bounds for every task in the set, initiate
    and sub-generator targets resolved through *index*."""
    return CostAnalyzer(tasks, index).all_costs()

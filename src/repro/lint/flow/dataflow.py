"""The fixpoint dataflow engine behind the flow checks.

Two cooperating analyses, both running to a fixpoint:

1. **Interprocedural task summaries** (:func:`summarize_tasks`): for
   every task function, the parameter positions it transitively
   plain-writes / reads (through ``yield from`` sub-generator helpers
   — inline execution — and through the tasks it spawns), the spawn
   targets it may initiate (as literal names, caller-parameter
   positions, or "dynamic"), and the sysvm message kinds it may emit.
   Computed bottom-up over the call/spawn graph; sets only grow, so
   the iteration terminates.

2. **A structural happens-before interpreter** (:func:`interpret_task`):
   runs one task body's :class:`~repro.lint.astutil.Region` tree over
   an abstract state — pending (initiated, not yet waited) sites with
   their transitive write sets, local tid bindings (so a ``wait`` only
   discharges the sites it provably covers), must-waited sites, and
   integer constants (replication counts propagated through locals).
   Branches join (pending/bindings union, waited/constants intersect),
   loops iterate the body transfer until the state stops changing.

The interpreter reports through a callback; :mod:`.checks` turns the
reports into W2/W3/D2 findings.  Everything stays name-conservative:
derived windows are untracked and can never false-positive, and a wait
over bindings the analysis lost track of conservatively discharges
*every* pending site — exactly the old syntactic W2 behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..astutil import Event, Region, TaskIndex, TaskInfo

#: abstract "lost track of it" value for local bindings
UNKNOWN = "<unknown>"

#: spawn items: ("lit", name) | ("param", position) | ("dyn",)
SpawnItem = Tuple

#: loop-fixpoint safety cap (the lattice is finite; this is a backstop)
MAX_LOOP_ITERATIONS = 25


# -- interprocedural summaries ------------------------------------------------

@dataclass
class TaskSummary:
    """Transitive facts about one task function."""

    name: str
    writes_params: Set[int] = field(default_factory=set)
    reads_params: Set[int] = field(default_factory=set)
    child_writes_params: Set[int] = field(default_factory=set)
    spawns: Set[SpawnItem] = field(default_factory=set)
    msg_kinds: Set[str] = field(default_factory=set)
    exit_pending: Set[SpawnItem] = field(default_factory=set)
    exit_pending_write_params: Set[int] = field(default_factory=set)

    def total_writes_params(self) -> Set[int]:
        return self.writes_params | self.child_writes_params

    def size(self) -> int:
        return (len(self.writes_params) + len(self.reads_params)
                + len(self.child_writes_params) + len(self.spawns)
                + len(self.msg_kinds) + len(self.exit_pending)
                + len(self.exit_pending_write_params))


class Summaries:
    """Summary store resolvable by task identity or by name."""

    def __init__(self, tasks: List[TaskInfo],
                 index: TaskIndex) -> None:
        self.tasks = tasks
        self.index = index
        self._by_id: Dict[int, TaskSummary] = {
            id(t): TaskSummary(name=t.name) for t in tasks
        }

    def of_task(self, task: TaskInfo) -> TaskSummary:
        return self._by_id[id(task)]

    def of_name(self, name: Optional[str],
                owner: TaskInfo) -> Optional[TaskSummary]:
        """The summary of the task *name* denotes where *owner* names it."""
        task = self.index.resolve(name, owner)
        return self._by_id.get(id(task)) if task is not None else None


def site_target_item(site, owner: TaskInfo) -> SpawnItem:
    """How a site's target resolves from the owner's point of view."""
    if site.task_type is not None:
        return ("lit", site.task_type)
    if site.task_type_name is not None:
        pos = owner.param_index(site.task_type_name)
        if pos is not None:
            return ("param", pos)
    return ("dyn",)


def _subst_item(item: SpawnItem, args: Tuple, owner: TaskInfo) -> SpawnItem:
    """Substitute a callee's spawn item at one subcall site."""
    if item[0] != "param":
        return item
    j = item[1]
    if j < len(args) and args[j] is not None:
        kind, val = args[j]
        if kind == "str":
            return ("lit", val)
        if kind == "name":
            pos = owner.param_index(val)
            if pos is not None:
                return ("param", pos)
    return ("dyn",)


def _map_params(positions: Set[int], args: Tuple, owner: TaskInfo) -> Set[int]:
    """Callee param positions -> owner param positions through call args."""
    out: Set[int] = set()
    for j in positions:
        if j < len(args) and args[j] is not None and args[j][0] == "name":
            pos = owner.param_index(args[j][1])
            if pos is not None:
                out.add(pos)
    return out


def _site_child_writes(site, owner: TaskInfo,
                       summaries: "Summaries") -> Set[int]:
    """Owner params plain-written by the task a site spawns (any depth)."""
    out: Set[int] = set()
    target = summaries.of_name(site.task_type, owner)
    if target is None:
        return out
    for pos, arg in enumerate(site.arg_names):
        if arg is None or pos not in target.total_writes_params():
            continue
        opos = owner.param_index(arg)
        if opos is not None:
            out.add(opos)
    return out


#: ctx effects that put a remote_call on the wire (window ops may stay
#: cluster-local and send nothing — over-prediction is fine, the
#: soundness contract is observed ⊆ predicted)
_REMOTE_CALL_EVENTS = ("read", "write", "accumulate", "rpc", "broadcast")


def _summary_transfer(task: TaskInfo, summaries: Summaries) -> bool:
    """One bottom-up transfer for *task*; True when its summary grew."""
    s = summaries.of_task(task)
    before = s.size()
    for pos, param in enumerate(task.params):
        if param in task.plain_writes:
            s.writes_params.add(pos)
        if param in task.reads:
            s.reads_params.add(pos)
    for event in task.events:
        if event.kind in _REMOTE_CALL_EVENTS:
            s.msg_kinds.add("remote_call")
        if event.kind == "pause":
            s.msg_kinds.add("pause_notify")
        elif event.kind == "resume":
            s.msg_kinds.add("resume_task")
        elif event.kind == "initiate":
            s.msg_kinds.add("initiate_task")
        elif event.kind == "subcall":
            callee = summaries.of_name(event.name, task)
            if callee is None:
                continue
            s.writes_params |= _map_params(callee.writes_params,
                                           event.args, task)
            s.reads_params |= _map_params(callee.reads_params,
                                          event.args, task)
            s.child_writes_params |= _map_params(callee.child_writes_params,
                                                 event.args, task)
            for item in callee.spawns:
                s.spawns.add(_subst_item(item, event.args, task))
            s.msg_kinds |= callee.msg_kinds
            if callee.exit_pending and task.waits == 0:
                for item in callee.exit_pending:
                    s.exit_pending.add(_subst_item(item, event.args, task))
                s.exit_pending_write_params |= _map_params(
                    callee.exit_pending_write_params, event.args, task)
    for site in task.initiates:
        s.spawns.add(site_target_item(site, task))
        s.child_writes_params |= _site_child_writes(site, task, summaries)
        if task.waits == 0 and not site.waits_inline:
            # a helper that initiates and never waits hands its pending
            # sites to the caller (phantom sites at the subcall)
            s.exit_pending.add(site_target_item(site, task))
            target = summaries.of_name(site.task_type, task)
            if target is not None:
                for pos, arg in enumerate(site.arg_names):
                    if arg is None or pos not in target.total_writes_params():
                        continue
                    opos = task.param_index(arg)
                    if opos is not None:
                        s.exit_pending_write_params.add(opos)
    return s.size() != before


def summarize_tasks(tasks: List[TaskInfo],
                    index: TaskIndex) -> Summaries:
    """Interprocedural summaries for one resolved task set (fixpoint)."""
    summaries = Summaries(tasks, index)
    changed = True
    while changed:
        changed = False
        for task in tasks:
            if _summary_transfer(task, summaries):
                changed = True
    return summaries


# -- the happens-before interpreter -------------------------------------------

@dataclass(frozen=True)
class PendingSite:
    """One initiated-but-not-yet-waited site in the abstract state."""

    sid: int
    label: str
    line: int
    replicated: bool
    writes_direct: FrozenSet[str]   # caller-local window names
    writes_child: FrozenSet[str]

    @property
    def writes_all(self) -> FrozenSet[str]:
        return self.writes_direct | self.writes_child


class HBState:
    """Abstract state: pending sites, tid bindings, waited sites, consts."""

    __slots__ = ("pending", "env", "definite", "waited", "consts", "dead")

    def __init__(self) -> None:
        self.pending: Dict[int, PendingSite] = {}
        self.env: Dict[str, object] = {}   # name -> frozenset[int] | UNKNOWN
        self.definite: Set[str] = set()    # names bound on every path
        self.waited: Set[int] = set()      # sids waited on every path
        self.consts: Dict[str, int] = {}
        self.dead = False

    def copy(self) -> "HBState":
        out = HBState()
        out.pending = dict(self.pending)
        out.env = dict(self.env)
        out.definite = set(self.definite)
        out.waited = set(self.waited)
        out.consts = dict(self.consts)
        out.dead = self.dead
        return out

    def join(self, other: "HBState") -> "HBState":
        if self.dead:
            return other.copy()
        if other.dead:
            return self.copy()
        out = HBState()
        out.pending = dict(self.pending)
        out.pending.update(other.pending)
        for name in set(self.env) | set(other.env):
            a, b = self.env.get(name), other.env.get(name)
            if a is None:
                out.env[name] = b
            elif b is None:
                out.env[name] = a
            elif a is UNKNOWN or b is UNKNOWN:
                out.env[name] = UNKNOWN
            else:
                out.env[name] = a | b
        out.definite = self.definite & other.definite
        out.waited = self.waited & other.waited
        out.consts = {n: v for n, v in self.consts.items()
                      if other.consts.get(n) == v}
        return out

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, HBState)
                and self.dead == other.dead
                and self.pending == other.pending
                and self.env == other.env
                and self.definite == other.definite
                and self.waited == other.waited
                and self.consts == other.consts)

    def forget(self, names) -> None:
        for n in names:
            self.env.pop(n, None)
            self.consts.pop(n, None)
            self.definite.discard(n)


#: report callback: (code, line, dedup-key, message-args dict)
ReportFn = Callable[[str, int, Tuple, Dict], None]


class _Interpreter:
    """Run one task body's region tree over :class:`HBState`."""

    def __init__(self, task: TaskInfo, summaries: Summaries,
                 report: ReportFn) -> None:
        self.task = task
        self.summaries = summaries
        self.report = report
        self._site_ids = {id(site): i for i, site in enumerate(task.initiates)}
        self._event_ids = {id(ev): i for i, ev in enumerate(task.events)}

    def run(self) -> HBState:
        return self._seq(self.task.body, HBState())

    # -- control flow ------------------------------------------------------

    def _seq(self, region: Region, state: HBState) -> HBState:
        for child in region.children:
            if isinstance(child, Event):
                self._event(child, state)
            elif child.kind == "branch":
                state = self._branch(child, state)
            elif child.kind == "loop":
                state = self._loop(child, state)
            else:
                state = self._seq(child, state)
        if region.exits:
            state.dead = True
        return state

    def _branch(self, region: Region, state: HBState) -> HBState:
        outs = []
        for alt in region.children:
            out = self._seq(alt, state.copy())
            if not out.dead:
                outs.append(out)
        if not outs:
            dead = HBState()
            dead.dead = True
            return dead
        joined = outs[0]
        for out in outs[1:]:
            joined = joined.join(out)
        return joined

    def _loop(self, region: Region, state: HBState) -> HBState:
        body = region.children[0] if region.children else None
        if body is None:
            return state
        acc = state
        for _ in range(MAX_LOOP_ITERATIONS):
            out = self._seq(body, acc.copy())
            nxt = acc.join(out)
            if nxt == acc:
                break
            acc = nxt
        return acc

    # -- events ------------------------------------------------------------

    def _event(self, ev: Event, state: HBState) -> None:
        handler = getattr(self, f"_ev_{ev.kind}", None)
        if handler is not None:
            handler(ev, state)

    def _ev_initiate(self, ev: Event, state: HBState) -> None:
        site = ev.site
        sid = self._site_ids[id(site)]
        target = self.summaries.of_name(site.task_type, self.task)
        writes_direct: FrozenSet[str] = frozenset()
        writes_child: FrozenSet[str] = frozenset()
        if target is not None:
            writes_direct = frozenset(
                site.arg_names[j] for j in target.writes_params
                if j < len(site.arg_names) and site.arg_names[j]
            )
            writes_child = frozenset(
                site.arg_names[j] for j in target.child_writes_params
                if j < len(site.arg_names) and site.arg_names[j]
            )
        replicated = site.replicated
        if site.count_name is not None:
            count = state.consts.get(site.count_name)
            if count is not None:
                replicated = count > 1
        new = PendingSite(sid, site.task_type or "<dynamic>", ev.line,
                          replicated, writes_direct, writes_child)
        if not state.dead:
            self._initiate_findings(new, state)
        if not site.waits_inline:
            state.pending[sid] = new
        for name in ev.names:
            state.env[name] = frozenset({sid})
            state.definite.add(name)
            state.consts.pop(name, None)
        state.waited.discard(sid)

    def _initiate_findings(self, new: PendingSite, state: HBState) -> None:
        # W3a: two concurrently-pending initiations whose transitive
        # write sets overlap (covers spawn-chain races W1 cannot see)
        for other in state.pending.values():
            if other.sid == new.sid:
                # same site live from a previous loop iteration: the
                # iterations race against each other
                overlap = new.writes_all
            else:
                overlap = new.writes_all & other.writes_all
            for window in sorted(overlap):
                self.report("W3", new.line, ("pair", new.line, window,
                                             other.label, new.label), {
                    "window": window, "a": other.label, "b": new.label,
                    "case": "pair",
                })
        # W3b: replicated initiation whose target writes the shared
        # window only through tasks it spawns (W1 catches the direct case)
        if new.replicated:
            for window in sorted(new.writes_child - new.writes_direct):
                self.report("W3", new.line, ("replicated", new.line, window), {
                    "window": window, "target": new.label,
                    "case": "replicated",
                })

    def _ev_wait(self, ev: Event, state: HBState) -> None:
        if ev.names == ():
            return  # a helper's internal wait over its own inline sites
        known = (all(n is not None for n in ev.names)
                 and all(state.env.get(n) not in (None, UNKNOWN)
                         for n in ev.names))
        if not known:
            # conservatively discharge everything (old W2 behavior)
            state.pending.clear()
            return
        covered: Set[int] = set()
        for n in ev.names:
            covered |= state.env[n]  # type: ignore[operator]
        if not state.dead and all(n in state.definite for n in ev.names):
            if not covered:
                self.report("D2", ev.line, ("empty", ev.line), {
                    "names": tuple(ev.names), "case": "empty",
                })
            elif covered <= state.waited:
                self.report("D2", ev.line, ("rewait", ev.line), {
                    "names": tuple(ev.names), "case": "rewait",
                })
        for sid in covered:
            state.pending.pop(sid, None)
        state.waited |= covered

    def _ev_wait_pause(self, ev: Event, state: HBState) -> None:
        # a paused child's earlier writes happened-before us, so the
        # site stops being "pending" for race purposes — but the child
        # is still alive, so this neither feeds D2's already-waited set
        # nor discharges the eventual terminal wait
        known = (ev.names != ()
                 and all(n is not None for n in ev.names)
                 and all(state.env.get(n) not in (None, UNKNOWN)
                         for n in ev.names))
        if not known:
            state.pending.clear()
            return
        for n in ev.names:
            for sid in state.env[n]:  # type: ignore[union-attr]
                state.pending.pop(sid, None)

    def _ev_read(self, ev: Event, state: HBState) -> None:
        if ev.name is None or state.dead:
            return
        writers = [p for p in state.pending.values()
                   if ev.name in p.writes_all]
        if writers:
            direct = [p for p in writers if ev.name in p.writes_direct]
            writer = (direct or writers)[0]
            self.report("W2", ev.line, ("read", ev.line, ev.name), {
                "window": ev.name, "writer": writer.label,
                "transitive": not direct,
            })

    def _ev_write(self, ev: Event, state: HBState) -> None:
        if ev.name is None or state.dead:
            return
        for p in state.pending.values():
            if ev.name in p.writes_all:
                self.report("W3", ev.line, ("own", ev.line, ev.name), {
                    "window": ev.name, "a": self.task.name, "b": p.label,
                    "case": "own",
                })
                return

    def _ev_subcall(self, ev: Event, state: HBState) -> None:
        callee = self.summaries.of_name(ev.name, self.task)
        if callee is None:
            state.forget(ev.names)
            for n in ev.names:
                state.env[n] = UNKNOWN
            return
        caller_args = ev.args
        # the callee body runs inline: its window reads/writes interleave
        # with our pending sites exactly like our own would
        for j in sorted(callee.reads_params):
            name = self._arg_name(caller_args, j)
            if name is not None:
                self._ev_read(Event("read", ev.line, name=name), state)
        for j in sorted(callee.writes_params):
            name = self._arg_name(caller_args, j)
            if name is not None:
                self._ev_write(Event("write", ev.line, name=name), state)
        if callee.exit_pending:
            # the helper returns with initiations still in flight
            base = 1 + len(self.task.initiates) \
                + self._event_ids[id(ev)] * 8
            writes = frozenset(
                n for n in (self._arg_name(caller_args, j)
                            for j in callee.exit_pending_write_params)
                if n is not None
            )
            sids = set()
            for k, item in enumerate(sorted(callee.exit_pending)):
                sid = base + k
                label = item[1] if item[0] == "lit" else "<dynamic>"
                state.pending[sid] = PendingSite(
                    sid, label, ev.line, True, writes, frozenset())
                sids.add(sid)
            for n in ev.names:
                state.env[n] = frozenset(sids)
                state.definite.add(n)
                state.consts.pop(n, None)
        else:
            state.forget(ev.names)
            for n in ev.names:
                state.env[n] = UNKNOWN

    @staticmethod
    def _arg_name(args: Tuple, j: int) -> Optional[str]:
        if j < len(args) and args[j] is not None and args[j][0] == "name":
            return args[j][1]
        return None

    # -- local bindings ----------------------------------------------------

    def _ev_assign(self, ev: Event, state: HBState) -> None:
        src = ev.name
        for target in ev.names:
            state.forget((target,))
            if src in state.consts:
                state.consts[target] = state.consts[src]
                state.definite.add(target)
            elif src in state.env:
                state.env[target] = state.env[src]
                if src in state.definite:
                    state.definite.add(target)
            # an untracked source leaves the target unbound (wait on it
            # then conservatively discharges everything)

    def _ev_assign_empty(self, ev: Event, state: HBState) -> None:
        for target in ev.names:
            state.forget((target,))
            state.env[target] = frozenset()
            state.definite.add(target)

    def _ev_const(self, ev: Event, state: HBState) -> None:
        for target in ev.names:
            state.forget((target,))
            if ev.value is not None:
                state.consts[target] = ev.value
                state.definite.add(target)

    def _ev_augment(self, ev: Event, state: HBState) -> None:
        target = ev.names[0] if ev.names else None
        if target is None:
            return
        state.consts.pop(target, None)
        src_val = state.env.get(ev.name) if ev.name is not None else None
        cur = state.env.get(target)
        if src_val is None or src_val is UNKNOWN or cur is UNKNOWN:
            state.env[target] = UNKNOWN
        elif cur is None:
            state.env[target] = src_val
        else:
            state.env[target] = cur | src_val  # type: ignore[operator]

    def _ev_clobber(self, ev: Event, state: HBState) -> None:
        for target in ev.names:
            state.forget((target,))
            state.env[target] = UNKNOWN

    def _ev_window(self, ev: Event, state: HBState) -> None:
        state.forget(ev.names)


def interpret_task(task: TaskInfo, summaries: Summaries,
                   report: ReportFn) -> HBState:
    """Run the happens-before interpreter over one task body.

    Calls *report(code, line, dedup_key, args)* for every W2/W3/D2
    condition met; returns the exit state (used by tests).
    """
    return _Interpreter(task, summaries, report).run()

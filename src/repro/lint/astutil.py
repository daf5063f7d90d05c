"""AST extraction shared by the program checkers.

A *task function* is a generator function whose first parameter is
``ctx`` — the numerical analyst's task-body idiom throughout this repo
(decorated with ``@prog.task()``, registered via ``prog.define``, or a
``yield from`` sub-generator).  :func:`collect_tasks` walks a module
AST and summarizes every task function into a :class:`TaskInfo`:

* which parameters it plain-writes / accumulates / reads through
  ``ctx.write`` / ``ctx.accumulate`` / ``ctx.read``,
* which handles it creates locally (``ctx.create``),
* every initiation site (``ctx.initiate``, ``forall``, ``pardo``, the
  reductions) with replication and conditionality facts,
* the ordered event stream — reads, writes, waits, initiations,
  computes, pauses/resumes, RPCs, sub-generator calls, and the local
  bindings (aliases, tid-list merges, integer constants) that thread
  them together,
* the same events arranged as a :class:`Region` tree (sequences,
  branches, loops) — the control-flow skeleton the
  :mod:`repro.lint.flow` fixpoint engine interprets.

Everything is deliberately conservative: only windows passed *by name*
are tracked, so derived windows (``vec(...)``, ``w.split_rows(...)``)
never produce false positives — the dynamic :class:`~repro.langvm.audit.WindowAudit`
remains the backstop for those.
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union


def call_tail(call: ast.Call) -> Optional[str]:
    """The final attribute (or bare name) of a call's function."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def literal_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def literal_int(node: ast.AST) -> Optional[int]:
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return node.value
    return None


def keyword_arg(call: ast.Call, name: str) -> Optional[ast.AST]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def contains_yield(fn: ast.FunctionDef) -> bool:
    """True when *fn* itself (not a nested def) contains yield."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) \
                and node is not fn:
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            # make sure the yield belongs to fn, not a nested function
            return _owns(fn, node)
    return False


def _owns(fn: ast.FunctionDef, target: ast.AST) -> bool:
    """Whether *target* is in *fn*'s own scope (skips nested defs)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if node is target:
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def is_task_function(fn: ast.AST) -> bool:
    return (
        isinstance(fn, ast.FunctionDef)
        and bool(fn.args.args)
        and fn.args.args[0].arg == "ctx"
        and contains_yield(fn)
    )


def _contains_exit(node: ast.AST) -> bool:
    return any(isinstance(n, (ast.Return, ast.Raise)) for n in ast.walk(node))


#: how a sub-generator call argument is summarized for interprocedural
#: substitution: a bare name, a string literal, an int literal, or opaque
ArgRef = Optional[Tuple[str, object]]  # ("name"|"str"|"int", value)


def _arg_ref(node: ast.AST) -> ArgRef:
    if isinstance(node, ast.Name):
        return ("name", node.id)
    s = literal_str(node)
    if s is not None:
        return ("str", s)
    i = literal_int(node)
    if i is not None:
        return ("int", i)
    return None


def _loop_trips(it: ast.AST) -> ArgRef:
    """Trip-count reference of a ``for`` iterable, when legible.

    ``range(k)`` / ``range(a, b)`` literals, bare-name iterables, and
    literal sequences resolve exactly; ``zip(xs, ...)`` resolves to
    ``("name_ub", xs)`` — an upper bound only, since zip stops at the
    shortest argument.  ``enumerate`` is transparent."""
    if isinstance(it, ast.Call) and call_tail(it) == "enumerate" and it.args:
        it = it.args[0]
    if isinstance(it, ast.Call):
        tail = call_tail(it)
        if tail == "range":
            if len(it.args) == 1:
                return _arg_ref(it.args[0])
            if len(it.args) >= 2:
                lo, hi = literal_int(it.args[0]), literal_int(it.args[1])
                if lo is not None and hi is not None and len(it.args) == 2:
                    return ("int", max(0, hi - lo))
            return None
        if tail == "zip" and it.args and isinstance(it.args[0], ast.Name):
            return ("name_ub", it.args[0].id)
        return None
    if isinstance(it, ast.Name):
        return ("name", it.id)
    if isinstance(it, (ast.List, ast.Tuple)):
        return ("int", len(it.elts))
    return None


@dataclass
class InitiateSite:
    """One task-initiation point inside a task body."""

    line: int
    task_type: Optional[str]        # literal type name, or None if dynamic
    arg_names: Tuple[Optional[str], ...]  # positional args that are bare names
    replicated: bool                # same args fanned out to > 1 replication
    conditional: bool               # guarded by if / early return / try
    assigned: Tuple[str, ...]       # names bound to the returned tids
    discarded: bool                 # bare `yield ctx.initiate(...)` statement
    waits_inline: bool = False      # forall/pardo/... wait internally
    task_type_name: Optional[str] = None  # bare-name task type (dynamic site)
    count_name: Optional[str] = None      # bare-name replication count
    count: Optional[int] = None           # literal replication count


@dataclass
class Event:
    """One entry of the ordered event stream.

    Kinds and their payloads:

    ``read`` / ``write`` / ``accumulate``  window access, ``name``
    ``initiate``       task initiation, ``site``
    ``wait``           ``names`` = waited tid bindings (None = unknown)
    ``compute``        ``value`` = literal cycles (or None), ``name`` =
                       bare-name cycle count for constant propagation,
                       ``args`` = (flops ref, cycles ref) for the cost
                       model (``("int", 0)`` marks an absent keyword)
    ``free``           array release, ``name`` = handle binding
    ``pause`` / ``resume`` / ``broadcast`` / ``receive``  task control
    ``rpc``            ``ctx.call``, ``name`` = literal service name
    ``subcall``        ``yield from helper(ctx, ...)``: ``name`` =
                       callee, ``args`` = :data:`ArgRef` tuple,
                       ``names`` = assignment targets
    ``assign``         ``names`` = targets, ``name`` = source binding
    ``assign_empty``   ``names`` bound to a fresh empty collection
    ``const``          ``names`` bound to literal int ``value``
    ``augment``        ``names[0]`` merged with ``name`` (extend/append/
                       ``+=``); ``name`` None = unknown source
    ``clobber``        ``names`` re-bound to something untrackable
    ``window``         ``names`` alias the array/window ``name``; on
                       create sites ``args`` = size refs
    """

    kind: str
    line: int
    name: Optional[str] = None
    site: Optional[InitiateSite] = None
    names: Tuple[Optional[str], ...] = ()
    value: Optional[int] = None
    args: Tuple[ArgRef, ...] = ()


@dataclass
class Region:
    """Control-flow skeleton of one task body.

    ``seq``    children are Events and sub-Regions in program order
    ``branch`` children are alternative Regions (if/else arms, except
               handlers); exactly one executes
    ``loop``   single child Region executed zero or more times
    ``exits``  a seq that ends control flow (return/raise) — branch
               joins exclude it
    ``trips``  loop trip-count :data:`ArgRef` when the iterable is
               statically legible (``range(n)``, a bare-name iterable);
               kind ``"name_ub"`` marks an upper bound only (``zip``)
    """

    kind: str
    children: List[Union[Event, "Region"]] = field(default_factory=list)
    exits: bool = False
    trips: Optional[Tuple[str, object]] = None


@dataclass
class TaskInfo:
    """Static summary of one task function."""

    name: str                       # registered task-type name (or func name)
    func_name: str
    file: str
    line: int
    params: Tuple[str, ...]         # parameters after ctx
    registered: bool = False        # known to a CodeRegistry / @prog.task
    invoked: bool = False           # name referenced outside registration
    plain_writes: Set[str] = field(default_factory=set)
    accumulates: Set[str] = field(default_factory=set)
    reads: Set[str] = field(default_factory=set)
    created: Set[str] = field(default_factory=set)   # handles made locally
    local_uses: List[Tuple[int, str]] = field(default_factory=list)
    initiates: List[InitiateSite] = field(default_factory=list)
    events: List[Event] = field(default_factory=list)
    body: Region = field(default_factory=lambda: Region("seq"))
    pardo_groups: List[Tuple[int, List[Tuple[Optional[str],
                                             Tuple[Optional[str], ...]]]]] = \
        field(default_factory=list)
    waits: int = 0
    name_uses: Dict[str, int] = field(default_factory=dict)

    def writes_param(self, position: int) -> Optional[str]:
        """The param name at *position* if this task plain-writes it."""
        if 0 <= position < len(self.params):
            p = self.params[position]
            if p in self.plain_writes:
                return p
        return None

    def param_index(self, name: str) -> Optional[int]:
        try:
            return self.params.index(name)
        except ValueError:
            return None


class TaskIndex:
    """Target resolution over one task set.

    A task type named at a spawn, sub-generator call or ``ctx.call``
    resolves from the point of view of the task that names it: among the
    tasks of its own file first, then across the whole set; in each
    scope registered names come before function names, and the first
    definition wins.  A lint run over many programs (the CLI corpus
    reuses names such as ``work`` and ``driver``) thus resolves each
    program to its own tasks.
    """

    def __init__(self, tasks: Sequence[TaskInfo]) -> None:
        #: file -> name -> task, and under None the whole set
        self._scopes: Dict[Optional[str], Dict[str, TaskInfo]] = {None: {}}
        for attr in ("name", "func_name"):
            for t in tasks:
                for scope in (t.file, None):
                    self._scopes.setdefault(scope, {}).setdefault(
                        getattr(t, attr), t)
        shared = Counter(t.name for t in tasks)
        self._keys = {id(t): t.name if shared[t.name] == 1
                      else f"{t.name}@{t.file}:{t.line}" for t in tasks}

    def resolve(self, name: Optional[str],
                owner: TaskInfo) -> Optional[TaskInfo]:
        """The task *name* denotes where *owner* names it, or None."""
        if name is None:
            return None
        task = self._scopes.get(owner.file, {}).get(name)
        return task if task is not None else self._scopes[None].get(name)

    def key(self, task: TaskInfo) -> str:
        """The task's name in the cost report: its registered name, with
        ``@file:line`` added when another task of the set shares it."""
        return self._keys[id(task)]


def task_index(tasks: Sequence[TaskInfo]) -> TaskIndex:
    """The :class:`TaskIndex` of one task set."""
    return TaskIndex(tasks)


#: sub-generator helpers that initiate replications and wait inline
_FANOUT_HELPERS = ("forall", "pardo", "flat_reduce", "tree_reduce")

#: the interior-node task type ``tree_reduce`` spawns once n > fanout
#: (``repro.langvm.reduce.REDUCE_NODE``; lint does not import langvm)
_REDUCE_NODE = "red.node"

#: list-mutation methods folded into the binding lattice
_MERGE_METHODS = ("extend", "append")


class _TaskVisitor:
    """Single ordered walk over one task function's statements.

    Builds the flat event list and the region tree in one pass — the
    flat list is the pre-order flattening of the tree, so both views
    agree on event order.
    """

    def __init__(self, fn: ast.FunctionDef, info: TaskInfo, offset: int) -> None:
        self.fn = fn
        self.info = info
        self.offset = offset
        self.ctx = fn.args.args[0].arg
        self._region_stack: List[Region] = []

    def line(self, node: ast.AST) -> int:
        return node.lineno + self.offset

    def emit(self, event: Event) -> None:
        self.info.events.append(event)
        self._region_stack[-1].children.append(event)

    def run(self) -> None:
        self.info.body = self._walk(self.fn.body, guarded=False,
                                    conditional=False)
        self._count_name_uses()

    # -- statement walk ----------------------------------------------------

    def _walk(self, stmts: Sequence[ast.stmt], guarded: bool,
              conditional: bool) -> Region:
        region = Region("seq")
        self._region_stack.append(region)
        try:
            for stmt in stmts:
                self._statement(stmt, guarded or conditional)
                if isinstance(stmt, (ast.Return, ast.Raise)):
                    region.exits = True
                if isinstance(stmt, (ast.If, ast.Try)) and _contains_exit(stmt):
                    # later siblings only run when this branch fell through
                    guarded = True
                if isinstance(stmt, ast.If):
                    self._branch(
                        [self._sub(stmt.body, guarded, True),
                         self._sub(stmt.orelse, guarded, True)])
                elif isinstance(stmt, ast.For):
                    body = Region("loop", trips=_loop_trips(stmt.iter))
                    # `for t in tids:` binds t to elements of tids
                    if isinstance(stmt.target, ast.Name) \
                            and isinstance(stmt.iter, ast.Name):
                        bind = Event("assign", self.line(stmt),
                                     name=stmt.iter.id,
                                     names=(stmt.target.id,))
                        self.info.events.append(bind)
                    else:
                        bind = None
                    inner = self._sub(stmt.body, guarded, conditional,
                                      prepend=bind)
                    body.children.append(inner)
                    region.children.append(body)
                    self._append_sub(stmt.orelse, guarded, True)
                elif isinstance(stmt, ast.While):
                    body = Region("loop")
                    body.children.append(
                        self._sub(stmt.body, guarded, conditional))
                    region.children.append(body)
                    self._append_sub(stmt.orelse, guarded, True)
                elif isinstance(stmt, ast.With):
                    self._append_sub(stmt.body, guarded, conditional)
                elif isinstance(stmt, ast.Try):
                    alts = [self._sub(stmt.body, guarded, True)]
                    for handler in stmt.handlers:
                        alts.append(self._sub(handler.body, guarded, True))
                    alts.append(self._sub(stmt.orelse, guarded, True))
                    self._branch(alts)
                    self._append_sub(stmt.finalbody, guarded, conditional)
        finally:
            self._region_stack.pop()
        return region

    def _sub(self, stmts: Sequence[ast.stmt], guarded: bool,
             conditional: bool, prepend: Optional[Event] = None) -> Region:
        sub = self._walk(stmts, guarded, conditional)
        if prepend is not None:
            sub.children.insert(0, prepend)
        return sub

    def _append_sub(self, stmts: Sequence[ast.stmt], guarded: bool,
                    conditional: bool) -> None:
        if stmts:
            self._region_stack[-1].children.append(
                self._walk(stmts, guarded, conditional))

    def _branch(self, alts: List[Region]) -> None:
        alts = [a for a in alts]
        if any(a.children or a.exits for a in alts):
            self._region_stack[-1].children.append(Region("branch", alts))

    def _statement(self, stmt: ast.stmt, conditional: bool) -> None:
        if isinstance(stmt, ast.Expr):
            if self._merge_method(stmt.value):
                return
            self._expression(stmt.value, assigned=(), discarded=True,
                             conditional=conditional)
            self._nested_yields(stmt.value, conditional)
        elif isinstance(stmt, ast.Assign):
            names = self._target_names(stmt.targets)
            self._binding(stmt.value, names, conditional)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            names = self._target_names([stmt.target])
            self._binding(stmt.value, names, conditional)
        elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
            src = stmt.value.id if isinstance(stmt.value, ast.Name) else None
            self._nested_yields(stmt.value, conditional)
            self.emit(Event("augment", self.line(stmt), name=src,
                            names=(stmt.target.id,)))
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            self._expression(stmt.value, assigned=(), discarded=False,
                             conditional=conditional)
            self._nested_yields(stmt.value, conditional)

    def _nested_yields(self, value: ast.AST, conditional: bool) -> None:
        """Yields buried inside a larger expression —
        ``p = (yield ctx.read(p_win)).ravel()`` — still perform their
        effect; route each through the classifier so the event IR (and
        the cost model's message counts) see it.  The top-level yield
        is excluded: :meth:`_expression` already unwraps it."""
        for node in ast.walk(value):
            if node is value:
                continue
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                self._expression(node, assigned=(), discarded=False,
                                 conditional=conditional)

    def _binding(self, value: ast.AST, names: Tuple[str, ...],
                 conditional: bool) -> None:
        """An assignment statement: route to the effect classifier and
        record what the targets are now bound to."""
        handled = self._expression(value, assigned=names,
                                   discarded=not names,
                                   conditional=conditional)
        self._nested_yields(value, conditional)
        if handled or not names:
            return
        line = getattr(value, "lineno", 1) + self.offset
        if isinstance(value, ast.Name):
            self.emit(Event("assign", line, name=value.id, names=names))
        elif isinstance(value, (ast.List, ast.Tuple)) and not value.elts:
            self.emit(Event("assign_empty", line, names=names))
        elif literal_int(value) is not None:
            self.emit(Event("const", line, value=literal_int(value),
                            names=names))
        else:
            self.emit(Event("clobber", line, names=names))

    def _merge_method(self, value: ast.AST) -> bool:
        """``tids.extend(got)`` / ``tids.append(t)`` fold into bindings."""
        if not (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in _MERGE_METHODS
                and isinstance(value.func.value, ast.Name)
                and value.func.value.id != self.ctx):
            return False
        target = value.func.value.id
        src = None
        if value.args and isinstance(value.args[0], ast.Name):
            src = value.args[0].id
        self.emit(Event("augment", self.line(value), name=src,
                        names=(target,)))
        return True

    @staticmethod
    def _target_names(targets: Sequence[ast.AST]) -> Tuple[str, ...]:
        names: List[str] = []
        for t in targets:
            if isinstance(t, ast.Name):
                names.append(t.id)
            elif isinstance(t, (ast.Tuple, ast.List)):
                names.extend(e.id for e in t.elts if isinstance(e, ast.Name))
        return tuple(names)

    # -- expression classification -----------------------------------------

    def _expression(self, value: ast.AST, assigned: Tuple[str, ...],
                    discarded: bool, conditional: bool) -> bool:
        """Classify one statement expression; True when it produced an
        event that accounts for the bindings in *assigned*."""
        # unwrap `yield <call>` and `yield from <call>`
        from_yield = False
        if isinstance(value, (ast.Yield, ast.YieldFrom)) and value.value is not None:
            from_yield = isinstance(value, ast.YieldFrom)
            value = value.value
        if not isinstance(value, ast.Call):
            return False
        call = value
        tail = call_tail(call)
        is_ctx = (
            isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == self.ctx
        )
        if is_ctx:
            return self._ctx_call(call, tail, assigned, discarded, conditional)
        if self._first_arg_is_ctx(call):
            if tail in _FANOUT_HELPERS:
                self._helper_call(call, tail, conditional)
                return True
            if from_yield and isinstance(call.func, ast.Name):
                self._subgen_call(call, assigned)
                return True
        return False

    def _first_arg_is_ctx(self, call: ast.Call) -> bool:
        return bool(call.args) and isinstance(call.args[0], ast.Name) \
            and call.args[0].id == self.ctx

    def _ctx_call(self, call: ast.Call, tail: Optional[str],
                  assigned: Tuple[str, ...], discarded: bool,
                  conditional: bool) -> bool:
        info, line = self.info, self.line(call)
        first = call.args[0] if call.args else None
        first_name = first.id if isinstance(first, ast.Name) else None
        if tail == "write":
            if first_name:
                info.plain_writes.add(first_name)
            self.emit(Event("write", line, name=first_name))
        elif tail == "accumulate":
            if first_name:
                info.accumulates.add(first_name)
            self.emit(Event("accumulate", line, name=first_name))
        elif tail == "read":
            if first_name:
                info.reads.add(first_name)
            self.emit(Event("read", line, name=first_name))
        elif tail == "create":
            info.created.update(assigned)
            self.emit(Event("window", line, names=assigned,
                            args=self._size_refs(call)))
            return True
        elif tail == "window" and first_name:
            # ctx.window(h): the target names alias the handle
            info.created.update(a for a in assigned if first_name in info.created)
            self.emit(Event("window", line, name=first_name, names=assigned))
            return True
        elif tail == "free":
            self.emit(Event("free", line, name=first_name))
        elif tail == "local" and first_name:
            info.local_uses.append((line, first_name))
        elif tail == "wait":
            info.waits += 1
            self.emit(Event("wait", line, names=self._wait_names(call)))
            return True
        elif tail == "wait_pause":
            # orders the child's pre-pause writes before us, but the
            # child keeps running — it must not count as a terminal wait
            info.waits += 1
            self.emit(Event("wait_pause", line, names=self._wait_names(call)))
            return True
        elif tail == "compute":
            cyc = keyword_arg(call, "cycles")
            flops = keyword_arg(call, "flops")
            if flops is None and call.args:
                flops = call.args[0]
            self.emit(Event(
                "compute", line,
                value=literal_int(cyc) if cyc is not None else None,
                name=cyc.id if isinstance(cyc, ast.Name) else None,
                args=(
                    _arg_ref(flops) if flops is not None else ("int", 0),
                    _arg_ref(cyc) if cyc is not None else ("int", 0),
                ),
            ))
        elif tail == "pause":
            self.emit(Event("pause", line))
        elif tail == "resume":
            self.emit(Event("resume", line))
        elif tail == "broadcast":
            self.emit(Event("broadcast", line, name=first_name))
        elif tail == "receive":
            self.emit(Event("receive", line))
        elif tail == "call":
            self.emit(Event("rpc", line,
                            name=literal_str(first) if first is not None else None))
        elif tail == "initiate":
            count = keyword_arg(call, "count")
            count_val = literal_int(count) if count is not None else 1
            replicated = count is not None and (count_val is None or count_val > 1)
            site = InitiateSite(
                count=count_val,
                line=line,
                task_type=literal_str(call.args[0]) if call.args else None,
                arg_names=tuple(
                    a.id if isinstance(a, ast.Name) else None
                    for a in call.args[1:]
                ),
                replicated=replicated,
                conditional=conditional,
                assigned=assigned,
                discarded=discarded,
                task_type_name=first_name,
                count_name=count.id if isinstance(count, ast.Name) else None,
            )
            info.initiates.append(site)
            self.emit(Event("initiate", line, site=site, names=assigned))
            return True
        return False

    @staticmethod
    def _size_refs(call: ast.Call) -> Tuple[ArgRef, ...]:
        """Word-count references of a ``create`` site: it looks through
        an ``np.zeros(...)``-style constructor or keeps the bare source
        name.  ``(None,)`` means the size is illegible."""
        if not call.args:
            return (None,)
        data = call.args[0]
        if isinstance(data, ast.Call) and call_tail(data) in (
                "zeros", "ones", "empty", "full") and data.args:
            inner = data.args[0]
            if isinstance(inner, (ast.Tuple, ast.List)):
                return tuple(_arg_ref(a) for a in inner.elts)
            return (_arg_ref(inner),)
        if isinstance(data, (ast.List, ast.Tuple)):
            return (("int", len(data.elts)),)
        ref = _arg_ref(data)
        if ref is not None and ref[0] == "str":
            ref = None
        return (ref,)

    @staticmethod
    def _wait_names(call: ast.Call) -> Tuple[Optional[str], ...]:
        """Bindings a wait covers; None entries mean "unknown" (the
        happens-before engine then treats the wait as covering every
        pending initiation — the conservative, no-false-positive read)."""
        if not call.args:
            return (None,)
        arg = call.args[0]
        if isinstance(arg, ast.Name):
            return (arg.id,)
        if isinstance(arg, (ast.List, ast.Tuple)):
            return tuple(
                e.id if isinstance(e, ast.Name) else None for e in arg.elts
            ) or (None,)
        return (None,)

    def _subgen_call(self, call: ast.Call, assigned: Tuple[str, ...]) -> None:
        """``yield from helper(ctx, ...)`` — an interprocedural edge."""
        self.emit(Event(
            "subcall", self.line(call),
            name=call.func.id,
            args=tuple(_arg_ref(a) for a in call.args[1:]),
            names=assigned,
        ))

    def _helper_call(self, call: ast.Call, tail: str, conditional: bool) -> None:
        """forall/pardo/flat_reduce/tree_reduce: initiate-and-wait sub-generators."""
        info, line = self.info, self.line(call)
        if tail == "pardo":
            stmts: List[Tuple[Optional[str], Tuple[Optional[str], ...]]] = []
            for stmt in call.args[1:]:
                if isinstance(stmt, ast.Starred):
                    task_type, names = self._pardo_starred(stmt.value)
                    self._fanout_site(line, task_type=task_type, arg_names=names,
                                      replicated=True, conditional=conditional)
                    continue
                parsed = self._pardo_statement(stmt)
                if parsed is not None:
                    stmts.append(parsed)
                    self._fanout_site(line, task_type=parsed[0], arg_names=parsed[1],
                                      replicated=False, conditional=conditional,
                                      count=1)
            if stmts:
                info.pardo_groups.append((line, stmts))
            self.emit(Event("wait", line, names=()))
            return
        # forall(ctx, "type", n=?, args=(...)): identical args fan out
        type_node = call.args[1] if len(call.args) > 1 else None
        task_type = literal_str(type_node) if type_node is not None else None
        n = keyword_arg(call, "n") or (call.args[2] if len(call.args) > 2 else None)
        n_val = literal_int(n) if n is not None else None
        args_kw = keyword_arg(call, "args") or \
            (call.args[3] if len(call.args) > 3 else None)
        arg_names: Tuple[Optional[str], ...] = ()
        if isinstance(args_kw, (ast.Tuple, ast.List)):
            arg_names = tuple(a.id if isinstance(a, ast.Name) else None
                              for a in args_kw.elts)
        self._fanout_site(
            line, task_type=task_type, arg_names=arg_names,
            replicated=(n_val is None or n_val > 1),
            conditional=conditional, count=n_val,
            task_type_name=type_node.id
            if isinstance(type_node, ast.Name) else None,
            count_name=n.id if isinstance(n, ast.Name) else None,
        )
        if tail == "tree_reduce":
            # once n > fanout the caller spawns interior nodes, not leaves
            self._fanout_site(line, task_type=_REDUCE_NODE, arg_names=(),
                              replicated=True, conditional=True)
        self.emit(Event("wait", line, names=()))

    def _fanout_site(self, line: int, **fields) -> None:
        """One initiation by a helper that waits for its own children."""
        site = InitiateSite(line=line, assigned=(), discarded=False,
                            waits_inline=True, **fields)
        self.info.initiates.append(site)
        self.emit(Event("initiate", line, site=site))

    def _pardo_starred(self, value: ast.AST) \
            -> Tuple[Optional[str], Tuple[Optional[str], ...]]:
        """Type and argument names of ``pardo(ctx, *(("type", (args...)) for
        ...))``; a name the comprehension binds differs per statement, so it
        is no shared window.  Statements built elsewhere: a dynamic site."""
        comp = isinstance(value, (ast.GeneratorExp, ast.ListComp))
        parsed = self._pardo_statement(value.elt) if comp else None
        if parsed is None:
            return None, ()
        bound = {node.id for gen in value.generators
                 for node in ast.walk(gen.target) if isinstance(node, ast.Name)}
        return parsed[0], tuple(None if a in bound else a for a in parsed[1])

    @staticmethod
    def _pardo_statement(stmt: ast.AST) \
            -> Optional[Tuple[Optional[str], Tuple[Optional[str], ...]]]:
        """Parse a pardo ("type", (args...)[, cluster]) tuple literal."""
        if not isinstance(stmt, (ast.Tuple, ast.List)) or len(stmt.elts) < 2:
            return None
        task_type = literal_str(stmt.elts[0])
        args = stmt.elts[1]
        if not isinstance(args, (ast.Tuple, ast.List)):
            return None
        return task_type, tuple(
            a.id if isinstance(a, ast.Name) else None for a in args.elts
        )

    # -- post-pass: name usage (for D1's escape analysis) ------------------

    def _count_name_uses(self) -> None:
        uses: Dict[str, int] = {}
        for node in ast.walk(self.fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses[node.id] = uses.get(node.id, 0) + 1
        self.info.name_uses = uses


def analyze_task(fn: ast.FunctionDef, file: str, registered_name: str,
                 line_offset: int = 0, registered: bool = False,
                 invoked: bool = False) -> TaskInfo:
    """Summarize one task function into a :class:`TaskInfo`."""
    info = TaskInfo(
        name=registered_name,
        func_name=fn.name,
        file=file,
        line=fn.lineno + line_offset,
        params=tuple(a.arg for a in fn.args.args[1:]),
        registered=registered,
        invoked=invoked,
    )
    _TaskVisitor(fn, info, line_offset).run()
    return info


def registered_names(tree: ast.Module) -> Dict[str, str]:
    """Map function name -> registered task-type name for a module.

    Understands ``@prog.task()`` / ``@prog.task("name")`` decorators and
    literal ``prog.define("name", func)`` calls.
    """
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                if isinstance(dec, ast.Call) and call_tail(dec) == "task":
                    arg = literal_str(dec.args[0]) if dec.args else None
                    names[node.name] = arg or node.name
        elif isinstance(node, ast.Call) and call_tail(node) == "define":
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Name):
                reg = literal_str(node.args[0])
                if reg:
                    names[node.args[1].id] = reg
    return names


def invoked_names(tree: ast.Module) -> Set[str]:
    """Task names referenced as string literals outside registration.

    A literal ``"job"`` in ``prog.run_all([("job", ...)])`` — or any
    other non-registration reference — is evidence the task is an entry
    invoked directly, so reachability checks (X1) must not call it
    dead.  Each registration site (``@prog.task("job")``,
    ``prog.define("job", f)``) cancels exactly one occurrence.
    """
    refs: Dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs[node.value] = refs.get(node.value, 0) + 1
        elif isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                if isinstance(dec, ast.Call) and call_tail(dec) == "task" \
                        and dec.args:
                    s = literal_str(dec.args[0])
                    if s:
                        refs[s] = refs.get(s, 0) - 1
        elif isinstance(node, ast.Call) and call_tail(node) == "define":
            if node.args:
                s = literal_str(node.args[0])
                if s:
                    refs[s] = refs.get(s, 0) - 1
    return {name for name, count in refs.items() if count > 0}


def collect_tasks(tree: ast.Module, file: str,
                  line_offset: int = 0) -> List[TaskInfo]:
    """Every task function in a module AST, summarized."""
    reg = registered_names(tree)
    inv = invoked_names(tree)
    tasks: List[TaskInfo] = []
    for node in ast.walk(tree):
        if is_task_function(node):
            name = reg.get(node.name, node.name)
            tasks.append(analyze_task(node, file, name, line_offset,
                                      registered=node.name in reg,
                                      invoked=name in inv or node.name in inv))
    return tasks

"""Program-level cost composition: the ``fem2-cost/1`` CostReport.

Per-task activation costs (:class:`~repro.lint.cost.model.TaskCost`)
compose over the resolved spawn graph:

* **edges** — each initiation site contributes an edge per resolvable
  target.  Tasks are named by their :class:`~repro.lint.astutil.TaskIndex`
  key (the registered name, qualified ``name@file:line`` only when another
  task of the set shares it), and a literal task type resolves to the
  key of the task it denotes from the spawning file; a dynamic type (a
  bare-name or computed expression) resolves to *every other* task in
  the set with the count's lower bound dropped — any of them might be
  the target, none is guaranteed.  Self-recursion through a dynamic
  name is deliberately out of model (it would make everything TOP);
  literal self-recursion is kept and detected as a cycle.
* **activations** — entries (tasks with no incoming edge, or an
  explicit list) run once; everything else accumulates
  ``Σ act(spawner) × count`` in topological order over the spawn
  graph's condensation.  Tasks on or below a cycle get an unbounded
  activation count — the C1 trigger at program level.
* **totals** — cycles add the kernel overhead the per-task bounds
  leave out: every message is decoded once at its destination kernel
  (``cfg.message_fixed_cycles``) and every dispatch costs
  ``cfg.dispatch_cycles``.  Peak ``arrays``-tag allocation is bounded
  above by total words allocated; the lower bound collapses to zero
  as soon as any task frees.  Depth is the burst-cycle critical path
  through spawn chains.

Root spawns (``prog.run``/``start``) send no messages — the runtime
pre-loads code and enqueues the task directly — so entries contribute
no startup message slack, only their base dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .expr import CostExpr, Interval, TOP, ZERO
from .model import MESSAGE_KINDS, TaskCost

COST_SCHEMA = "fem2-cost/1"

_MFC = CostExpr.param("cfg.message_fixed_cycles")
_DISPATCH = CostExpr.param("cfg.dispatch_cycles")


@dataclass
class SpawnEdge:
    """One resolved spawn edge of the program graph."""

    source: str
    line: int
    target: str
    count: Interval
    wildcard: bool = False  # resolved from a dynamic task type

    def to_record(self) -> Dict[str, Any]:
        return {"source": self.source, "line": self.line,
                "target": self.target, "count": self.count.to_record(),
                "wildcard": self.wildcard}


@dataclass
class CostReport:
    """Symbolic program cost bounds — the ``fem2-cost/1`` record."""

    tasks: List[TaskCost]
    entries: List[str]
    edges: List[SpawnEdge]
    activations: Dict[str, Interval]
    cycles: Interval
    messages: Dict[str, Interval]
    alloc_peak: Interval
    depth: Interval
    dispatches: Interval
    params: List[str] = field(default_factory=list)

    @property
    def bounded(self) -> bool:
        """Statically bounded: no TOP anywhere in the program totals."""
        return (self.cycles.bounded and self.alloc_peak.bounded
                and all(iv.bounded for iv in self.messages.values()))

    def task(self, name: str) -> Optional[TaskCost]:
        for t in self.tasks:
            if t.task == name:
                return t
        return None

    def evaluate(self, env: Mapping[str, float],
                 default: Optional[float] = None) -> Dict[str, Any]:
        """Numeric ``(lo, hi)`` program bounds under *env* (see
        :func:`machine_env`); ``hi`` None means statically unbounded."""
        return {
            "cycles": self.cycles.evaluate(env, default),
            "messages": {k: v.evaluate(env, default)
                         for k, v in self.messages.items()},
            "alloc_peak": self.alloc_peak.evaluate(env, default),
            "depth": self.depth.evaluate(env, default),
            "dispatches": self.dispatches.evaluate(env, default),
        }

    def to_record(self) -> Dict[str, Any]:
        return {
            "schema": COST_SCHEMA,
            "entries": list(self.entries),
            "tasks": [t.to_record() for t in self.tasks],
            "edges": [e.to_record() for e in self.edges],
            "activations": {n: iv.to_record()
                            for n, iv in sorted(self.activations.items())},
            "totals": {
                "cycles": self.cycles.to_record(),
                "messages": {k: v.to_record()
                             for k, v in sorted(self.messages.items())},
                "alloc_peak": self.alloc_peak.to_record(),
                "depth": self.depth.to_record(),
                "dispatches": self.dispatches.to_record(),
            },
            "params": list(self.params),
        }

    def render(self) -> str:
        lines = [f"cost report ({COST_SCHEMA}): {len(self.tasks)} task(s), "
                 f"{len(self.edges)} spawn edge(s), "
                 f"entries: {', '.join(self.entries) or '(none)'}"]
        lines.append(f"  cycles     {self.cycles.render()}")
        lines.append(f"  alloc peak {self.alloc_peak.render()}")
        lines.append(f"  depth      {self.depth.render()}")
        for kind in MESSAGE_KINDS:
            iv = self.messages.get(kind)
            if iv is not None and not iv.is_zero():
                lines.append(f"  msg {kind:<16} {iv.render()}")
        if self.params:
            lines.append(f"  free params: {', '.join(self.params)}")
        return "\n".join(lines)


def machine_env(config: Any) -> Dict[str, float]:
    """The ``cfg.*`` parameter bindings of a machine config (duck-typed
    so the scheduler can pass its own config object)."""
    return {
        "cfg.flop_cycles": float(getattr(config, "flop_cycles", 1)),
        "cfg.message_fixed_cycles":
            float(getattr(config, "message_fixed_cycles", 20)),
        "cfg.word_touch_cycles":
            float(getattr(config, "word_touch_cycles", 1)),
        "cfg.dispatch_cycles": float(getattr(config, "dispatch_cycles", 5)),
        "cfg.n_clusters": float(getattr(config, "n_clusters", 1)),
    }


def _merge(costs: Sequence[TaskCost]) -> TaskCost:
    """Join same-named task variants (costs from separate analyses; one
    analysis keys its tasks apart); one variant passes through intact."""
    if len(costs) == 1:
        return costs[0]
    base = costs[0]
    cycles, alloc, dispatches = base.cycles, base.alloc, base.dispatches
    messages = dict(base.messages)
    for other in costs[1:]:
        cycles = cycles.join(other.cycles)
        alloc = alloc.join(other.alloc)
        dispatches = dispatches.join(other.dispatches)
        for kind in MESSAGE_KINDS:
            messages[kind] = messages.get(kind, Interval.zero()).join(
                other.messages.get(kind, Interval.zero()))
    spawns = []
    for c in costs:
        for s in c.spawns:
            # which variant runs is unknown → spawn lower bounds drop
            spawns.append(type(s)(s.line, s.target,
                                  Interval(ZERO, s.count.hi)))
    merged = TaskCost(
        task=base.task, file=base.file, line=base.line,
        cycles=cycles, messages=messages, alloc=alloc,
        dispatches=dispatches, spawns=spawns,
        windows=[w for c in costs for w in c.windows],
        unbounded=[u for c in costs for u in c.unbounded],
        frees=any(c.frees for c in costs),
    )
    return merged


def _resolve_edges(nodes: Dict[str, TaskCost]) -> List[SpawnEdge]:
    edges: List[SpawnEdge] = []
    for name, cost in nodes.items():
        for s in cost.spawns:
            if s.target is not None:
                if s.target in nodes:
                    edges.append(SpawnEdge(name, s.line, s.target, s.count))
                continue
            # dynamic type: any *other* registered task may be the target
            for target in nodes:
                if target == name:
                    continue
                edges.append(SpawnEdge(
                    name, s.line, target,
                    Interval(ZERO, s.count.hi), wildcard=True))
    return edges


def _sccs(names: Sequence[str],
          out_edges: Dict[str, List[SpawnEdge]]) -> List[List[str]]:
    """Strongly connected components, iterative Tarjan, reverse
    topological order (callees before callers)."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for root in names:
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, ei = work.pop()
            if ei == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            succs = out_edges.get(node, ())
            for i in range(ei, len(succs)):
                succ = succs[i].target
                if succ not in index:
                    work.append((node, i + 1))
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            if low[node] == index[node]:
                comp = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    comp.append(top)
                    if top == node:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def build_cost_report(costs: Sequence[TaskCost],
                      entries: Optional[Sequence[str]] = None) -> CostReport:
    """Compose per-task costs into program-level ``fem2-cost/1`` bounds."""
    grouped: Dict[str, List[TaskCost]] = {}
    for c in costs:
        grouped.setdefault(c.task, []).append(c)
    nodes = {name: _merge(group) for name, group in grouped.items()}
    edges = _resolve_edges(nodes)
    out_edges: Dict[str, List[SpawnEdge]] = {}
    incoming: Set[str] = set()
    for e in edges:
        out_edges.setdefault(e.source, []).append(e)
        incoming.add(e.target)

    names = sorted(nodes)
    if entries is None:
        entries = [n for n in names if n not in incoming] or names
    entries = [n for n in entries if n in nodes]
    entry_set = set(entries)

    sccs = _sccs(names, out_edges)  # reverse topological
    scc_of: Dict[str, int] = {}
    cyclic: Set[int] = set()
    for i, comp in enumerate(sccs):
        for n in comp:
            scc_of[n] = i
        if len(comp) > 1:
            cyclic.add(i)
    for e in edges:
        if e.source == e.target:
            cyclic.add(scc_of[e.source])

    # activation counts, forward topological order over the condensation
    activations: Dict[str, Interval] = {
        n: Interval.exact(1) if n in entry_set else Interval.zero()
        for n in names
    }
    for comp in reversed(sccs):
        comp_set = set(comp)
        for n in comp:
            acc = activations[n]
            # contributions from outside the component are final by now;
            # intra-component edges mean a cycle → unbounded below
            if scc_of[n] in cyclic:
                acc = Interval(acc.lo, TOP)
                activations[n] = acc
        for n in comp:
            for e in out_edges.get(n, ()):
                if e.target in comp_set:
                    continue
                activations[e.target] = \
                    activations[e.target] + activations[n] * e.count
    # (incoming edges into a cyclic component keep accumulating into its
    # lo; the hi is already TOP, which absorbs them)

    # -- program totals ----------------------------------------------------
    messages = {k: Interval.zero() for k in MESSAGE_KINDS}
    burst = Interval.zero()
    dispatches = Interval.zero()
    alloc_total = Interval.zero()
    any_frees = False
    for n in names:
        act, cost = activations[n], nodes[n]
        burst = burst + act * cost.cycles
        dispatches = dispatches + act * cost.dispatches
        alloc_total = alloc_total + act * cost.alloc
        any_frees = any_frees or cost.frees
        for kind in MESSAGE_KINDS:
            messages[kind] = messages[kind] + act * cost.messages[kind]
    total_msgs = Interval.zero()
    for kind in MESSAGE_KINDS:
        total_msgs = total_msgs + messages[kind]
    # kernel overhead: one decode per delivered message, one dispatch
    # cost per kernel dispatch — both land on proc.cycles
    cycles = burst + total_msgs * Interval.exact(_MFC) \
        + dispatches * Interval.exact(_DISPATCH)
    alloc_peak = Interval(ZERO if any_frees else alloc_total.lo,
                          alloc_total.hi)

    depth = _depth(entries, nodes, out_edges)

    params: Set[str] = set()
    for cost in nodes.values():
        params |= cost.params()
    for n in names:
        params |= {p for p in activations[n].params()
                   if not p.startswith("cfg.")}

    return CostReport(
        tasks=[nodes[n] for n in names],
        entries=list(entries),
        edges=edges,
        activations=activations,
        cycles=cycles,
        messages=messages,
        alloc_peak=alloc_peak,
        depth=depth,
        dispatches=dispatches,
        params=sorted(params),
    )


def _depth(entries: Sequence[str], nodes: Dict[str, TaskCost],
           out_edges: Dict[str, List[SpawnEdge]]) -> Interval:
    """Burst-cycle critical path through spawn chains from the entries."""
    memo: Dict[str, Interval] = {}
    visiting: Set[str] = set()

    def rec(name: str) -> Interval:
        if name in memo:
            return memo[name]
        if name in visiting:
            return Interval.unbounded()
        visiting.add(name)
        own = nodes[name].cycles
        best: Optional[Interval] = None
        for e in out_edges.get(name, ()):
            if e.count.bounded and e.count.hi.const_value() == 0:
                continue
            child = rec(e.target)
            # max of alternatives: join_min of lows is a sound lower
            # bound, join_max of highs a sound upper bound
            best = child if best is None else best.join(child)
        total = own if best is None \
            else own + Interval(ZERO, best.hi)  # the spawn may not happen
        visiting.discard(name)
        memo[name] = total
        return total

    depth: Optional[Interval] = None
    for entry in entries:
        d = rec(entry)
        depth = d if depth is None else depth.join(d)
    return depth if depth is not None else Interval.zero()

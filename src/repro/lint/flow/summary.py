"""The ``fem2-flow/1`` record: what the machine will do, statically.

A :class:`FlowSummary` is the flow engine's exported artifact,
serialized in the same schema-versioned style as ``fem2-bench/1`` and
``fem2-lint/1``:

* **routes** — the static spawn graph: which task types initiate which
  (``dst: "*"`` when a site's target is dynamic), with replication.
* **msg_routes** — per task type, the sysvm message kinds it may put on
  the wire (``initiate_task``, ``pause_notify``, ``resume_task``,
  ``terminate_notify``, ``remote_call``).
* **windows** — per (task, local window name): which task types read /
  plain-write / accumulate through it, and the resulting fan-in/out.
* **bursts** — fixed-length chains of straight-line effects (computes
  and window ops with no intervening control flow).

Every field is plain data, canonically sorted; ``to_record`` /
``from_record`` round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..astutil import Event, Region, TaskInfo
from .dataflow import Summaries

FLOW_SCHEMA = "fem2-flow/1"

#: message kinds a task can be charged with as a source (remote_return
#: and load_code are machine-attributed, never task-attributed)
SOURCE_MSG_KINDS = ("initiate_task", "pause_notify", "resume_task",
                    "terminate_notify", "remote_call")

#: event kinds that fuse into one burst chain (no scheduling point)
_BURST_KINDS = ("compute", "read", "write", "accumulate", "rpc", "broadcast")


@dataclass
class FlowSummary:
    """Static message routes, window fan-in/out, and burst chains."""

    tasks: List[str] = field(default_factory=list)
    entries: List[str] = field(default_factory=list)
    routes: List[Dict[str, Any]] = field(default_factory=list)
    msg_routes: List[Dict[str, str]] = field(default_factory=list)
    windows: List[Dict[str, Any]] = field(default_factory=list)
    bursts: List[Dict[str, Any]] = field(default_factory=list)

    def spawn_edges(self) -> set:
        return {(r["src"], r["dst"]) for r in self.routes}

    def msg_edges(self) -> set:
        return {(r["src"], r["kind"]) for r in self.msg_routes}

    def wildcard_sources(self) -> set:
        return {r["src"] for r in self.routes if r["dst"] == "*"}

    def to_record(self) -> Dict[str, Any]:
        return {
            "schema": FLOW_SCHEMA,
            "tasks": list(self.tasks),
            "entries": list(self.entries),
            "routes": [dict(r) for r in self.routes],
            "msg_routes": [dict(r) for r in self.msg_routes],
            "windows": [dict(w) for w in self.windows],
            "bursts": [dict(b) for b in self.bursts],
            "counts": {
                "tasks": len(self.tasks),
                "routes": len(self.routes),
                "msg_routes": len(self.msg_routes),
                "windows": len(self.windows),
                "bursts": len(self.bursts),
            },
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "FlowSummary":
        if record.get("schema") != FLOW_SCHEMA:
            raise ValueError(
                f"expected schema {FLOW_SCHEMA!r}, got {record.get('schema')!r}")
        return cls(
            tasks=list(record["tasks"]),
            entries=list(record["entries"]),
            routes=[dict(r) for r in record["routes"]],
            msg_routes=[dict(r) for r in record["msg_routes"]],
            windows=[dict(w) for w in record["windows"]],
            bursts=[dict(b) for b in record["bursts"]],
        )


def _burst_chains(task: TaskInfo) -> List[Dict[str, Any]]:
    """Maximal straight-line effect runs in one task body's region tree."""
    chains: List[Dict[str, Any]] = []

    def flush(run: List[Event]) -> None:
        if len(run) < 2:
            return
        cycles: Optional[int] = 0
        for ev in run:
            if ev.kind != "compute":
                continue
            if ev.value is None:
                cycles = None
                break
            cycles += ev.value
        chains.append({
            "task": task.name,
            "line": run[0].line,
            "length": len(run),
            "kinds": [ev.kind for ev in run],
            "cycles": cycles,
        })

    def walk(region: Region) -> None:
        run: List[Event] = []
        for child in region.children:
            if isinstance(child, Event) and child.kind in _BURST_KINDS:
                run.append(child)
                continue
            flush(run)
            run = []
            if isinstance(child, Region):
                walk(child)
        flush(run)

    walk(task.body)
    return chains


def summarize(tasks: List[TaskInfo], index: Dict[str, TaskInfo],
              summaries: Summaries) -> FlowSummary:
    """Build the ``fem2-flow/1`` summary for one resolved task set, its
    target index and its :func:`~.dataflow.summarize_tasks` fixpoint."""
    names = sorted({t.name for t in tasks})
    routes: Dict[tuple, Dict[str, Any]] = {}
    for t in tasks:
        s = summaries.of_task(t)
        for item in s.spawns:
            if item[0] == "lit" and item[1] in index:
                dst = index[item[1]].name
            else:
                dst = "*"
            replicated = any(
                site.replicated for site in t.initiates
                if (site.task_type or "*") in (dst, "*")
            )
            key = (t.name, dst)
            prior = routes.get(key)
            routes[key] = {
                "src": t.name, "dst": dst, "kind": "spawn",
                "replicated": replicated or bool(prior and prior["replicated"]),
            }

    spawned = {dst for _, dst in routes if dst != "*"}
    wildcard = any(dst == "*" for _, dst in routes)

    msg_routes: set = set()
    for t in tasks:
        for kind in summaries.of_task(t).msg_kinds:
            msg_routes.add((t.name, kind))
    for name in names:
        if wildcard or name in spawned:
            # any spawned task notifies its parent when it finishes
            msg_routes.add((name, "terminate_notify"))

    # in-degree zero over the resolved edges; with dynamic spawning in
    # play this is an over-approximation, which is the safe direction
    entries = sorted(name for name in names if name not in spawned)

    # per-window access table: who touches (task, local name), and what
    # flows into it through spawn argument maps
    windows: Dict[tuple, Dict[str, set]] = {}

    def cell(scope: str, name: str) -> Dict[str, set]:
        return windows.setdefault((scope, name), {
            "writers": set(), "readers": set(), "accumulators": set()})

    for t in tasks:
        for w in t.plain_writes:
            cell(t.name, w)["writers"].add(t.name)
        for w in t.reads:
            cell(t.name, w)["readers"].add(t.name)
        for w in t.accumulates:
            cell(t.name, w)["accumulators"].add(t.name)
        for site in t.initiates:
            target = index.get(site.task_type) if site.task_type else None
            if target is None:
                continue
            for pos, arg in enumerate(site.arg_names):
                if arg is None or pos >= len(target.params):
                    continue
                param = target.params[pos]
                c = cell(t.name, arg)
                if param in target.plain_writes:
                    c["writers"].add(target.name)
                if param in target.reads:
                    c["readers"].add(target.name)
                if param in target.accumulates:
                    c["accumulators"].add(target.name)

    window_rows = []
    for (scope, name), c in sorted(windows.items()):
        if not (c["writers"] or c["readers"] or c["accumulators"]):
            continue
        window_rows.append({
            "task": scope, "window": name,
            "writers": sorted(c["writers"]),
            "readers": sorted(c["readers"]),
            "accumulators": sorted(c["accumulators"]),
            "fan_in": len(c["writers"]) + len(c["accumulators"]),
            "fan_out": len(c["readers"]),
        })

    bursts: List[Dict[str, Any]] = []
    for t in sorted(tasks, key=lambda t: t.name):
        bursts.extend(_burst_chains(t))

    return FlowSummary(
        tasks=names,
        entries=entries,
        routes=[routes[k] for k in sorted(routes)],
        msg_routes=[{"src": src, "kind": kind}
                    for src, kind in sorted(msg_routes)],
        windows=window_rows,
        bursts=bursts,
    )

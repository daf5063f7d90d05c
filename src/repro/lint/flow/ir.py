"""The Task Interaction Graph IR.

A cheap, fully materialized graph over one resolved task set: task
nodes, initiate-site nodes, and window nodes, joined by spawn / wait /
read / write / accumulate / subcall edges.  The graph is the common
substrate for the X1 reachability check and the ``fem2-flow/1``
summary.

Window identity is *scoped by task*: ``win:<task>:<name>`` is the local
name a task knows a window by.  Cross-task identity flows through spawn
edges (the site's positional argument map), exactly like the dynamic
machine passes windows by value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..astutil import TaskInfo

#: node kinds
TASK, SITE, WINDOW = "task", "site", "window"

#: edge kinds
EDGE_KINDS = ("spawn", "wait", "read", "write", "accumulate", "subcall")


@dataclass(frozen=True)
class Node:
    kind: str
    key: str
    label: str


@dataclass(frozen=True)
class Edge:
    kind: str
    src: str            # node key
    dst: str            # node key
    line: int = 0
    attrs: tuple = ()   # sorted (key, value) pairs — hashable


@dataclass
class TaskGraph:
    tasks: Dict[str, TaskInfo] = field(default_factory=dict)
    nodes: Dict[str, Node] = field(default_factory=dict)
    edges: List[Edge] = field(default_factory=list)

    def add_node(self, kind: str, key: str, label: str) -> Node:
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = Node(kind, key, label)
        return node

    def add_edge(self, kind: str, src: str, dst: str, line: int = 0,
                 **attrs: Any) -> None:
        self.edges.append(Edge(kind, src, dst, line,
                               tuple(sorted(attrs.items()))))

    def out_edges(self, key: str, kind: Optional[str] = None) -> List[Edge]:
        return [e for e in self.edges
                if e.src == key and (kind is None or e.kind == kind)]

    def in_edges(self, key: str, kind: Optional[str] = None) -> List[Edge]:
        return [e for e in self.edges
                if e.dst == key and (kind is None or e.kind == kind)]


def task_index(tasks: List[TaskInfo]) -> Dict[str, TaskInfo]:
    """Resolve initiate targets: registered names first, then func names."""
    index: Dict[str, TaskInfo] = {}
    for t in tasks:
        index.setdefault(t.name, t)
    for t in tasks:
        index.setdefault(t.func_name, t)
    return index


def build_graph(tasks: List[TaskInfo]) -> TaskGraph:
    """Materialize the Task Interaction Graph for one task set."""
    graph = TaskGraph()
    index = task_index(tasks)
    for t in tasks:
        graph.tasks.setdefault(t.name, t)
        graph.add_node(TASK, f"task:{t.name}", t.name)

    for t in tasks:
        tkey = f"task:{t.name}"
        for i, site in enumerate(t.initiates):
            skey = f"site:{t.name}:{site.line}:{i}"
            graph.add_node(SITE, skey, site.task_type or "<dynamic>")
            graph.add_edge("spawn", tkey, skey, site.line,
                           replicated=site.replicated,
                           conditional=site.conditional,
                           dynamic=site.task_type is None)
            if site.task_type and site.task_type in index:
                target = index[site.task_type]
                graph.add_node(TASK, f"task:{target.name}", target.name)
                graph.add_edge("spawn", skey, f"task:{target.name}", site.line)
                # the site's argument map ties caller windows to callee params
                for pos, arg in enumerate(site.arg_names):
                    if arg is None or pos >= len(target.params):
                        continue
                    wkey = f"win:{t.name}:{arg}"
                    graph.add_node(WINDOW, wkey, arg)
                    pkey = f"win:{target.name}:{target.params[pos]}"
                    graph.add_node(WINDOW, pkey, target.params[pos])
                    graph.add_edge("spawn", wkey, pkey, site.line)
            if site.waits_inline:
                graph.add_edge("wait", tkey, skey, site.line)
        # explicit waits: tie each waited name back to the sites that
        # bound it (name-conservative, like every checker here)
        bound: Dict[str, List[str]] = {}
        for i, site in enumerate(t.initiates):
            for name in site.assigned:
                bound.setdefault(name, []).append(
                    f"site:{t.name}:{site.line}:{i}")
        for event in t.events:
            if event.kind in ("wait", "wait_pause"):
                for name in event.names:
                    for skey in bound.get(name, ()):
                        graph.add_edge("wait", tkey, skey, event.line)
        for event in t.events:
            if event.kind in ("read", "write", "accumulate") and event.name:
                wkey = f"win:{t.name}:{event.name}"
                graph.add_node(WINDOW, wkey, event.name)
                graph.add_edge(event.kind, tkey, wkey, event.line)
            elif event.kind == "subcall" and event.name and event.name in index:
                callee = index[event.name]
                graph.add_node(TASK, f"task:{callee.name}", callee.name)
                graph.add_edge("subcall", tkey, f"task:{callee.name}",
                               event.line)
    return graph

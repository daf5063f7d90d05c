"""H-graphs: hierarchies of directed graphs over abstract storage nodes.

The model follows Pratt's H-graph semantics (the paper's ref [7]):

* A **node** is an abstract storage location.  Its *value* is either an
  atom (see :mod:`repro.hgraph.atoms`) or a :class:`Graph`.
* A **graph** is a rooted directed graph whose arcs carry labels; the
  outgoing arcs of a node within one graph have distinct labels, so a
  label sequence denotes an access *path*.
* An **H-graph** is a set of nodes together with the graphs built over
  them.  The same node may appear in several graphs (shared storage),
  which is how the FEM-2 specifications model windows and shared data.

The mutable container is :class:`HGraph`; :class:`Node` and
:class:`Graph` are owned by exactly one H-graph each.  A graph is what
its root reaches: it keeps arcs, not a node set.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

from ..errors import HGraphError
from .atoms import is_atom


class Node:
    """An abstract storage location.

    Nodes have identity (two nodes with equal values are still distinct
    locations) and a value that is an atom or a :class:`Graph`.
    """

    __slots__ = ("hg", "nid", "label", "_value")

    def __init__(self, hg: "HGraph", nid: int, label: str, value: Any) -> None:
        self.hg = hg
        self.nid = nid
        self.label = label
        self._value = value

    @property
    def value(self) -> Any:
        return self._value

    def set_value(self, value: Any) -> None:
        """Assign a new value (an atom or a :class:`Graph`)."""
        if not (is_atom(value) or isinstance(value, Graph)):
            raise HGraphError(
                f"node value must be an atom or a Graph, got {type(value).__name__}"
            )
        self._value = value

    def is_atomic(self) -> bool:
        return not isinstance(self._value, Graph)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        v = "<graph>" if isinstance(self._value, Graph) else repr(self._value)
        return f"Node({self.nid}:{self.label}={v})"


class Graph:
    """A rooted, labelled directed graph over nodes of one H-graph.

    Outgoing labels of a node are unique within the graph, so
    ``follow(node, label)`` is a function and label sequences are access
    paths.
    """

    __slots__ = ("hg", "gid", "root", "_arcs")

    def __init__(self, hg: "HGraph", gid: int, root: Node) -> None:
        self.hg = hg
        self.gid = gid
        self.root = root
        # arcs[node_id][label] -> Node
        self._arcs: Dict[int, Dict[str, Node]] = {}

    # -- arcs ------------------------------------------------------------

    def add_arc(self, src: Node, label: str, dst: Node) -> None:
        """Add the arc ``src --label--> dst``.

        Re-adding an existing label from *src* is an error: an access
        path names one node.
        """
        self._check_same_hg(src)
        self._check_same_hg(dst)
        out = self._arcs.setdefault(src.nid, {})
        if label in out:
            raise HGraphError(
                f"node {src.nid} already has an outgoing arc labelled {label!r}"
            )
        out[label] = dst

    def arcs_from(self, node: Node) -> Dict[str, Node]:
        """The outgoing arcs of *node*, as ``{label: target}`` (a copy)."""
        return dict(self._arcs.get(node.nid, {}))

    # -- traversal ---------------------------------------------------------

    def follow(self, node: Node, label: str) -> Node:
        """Follow one arc; raise :class:`HGraphError` if absent."""
        out = self._arcs.get(node.nid, {})
        if label not in out:
            raise HGraphError(
                f"no access path {label!r} from node {node.nid} in graph {self.gid}"
            )
        return out[label]

    def _check_same_hg(self, node: Node) -> None:
        if node.hg is not self.hg:
            raise HGraphError("node belongs to a different H-graph")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(gid={self.gid}, root={self.root.nid})"


class HGraph:
    """A hierarchy of directed graphs: the universe of nodes and graphs.

    The H-graph is the unit of specification in the FEM-2 design — each
    virtual-machine data object is modelled as an H-graph whose top graph
    is returned by :meth:`new_graph`.
    """

    def __init__(self, name: str = "hgraph") -> None:
        self.name = name
        self._nodes: Dict[int, Node] = {}
        self._graphs: Dict[int, Graph] = {}
        self._node_ids = itertools.count()
        self._graph_ids = itertools.count()

    # -- construction ------------------------------------------------------

    def new_node(self, value: Any = None, label: str = "") -> Node:
        """Create a fresh storage location holding *value*."""
        if not (is_atom(value) or isinstance(value, Graph)):
            raise HGraphError(
                f"node value must be an atom or a Graph, got {type(value).__name__}"
            )
        nid = next(self._node_ids)
        node = Node(self, nid, label or f"n{nid}", value)
        self._nodes[nid] = node
        return node

    def new_graph(self, root: Optional[Node] = None) -> Graph:
        """Create a graph rooted at *root* (a fresh node if omitted)."""
        if root is None:
            root = self.new_node()
        elif root.hg is not self:
            raise HGraphError("root node belongs to a different H-graph")
        gid = next(self._graph_ids)
        g = Graph(self, gid, root)
        self._graphs[gid] = g
        return g

    def subgraph_node(self, graph: Graph, label: str = "") -> Node:
        """Create a node whose value is *graph* — the hierarchy step."""
        if graph.hg is not self:
            raise HGraphError("graph belongs to a different H-graph")
        return self.new_node(graph, label=label)

    # -- convenience builders -------------------------------------------------

    def build_record(self, fields: Dict[str, Any]) -> Graph:
        """Build a record: root with one labelled arc per field."""
        g = self.new_graph(self.new_node(None, label="record"))
        for label, v in fields.items():
            target = v if isinstance(v, Node) else self.new_node(v, label=label)
            g.add_arc(g.root, label, target)
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HGraph({self.name!r}, nodes={len(self._nodes)}, graphs={len(self._graphs)})"

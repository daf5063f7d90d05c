"""Serialization of H-graphs to plain dictionaries.

Node identity, shared substructure, and cycles are preserved because
the encoding is id-based.  Only the tests round-trip H-graphs through
it: the application model database (``repro.appvm.database``) stores
plain dicts of its own and imports nothing from ``repro.hgraph``.
"""

from __future__ import annotations

from typing import Any, Dict

from ..errors import HGraphError
from .atoms import Symbol, is_atom
from .graph import Graph, HGraph


def _encode_value(value: Any) -> Any:
    if isinstance(value, Graph):
        return {"$graph": value.gid}
    if isinstance(value, Symbol):
        return {"$symbol": value.name}
    if is_atom(value):
        return value
    raise HGraphError(f"unencodable node value {value!r}")


def _decode_value(enc: Any, graphs: Dict[int, Graph]) -> Any:
    if isinstance(enc, dict):
        if "$graph" in enc:
            return graphs[enc["$graph"]]
        if "$symbol" in enc:
            return Symbol(enc["$symbol"])
        raise HGraphError(f"unknown encoded value {enc!r}")
    return enc


def to_dict(hg: HGraph) -> Dict[str, Any]:
    """Encode an entire H-graph (all nodes and graphs) as a dict."""
    nodes = {
        str(n.nid): {"label": n.label, "value": _encode_value(n.value)}
        for n in hg.nodes()
    }
    graphs = {}
    for g in hg.graphs():
        graphs[str(g.gid)] = {
            "root": g.root.nid,
            "members": [n.nid for n in g.nodes()],
            "arcs": [[src.nid, label, dst.nid] for src, label, dst in g.arcs()],
        }
    return {"name": hg.name, "nodes": nodes, "graphs": graphs}


def from_dict(data: Dict[str, Any]) -> HGraph:
    """Rebuild an H-graph from :func:`to_dict` output.

    Node and graph ids are preserved, so round-tripping is the identity
    on the encoded form.
    """
    hg = HGraph(data.get("name", "hgraph"))
    node_specs = data["nodes"]
    graph_specs = data["graphs"]

    # First pass: create all nodes with placeholder values, all graphs empty.
    nodes = {}
    for nid_str, spec in node_specs.items():
        nid = int(nid_str)
        node = hg.new_node(None, label=spec["label"])
        if node.nid != nid:
            raise HGraphError("non-contiguous node ids in serialized H-graph")
        nodes[nid] = node

    graphs: Dict[int, Graph] = {}
    for gid_str, spec in graph_specs.items():
        gid = int(gid_str)
        g = hg.new_graph(nodes[spec["root"]])
        if g.gid != gid:
            raise HGraphError("non-contiguous graph ids in serialized H-graph")
        graphs[gid] = g

    # Second pass: arcs, members, then values (which may reference graphs).
    for gid_str, spec in graph_specs.items():
        g = graphs[int(gid_str)]
        for nid in spec["members"]:
            g.add_member(nodes[nid])
        for src, label, dst in spec["arcs"]:
            g.set_arc(nodes[src], label, nodes[dst])
    for nid_str, spec in node_specs.items():
        nodes[int(nid_str)].set_value(_decode_value(spec["value"], graphs))
    return hg


def graph_signature(g: Graph) -> tuple:
    """A hashable structural signature of the part of *g* reachable from
    its root: used to compare graphs up to node identity."""
    order = {n.nid: i for i, n in enumerate(g.reachable())}

    def val(n):
        if isinstance(n.value, Graph):
            return ("graph", graph_signature(n.value))
        return ("atom", n.value)

    rows = []
    for n in g.reachable():
        arcs = tuple(
            (label, order[t.nid]) for label, t in sorted(g.arcs_from(n).items())
        )
        rows.append((order[n.nid], val(n), arcs))
    return tuple(rows)

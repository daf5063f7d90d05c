"""Unit tests for the H-graph core model (nodes, graphs, hierarchy)."""

import pytest

from repro.errors import HGraphError
from repro.hgraph import HGraph, Symbol


@pytest.fixture
def hg():
    return HGraph("t")


class TestNode:
    def test_new_node_holds_atom(self, hg):
        n = hg.new_node(42)
        assert n.value == 42
        assert n.is_atomic()

    def test_nodes_have_identity_not_value_equality(self, hg):
        a, b = hg.new_node(1), hg.new_node(1)
        assert a is not b
        assert a.nid != b.nid

    def test_set_value(self, hg):
        n = hg.new_node(0)
        n.set_value("x")
        assert n.value == "x"

    def test_non_atom_value_rejected(self, hg):
        with pytest.raises(HGraphError):
            hg.new_node([1, 2, 3])
        n = hg.new_node(0)
        with pytest.raises(HGraphError):
            n.set_value({"a": 1})

    def test_symbol_is_valid_atom(self, hg):
        n = hg.new_node(Symbol("ready"))
        assert n.value == Symbol("ready")

    def test_graph_valued_node_not_atomic(self, hg):
        g = hg.new_graph()
        n = hg.subgraph_node(g)
        assert not n.is_atomic()
        assert n.value is g


class TestGraph:
    def test_new_graph_has_fresh_root(self, hg):
        g = hg.new_graph()
        other = hg.new_graph()
        assert g.root is not other.root
        assert g.arcs_from(g.root) == {}

    def test_add_arc_and_follow(self, hg):
        g = hg.new_graph()
        child = hg.new_node(7)
        g.add_arc(g.root, "x", child)
        assert g.follow(g.root, "x") is child

    def test_duplicate_label_rejected(self, hg):
        g = hg.new_graph()
        g.add_arc(g.root, "x", hg.new_node(1))
        with pytest.raises(HGraphError):
            g.add_arc(g.root, "x", hg.new_node(2))

    def test_follow_missing_label_raises(self, hg):
        g = hg.new_graph()
        with pytest.raises(HGraphError):
            g.follow(g.root, "missing")

    def test_cross_hgraph_node_rejected(self, hg):
        other = HGraph("other")
        foreign = other.new_node(1)
        g = hg.new_graph()
        with pytest.raises(HGraphError):
            g.add_arc(g.root, "x", foreign)

    def test_shared_node_between_graphs(self, hg):
        """Two graphs may share a node — the model of shared storage."""
        shared = hg.new_node(99)
        g1, g2 = hg.new_graph(), hg.new_graph()
        g1.add_arc(g1.root, "s", shared)
        g2.add_arc(g2.root, "t", shared)
        shared.set_value(100)
        assert g1.follow(g1.root, "s").value == 100
        assert g2.follow(g2.root, "t").value == 100

    def test_cycle_allowed(self, hg):
        g = hg.new_graph()
        g.add_arc(g.root, "self", g.root)
        assert g.follow(g.root, "self") is g.root


class TestHGraph:
    def test_foreign_root_rejected(self, hg):
        other = HGraph("o")
        with pytest.raises(HGraphError):
            hg.new_graph(other.new_node(1))

    def test_build_record(self, hg):
        g = hg.build_record({"name": "beam", "nodes": 4})
        assert g.follow(g.root, "name").value == "beam"
        assert g.follow(g.root, "nodes").value == 4

    def test_record_accepts_existing_nodes(self, hg):
        inner = hg.new_node(3.14)
        g = hg.build_record({"pi": inner})
        assert g.follow(g.root, "pi") is inner

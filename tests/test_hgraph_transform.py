"""Unit tests for H-graph transforms and the interpreter."""

import pytest

from repro.errors import TransformError
from repro.hgraph import HGraph, Interpreter, Transform
from repro.hgraph.interpreter import MAX_DEPTH

from .test_hgraph_grammar import cons_list, int_cons_grammar


@pytest.fixture
def hg():
    return HGraph("t")


def make_interp(*transforms):
    interp = Interpreter()
    for t in transforms:
        interp.register(t)
    return interp


def list_values(g):
    """Read back the values of a :func:`cons_list` graph."""
    out, node = [], g.root
    while True:
        arcs = g.arcs_from(node)
        if "head" not in arcs:
            return out
        out.append(arcs["head"].value)
        node = arcs["tail"]


class TestTransformBasics:
    def test_simple_transform_runs(self, hg):
        t = Transform("double", lambda ctx, hg, n: n.value * 2)
        interp = make_interp(t)
        node = hg.new_node(21)
        assert interp.run("double", hg, node) == 42

    def test_non_callable_rejected(self):
        with pytest.raises(TransformError):
            Transform("bad", fn=42)

    def test_duplicate_registration_rejected(self):
        t = Transform("x", lambda ctx, hg: None)
        interp = make_interp(t)
        with pytest.raises(TransformError):
            interp.register(Transform("x", lambda ctx, hg: None))

    def test_unknown_transform(self, hg):
        interp = make_interp()
        with pytest.raises(TransformError):
            interp.run("nope", hg)


class TestCallHierarchy:
    def test_transforms_invoke_each_other(self, hg):
        inc = Transform("inc", lambda ctx, hg, x: x + 1)
        twice = Transform("twice", lambda ctx, hg, x: ctx.call("inc", ctx.call("inc", x)))
        interp = make_interp(inc, twice)
        assert interp.run("twice", hg, 5) == 7
        assert interp.stats.calls == 3
        assert interp.stats.max_depth == 2

    def test_recursion_depth_limited(self, hg):
        loop = Transform("loop", lambda ctx, hg: ctx.call("loop"))
        interp = make_interp(loop)
        with pytest.raises(TransformError, match=f"depth exceeded {MAX_DEPTH}"):
            interp.run("loop", hg)
        assert interp.stats.calls == MAX_DEPTH + 1
        assert interp.stats.max_depth == MAX_DEPTH + 1


class TestConditions:
    def test_precondition_enforced(self, hg):
        gram = int_cons_grammar()
        t = Transform("sum", lambda ctx, hg, g: sum(list_values(g))).require(0, gram)
        interp = make_interp(t)
        good = cons_list(hg, [1, 2, 3])
        assert interp.run("sum", hg, good) == 6
        bad = cons_list(hg, ["a"])
        with pytest.raises(TransformError, match="violated"):
            interp.run("sum", hg, bad)

    def test_postcondition_enforced(self, hg):
        gram = int_cons_grammar()

        def make_bad(ctx, hg):
            return cons_list(hg, ["oops"])

        t = Transform("mk", make_bad).ensure(gram)
        interp = make_interp(t)
        with pytest.raises(TransformError, match="violated"):
            interp.run("mk", hg)

    def test_condition_on_non_graph_subject(self, hg):
        gram = int_cons_grammar()
        t = Transform("f", lambda ctx, hg, x: x).require(0, gram)
        interp = make_interp(t)
        with pytest.raises(TransformError, match="not a Graph"):
            interp.run("f", hg, 42)

    def test_precondition_index_out_of_range(self, hg):
        gram = int_cons_grammar()
        t = Transform("f", lambda ctx, hg: None).require(3, gram)
        interp = make_interp(t)
        with pytest.raises(TransformError, match="out of range"):
            interp.run("f", hg)

    def test_condition_checks_counted(self, hg):
        gram = int_cons_grammar()
        t = Transform("sum", lambda ctx, hg, g: sum(list_values(g))).require(0, gram)
        interp = make_interp(t)
        interp.run("sum", hg, cons_list(hg, [1]))
        assert interp.stats.condition_checks == 1


class TestTransformMutation:
    def test_transform_mutates_hgraph(self, hg):
        def push(ctx, hg, g, value):
            """Prepend value to a list graph by re-rooting the record."""
            old_root = g.root
            arcs = g.arcs_from(old_root)
            new_cell = hg.new_node(None)
            g.add_arc(new_cell, "head", hg.new_node(value))
            if arcs:
                g.add_arc(new_cell, "tail", old_root)
            g.root = new_cell
            return g

        interp = make_interp(Transform("push", push))
        g = cons_list(hg, [2, 3])
        interp.run("push", hg, g, 1)
        assert list_values(g) == [1, 2, 3]

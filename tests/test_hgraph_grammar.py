"""Unit tests for H-graph grammars and the membership matcher."""

import random

import pytest

from repro.errors import GrammarError
from repro.hgraph import (
    Alt,
    AtomKind,
    Const,
    Generator,
    Grammar,
    HGraph,
    Matcher,
    Ref,
    Struct,
    Sub,
    Symbol,
)


@pytest.fixture
def hg():
    return HGraph("t")


def int_cons_grammar():
    """Pratt's list over ``head`` / ``tail`` arcs: a cons cell, or nil
    (a node with no outgoing arcs)."""
    return Grammar("intlist").define(
        "list",
        Alt(
            Struct(arcs={"head": AtomKind("int"), "tail": Ref("list")}),
            Struct(arcs={}),
        ),
    )


def cons_list(hg, values):
    """A graph of the :func:`int_cons_grammar` shape holding *values*."""
    g = hg.new_graph(hg.new_node(None, label="list"))
    cell = g.root
    for v in values:
        rest = hg.new_node(None)
        g.add_arc(cell, "head", hg.new_node(v))
        g.add_arc(cell, "tail", rest)
        cell = rest
    return g


def signature(graph):
    """The shape and atoms reachable from *graph*'s root, by label,
    subgraphs included — equal for equal structures."""
    seen = {}

    def walk(node):
        if node.nid in seen:
            return ("^", seen[node.nid])
        seen[node.nid] = len(seen)
        value = node.value
        if not node.is_atomic():
            value = ("sub", signature(value))
        arcs = graph.arcs_from(node)
        return (value, tuple((label, walk(arcs[label])) for label in sorted(arcs)))

    return walk(graph.root)


class TestForms:
    def test_atomkind_rejects_unknown_kind(self):
        with pytest.raises(GrammarError):
            AtomKind("complex")

    def test_atomkind_number_accepts_int_and_float(self):
        f = AtomKind("number")
        assert f.accepts(3) and f.accepts(3.5)
        assert not f.accepts("3")

    def test_atomkind_bool_not_int(self):
        assert not AtomKind("int").accepts(True)
        assert AtomKind("bool").accepts(True)

    def test_const_requires_atom(self):
        with pytest.raises(GrammarError):
            Const([1, 2])

    def test_alt_needs_two(self):
        with pytest.raises(GrammarError):
            Alt(AtomKind("int"))

    def test_struct_from_dict_sorted(self):
        s = Struct(arcs={"b": AtomKind(), "a": AtomKind()})
        assert s.labels() == ("a", "b")


class TestGrammarValidation:
    def test_dangling_ref_detected(self):
        g = Grammar("g").define("a", Ref("missing"))
        with pytest.raises(GrammarError):
            g.validate()

    def test_duplicate_production_rejected(self):
        g = Grammar("g").define("a", AtomKind())
        with pytest.raises(GrammarError):
            g.define("a", AtomKind())

    def test_first_symbol_is_start(self):
        g = Grammar("g").define("s", AtomKind()).define("t", AtomKind())
        assert g.start == "s"

    def test_empty_grammar_invalid(self):
        with pytest.raises(GrammarError):
            Grammar("g").validate()

    def test_resolve_unknown_symbol(self):
        g = Grammar("g").define("a", AtomKind())
        with pytest.raises(GrammarError):
            g.resolve("zz")


class TestMatcher:
    def test_int_list_member(self, hg):
        g = cons_list(hg, [1, 2, 3])
        assert Matcher(int_cons_grammar()).matches(g)

    def test_empty_list_member(self, hg):
        g = cons_list(hg, [])
        assert Matcher(int_cons_grammar()).matches(g)

    def test_wrong_element_type_rejected(self, hg):
        g = cons_list(hg, [1, "two", 3])
        report = Matcher(int_cons_grammar()).check(g)
        assert not report.ok
        assert report.failures

    def test_circular_list_is_member(self, hg):
        """Coinductive matching: cyclic data satisfies recursive grammar."""
        g = hg.new_graph(hg.new_node(None))
        g.add_arc(g.root, "head", hg.new_node(1))
        g.add_arc(g.root, "tail", g.root)
        assert Matcher(int_cons_grammar()).matches(g)

    def test_closed_struct_rejects_extra_arcs(self, hg):
        g = hg.build_record({"a": 1, "b": 2})
        gram = Grammar("r").define("r", Struct(arcs={"a": AtomKind("int")}))
        assert not Matcher(gram).matches(g)

    def test_open_struct_allows_extra_arcs(self, hg):
        g = hg.build_record({"a": 1, "b": 2})
        gram = Grammar("r").define("r", Struct(arcs={"a": AtomKind("int")}, closed=False))
        assert Matcher(gram).matches(g)

    def test_missing_arc_reported(self, hg):
        g = hg.build_record({"a": 1})
        gram = Grammar("r").define(
            "r", Struct(arcs={"a": AtomKind("int"), "b": AtomKind("int")})
        )
        report = Matcher(gram).check(g)
        assert not report.ok
        assert any("missing arc" in f for f in report.failures)

    def test_const_match(self, hg):
        g = hg.new_graph(hg.new_node(Symbol("ready")))
        gram = Grammar("g").define("s", Const(Symbol("ready")))
        assert Matcher(gram).matches(g)
        g2 = hg.new_graph(hg.new_node(Symbol("blocked")))
        assert not Matcher(gram).matches(g2)

    def test_const_distinguishes_bool_from_int(self, hg):
        gram = Grammar("g").define("s", Const(1))
        g = hg.new_graph(hg.new_node(True))
        assert not Matcher(gram).matches(g)

    def test_sub_descends_hierarchy(self, hg):
        inner = cons_list(hg, [1, 2])
        outer = hg.build_record({"data": hg.subgraph_node(inner)})
        gram = Grammar("g").define("s", Struct(arcs={"data": Sub(Ref("list"))}))
        gram.rules.update(int_cons_grammar().rules)
        assert Matcher(gram).matches(outer)

    def test_sub_rejects_atom(self, hg):
        g = hg.build_record({"data": 5})
        gram = Grammar("g").define("s", Struct(arcs={"data": Sub(AtomKind())}))
        assert not Matcher(gram).matches(g)

    def test_alt_order_irrelevant_for_membership(self, hg):
        g = hg.new_graph(hg.new_node(2.5))
        gram = Grammar("g").define("s", Alt(AtomKind("int"), AtomKind("float")))
        assert Matcher(gram).matches(g)

    def test_struct_value_constraint(self, hg):
        g = hg.new_graph(hg.new_node(Symbol("task")))
        gram = Grammar("g").define(
            "s", Struct(arcs={}, closed=True, value=Const(Symbol("task")))
        )
        assert Matcher(gram).matches(g)

    def test_steps_counted(self, hg):
        g = cons_list(hg, list(range(10)))
        m = Matcher(int_cons_grammar())
        report = m.check(g)
        assert report.ok and report.steps > 10

    def test_named_symbol_check(self, hg):
        gram = Grammar("g").define("a", AtomKind("int")).define("b", AtomKind("str"))
        g = hg.new_graph(hg.new_node("x"))
        m = Matcher(gram)
        assert not m.matches(g, symbol="a")
        assert m.matches(g, symbol="b")


class TestGenerator:
    def test_generated_members_match(self, hg):
        gram = int_cons_grammar()
        gen = Generator(gram, random.Random(7))
        m = Matcher(gram)
        for _ in range(10):
            g = gen.generate(hg, max_depth=5)
            assert m.matches(g)

    def test_generation_deterministic(self):
        gram = int_cons_grammar()
        sigs = []
        for _ in range(2):
            hg = HGraph("t")
            gen = Generator(gram, random.Random(42))
            sigs.append(signature(gen.generate(hg, max_depth=4)))
        assert sigs[0] == sigs[1]

    def test_generation_of_records_and_subgraphs(self, hg):
        gram = Grammar("g").define(
            "s",
            Struct(arcs={"n": AtomKind("int"), "inner": Sub(Ref("t"))}),
        ).define("t", AtomKind("str"))
        gen = Generator(gram, random.Random(1))
        g = gen.generate(hg)
        assert Matcher(gram).matches(g)

    def test_nonterminating_grammar_raises(self, hg):
        gram = Grammar("g").define("s", Struct(arcs={"x": Ref("s")}))
        gen = Generator(gram, random.Random(1))
        with pytest.raises((GrammarError, RecursionError)):
            gen.generate(hg, max_depth=3)

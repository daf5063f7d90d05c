"""Membership checking for H-graph grammars.

:class:`Matcher` decides whether a ``(graph, node)`` pair belongs to the
language of a grammar symbol.  Recursive productions over cyclic data
are handled coinductively: a (node, form) pair that is re-entered while
still being checked is *assumed to match*, which computes the greatest
fixed point — a circular list is a list.

The matcher counts elementary match steps; the design-method benchmark
(E10) reports the cost of formally checking the FEM-2 layer
specifications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import GrammarError
from .grammar import Alt, AtomKind, Const, Form, Grammar, Ref, Struct, Sub
from .graph import Graph, Node


@dataclass
class MatchReport:
    """Outcome of a membership check, with diagnostics on failure."""

    ok: bool
    steps: int
    failures: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


class Matcher:
    """Checks membership of H-graph values in a grammar's language."""

    def __init__(self, grammar: Grammar) -> None:
        grammar.validate()
        self.grammar = grammar
        self.steps = 0

    def matches(self, graph: Graph, node: Optional[Node] = None, symbol: Optional[str] = None) -> bool:
        """True if *node* (default: the graph root) matches *symbol*."""
        return self.check(graph, node, symbol).ok

    def check(
        self, graph: Graph, node: Optional[Node] = None, symbol: Optional[str] = None
    ) -> MatchReport:
        """Full membership check returning a :class:`MatchReport`."""
        node = graph.root if node is None else node
        sym = self.grammar.start if symbol is None else symbol
        if sym is None:
            raise GrammarError("grammar has no start symbol")
        form = self.grammar.resolve(sym)
        self.steps = 0
        failures: List[str] = []
        in_progress: Set[Tuple[int, int, int]] = set()
        done: Dict[Tuple[int, int, int], bool] = {}
        ok = self._match(graph, node, form, in_progress, done, failures, path="$")
        return MatchReport(ok=ok, steps=self.steps, failures=failures)

    # -- internals ---------------------------------------------------------

    def _match(
        self,
        graph: Graph,
        node: Node,
        form: Form,
        in_progress: Set[Tuple[int, int, int]],
        done: Dict[Tuple[int, int, int], bool],
        failures: List[str],
        path: str,
    ) -> bool:
        self.steps += 1
        key = (graph.gid, node.nid, id(form))
        if key in done:
            return done[key]
        if key in in_progress:
            # Coinductive assumption: recursion through the same state
            # succeeds, giving the greatest fixed point over cyclic data.
            return True
        in_progress.add(key)
        try:
            ok = self._match_form(graph, node, form, in_progress, done, failures, path)
        finally:
            in_progress.discard(key)
        done[key] = ok
        return ok

    def _match_form(self, graph, node, form, in_progress, done, failures, path) -> bool:
        if isinstance(form, Ref):
            target = self.grammar.resolve(form.symbol)
            return self._match(graph, node, target, in_progress, done, failures, path)
        if isinstance(form, Alt):
            sub_fail: List[str] = []
            for alt in form.forms:
                if self._match(graph, node, alt, in_progress, done, sub_fail, path):
                    return True
            failures.append(f"{path}: no alternative matched")
            return False
        if isinstance(form, AtomKind):
            if form.accepts(node.value):
                return True
            failures.append(f"{path}: expected atom kind {form.kind!r}, got {node.value!r}")
            return False
        if isinstance(form, Const):
            if node.is_atomic() and node.value == form.value and type(node.value) is type(form.value):
                return True
            failures.append(f"{path}: expected constant {form.value!r}, got {node.value!r}")
            return False
        if isinstance(form, Sub):
            if not isinstance(node.value, Graph):
                failures.append(f"{path}: expected a subgraph value, got {node.value!r}")
                return False
            sub = node.value
            return self._match(sub, sub.root, form.form, in_progress, done, failures, path + "/↓")
        if isinstance(form, Struct):
            arcs = graph.arcs_from(node)
            if form.closed:
                extra = set(arcs) - set(form.labels())
                if extra:
                    failures.append(f"{path}: unexpected arcs {sorted(extra)}")
                    return False
            if form.value is not None:
                if not self._match(graph, node, form.value, in_progress, done, failures, path + "@"):
                    return False
            for label, sub_form in form.arcs:
                if label not in arcs:
                    failures.append(f"{path}: missing arc {label!r}")
                    return False
                if not self._match(
                    graph, arcs[label], sub_form, in_progress, done, failures, f"{path}.{label}"
                ):
                    return False
            return True
        raise GrammarError(f"unknown form type {type(form).__name__}")


class Generator:
    """Generates member H-graphs of a grammar (for tests and examples).

    Depth-bounded: at ``max_depth`` the generator prefers non-recursive
    alternatives; if none exists it raises :class:`GrammarError`.
    Deterministic given the same ``rng``.
    """

    def __init__(self, grammar: Grammar, rng) -> None:
        grammar.validate()
        self.grammar = grammar
        self.rng = rng

    def generate(self, hg, symbol: Optional[str] = None, max_depth: int = 6):
        """Build a fresh graph in *hg* whose root matches *symbol*.

        Returns the new :class:`~repro.hgraph.graph.Graph`.
        """
        sym = self.grammar.start if symbol is None else symbol
        form = self.grammar.resolve(sym)
        g = hg.new_graph()
        self._fill(hg, g, g.root, form, max_depth)
        return g

    def _fill(self, hg, graph, node, form: Form, depth: int) -> None:
        if depth < -64:
            raise GrammarError(
                "generation depth exhausted: grammar has no terminating alternative"
            )
        if isinstance(form, Ref):
            self._fill(hg, graph, node, self.grammar.resolve(form.symbol), depth - 1)
            return
        if isinstance(form, Alt):
            forms = list(form.forms)
            if depth <= 0:
                # prefer alternatives without recursion to terminate
                leaves = [f for f in forms if not _recursive(f)]
                if not leaves:
                    raise GrammarError("cannot terminate generation: all alternatives recurse")
                forms = leaves
            self._fill(hg, graph, node, forms[self.rng.randrange(len(forms))], depth)
            return
        if isinstance(form, AtomKind):
            node.set_value(self._atom(form.kind))
            return
        if isinstance(form, Const):
            node.set_value(form.value)
            return
        if isinstance(form, Sub):
            sub = hg.new_graph()
            self._fill(hg, sub, sub.root, form.form, depth - 1)
            node.set_value(sub)
            return
        if isinstance(form, Struct):
            if form.value is not None:
                self._fill(hg, graph, node, form.value, depth)
            for label, sub_form in form.arcs:
                child = hg.new_node()
                graph.add_arc(node, label, child)
                self._fill(hg, graph, child, sub_form, depth - 1)
            return
        raise GrammarError(f"unknown form type {type(form).__name__}")

    def _atom(self, kind: str):
        from .atoms import Symbol

        r = self.rng
        if kind in ("int", "number", "any"):
            return r.randrange(-1000, 1000)
        if kind == "float":
            return r.random() * 100.0
        if kind == "str":
            return "s" + str(r.randrange(1000))
        if kind == "bool":
            return bool(r.randrange(2))
        if kind == "null":
            return None
        if kind == "symbol":
            return Symbol("sym" + str(r.randrange(10)))
        raise GrammarError(f"cannot generate atom of kind {kind!r}")


def _recursive(form: Form) -> bool:
    """True if *form* contains a nonterminal reference (may recurse)."""
    if isinstance(form, Ref):
        return True
    if isinstance(form, Alt):
        return any(_recursive(f) for f in form.forms)
    if isinstance(form, Struct):
        if form.value is not None and _recursive(form.value):
            return True
        return any(_recursive(f) for _, f in form.arcs)
    if isinstance(form, Sub):
        return _recursive(form.form)
    return False

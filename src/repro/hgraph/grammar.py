"""H-graph grammars: BNF-style definitions of classes of H-graphs.

The paper: "Data types are modeled using formal 'H-graph grammars', a
type of BNF grammar in which the 'language' defined is a set of H-graphs
representing a class of data objects."

A grammar maps *symbols* (nonterminals) to *forms*.  A form is matched
against a pair ``(graph, node)`` — a node viewed inside one graph of the
hierarchy:

``AtomKind(kind)``
    the node's value is an atom of the given kind (``"any"`` accepts
    every atom, including graph-valued nodes' atoms — but not graphs).
``Const(value)``
    the node's value equals a specific atom.
``Struct(arcs, closed=True, value=None)``
    the node's outgoing arcs *in the current graph* carry at least the
    given labels, each target matching its sub-form; ``closed`` forbids
    extra labels; ``value``, if given, constrains the node's own value.
``Sub(form)``
    the node's value is a (sub)graph whose root matches *form* — this is
    the hierarchy-descent step that makes the grammar an H-graph grammar.
``Alt(*forms)``
    ordered alternatives.
``Ref(symbol)``
    a nonterminal reference.

Recursive productions describe both recursive and *cyclic* data: the
matcher (see :mod:`repro.hgraph.matcher`) computes the greatest fixed
point, so a circular list is a member of the usual list grammar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..errors import GrammarError
from .atoms import atom_kind, is_atom

_KINDS = {"int", "float", "str", "bool", "null", "symbol", "number", "any"}


class Form:
    """Base class of grammar forms.  Forms are immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class AtomKind(Form):
    """Matches a node whose value is an atom of *kind*.

    ``"number"`` accepts int or float; ``"any"`` accepts any atom.
    """

    kind: str = "any"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise GrammarError(f"unknown atom kind {self.kind!r}; one of {sorted(_KINDS)}")

    def accepts(self, value: Any) -> bool:
        if not is_atom(value):
            return False
        if self.kind == "any":
            return True
        k = atom_kind(value)
        if self.kind == "number":
            return k in ("int", "float")
        return k == self.kind


@dataclass(frozen=True)
class Const(Form):
    """Matches a node whose value equals *value* (an atom)."""

    value: Any

    def __post_init__(self) -> None:
        if not is_atom(self.value):
            raise GrammarError("Const form requires an atomic value")


@dataclass(frozen=True)
class Struct(Form):
    """Matches a node by the labelled arcs leaving it in the current graph."""

    arcs: Tuple[Tuple[str, Form], ...]
    closed: bool = True
    value: Optional[Form] = None

    def __init__(
        self,
        arcs: Any = (),
        closed: bool = True,
        value: Optional[Form] = None,
    ) -> None:
        if isinstance(arcs, dict):
            arcs = tuple(sorted(arcs.items()))
        else:
            arcs = tuple(arcs)
        for item in arcs:
            if not (isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], Form)):
                raise GrammarError(f"Struct arc must be (label, Form), got {item!r}")
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "closed", closed)
        object.__setattr__(self, "value", value)

    def labels(self) -> Tuple[str, ...]:
        return tuple(label for label, _ in self.arcs)


@dataclass(frozen=True)
class Sub(Form):
    """Matches a node whose value is a graph; *form* applies to its root."""

    form: Form

    def __post_init__(self) -> None:
        if not isinstance(self.form, Form):
            raise GrammarError("Sub requires a Form")


@dataclass(frozen=True)
class Alt(Form):
    """Ordered alternatives; matches if any alternative matches."""

    forms: Tuple[Form, ...]

    def __init__(self, *forms: Form) -> None:
        flat = []
        for f in forms:
            if not isinstance(f, Form):
                raise GrammarError("Alt requires Forms")
            flat.append(f)
        if len(flat) < 2:
            raise GrammarError("Alt needs at least two alternatives")
        object.__setattr__(self, "forms", tuple(flat))


@dataclass(frozen=True)
class Ref(Form):
    """A nonterminal reference to another grammar symbol."""

    symbol: str


@dataclass
class Grammar:
    """A named set of productions ``symbol -> form`` with a start symbol.

    Validation checks that every :class:`Ref` resolves and the start
    symbol exists.  Grammars are the formal type definitions attached to
    the FEM-2 virtual-machine specifications (``repro.core.specs``).
    """

    name: str
    rules: Dict[str, Form] = field(default_factory=dict)
    start: Optional[str] = None

    def define(self, symbol: str, form: Form) -> "Grammar":
        """Add a production; the first defined symbol becomes the start."""
        if not isinstance(form, Form):
            raise GrammarError(f"production for {symbol!r} is not a Form")
        if symbol in self.rules:
            raise GrammarError(f"duplicate production for {symbol!r}")
        self.rules[symbol] = form
        if self.start is None:
            self.start = symbol
        return self

    def resolve(self, symbol: str) -> Form:
        try:
            return self.rules[symbol]
        except KeyError:
            raise GrammarError(f"grammar {self.name!r} has no symbol {symbol!r}") from None

    def validate(self) -> None:
        """Raise :class:`GrammarError` on dangling references or no start."""
        if self.start is None or self.start not in self.rules:
            raise GrammarError(f"grammar {self.name!r} has no valid start symbol")
        for symbol, form in self.rules.items():
            for ref in _refs(form):
                if ref not in self.rules:
                    raise GrammarError(
                        f"grammar {self.name!r}: {symbol!r} references undefined {ref!r}"
                    )


def _refs(form: Form):
    """Yield every Ref symbol appearing inside *form*."""
    if isinstance(form, Ref):
        yield form.symbol
    elif isinstance(form, Alt):
        for f in form.forms:
            yield from _refs(f)
    elif isinstance(form, Struct):
        if form.value is not None:
            yield from _refs(form.value)
        for _, f in form.arcs:
            yield from _refs(f)
    elif isinstance(form, Sub):
        yield from _refs(form.form)


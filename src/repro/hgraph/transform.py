"""H-graph transforms: operations on H-graph data objects.

The paper: "Operations (procedures) on the data objects are modeled as
'H-graph transforms', which are functions defining transformations on
the H-graph models of data objects.  H-graph transforms may invoke each
other in the usual manner of subprogram calling hierarchies."

A :class:`Transform` wraps a Python function ``fn(ctx, hg, *args)``;
``ctx`` is the interpreter's call context (see
:mod:`repro.hgraph.interpreter`), through which the transform may invoke
other transforms.  Transforms may declare pre- and post-conditions as
grammar memberships, which the interpreter checks on every call — this
is what "formally specified" buys the design process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from ..errors import TransformError
from .grammar import Grammar
from .graph import Graph


@dataclass(frozen=True)
class Condition:
    """A grammar-membership condition on an argument or the result.

    ``subject`` is an argument index (0-based) or the string ``"result"``.
    The subject must be a :class:`~repro.hgraph.graph.Graph`; membership
    is checked at its root against ``symbol`` (grammar start if None).
    """

    subject: Any
    grammar: Grammar
    symbol: Optional[str] = None


@dataclass
class Transform:
    """A named H-graph transform with optional formal conditions."""

    name: str
    fn: Callable[..., Any]
    pre: List[Condition] = field(default_factory=list)
    post: List[Condition] = field(default_factory=list)
    doc: str = ""

    def __post_init__(self) -> None:
        if not callable(self.fn):
            raise TransformError(f"transform {self.name!r}: fn is not callable")

    def require(self, subject: Any, grammar: Grammar, symbol: Optional[str] = None) -> "Transform":
        """Add a pre-condition; returns self for chaining."""
        self.pre.append(Condition(subject, grammar, symbol))
        return self

    def ensure(self, grammar: Grammar, symbol: Optional[str] = None) -> "Transform":
        """Add a post-condition on the result; returns self for chaining."""
        self.post.append(Condition("result", grammar, symbol))
        return self


def check_condition(cond: Condition, value: Any) -> None:
    """Raise :class:`TransformError` if *value* violates *cond*."""
    from .matcher import Matcher

    where = "result" if cond.subject == "result" else f"arg[{cond.subject}]"
    what = f"{where} in {cond.grammar.name}.{cond.symbol or cond.grammar.start}"
    if not isinstance(value, Graph):
        raise TransformError(
            f"condition {what}: subject is not a Graph "
            f"(got {type(value).__name__})"
        )
    report = Matcher(cond.grammar).check(value, symbol=cond.symbol)
    if not report.ok:
        detail = "; ".join(report.failures[:3])
        raise TransformError(f"condition {what} violated: {detail}")

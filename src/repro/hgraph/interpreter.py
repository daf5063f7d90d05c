"""The H-graph transform interpreter.

Runs a set of :class:`~repro.hgraph.transform.Transform` definitions as
a program: transforms invoke each other through the call context, which
maintains the calling hierarchy, checks every declared pre- and
post-condition on every call, and counts calls and checks.  The FEM-2
design uses the formal definitions "as the basis for simulations", so
the counters here feed the design-method benchmark (E10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..errors import TransformError
from .graph import HGraph
from .transform import Transform, check_condition

#: the deepest transform call chain a specification may build: a safety
#: bound that catches runaway recursion, not a setting
MAX_DEPTH = 200


@dataclass
class InterpreterStats:
    calls: int = 0
    max_depth: int = 0
    condition_checks: int = 0


class CallContext:
    """Passed to every transform as its first argument.

    Provides :meth:`call` for invoking other transforms by name and
    access to the interpreter's H-graph.
    """

    def __init__(self, interp: "Interpreter", hg: HGraph) -> None:
        self._interp = interp
        self.hg = hg

    def call(self, name: str, *args: Any) -> Any:
        """Invoke transform *name* with *args* (subprogram call)."""
        return self._interp._invoke(name, self.hg, args)


class Interpreter:
    """Executes transforms over one H-graph, checking every declared
    pre/post-condition on every call — the formal-specification mode."""

    def __init__(self) -> None:
        self._transforms: Dict[str, Transform] = {}
        self.stats = InterpreterStats()
        self._depth = 0

    # -- registry ----------------------------------------------------------

    def register(self, t: Transform) -> "Interpreter":
        if t.name in self._transforms:
            raise TransformError(f"transform {t.name!r} already registered")
        self._transforms[t.name] = t
        return self

    def get(self, name: str) -> Transform:
        try:
            return self._transforms[name]
        except KeyError:
            raise TransformError(f"unknown transform {name!r}") from None

    # -- execution -----------------------------------------------------------

    def run(self, name: str, hg: HGraph, *args: Any) -> Any:
        """Top-level invocation of transform *name* on H-graph *hg*."""
        self._depth = 0
        return self._invoke(name, hg, args)

    def _invoke(self, name: str, hg: HGraph, args: Tuple[Any, ...]) -> Any:
        t = self.get(name)
        self._depth += 1
        self.stats.calls += 1
        self.stats.max_depth = max(self.stats.max_depth, self._depth)
        if self._depth > MAX_DEPTH:
            self._depth -= 1
            raise TransformError(
                f"call depth exceeded {MAX_DEPTH} invoking {name!r}"
            )
        try:
            for cond in t.pre:
                if cond.subject == "result":
                    raise TransformError(
                        f"transform {name!r}: pre-condition on 'result'"
                    )
                idx = cond.subject
                if not isinstance(idx, int) or idx >= len(args):
                    raise TransformError(
                        f"transform {name!r}: pre-condition subject {idx!r} "
                        f"out of range for {len(args)} args"
                    )
                self.stats.condition_checks += 1
                check_condition(cond, args[idx])
            result = t.fn(CallContext(self, hg), hg, *args)
            for cond in t.post:
                self.stats.condition_checks += 1
                check_condition(cond, result)
            return result
        finally:
            self._depth -= 1

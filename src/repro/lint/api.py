"""A3 — public-API drift: every ``__all__`` name must resolve.

A name exported in ``__all__`` that the module never binds fails only
at ``from pkg import *`` time (or in a consumer that trusts the list) —
long after the refactor that broke it.  This check is fully static: it
parses each ``__init__.py``, collects every top-level binding (imports,
assignments, defs, classes), and flags ``__all__`` entries that do not
resolve.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from .findings import Finding


def _all_names(tree: ast.Module) -> Optional[List[ast.Constant]]:
    """The string constants of a top-level ``__all__`` list, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    if isinstance(node.value, (ast.List, ast.Tuple)):
                        return [
                            e for e in node.value.elts
                            if isinstance(e, ast.Constant)
                            and isinstance(e.value, str)
                        ]
    return None


def _bound_names(tree: ast.Module) -> Optional[Set[str]]:
    """Names bound at module top level; None when a ``*`` import makes
    the binding set statically unknowable."""
    bound: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    return None
                bound.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    bound.update(e.id for e in target.elts
                                 if isinstance(e, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
    return bound


def check_public_api(tree: ast.Module, file: str) -> List[Finding]:
    """A3 findings for one ``__init__.py`` AST."""
    exported = _all_names(tree)
    if not exported:
        return []
    bound = _bound_names(tree)
    if bound is None:
        return []
    bound = bound | {"__version__", "__doc__", "__name__", "__all__"}
    findings: List[Finding] = []
    for const in exported:
        if const.value not in bound:
            findings.append(Finding(
                "A3",
                f"__all__ exports {const.value!r} but the module never "
                f"binds it — the public API has drifted from the code",
                file, const.lineno,
            ))
    return findings


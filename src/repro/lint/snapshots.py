"""S1 — snapshot/restore completeness (the ``repro.ckpt`` contract).

A class that participates in checkpointing (defines ``snapshot()``)
must also define ``restore()``, and between the two methods every
explicitly declared field — ``__slots__`` entries and dataclass
fields — must be mentioned, either as a ``self.<field>`` access or as
a ``"<field>"`` string key.  Fields that are deliberately rebuilt
rather than serialized (coroutines, hardware back-references) are
declared in a class-body ``_snapshot_exempt`` tuple; see
:class:`repro.sysvm.scheduler.TCB` for the live exemplar.  What a
snapshot may *contain* is enforced at run time instead, by the
checkpoint codec's vocabulary (:data:`repro.ckpt.codec.VOCABULARY`).
"""

from __future__ import annotations

import ast
from typing import List, Set

from .findings import Finding

#: name of the class-body tuple listing fields excluded from the rule
EXEMPT_ATTR = "_snapshot_exempt"


def _string_elts(node: ast.AST) -> Set[str]:
    """String constants of a tuple/list literal (else empty)."""
    out: Set[str] = set()
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out.add(elt.value)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        out.add(node.value)  # __slots__ = "single"
    return out


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def declared_fields(cls: ast.ClassDef) -> Set[str]:
    """Explicitly declared per-instance state: ``__slots__`` strings
    plus (for dataclasses) annotated class-body fields."""
    fields: Set[str] = set()
    dataclass = _is_dataclass(cls)
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name) and tgt.id == "__slots__":
                    fields |= _string_elts(stmt.value)
        elif dataclass and isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name):
                ann = ast.dump(stmt.annotation)
                if "ClassVar" not in ann:
                    fields.add(stmt.target.id)
    return fields


def exempt_fields(cls: ast.ClassDef) -> Set[str]:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name) and tgt.id == EXEMPT_ATTR:
                    return _string_elts(stmt.value)
    return set()


def _mentions(func: ast.AST) -> Set[str]:
    """Names a method body touches: ``self.X`` attributes and string
    constants (dict keys like ``state["X"]`` count as coverage)."""
    out: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def check_snapshots(tree: ast.AST, filename: str) -> List[Finding]:
    """S1 findings for one module: every ``snapshot()`` class must
    define ``restore()`` and together they must cover every declared
    field not listed in ``_snapshot_exempt``."""
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {
            m.name: m for m in node.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        snap = methods.get("snapshot")
        if snap is None:
            continue
        restore = methods.get("restore")
        if restore is None:
            findings.append(Finding(
                "S1",
                f"class {node.name!r} defines snapshot() but no restore() — "
                f"a checkpoint that cannot be restored is dead state",
                filename, node.lineno,
            ))
        covered = _mentions(snap)
        if restore is not None:
            covered |= _mentions(restore)
        missing = declared_fields(node) - exempt_fields(node) - covered
        for name in sorted(missing):
            findings.append(Finding(
                "S1",
                f"field {name!r} of {node.name!r} is not covered by "
                f"snapshot()/restore(); serialize it or list it in "
                f"{EXEMPT_ATTR}",
                filename, snap.lineno,
            ))
    return findings

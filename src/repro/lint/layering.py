"""A1 — the layer structure of the paper must hold in the code.

This module is the single source of truth for the import-discipline
rules: the :data:`ALLOWED` dependency map, the :func:`repro_imports`
AST walker, and the :func:`layering_violations` checker.
``tests/test_layering.py`` is a thin wrapper over these, and
``python -m repro.lint`` enforces the same rules at submit time.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, List, Set, Tuple

from .findings import Finding

#: allowed dependencies between subpackages (besides self and errors).
#: obs is the observability spine: it sits below every VM layer — it may
#: import nothing above hardware (today: nothing at all); any layer may
#: import it.  lint sits beside obs: it reads source, not the stack, so
#: it may import only obs (for record export); the application VM uses
#: it to gate submissions.
ALLOWED: Dict[str, Set[str]] = {
    "errors": set(),
    "hgraph": set(),
    "obs": set(),
    "lint": {"obs"},
    "hardware": {"obs"},
    "sysvm": {"hardware", "obs"},
    "langvm": {"sysvm", "hardware", "obs", "compile"},
    "fem": {"langvm", "sysvm", "hardware", "obs"},
    "appvm": {"fem", "langvm", "sysvm", "hardware", "obs", "lint", "ckpt"},
    # compile is pure plan analysis over lint's flow facts; langvm
    # reaches it from Fem2Program.compile_plan()
    "compile": {"lint"},
    "core": {"hgraph"},
    "ckpt": set(),
    "analysis": {"fem", "hardware", "sysvm", "obs"},
    "bench": {"appvm", "fem", "langvm", "hardware", "sysvm", "obs"},
    # campaign is the design-space sweep layer: it fans whole services
    # out across OS processes, so it sits at the very top — above the
    # application VM and the bench harness it aggregates records from
    "campaign": {"appvm", "bench", "ckpt", "fem", "hardware", "obs"},
}


def repro_imports(path: pathlib.Path, src: pathlib.Path) -> Set[str]:
    """Subpackage names of repro imported by a module file."""
    tree = ast.parse(path.read_text())
    found: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module and node.module.startswith("repro."):
                found.add(node.module.split(".")[1])
            elif node.level >= 1:
                # relative import: resolve against the file's package,
                # whose first component is ``repro`` itself
                package = ("repro", *path.relative_to(src).parts[:-1])
                if node.level <= len(package):
                    base = package[:len(package) - (node.level - 1)]
                    if node.module:
                        targets = [(*base, *node.module.split("."))]
                    else:  # ``from .. import x``: each name is a module
                        targets = [(*base, a.name) for a in node.names]
                    found.update(t[1] for t in targets if len(t) > 1)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro."):
                    found.add(alias.name.split(".")[1])
    return found


def package_files(src: pathlib.Path, package: str) -> List[pathlib.Path]:
    pkg_dir = src / package
    if pkg_dir.is_dir():
        return sorted(pkg_dir.rglob("*.py"))
    single = src / f"{package}.py"
    return [single] if single.exists() else []


def layering_violations(src: pathlib.Path) \
        -> List[Tuple[str, str, List[str]]]:
    """(package, file, forbidden-imports) triples; empty when clean."""
    out: List[Tuple[str, str, List[str]]] = []
    for package in sorted(ALLOWED):
        allowed = ALLOWED[package] | {package, "errors"}
        for f in package_files(src, package):
            bad = repro_imports(f, src) - allowed
            if bad:
                out.append((package, str(f.relative_to(src)), sorted(bad)))
    return out


def subpackages_on_disk(src: pathlib.Path) -> Set[str]:
    return {
        p.name for p in src.iterdir()
        if p.is_dir() and (p / "__init__.py").exists()
    }


def check_layering(src: pathlib.Path) -> List[Finding]:
    """A1 findings for one ``src/repro`` tree: forbidden imports plus
    subpackages missing from the rule table (uncovered layers)."""
    findings: List[Finding] = []
    for package, rel, bad in layering_violations(src):
        findings.append(Finding(
            "A1",
            f"package {package!r} may import "
            f"{sorted(ALLOWED[package]) or 'nothing'} but imports "
            f"{bad} — lower layers must not see higher ones",
            str(src / rel), 1,
        ))
    uncovered = subpackages_on_disk(src) - set(ALLOWED)
    for package in sorted(uncovered):
        findings.append(Finding(
            "A1",
            f"subpackage {package!r} has no entry in the layering rule "
            f"table (repro.lint.layering.ALLOWED) — every layer must "
            f"declare its dependencies",
            str(src / package / "__init__.py"), 1,
        ))
    return findings

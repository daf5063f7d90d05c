"""No module under ``src/repro`` imports a name it never uses.

``repro.lint`` checks the analyst VM's task bodies, not the package's
own hygiene, so an unused module-level import used to survive every
gate.  This AST scan fails on a new one.  Three kinds of import do not
count, because they are how a name is handed on rather than used:

* every import in an ``__init__.py`` (the package's re-exports);
* a name listed in the module's ``__all__``;
* a name that another module imports *from* this one (``from .a import
  n`` keeps ``n`` alive in ``a``), searched over ``src``, ``tests``,
  ``benchmarks`` and ``examples``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"


def module_name(path):
    rel = path.relative_to(SRC).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imported_from(tree, importer):
    """``(module, name)`` for every ``from module import name`` in
    *tree*; relative modules are resolved against *importer*."""
    package = importer.split(".")
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            base = package[:len(package) - node.level]
            module = ".".join(base + ([node.module] if node.module else []))
        else:
            module = node.module or ""
        for alias in node.names:
            yield module, alias.name


def module_imports(tree):
    """``(bound name, line)`` for each import at module level,
    including those under a top-level ``if`` / ``try``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body + node.orelse
                         + getattr(node, "finalbody", [])
                         + [s for h in getattr(node, "handlers", [])
                            for s in h.body])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Every name the module reads, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def dunder_all(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports():
    trees = {}
    for path in PACKAGE.rglob("*.py"):
        trees[path] = ast.parse(path.read_text(), str(path))
    reexported = set()
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in (ROOT / top).rglob("*.py"):
            tree = trees.get(path) or ast.parse(path.read_text(), str(path))
            importer = (module_name(path) if path.is_relative_to(SRC)
                        else path.stem)
            if path.name == "__init__.py":
                importer += ".__init__"
            reexported.update(imported_from(tree, importer))
    found = []
    for path, tree in sorted(trees.items()):
        if path.name == "__init__.py":
            continue
        module = module_name(path)
        keep = used_names(tree) | dunder_all(tree)
        for name, line in module_imports(tree):
            if name not in keep and (module, name) not in reexported:
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    return sorted(found)


def test_no_unused_module_level_imports():
    assert unused_imports() == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import List, Dict\nx: 'Dict' = 1\n")
    bound = {name for name, _ in module_imports(tree)}
    assert bound - used_names(tree) == {"os", "List"}

"""Import-discipline test: the layer structure of the paper must hold in
the code.  Lower layers must not import higher layers.

The rule table and the AST walker live in :mod:`repro.lint.layering`
(the single source of truth, also enforced by ``python -m repro.lint``);
this test is a thin wrapper that runs them under pytest.
"""

import pathlib

import pytest

from repro.lint.layering import (
    ALLOWED,
    check_layering,
    package_files,
    repro_imports,
    subpackages_on_disk,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.mark.parametrize("package", sorted(ALLOWED))
def test_layer_imports_respect_hierarchy(package):
    allowed = ALLOWED[package] | {package, "errors"}
    violations = []
    for f in package_files(SRC, package):
        bad = repro_imports(f, SRC) - allowed
        if bad:
            violations.append((str(f.relative_to(SRC)), sorted(bad)))
    assert not violations, f"{package} imports forbidden layers: {violations}"


def test_every_subpackage_covered():
    assert subpackages_on_disk(SRC) == set(ALLOWED) - {"errors"}


def test_check_layering_clean_on_repo():
    assert check_layering(SRC) == []


def _seeded_tree(tmp_path, rel, source):
    """A minimal ``repro`` tree: every layer's package plus one file."""
    root = tmp_path / "repro"
    for package in ALLOWED:
        if package != "errors":
            (root / package).mkdir(parents=True)
            (root / package / "__init__.py").write_text("")
    (root / rel).write_text(source)
    return root


@pytest.mark.parametrize("source", [
    "from ..appvm import JobSpec\n",
    "from .. import appvm\n",
    "from repro.appvm import JobSpec\n",
], ids=["relative", "relative-module", "absolute"])
def test_upward_import_is_flagged_in_every_spelling(tmp_path, source):
    """A relative import resolves against ``repro`` itself, so the
    hardware layer cannot reach the application VM by writing ``..``."""
    root = _seeded_tree(tmp_path, "hardware/x.py", source)
    assert repro_imports(root / "hardware" / "x.py", root) == {"appvm"}
    findings = check_layering(root)
    assert [(f.code, f.file) for f in findings] == \
        [("A1", str(root / "hardware" / "x.py"))]
    assert "'appvm'" in findings[0].message


def test_relative_imports_resolve_to_their_layer():
    # ``from ..errors``, ``from ..hardware.machine``, ``from .scheduler...``
    assert repro_imports(SRC / "appvm" / "service.py", SRC) == \
        {"errors", "hardware", "appvm"}

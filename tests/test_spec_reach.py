"""Every artifact of the FEM-2 spec stack is code an entry point runs.

:func:`repro.core.fem2_stack` links each paper construct to the
artifact that implements it (``artifact=``).  This test joins those
links with the committed use ledger, ``benchmarks/results/reach.json``
(``benchmarks/reach.py`` writes it; CI's ``reach`` job keeps it
current): a construct whose artifact no paper entry point reaches — the
experiment suite (``run_all``) or an example — fails here instead of
being listed as a finding.  Functional decomposition in the sense of
Diertens' FBS refinement: a structure no function uses is not part of
the design.
"""

import importlib
import inspect
import json
import pathlib

import pytest

from repro.core import fem2_stack

ROOT = pathlib.Path(__file__).resolve().parent.parent
LEDGER = json.loads((ROOT / "benchmarks" / "results" / "reach.json").read_text())
FUNCTIONS = LEDGER["functions"]

#: artifacts with no function of their own in the ledger: effect and
#: record dataclasses, enums and a constant.  Listed by name so the
#: list cannot grow silently.
NO_FUNCTION = {
    "repro.sysvm.effects.Broadcast",
    "repro.sysvm.effects.CreateArray",
    "repro.sysvm.effects.Initiate",
    "repro.sysvm.effects.RemoteCall",
    "repro.sysvm.activation.ActivationRecord",
    "repro.sysvm.messages.MsgKind",
    "repro.sysvm.scheduler.TaskState",
    "repro.sysvm.storage.WINDOW_DESCRIPTOR_WORDS",
}

#: E11's heading: "forall / pardo / broadcast overhead", plus the remote
#: procedure call located by window data
E11_CONSTRUCTS = (
    "repro.langvm.parallel:forall",
    "repro.langvm.parallel:pardo",
    "repro.langvm.program:TaskContext.broadcast",
    "repro.langvm.program:TaskContext.call",
    "repro.sysvm.runtime:Runtime._do_remote_call",
)


def artifacts():
    return sorted({item.artifact for spec in fem2_stack().layers_top_down()
                   for item in spec.items() if item.artifact})


def resolve(path):
    """The object a dotted ``pkg.mod.attr`` path names."""
    parts = path.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


def ledger_keys(path):
    """Ledger keys of the function an artifact names, or of the methods
    of the class it names."""
    obj = resolve(path)
    if not (inspect.isclass(obj) or inspect.isroutine(obj)):
        return []
    key = f"{obj.__module__}:{obj.__qualname__}"
    if inspect.isroutine(obj):
        return [key] if key in FUNCTIONS else []
    return [k for k in FUNCTIONS if k.startswith(key + ".")]


def paper_entry(entry):
    return entry == "run_all" or entry.startswith("example:")


def test_artifacts_are_resolvable_and_counted():
    found = artifacts()
    assert NO_FUNCTION <= set(found), NO_FUNCTION - set(found)


@pytest.mark.parametrize("path", artifacts())
def test_artifact_is_reached(path):
    keys = ledger_keys(path)
    if path in NO_FUNCTION:
        assert not keys, f"{path} has functions now: drop it from NO_FUNCTION"
        return
    assert keys, f"{path} names no function of the ledger"
    by = {e for k in keys for e in FUNCTIONS[k]["reached_by"]}
    assert any(paper_entry(e) for e in by), \
        f"{path} is reached by no experiment or example ({sorted(by)})"


@pytest.mark.parametrize("key", E11_CONSTRUCTS)
def test_e11_runs_its_constructs(key):
    assert "run_all" in FUNCTIONS[key]["reached_by"]

"""Golden pins for the three full-stack dispatch workloads.

``message_storm`` (same-cycle pile-ups), ``window_pipeline`` (remote
window traffic) and ``fault_recovery`` (restart-mode recovery, which
cancels events) are the only full-stack coverage of those dispatch
paths.  Each is pinned by its result, final clock, events processed,
sha256 of the flat metrics and sha256 of the final ``fem2-ckpt/1`` blob
(a digest of pickled, zlib-compressed bytes: stable for one
python/numpy/zlib, like ``golden_service.json``'s).

The fixture holds one record per engine, written by this commit under
the reference heap and the fast calendar queue; the two must be the
same pins — the last equivalence proof before the calendar queue goes.

To regenerate after an intentional semantic change::

    FEM2_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_workloads.py

then review the fixture diff like any other code change.
"""

import hashlib
import json
import os
import pathlib

import pytest

from repro.ckpt import to_bytes
from repro.hardware.events import CONCRETE_ENGINES, forced_engine
from repro.perf import WORKLOADS

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "golden_workloads.json"
REGEN = bool(os.environ.get("FEM2_REGEN_GOLDEN"))


def pins(build):
    """Everything one workload run shows from outside, digest-sized."""
    program, result = build()
    engine = program.machine.engine
    metrics = json.dumps(dict(program.metrics.flat()), sort_keys=True)
    return {
        "result": result,
        "clock": engine.now,
        "events_processed": engine.events_processed,
        "metrics_sha256": hashlib.sha256(metrics.encode()).hexdigest(),
        "ckpt_sha256": hashlib.sha256(
            to_bytes(program.snapshot())).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_workload(name):
    got = {}
    for engine in CONCRETE_ENGINES:
        with forced_engine(engine):
            got[engine] = pins(WORKLOADS[name])
    assert got["fast"] == got["reference"], f"engines disagree on {name}"
    doc = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    if REGEN:
        doc[name] = got
        FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {name} in {FIXTURE.name}")
    assert name in doc, (
        f"no pins for {name}; run with FEM2_REGEN_GOLDEN=1 to create")
    for engine, want in doc[name].items():
        diffs = [k for k in want if got[engine].get(k) != want[k]]
        assert not diffs and got[engine].keys() == want.keys(), (
            f"workload {name!r} drifted under the {engine} engine "
            f"(changed: {diffs}); if intentional, regenerate with "
            f"FEM2_REGEN_GOLDEN=1 and review the fixture diff")

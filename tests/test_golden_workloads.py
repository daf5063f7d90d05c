"""Golden pins for the three full-stack dispatch workloads.

``message_storm`` (same-cycle pile-ups), ``window_pipeline`` (remote
window traffic) and ``fault_recovery`` (restart-mode recovery, which
cancels events) are the only full-stack coverage of those dispatch
paths.  Each is pinned by its result, final clock, events processed,
sha256 of the flat metrics and sha256 of the final ``fem2-ckpt/1`` blob
(a digest of pickled, zlib-compressed bytes: stable for one
python/numpy/zlib, like ``golden_service.json``'s).

The fixture was recorded at the parent of PR 24, once under the heap
engine ("reference") and once under the calendar queue that PR deleted
("fast"); the two records are equal, and the one engine must reproduce
both.  That file is the last equivalence proof of the deleted queue.

To regenerate after an intentional semantic change::

    FEM2_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_workloads.py

then review the fixture diff like any other code change.
"""

import hashlib
import json
import os
import pathlib

import numpy as np
import pytest

from repro.ckpt import to_bytes
from repro.hardware import FaultInjector, MachineConfig
from repro.langvm import Fem2Program
from repro.langvm.parallel import pardo

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "golden_workloads.json"
REGEN = bool(os.environ.get("FEM2_REGEN_GOLDEN"))


def _config(**overrides):
    base = dict(n_clusters=2, pes_per_cluster=3, memory_words_per_cluster=500_000)
    base.update(overrides)
    return MachineConfig(**base)


def message_storm():
    """Fan out waves of short tasks so kernel decode/dispatch dominates:
    many INITIATE/TERMINATE messages, frequent same-cycle completions."""
    prog = Fem2Program(_config(n_clusters=3), journal=True)

    @prog.task()
    def spark(ctx, index):
        # zero- and near-zero-cycle bursts pile events onto shared cycles
        yield ctx.compute(flops=index % 3)
        return index * 2

    @prog.task()
    def main(ctx):
        total = 0
        for wave in range(3):
            tids = yield ctx.initiate("spark", count=6)
            results = yield ctx.wait(tids)
            total += sum(results.values())
        return total

    result = prog.run("main")
    return prog, result


def window_pipeline():
    """Data-parallel window traffic: remote reads/writes with non-trivial
    payloads, so network latency and bandwidth serialization matter."""
    prog = Fem2Program(_config(), journal=True)

    @prog.task()
    def stage(ctx, win, band):
        data = yield ctx.read(win)
        yield ctx.compute(flops=int(data.size) * 4)
        yield ctx.write(win, data * 0.5 + band)

    @prog.task()
    def main(ctx):
        h = yield ctx.create(np.linspace(0.0, 1.0, 64))
        win = ctx.window(h)
        for _round in range(2):
            # disjoint bands per stage task (no overlapping plain writes)
            yield from pardo(ctx, *(("stage", (part, i)) for i, part
                                    in enumerate(win.split_cols(4))))
        out = yield ctx.read(win)
        return float(out.sum())

    result = prog.run("main")
    return prog, result


def fault_recovery():
    """Restart-mode PE failure mid-run: the lost burst's completion event
    is *cancelled*, covering the engine's skip-on-dispatch path."""
    prog = Fem2Program(_config(pes_per_cluster=4), journal=True)

    @prog.task()
    def grind(ctx, index):
        yield ctx.compute(flops=400 + 40 * index)
        return index

    @prog.task()
    def main(ctx):
        tids = yield ctx.initiate("grind", count=5)
        results = yield ctx.wait(tids)
        return sorted(results.values())

    injector = FaultInjector(prog.machine, runtime=prog.runtime, recovery="restart")
    injector.schedule_pe_failure(at=120, cluster_id=0, pe_index=1)
    result = prog.run("main")
    return prog, result


WORKLOADS = {
    "message_storm": message_storm,
    "window_pipeline": window_pipeline,
    "fault_recovery": fault_recovery,
}


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
    got = pins(WORKLOADS[name])
    doc = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    if REGEN:
        doc[name] = {"reference": got}
        FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {name} in {FIXTURE.name}")
    assert name in doc, (
        f"no pins for {name}; run with FEM2_REGEN_GOLDEN=1 to create")
    for recorded_under, want in doc[name].items():
        diffs = [k for k in want if got.get(k) != want[k]]
        assert not diffs and got.keys() == want.keys(), (
            f"workload {name!r} drifted from the pins recorded under the "
            f"{recorded_under} engine (changed: {diffs}); if intentional, "
            f"regenerate with FEM2_REGEN_GOLDEN=1 and review the fixture diff")

"""Smoke test of the host benchmark: ``python -m pytest benchmarks/host -q``.

Not collected by the tier-1 suite (``testpaths = ["tests"]``).  Runs the
measuring code in process at a fraction of a second per workload — the
numbers mean nothing at that size, the plumbing is what is checked.
"""

import json
import math
import time

import pytest

import measure
from measure import ROOT
from workloads import BY_NAME, Verdict

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in MANIFEST["workloads"]]


def test_manifest_names_the_workloads():
    assert NAMES == list(BY_NAME)
    assert "setup_s" in {m["name"] for m in MANIFEST["end_to_end"]}


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics(name):
    got = measure.role_measure(name, 7, 0.2, time.perf_counter_ns())
    assert got["correct"] and got["failed"] == 0 and got["ops"] > 0
    assert got["exact"]["failed_frac"] == 0
    values = dict(got["metrics"], setup_s=got["setup_s"])
    for metric in MANIFEST["end_to_end"]:
        assert math.isfinite(values[metric["name"]]), metric["name"]
        assert values[metric["name"]] > 0, metric["name"]
    # whole rounds only
    assert got["batches"] % BY_NAME[name].round_size == 0


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_metrics(name):
    got = measure.role_trace(name, 7, 0.2)
    assert got["correct"], got["problems"]
    values = got["metrics"]
    for metric in MANIFEST["per_layer"]:
        assert math.isfinite(values[metric["name"]]), metric["name"]
    shares = sum(values[f"{layer}.share"] for layer in measure.LAYERS)
    assert abs(shares - 1.0) <= measure.ROLLUP_TOLERANCE
    assert values["hardware.events"] > 0
    assert values["bench.failed_frac"] == 0


def test_a_wrong_displacement_is_a_failed_op():
    workload = BY_NAME["solve_large"](7)
    records = [workload.run(workload.prepare(i)) for i in range(2)]
    clean = Verdict()
    workload.verify(records, clean)
    assert (clean.attempted, clean.failed) == (2, 0)
    _, info = records[1]
    info.u[len(info.u) // 2] *= 1.001
    spoiled = Verdict()
    workload.verify(records, spoiled)
    assert (spoiled.attempted, spoiled.failed) == (2, 1)

#!/usr/bin/env python3
"""Host-time benchmark of the FEM-2 simulator: one workload per run.

    python3 benchmarks/host/run.py --workload solve_large
    python3 benchmarks/host/run.py --workload gate_cold --trace 1
    python3 benchmarks/host/run.py --workload all --out records.json
    python3 benchmarks/host/run.py --workload preempt_churn --check

``--trace 0`` (default) prints the end-to-end metrics of ``BENCHMARK.json``,
measured for ``--seconds`` with every observer off; ``--trace 1`` prints
the per-layer metrics of a fixed number of rounds.  Each measurement
runs in a fresh interpreter (``measure.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Exit status is 0 unless the run could not be made, an
operation failed, or ``--check`` found a difference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCHEMA = "fem2-hostbench/1"
DEFAULT_SEED = 1983
#: set-ups timed per run (the measuring process and fresh ones beside it)
SETUPS = 3
EXPECTED = HERE / "expected_sim.json"


def fail(message: str, status: int = 2):
    print(f"hostbench: {message}", file=sys.stderr)
    sys.exit(status)


def load_manifest() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def child(role, workload, seed, seconds) -> dict:
    """Run ``measure.py`` in a fresh interpreter and return its JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, str(HERE / "measure.py"), role, workload,
            str(seed), repr(seconds), str(time.perf_counter_ns())]
    done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    if done.returncode != 0:
        fail(f"{role} process for {workload} exited {done.returncode}", 1)
    return json.loads(done.stdout.splitlines()[-1])


def fingerprint(seed, seconds) -> dict:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip() or "unknown"
    except OSError:
        head = "unknown"
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "platform": platform.platform(),
            "cpu_count": os.cpu_count(), "git_head": head, "seed": seed,
            "seconds": seconds}


def measure(workload, seed, seconds, manifest) -> dict:
    """``--trace 0``: the end-to-end metrics."""
    setups = [child("setup", workload, seed, seconds)["setup_s"]
              for _ in range(SETUPS - 1)]
    got = child("measure", workload, seed, seconds)
    setups.append(got.pop("setup_s"))
    got["metrics"]["setup_s"] = statistics.median(setups)
    got["setup_samples"] = setups
    return finish(got, manifest["end_to_end"], workload, seed, seconds,
                  manifest, trace=0)


def trace(workload, seed, seconds, manifest) -> dict:
    """``--trace 1``: the per-layer metrics."""
    got = child("trace", workload, seed, seconds)
    for problem in got["problems"]:
        print(f"hostbench: {workload}: {problem}", file=sys.stderr)
    return finish(got, manifest["per_layer"], workload, seed, seconds,
                  manifest, trace=1)


def finish(got, declared, workload, seed, seconds, manifest, trace) -> dict:
    """Attach the declared units, print the table, build the record."""
    values = got["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail(f"{workload}: metrics declared in BENCHMARK.json but not "
             f"measured: {missing}", 1)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(f"# {workload}  seed={seed}  seconds={seconds}  trace={trace}  "
          f"batches={got['batches']}  ops={got['ops']}  "
          f"failed={got['failed']}/{got['attempted']}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    return {
        "schema": SCHEMA,
        "workload": workload,
        "trace": trace,
        # only runs of the benchmark's own length compare with each other
        "comparable": seconds == manifest["run_seconds"],
        "host": fingerprint(seed, seconds),
        **got,
        "metrics": metrics,
    }


def check(record, seed, seconds, manifest, rebase) -> bool:
    """Compare a traced run's exact numbers with ``expected_sim.json``.

    The file holds the default seed at the benchmark's own run length,
    recorded under one python/numpy/scipy; for anything else the traced
    run's own two passes agreeing exactly (part of ``correct``) is the
    check."""
    workload, exact = record["workload"], record["exact"]
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    versions = {k: record["host"][k] for k in ("python", "numpy", "scipy")}
    pinned = seed == DEFAULT_SEED and seconds == manifest["run_seconds"]
    if rebase:
        if not pinned:
            fail("--rebase needs the default seed and run length")
        expected["host"] = versions
        expected[workload] = exact
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                            + "\n")
        return record["correct"]
    if not pinned or expected.get("host") != versions:
        print(f"# check {workload}: no pinned numbers for this seed, run "
              "length or python/numpy/scipy; two passes "
              + ("agree" if record["correct"] else "DISAGREE"))
        return record["correct"]
    want = expected.get(workload, {})
    diffs = [f"{k}: expected {want.get(k)!r}, got {exact.get(k)!r}"
             for k in sorted(set(want) | set(exact))
             if want.get(k) != exact.get(k)]
    for line in diffs:
        print(f"# check {workload}: {line}")
    print(f"# check {workload}: {len(want)} exact numbers, "
          f"{len(diffs)} differ")
    return record["correct"] and not diffs


def main(argv=None) -> int:
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=manifest["run_seconds"],
                        help="length of the timed phase; records of any "
                             "other length than BENCHMARK.json's are "
                             "stamped non-comparable")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="traced run; fail unless every exact number "
                             "matches expected_sim.json")
    parser.add_argument("--rebase", action="store_true",
                        help="with --check: rewrite expected_sim.json")
    parser.add_argument("--out", type=Path,
                        help="write the fem2-hostbench/1 record(s) here")
    args = parser.parse_args(argv)

    if os.environ.get("FEM2_ENGINE"):
        fail("FEM2_ENGINE is set; the benchmark measures the default "
             "engine choice of each entry point — unset it")
    if not (ROOT / "src" / "repro").is_dir():
        fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")

    records, ok = [], True
    for workload in (names if args.workload == "all" else [args.workload]):
        if args.check or args.trace:
            record = trace(workload, args.seed, args.seconds, manifest)
        else:
            record = measure(workload, args.seed, args.seconds, manifest)
        ok &= record["correct"]
        if args.check:
            ok &= check(record, args.seed, args.seconds, manifest,
                        args.rebase)
        records.append(record)
        print(json.dumps({k: record[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
    if args.out:
        args.out.write_text(json.dumps(
            records if len(records) > 1 else records[0]) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

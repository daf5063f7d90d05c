#!/usr/bin/env python
"""Run the benchmark suite through the harness and write ``BENCH_*.json``.

The machine-readable half of the experiment program: every benchmark's
``run_*`` function is executed directly (no pytest timing layer) and its
:class:`~repro.bench.Experiment` tables are written as JSON records —
exp id, headers, rows, notes, span summaries — one ``BENCH_<key>.json``
per benchmark module.  A traced parallel-CG solve is also profiled
through the :mod:`repro.obs` spine and written as ``BENCH_profile.json``
(plus a ``profile`` record with the per-kind cycle aggregate), seeding
the perf trajectory that future optimisation PRs diff against.

Usage::

    python benchmarks/run_all.py                 # full suite -> repo root
    python benchmarks/run_all.py --quick         # E1/E2/E9 + profile only
    python benchmarks/run_all.py --only e3 e9    # a subset
    python benchmarks/run_all.py --json          # also dump JSON to stdout
    python benchmarks/run_all.py --out results/  # write elsewhere
    python benchmarks/run_all.py --lint          # lint src/+examples/ first
    python benchmarks/run_all.py --append        # also keep a run history

Reruns overwrite ``BENCH_<key>.json`` in place (it is always the last
run).  With ``--append``, every payload is *also* appended as one line
to ``BENCH_<key>.history.jsonl``, stamped with a monotonic
``run_index`` (the history length, or ``--run-index N`` when a caller
such as a campaign driver numbers the runs itself) — so repeated
campaign sweeps accumulate instead of silently clobbering each other.

Tracing is observational only: cycle counts in these records are
identical to an untraced run (asserted in ``tests/test_obs.py``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))          # bench modules import conftest
sys.path.insert(0, str(ROOT / "src"))  # run without an installed package

from repro.bench import Experiment  # noqa: E402

#: module + entry point per benchmark key
BENCHES = {
    "e1": ("bench_e1_requirements", "run_e1"),
    "e2": ("bench_e2_parallelism_levels", "run_e2"),
    "e3": ("bench_e3_message_traffic", "run_e3"),
    "e4": ("bench_e4_windows", "run_e4"),
    "e5": ("bench_e5_task_initiation", "run_e5"),
    "e6": ("bench_e6_dispatch_policy", "run_e6"),
    "e7": ("bench_e7_fault_isolation", "run_e7"),
    "e8": ("bench_e8_heap", "run_e8"),
    "e9": ("bench_e9_solvers", "run_e9"),
    "e10": ("bench_e10_design_method", "run_e10"),
    "e11": ("bench_e11_constructs", "run_e11"),
    "e12": ("bench_e12_workstation", "run_e12"),
    "e13": ("bench_e13_checkpoint", "run_e13"),
    "e15": ("bench_e15_service", "run_e15"),
    "e16": ("bench_e16_campaign", "run_e16"),
    "a1": ("bench_a1_placement", "run_a1"),
    "a2": ("bench_a2_topology", "run_a2"),
    "a3": ("bench_a3_reduction", "run_a3"),
    "lint": ("bench_lint", "run_lint"),
}

#: the acceptance trio: requirements, parallelism levels, solvers
QUICK = ("e1", "e2", "e9")

SCHEMA = "fem2-bench/1"


def collect_experiments(value) -> list:
    """Pull every Experiment out of a run function's return value."""
    if isinstance(value, Experiment):
        return [value]
    if isinstance(value, (tuple, list)):
        out = []
        for v in value:
            out.extend(collect_experiments(v))
        return out
    return []


def run_bench(key: str) -> dict:
    mod_name, fn_name = BENCHES[key]
    fn = getattr(importlib.import_module(mod_name), fn_name)
    t0 = time.time()
    experiments = collect_experiments(fn())
    elapsed = time.time() - t0
    if not experiments:
        raise RuntimeError(f"{mod_name}.{fn_name} produced no Experiment")
    return {
        "schema": SCHEMA,
        "bench": key,
        "host_seconds": round(elapsed, 3),
        "records": [exp.to_record() for exp in experiments],
    }


def traced_profile() -> dict:
    """One traced parallel-CG job: the job → tasks → messages → cycles tree."""
    from repro.appvm import JobSpec, MachineService, StructureModel
    from repro.fem import LoadSet, Material, rect_grid
    from repro.hardware import MachineConfig
    from repro.obs import Tracer, flame, span_tree, to_record

    model = StructureModel(
        "profile_plate", material=Material(e=70e9, nu=0.3, thickness=0.01)
    )
    model.set_mesh(rect_grid(6, 3, 2.0, 1.0))
    model.constraints.fix_nodes(model.mesh.nodes_on(x=0.0))
    loads = LoadSet("case")
    loads.add_nodal_many(model.mesh.nodes_on(x=2.0), 1, -1e4)
    model.load_sets["case"] = loads

    tracer = Tracer()
    service = MachineService(
        MachineConfig(n_clusters=4, pes_per_cluster=5,
                      memory_words_per_cluster=16_000_000),
        tracer=tracer,
    )
    service.submit(JobSpec(user="profiler", model=model, load_set="case",
                           workers=4))
    service.run()

    exp = Experiment("PROFILE", "traced parallel CG: where the cycles went")
    exp.set_headers("span kind", "count", "cycles", "mean cycles")
    for kind, s in tracer.kind_summary().items():
        exp.add_row(kind, s["count"], s["cycles"], round(s["mean"], 1))
    exp.note("cycles are simulated; tracing charges none (identical to untraced run)")
    exp.attach_spans(tracer.kind_summary())
    return {
        "schema": SCHEMA,
        "bench": "profile",
        "records": [exp.to_record()],
        "flame": flame(tracer),
        "tree": span_tree(tracer),
        "profile": to_record(tracer),
    }


def history_path(out_dir: pathlib.Path, name: str) -> pathlib.Path:
    return out_dir / f"BENCH_{name}.history.jsonl"


def next_run_index(path: pathlib.Path) -> int:
    """The monotonic index of the next appended run: one past the last
    index already in the history (robust to hand-pruned files)."""
    if not path.exists():
        return 0
    last = -1
    for line in path.read_text().splitlines():
        if line.strip():
            last = max(last, json.loads(line).get("run_index", -1))
    return last + 1


def write_payload(payload: dict, out_dir: pathlib.Path, name: str,
                  append: bool, run_index) -> pathlib.Path:
    """``BENCH_<name>.json`` always holds the last run; with *append*
    the stamped payload also lands in ``BENCH_<name>.history.jsonl``."""
    if append:
        hist = history_path(out_dir, name)
        payload = dict(payload)
        payload["run_index"] = (run_index if run_index is not None
                                else next_run_index(hist))
        with hist.open("a") as fh:
            fh.write(json.dumps(payload) + "\n")
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help=f"run only {'/'.join(k.upper() for k in QUICK)} plus the traced profile")
    ap.add_argument("--only", nargs="+", metavar="KEY", choices=sorted(BENCHES),
                    help="run a subset of benchmarks by key (e.g. e3 a1)")
    ap.add_argument("--out", type=pathlib.Path, default=ROOT,
                    help="directory for BENCH_*.json (default: repo root)")
    ap.add_argument("--json", action="store_true",
                    help="also dump all records as one JSON document to stdout")
    ap.add_argument("--no-profile", action="store_true",
                    help="skip the traced span profile")
    ap.add_argument("--lint", action="store_true",
                    help="self-check: lint src/ and examples/ first, "
                         "exit non-zero on findings")
    ap.add_argument("--append", action="store_true",
                    help="also append each payload to "
                         "BENCH_<key>.history.jsonl with a run_index "
                         "(BENCH_<key>.json stays the last run)")
    ap.add_argument("--run-index", type=int, default=None, metavar="N",
                    help="stamp appended payloads with this run index "
                         "instead of the history length (for callers "
                         "that number reruns themselves)")
    args = ap.parse_args(argv)
    if args.run_index is not None and not args.append:
        ap.error("--run-index only makes sense with --append")

    if args.lint:
        from repro.lint import lint_paths
        report = lint_paths([ROOT / "src", ROOT / "examples"])
        print(report.render(), file=sys.stderr)
        if report.exit_code(strict=True):
            return 1

    keys = args.only or (list(QUICK) if args.quick else list(BENCHES))
    args.out.mkdir(parents=True, exist_ok=True)

    written = []
    combined = []
    for key in keys:
        print(f"[run_all] {key} ...", file=sys.stderr, flush=True)
        payload = run_bench(key)
        path = write_payload(payload, args.out, key,
                             args.append, args.run_index)
        written.append(path)
        combined.append(payload)
        for rec in payload["records"]:
            print(f"[run_all]   {rec['exp_id']}: {len(rec['rows'])} rows",
                  file=sys.stderr)

    if not args.no_profile:
        print("[run_all] traced profile ...", file=sys.stderr, flush=True)
        payload = traced_profile()
        path = write_payload(payload, args.out, "profile",
                             args.append, args.run_index)
        written.append(path)
        combined.append(payload)

    if args.json:
        json.dump({"schema": SCHEMA, "benches": combined}, sys.stdout, indent=2)
        print()
    for path in written:
        print(f"[run_all] wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

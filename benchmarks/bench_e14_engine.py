"""E14 — Engine equivalence and the perf-regression trajectory.

Three tables over the two-engine matrix (reference heapq, fast
calendar queue).  **E14-equivalence** runs every ``repro.perf``
workload under both engines and records that results, clocks, final
metrics, and fem2-ckpt/1 blobs are identical — the safety proof for
the fast path.  **E14-dispatch** times the raw engines on a
dispatch-heavy synthetic event storm (no numpy, no VM layers),
isolating the scheduler itself.  **E14-records** re-runs a set of real
E-benchmarks under each engine and diffs their full record payloads
(host times stripped) — the cross-engine invariance of the experiment
suite's published numbers; each row's seconds are the median of
``RECORD_REPEATS`` runs, reported but not gated.

The record set defaults to the simulation-bound benches; set
``FEM2_E14_FULL=1`` to sweep every E1–E13 bench (slower, used by CI's
scheduled run rather than every push).
"""

import os
import statistics
import time

from conftest import run_once
from repro.bench import Experiment
from repro.hardware.calqueue import FastEventEngine
from repro.hardware.events import EventEngine
from repro.perf import WORKLOADS, compare_callable, equivalence_report

#: benches whose records E14 re-runs under both engines by default —
#: the ones that put real load on the event engine (host-side solver
#: and static-analysis benches are engine-independent by construction)
RECORD_BENCHES = ("e2", "e3", "e4", "e5", "e6", "e11")
FULL_RECORD_BENCHES = (
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9",
    "e10", "e11", "e12", "e13",
)

#: runs per E14-records row; the row reports the median seconds
RECORD_REPEATS = 5

#: host-time *columns* inside experiment tables (positional, so the
#: harness's key-based strip_volatile can't see them): exp_id -> column
#: indexes to blank before diffing.  Today only E13 publishes one.
HOST_TIME_COLUMNS = {"E13": (5,)}  # "host ms"


def scrub_host_columns(payload: dict) -> dict:
    """Blank known host-time table columns in a run_bench payload."""
    for rec in payload.get("records", ()):
        cols = HOST_TIME_COLUMNS.get(rec.get("exp_id"))
        if not cols:
            continue
        for row in rec.get("rows", ()):
            for i in cols:
                if i < len(row):
                    row[i] = None
    return payload


def drive_engine(engine_cls, n_chains: int = 50, depth: int = 400):
    """A synthetic event storm: interleaved chains with heavy same-cycle
    collisions — the scheduler's worst case, with trivial handlers."""
    eng = engine_cls()

    def hop(chain: int, left: int) -> None:
        if left:
            eng.schedule(2 if chain % 2 else 3, hop, chain, left - 1)

    for c in range(n_chains):
        eng.schedule(c % 5, hop, c, depth)
    t0 = time.perf_counter()
    eng.run()
    dt = time.perf_counter() - t0
    return dt, eng.events_processed, eng.now


def time_engines(repeats: int = 5):
    """Best-of-N dispatch time per driver + sanity-identical outcomes."""
    drivers = {
        "EventEngine": lambda: drive_engine(EventEngine),
        "FastEventEngine": lambda: drive_engine(FastEventEngine),
    }
    out = {}
    for name, driver in drivers.items():
        runs = [driver() for _ in range(repeats)]
        events, clock = runs[0][1], runs[0][2]
        assert all(r[1] == events and r[2] == clock for r in runs)
        out[name] = (min(r[0] for r in runs), events, clock)
    assert out["EventEngine"][1:] == out["FastEventEngine"][1:], \
        "the fast engine disagrees with the reference on the synthetic storm"
    return out


def run_e14():
    stats = {}

    equiv = Experiment(
        "E14-equivalence",
        "reference vs fast engine on the repro.perf workloads",
    )
    equiv.set_headers(
        "workload", "equal", "clock", "events", "metrics", "ckpt bytes"
    )
    all_equal = True
    for name, workload in WORKLOADS.items():
        rep = equivalence_report(workload, require_ckpt=True)
        ref = rep["reference"]
        all_equal &= rep["equal"]
        equiv.add_row(
            name,
            "yes" if rep["equal"] else "NO: " + "; ".join(rep["mismatches"]),
            ref.clock,
            ref.events,
            len(ref.metrics),
            len(ref.ckpt or b""),
        )
    equiv.note(
        "equal means identical result, final clock, events_processed, "
        "flat metrics, and byte-identical fem2-ckpt/1 blob across both "
        "engines"
    )
    stats["workloads_equal"] = all_equal

    timing = time_engines()
    ref_t, events, clock = timing["EventEngine"]
    fast_t, _, _ = timing["FastEventEngine"]
    speedup = ref_t / fast_t if fast_t else float("inf")
    dispatch = Experiment(
        "E14-dispatch",
        "raw scheduler cost on a same-cycle-heavy synthetic event storm",
    )
    dispatch.set_headers("engine", "best seconds", "events", "events/sec")
    dispatch.add_row("reference (heapq)", round(ref_t, 4), events,
                     int(events / ref_t))
    dispatch.add_row("fast (calendar queue)", round(fast_t, 4), events,
                     int(events / fast_t))
    dispatch.note(
        f"speedup {speedup:.2f}x fast vs reference; final clock "
        f"{clock} identical on both rows"
    )
    stats["dispatch_speedup"] = speedup
    stats["dispatch_ref_seconds"] = ref_t
    stats["dispatch_fast_seconds"] = fast_t

    import run_all  # benchmarks/run_all.py (same sys.path entry)

    keys = FULL_RECORD_BENCHES if os.environ.get("FEM2_E14_FULL") \
        else RECORD_BENCHES
    records = Experiment(
        "E14-records",
        "published benchmark records re-run under each engine and diffed",
    )
    records.set_headers("bench", "records equal", "ref seconds",
                        "fast seconds")
    records_equal = True
    for key in keys:
        cmps = [
            compare_callable(
                lambda k=key: scrub_host_columns(run_all.run_bench(k)))
            for _ in range(RECORD_REPEATS)
        ]
        diffs = [d for cmp in cmps for d in cmp["diffs"]]
        records_equal &= not diffs
        records.add_row(
            key,
            "yes" if not diffs else "NO: " + "; ".join(diffs[:3]),
            round(statistics.median(c["reference_seconds"] for c in cmps), 3),
            round(statistics.median(c["fast_seconds"] for c in cmps), 3),
        )
    records.note(
        "records compared after stripping host_seconds; cycle counts, "
        "metrics, and tables must match exactly under both engines; "
        f"seconds are the median of {RECORD_REPEATS} runs, reported "
        "not gated"
    )
    stats["records_equal"] = records_equal
    stats["record_benches"] = list(keys)

    return (equiv, dispatch, records), stats


def test_e14_engine(benchmark, experiment_sink):
    tables, stats = run_once(benchmark, run_e14)
    experiment_sink(*tables)
    assert stats["workloads_equal"], "engine equivalence broken on workloads"
    assert stats["records_equal"], "engine changed published bench records"
    # the fast path must actually be fast where the scheduler dominates
    assert stats["dispatch_speedup"] > 1.2

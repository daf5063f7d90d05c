"""The measuring process: one workload, one fresh interpreter.

``run.py`` starts this file once per measurement and reads one JSON
document from its standard output.  Three roles:

* ``setup``   — import, build the workload, run the warm-up batch, report
  how long that took since the parent started us, exit;
* ``measure`` — the same set-up, then the timed phase with every
  observer but the program ledger off, then verification;
* ``trace``   — a fixed number of rounds twice over: once with boundary
  timers (the untraced reference), once under the layer profiler, then
  the per-layer probes.

The protocol is fixed here, not in flags: one untimed warm-up batch,
``gc.collect()`` before the timed phase with the collector left on,
inputs prepared outside every timed interval, verification after it.
"""

from __future__ import annotations

import cProfile
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import probes                                               # noqa: E402
from observe import LAYERS, ProgramLedger, Spans, direct, rollup  # noqa: E402
from workloads import BY_NAME, Verdict                      # noqa: E402

#: the timed phase of a traced run is checked against the sum of the
#: layers' self times; they must agree this closely
ROLLUP_TOLERANCE = 0.02


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    return sorted(values)[max(0, math.ceil(q * len(values)) - 1)]


def set_up(name, seed, call=direct):
    """Build the workload and run its warm-up batch (batch 0)."""
    workload = BY_NAME[name](seed, call)
    workload.run(workload.prepare(0))
    return workload


class Phase:
    """What a timed phase saw: per batch, the record for verification,
    wall and CPU milliseconds, and the input class."""

    def __init__(self, round_size: int) -> None:
        self.round_size = round_size
        self.records, self.wall_ms, self.cpu_ms, self.classes = [], [], [], []

    @property
    def rounds(self) -> int:
        return len(self.wall_ms) // self.round_size


def timed_phase(workload, ledger, seconds=None, rounds=None, spans=None,
                profile=None) -> Phase:
    """Run whole rounds, starting at round 1, until *seconds* of wall
    time have passed or *rounds* are done."""
    phase = Phase(workload.round_size)
    i = workload.round_size
    started = time.perf_counter()
    while True:
        for _ in range(workload.round_size):
            inputs = workload.prepare(i)
            if spans is not None:
                spans.batch = i
            if profile is not None:
                profile.enable()
            c0 = time.process_time()
            t0 = time.perf_counter()
            record = workload.run(inputs)
            t1 = time.perf_counter()
            c1 = time.process_time()
            if profile is not None:
                profile.disable()
            phase.records.append(record)
            phase.wall_ms.append((t1 - t0) * 1e3)
            phase.cpu_ms.append((c1 - c0) * 1e3)
            phase.classes.append(workload.slot(i))
            i += 1
        ledger.fold()
        if rounds is not None:
            if phase.rounds >= rounds:
                break
        elif time.perf_counter() - started >= seconds:
            break
    return phase


def floors(values, classes):
    """The fastest value of each input class.

    Every batch of a class does the same work, and what this kind of
    host adds to a batch — a neighbour on the core, a frequency step —
    only ever adds time (a fixed pure-python kernel timed beside the
    workloads swung between 165 and 365 microseconds within a minute),
    so the fastest batch is the one estimate of a class's cost that
    repeats from run to run.  Means and medians over batches do not:
    they moved by 15-45 % between runs of the same commit."""
    best = {}
    for value, cls in zip(values, classes):
        best[cls] = min(value, best.get(cls, value))
    return [best[cls] for cls in sorted(best)]


def role_setup(name, seed, t0_ns):
    with ProgramLedger():
        set_up(name, seed)
    return {"setup_s": (time.perf_counter_ns() - t0_ns) / 1e9}


def role_measure(name, seed, seconds, t0_ns):
    with ProgramLedger() as ledger:
        workload = set_up(name, seed)
        setup_s = (time.perf_counter_ns() - t0_ns) / 1e9
        ledger.take()
        gc.collect()
        phase = timed_phase(workload, ledger, seconds=seconds)
        sim = ledger.take()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdict = Verdict()
    workload.verify(phase.records, verdict)
    ops = verdict.attempted - verdict.failed
    # one undisturbed round: every class at its fastest
    floor_ms = floors(phase.wall_ms, phase.classes)
    round_s = sum(floor_ms) / 1e3
    round_ops = max(ops, 1) / phase.rounds
    return {
        "setup_s": setup_s,
        "batches": len(phase.wall_ms),
        "ops": ops,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "correct": verdict.failed == 0 and ops > 0,
        "metrics": {
            "ops_per_s": round_ops / round_s,
            "batch_ms_p50": percentile(floor_ms, 0.5),
            "batch_ms_p90": percentile(floor_ms, 0.9),
            "cpu_ms_per_op": sum(floors(phase.cpu_ms, phase.classes)) / round_ops,
            "sim_events_per_s": sim["events"] / phase.rounds / round_s,
            "sim_cycles_per_op": sim["cycles"] / max(ops, 1),
            "peak_rss_mb": peak_rss_mb,
        },
        "exact": {
            "sim_cycles": sim["cycles"],
            "failed_frac": verdict.failed / max(verdict.attempted, 1),
            "accuracy_rel_err": verdict.worst_err,
        },
        "batch_ms": phase.wall_ms,
        "batch_class": phase.classes,
    }


def exact_counts(workload, records, sim):
    """Every number of a fixed-rounds run that must repeat exactly."""
    out = {
        "hardware.events": sim["events"],
        "hardware.cycles": sim["cycles"],
        "hardware.flops": sim["flops"],
        "hardware.pe_utilization": sim["pe_utilization"],
        "sysvm.messages": sim["messages"],
        "sysvm.tasks": sim["tasks"],
        "fem.cg_iterations": workload.iterations(records),
    }
    report = workload.pool_report()
    pool = dict.fromkeys(
        ("completed", "rejected", "admit_ratio", "preemptions", "resumes",
         "ckpt_bytes", "utilization", "fairness_jain",
         "queue_wait_p50_cycles", "queue_wait_p99_cycles"), 0)
    if report is not None:
        stats = report["stats"]
        for key in ("completed", "rejected", "preemptions", "resumes",
                    "ckpt_bytes"):
            pool[key] = stats[key]
        pool["admit_ratio"] = stats["submitted"] / max(
            1, stats["submitted"] + stats["rejected"])
        pool["utilization"] = report["utilization"]
        pool["fairness_jain"] = report["fairness_jain"]
        pool["queue_wait_p50_cycles"] = report["latency"]["p50"]
        pool["queue_wait_p99_cycles"] = report["latency"]["p99"]
    out.update({f"appvm.pool.{k}": v for k, v in pool.items()})
    return out


def role_trace(name, seed, seconds):
    cls = BY_NAME[name]
    rounds = max(1, round(seconds * cls.trace_rounds_per_s))
    spans = Spans()
    profile = cProfile.Profile()
    with ProgramLedger() as ledger:
        # the reference pass: boundary timers only
        ref = set_up(name, seed, spans.call)
        ledger.take()
        gc.collect()
        plain = timed_phase(ref, ledger, rounds=rounds, spans=spans)
        exact = exact_counts(ref, plain.records, ledger.take())
        # the same rounds again, fresh workload, under the profiler
        traced = set_up(name, seed)
        ledger.take()
        gc.collect()
        profiled = timed_phase(traced, ledger, rounds=rounds,
                               profile=profile)
        again = exact_counts(traced, profiled.records, ledger.take())

    verdict = Verdict()
    ref.verify(plain.records, verdict)
    roll = rollup(profile)
    traced_s = sum(profiled.wall_ms) / 1e3
    for layer in LAYERS:
        exact[f"{layer}.calls"] = roll[layer]["calls"]
    self_s = sum(roll[layer]["self_s"] for layer in LAYERS)
    residual = abs(self_s - traced_s) / traced_s

    metrics = dict(exact)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = roll[layer]["self_s"]
        metrics[f"{layer}.share"] = roll[layer]["self_s"] / traced_s
    metrics["ext.share"] = roll["ext_s"] / traced_s
    metrics["ext.numpy_share"] = roll["numpy_s"] / traced_s
    metrics["bench.profiler_overhead_ratio"] = \
        traced_s / (sum(plain.wall_ms) / 1e3)
    # batch times as they fell, host noise and all (the end-to-end
    # percentiles are taken over class floors instead)
    metrics["bench.batch_ms_p50_raw"] = statistics.median(plain.wall_ms)
    metrics["bench.batch_ms_p90_raw"] = percentile(plain.wall_ms, 0.9)
    metrics["bench.failed_frac"] = verdict.failed / max(verdict.attempted, 1)
    metrics["fem.accuracy_rel_err"] = verdict.worst_err

    submits = spans.ms("appvm.submit")
    metrics["appvm.submit_ms_p50"] = percentile(submits, 0.5)
    metrics["appvm.submit_ms_p90"] = percentile(submits, 0.9)
    metrics["appvm.preempt_submit_ms_p50"] = percentile(
        spans.ms("appvm.preempt_submit"), 0.5)
    metrics["appvm.drain_s"] = sum(
        spans.ms("appvm.drain") + spans.ms("appvm.advance")) / 1e3
    metrics["appvm.result_s"] = sum(spans.ms("appvm.result")) / 1e3

    metrics.update(probes.run_all(probes.Case(*ref.probe_case())))
    metrics.update(probes.campaign_fanout() if ref.runs_campaigns
                   else probes.NO_CAMPAIGN)

    problems = []
    if verdict.failed:
        problems.append(f"{verdict.failed} ops failed verification")
    if again != {k: exact[k] for k in again}:
        problems.append("two passes over the same rounds disagree: " + ", ".join(
            f"{k} {exact[k]} != {v}" for k, v in again.items() if exact[k] != v))
    if residual > ROLLUP_TOLERANCE:
        problems.append(f"layer self times sum to {self_s:.3f}s, traced "
                        f"wall is {traced_s:.3f}s ({residual:.1%} apart)")
    return {
        "rounds": rounds,
        "batches": len(plain.wall_ms),
        "ops": verdict.attempted - verdict.failed,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "correct": not problems,
        "problems": problems,
        "metrics": metrics,
        "exact": exact,
        "spans": [list(row) for row in spans.rows],
    }


def main(argv):
    role, name, seed, seconds, t0_ns = argv
    seed, seconds, t0_ns = int(seed), float(seconds), int(t0_ns)
    if role == "setup":
        out = role_setup(name, seed, t0_ns)
    elif role == "measure":
        out = role_measure(name, seed, seconds, t0_ns)
    else:
        out = role_trace(name, seed, seconds)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])

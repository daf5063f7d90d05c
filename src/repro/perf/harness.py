"""The engine-equivalence harness: run once per engine, diff everything.

A *workload* is a zero-argument callable that builds a program, runs it
to completion, and returns ``(program, result)`` — the harness forces
the engine choice around the whole call via
:func:`repro.hardware.events.forced_engine`, so workload code never
mentions engines.  From each run it captures the four observables every
engine must preserve:

* the workload's own **result** value,
* the final simulated **clock** and **events_processed** count,
* the flattened **metrics** registry,
* the **fem2-ckpt/1 blob** of the final program state (when the program
  was built with ``journal=True``; otherwise blob comparison is skipped
  and the caller may require it via ``require_ckpt``).

The engine matrix defaults to every concrete engine
(:data:`repro.hardware.events.CONCRETE_ENGINES` — reference, fast);
each engine is diffed against the first, which serves as the baseline.

:func:`compare_callable` is the coarser instrument for benchmark
records: it runs any function under each engine and diffs the
JSON-like return values after stripping host-time fields — this is how
``bench_e14_engine.py`` proves the E1–E13 records are engine-invariant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..ckpt.codec import to_bytes
from ..errors import CkptError
from ..hardware.events import CONCRETE_ENGINES, forced_engine

#: record keys that legitimately differ between runs (host wall-clock);
#: :func:`strip_volatile` removes them at any nesting depth before a diff
VOLATILE_KEYS = ("host_seconds",)


@dataclass
class EngineRun:
    """Everything observable from one workload execution on one engine."""

    engine: str
    result: Any
    clock: int
    events: int
    metrics: Dict[str, float]
    ckpt: Optional[bytes]
    host_seconds: float

    def summary(self) -> Dict[str, Any]:
        return {
            "engine": self.engine,
            "clock": self.clock,
            "events": self.events,
            "n_metrics": len(self.metrics),
            "ckpt_bytes": None if self.ckpt is None else len(self.ckpt),
            "host_seconds": round(self.host_seconds, 4),
        }


def run_workload(kind: str, workload: Callable[[], Tuple[Any, Any]]) -> EngineRun:
    """Execute *workload* with every machine forced onto engine *kind*."""
    t0 = time.perf_counter()
    with forced_engine(kind):
        program, result = workload()
    host = time.perf_counter() - t0
    engine = program.machine.engine
    try:
        blob: Optional[bytes] = to_bytes(program.snapshot())
    except CkptError:
        blob = None  # journaling off: final-state blob not available
    return EngineRun(
        engine=kind,
        result=result,
        clock=engine.now,
        events=engine.events_processed,
        metrics=dict(program.metrics.flat()),
        ckpt=blob,
        host_seconds=host,
    )


def _values_equal(a: Any, b: Any) -> bool:
    try:
        eq = a == b
    except Exception:
        return repr(a) == repr(b)
    if eq is True or eq is False:
        return eq
    # array-likes return elementwise results; collapse via all()
    try:
        return bool(getattr(eq, "all")())
    except Exception:
        return repr(a) == repr(b)


def _diff_runs(ref: EngineRun, other: EngineRun,
               require_ckpt: bool) -> List[str]:
    """Human-readable observable differences of *other* vs baseline."""
    a, b = ref.engine, other.engine
    mismatches: List[str] = []
    if not _values_equal(ref.result, other.result):
        mismatches.append(
            f"result: {a}={ref.result!r} {b}={other.result!r}"
        )
    if ref.clock != other.clock:
        mismatches.append(f"clock: {a}={ref.clock} {b}={other.clock}")
    if ref.events != other.events:
        mismatches.append(
            f"events_processed: {a}={ref.events} {b}={other.events}"
        )
    if ref.metrics != other.metrics:
        for k in sorted(set(ref.metrics) | set(other.metrics)):
            x, y = ref.metrics.get(k), other.metrics.get(k)
            if x != y:
                mismatches.append(f"metric {k}: {a}={x} {b}={y}")
    if ref.ckpt is None or other.ckpt is None:
        if require_ckpt:
            mismatches.append(
                "checkpoint blob unavailable (build the workload program "
                "with journal=True to compare fem2-ckpt/1 blobs)"
            )
    elif ref.ckpt != other.ckpt:
        mismatches.append(
            f"checkpoint blob: {a} {len(ref.ckpt)} vs {b} "
            f"{len(other.ckpt)} bytes, contents differ"
        )
    return mismatches


def equivalence_report(
    workload: Callable[[], Tuple[Any, Any]],
    require_ckpt: bool = False,
    engines: Sequence[str] = CONCRETE_ENGINES,
) -> Dict[str, Any]:
    """Run *workload* under every engine and diff the observables.

    The first engine in *engines* is the baseline each of the others is
    compared against.  Returns ``{"equal", "mismatches", "runs"}`` plus
    one :class:`EngineRun` entry per engine kind, where ``mismatches``
    is a list of human-readable difference descriptions (empty when the
    whole matrix agrees).
    """
    runs = {kind: run_workload(kind, workload) for kind in engines}
    ref = runs[engines[0]]
    mismatches: List[str] = []
    for kind in engines[1:]:
        mismatches.extend(_diff_runs(ref, runs[kind], require_ckpt))
    report: Dict[str, Any] = {
        "equal": not mismatches,
        "mismatches": mismatches,
        "runs": runs,
    }
    report.update(runs)
    return report


def assert_equivalent(
    workload: Callable[[], Tuple[Any, Any]],
    require_ckpt: bool = False,
    label: str = "workload",
    engines: Sequence[str] = CONCRETE_ENGINES,
) -> Dict[str, Any]:
    """:func:`equivalence_report`, raising ``AssertionError`` on any diff."""
    report = equivalence_report(
        workload, require_ckpt=require_ckpt, engines=engines
    )
    if not report["equal"]:
        detail = "\n  ".join(report["mismatches"])
        raise AssertionError(
            f"engines disagree on {label}:\n  {detail}"
        )
    return report


# -- benchmark-record comparison ------------------------------------------


def strip_volatile(value: Any, keys: Tuple[str, ...] = VOLATILE_KEYS) -> Any:
    """A copy of a JSON-like structure with volatile keys removed at any
    depth (host wall-clock times differ run to run by construction)."""
    if isinstance(value, dict):
        return {
            k: strip_volatile(v, keys) for k, v in value.items() if k not in keys
        }
    if isinstance(value, (list, tuple)):
        return [strip_volatile(v, keys) for v in value]
    return value


def diff_values(a: Any, b: Any, path: str = "$") -> List[str]:
    """Paths at which two JSON-like values differ (empty when equal)."""
    if isinstance(a, dict) and isinstance(b, dict):
        out: List[str] = []
        for k in sorted(set(a) | set(b)):
            if k not in a:
                out.append(f"{path}.{k}: only in second")
            elif k not in b:
                out.append(f"{path}.{k}: only in first")
            else:
                out.extend(diff_values(a[k], b[k], f"{path}.{k}"))
        return out
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return [f"{path}: length {len(a)} vs {len(b)}"]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out.extend(diff_values(x, y, f"{path}[{i}]"))
        return out
    if not _values_equal(a, b):
        return [f"{path}: {a!r} vs {b!r}"]
    return []


def compare_callable(
    fn: Callable[[], Any],
    keys: Tuple[str, ...] = VOLATILE_KEYS,
    engines: Sequence[str] = CONCRETE_ENGINES,
) -> Dict[str, Any]:
    """Run *fn* once per engine; diff its return values (volatile keys
    stripped) against the first engine's.  Returns ``{"equal",
    "diffs"}`` plus, per engine kind, its stripped value under
    ``<kind>`` and its wall-clock under ``<kind>_seconds``."""
    out: Dict[str, Any] = {}
    values: Dict[str, Any] = {}
    for kind in engines:
        t0 = time.perf_counter()
        with forced_engine(kind):
            value = fn()
        out[f"{kind}_seconds"] = time.perf_counter() - t0
        values[kind] = out[kind] = strip_volatile(value, keys)
    baseline = values[engines[0]]
    diffs: List[str] = []
    for kind in engines[1:]:
        for d in diff_values(baseline, values[kind]):
            diffs.append(f"{kind}: {d}")
    out["equal"] = not diffs
    out["diffs"] = diffs
    return out

"""Communication *patterns* from a traced run.

The paper asks for measurements of "the storage, processing, and
communication **patterns**" — not just totals.  The message views —
traffic over time, burstiness, the cluster-to-cluster communication
matrix, and the per-kind timeline (which distinguishes a setup burst
from steady-state iteration traffic) — read the ``sysvm.msg.*`` point
spans a :class:`~repro.obs.Tracer` recorded: one per message, at its
send time, with ``src`` / ``dst`` / ``words`` attributes and the
message kind as label.  The task views (Gantt spans, concurrency) read
the task control blocks of a :class:`~repro.langvm.Fem2Program`, which
need no tracer at all.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..errors import AnalysisError
from ..obs import Span, Tracer
from ..sysvm.scheduler import TaskState

_MSG_PREFIX = "sysvm.msg."


@dataclass
class TimelineBin:
    t0: int
    t1: int
    messages: int
    words: int


def _sends(tracer: Tracer) -> List[Span]:
    """Every message the traced run sent.  A tracer that dropped spans
    past its capacity holds only part of the run, so it is refused
    rather than summarised as if it were whole."""
    if tracer.dropped:
        raise AnalysisError(
            f"tracer.dropped = {tracer.dropped}: the span list is partial; "
            f"rerun with a larger Tracer(capacity=...)"
        )
    return [s for s in tracer.spans() if s.kind.startswith(_MSG_PREFIX)]


def traffic_timeline(tracer: Tracer, bins: int = 20) -> List[TimelineBin]:
    """Messages and words per time bin across the traced run."""
    sends = _sends(tracer)
    if not sends:
        raise AnalysisError("tracer holds no message spans (was it attached?)")
    if bins < 1:
        raise AnalysisError("need at least one bin")
    t_max = max(s.t0 for s in sends) + 1
    edges = np.linspace(0, t_max, bins + 1)
    out = [TimelineBin(int(edges[i]), int(edges[i + 1]), 0, 0) for i in range(bins)]
    for s in sends:
        idx = min(int(s.t0 / t_max * bins), bins - 1)
        out[idx].messages += 1
        out[idx].words += s.attrs["words"]
    return out


def burstiness(tracer: Tracer, bins: int = 20) -> float:
    """Peak-to-mean ratio of per-bin message counts (1.0 = uniform)."""
    timeline = traffic_timeline(tracer, bins)
    counts = [b.messages for b in timeline]
    mean = sum(counts) / len(counts)
    return max(counts) / mean if mean else 0.0


def communication_matrix(tracer: Tracer, n_clusters: int) -> np.ndarray:
    """Words sent from cluster i to cluster j: (n, n)."""
    m = np.zeros((n_clusters, n_clusters), dtype=int)
    for s in _sends(tracer):
        m[s.attrs["src"], s.attrs["dst"]] += s.attrs["words"]
    return m


def hub_score(matrix: np.ndarray) -> float:
    """Fraction of all traffic touching the busiest cluster — 1.0 means
    a pure hub-and-spoke pattern (what A2 found for the CG driver)."""
    total = matrix.sum()
    if total == 0:
        return 0.0
    touching = matrix.sum(axis=0) + matrix.sum(axis=1) - np.diag(matrix)
    return float(touching.max() / total)


def kind_timeline(tracer: Tracer, bins: int = 10) -> Dict[str, List[int]]:
    """Per message kind: messages per bin (phase structure made visible)."""
    sends = _sends(tracer)
    if not sends:
        raise AnalysisError("tracer holds no message spans")
    t_max = max(s.t0 for s in sends) + 1
    out: Dict[str, List[int]] = defaultdict(lambda: [0] * bins)
    for s in sends:
        idx = min(int(s.t0 / t_max * bins), bins - 1)
        out[s.label][idx] += 1
    return dict(out)


def pattern_report(tracer: Tracer, n_clusters: int) -> str:
    m = communication_matrix(tracer, n_clusters)
    lines = [
        f"communication pattern over {len(_sends(tracer))} messages:",
        f"  burstiness (peak/mean per bin): {burstiness(tracer):.2f}",
        f"  hub score: {hub_score(m):.2f}",
        "  cluster-to-cluster words:",
    ]
    for i in range(n_clusters):
        row = " ".join(f"{m[i, j]:>8}" for j in range(n_clusters))
        lines.append(f"    c{i}: {row}")
    return "\n".join(lines)


def task_spans(program) -> List[Tuple[int, str, int, int]]:
    """(tid, task_type, first_dispatch, finish) per completed task of a
    :class:`~repro.langvm.Fem2Program` — the Gantt view of a run, in
    (first dispatch, tid) order.  Tasks re-dispatched after blocking
    keep their first dispatch time."""
    spans = [
        (t.tid, t.task_type, t.first_run_at, t.finished_at)
        for t in program.runtime.tasks.values()
        if t.state is TaskState.DONE
    ]
    return sorted(spans, key=lambda s: (s[2], s[0]))


def concurrency_profile(program, bins: int = 20) -> List[int]:
    """Tasks simultaneously in flight per time bin (span-based)."""
    spans = task_spans(program)
    if not spans:
        raise AnalysisError("program holds no completed tasks")
    t_max = max(t1 for *_x, t1 in spans) + 1
    counts = [0] * bins
    for _tid, _tt, t0, t1 in spans:
        b0 = min(int(t0 / t_max * bins), bins - 1)
        b1 = min(int(t1 / t_max * bins), bins - 1)
        for b in range(b0, b1 + 1):
            counts[b] += 1
    return counts

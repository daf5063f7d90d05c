"""Experiment harness: table printing and machine-readable run records.

Every benchmark builds its table as an :class:`Experiment`, so the
output format is uniform: :meth:`~Experiment.render` is the text table
``benchmarks/conftest.py`` writes to ``benchmarks/results/`` for
EXPERIMENTS.md to quote, and :meth:`~Experiment.to_record` the plain
dict ``benchmarks/run_all.py`` writes as ``BENCH_*.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..appvm.display import render_table
from ..obs import plain


@dataclass
class Experiment:
    """One experiment: id, title, and a growing table of results.

    ``spans`` optionally carries a span-profile summary (see
    :mod:`repro.obs`) so a record answers "where did the cycles go"
    alongside the table.
    """

    exp_id: str
    title: str
    headers: List[str] = field(default_factory=list)
    rows: List[List[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    spans: Optional[Dict[str, Any]] = None

    def set_headers(self, *headers: str) -> None:
        self.headers = list(headers)

    def add_row(self, *values: Any) -> None:
        if self.headers and len(values) != len(self.headers):
            raise ValueError(
                f"{self.exp_id}: row has {len(values)} cells, "
                f"table has {len(self.headers)} columns"
            )
        self.rows.append(list(values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def attach_spans(self, summary: Dict[str, Any]) -> None:
        """Attach a span-profile summary (already a plain dict)."""
        self.spans = plain(summary)

    def render(self) -> str:
        lines = [f"== {self.exp_id}: {self.title} =="]
        if self.rows:
            lines.append(render_table(self.headers, self.rows))
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)

    def to_record(self) -> Dict[str, Any]:
        """The experiment as a plain dict of plain values (JSON-safe)."""
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": plain(self.rows),
            "notes": list(self.notes),
            "spans": self.spans,
        }


def summarize_series(values: Sequence[float]) -> Dict[str, float]:
    """Order-independent aggregate of one metric across many records:
    ``{n, min, max, mean, total}``.  The campaign layer folds per-point
    ``fem2-bench/1`` metrics through this, so a report's aggregate block
    is identical however the points were distributed across workers."""
    vals = [float(v) for v in values]
    if not vals:
        return {"n": 0, "min": 0.0, "max": 0.0, "mean": 0.0, "total": 0.0}
    total = sum(vals)
    return {
        "n": len(vals),
        "min": min(vals),
        "max": max(vals),
        "mean": total / len(vals),
        "total": total,
    }

"""Cross-validation of analytic estimates against simulator measurements.

The design method's promise is that the formal models support
quantitative prediction; this module closes the loop by extracting the
measured processing/storage/communication figures from a run's
:class:`~repro.hardware.metrics.MetricsRegistry` and comparing them
with a :class:`~repro.analysis.complexity.ScenarioEstimate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..errors import AnalysisError
from ..hardware.metrics import MetricsRegistry
from .complexity import ScenarioEstimate


@dataclass
class Measured:
    """The three measured quantities of a run."""

    flops: int
    messages: int
    message_words: int
    storage_hwm_words: int

    @classmethod
    def from_metrics(cls, metrics: MetricsRegistry) -> "Measured":
        return cls(
            flops=int(metrics.get("proc.flops")),
            messages=int(metrics.get("comm.messages")),
            message_words=int(metrics.get("comm.words")),
            # mem.hwm.clusterN only: mem.hwm.<tag>.clusterN splits the same words
            storage_hwm_words=int(sum(
                words for key, words in metrics.by_prefix("mem.hwm").items()
                if "." not in key)),
        )


@dataclass
class ComparisonRow:
    quantity: str
    estimated: float
    measured: float

    @property
    def ratio(self) -> float:
        if self.measured == 0:
            return 1.0 if self.estimated == 0 else float("inf")
        return self.estimated / self.measured


@dataclass
class ComparisonReport:
    rows: List[ComparisonRow] = field(default_factory=list)

    def row(self, quantity: str) -> ComparisonRow:
        for r in self.rows:
            if r.quantity == quantity:
                return r
        raise AnalysisError(f"no comparison row {quantity!r}")

    def within(self, quantity: str, factor: float) -> bool:
        r = self.row(quantity).ratio
        return 1.0 / factor <= r <= factor

    def render(self) -> str:
        lines = [f"{'quantity':<16} {'estimated':>14} {'measured':>14} {'est/meas':>9}"]
        for r in self.rows:
            lines.append(
                f"{r.quantity:<16} {r.estimated:>14,.0f} {r.measured:>14,.0f} "
                f"{r.ratio:>9.3f}"
            )
        return "\n".join(lines)


def compare(estimate: ScenarioEstimate, measured: Measured) -> ComparisonReport:
    return ComparisonReport(
        rows=[
            ComparisonRow("flops", estimate.flops, measured.flops),
            ComparisonRow("messages", estimate.messages, measured.messages),
            ComparisonRow("message_words", estimate.message_words, measured.message_words),
        ]
    )

"""The versioned campaign report: ``fem2-campaign/1``.

One campaign produces one report: the declared space, the wave
schedule, every point's payload (its per-point ``fem2-bench/1`` record,
flat metrics, span aggregate, restart fingerprints), and an
order-independent aggregate block folded through
:func:`repro.bench.summarize_series`.

The determinism contract lives here: :meth:`CampaignReport.canonical_bytes`
is the byte-identical artifact — sorted keys, fixed separators, no host
wall-clock, worker count, or process identity anywhere in the record.
Running the same campaign with 1 worker, 8 workers, or the in-process
serial fallback must produce equal bytes (enforced by
``tests/test_campaign_determinism.py`` and re-checked in bench E16).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..bench import summarize_series
from ..errors import CampaignError

CAMPAIGN_SCHEMA = "fem2-campaign/1"

#: metric keys aggregated across points in the report's summary block
AGGREGATE_METRICS = ("cycles", "messages", "flops", "tasks", "iterations")


@dataclass
class CampaignReport:
    """Everything one campaign produced, as plain JSON-safe data."""

    name: str
    space: Dict[str, Any]
    options: Dict[str, Any] = field(default_factory=dict)
    waves: List[Dict[str, Any]] = field(default_factory=list)
    points: List[Dict[str, Any]] = field(default_factory=list)

    def aggregate(self) -> Dict[str, Any]:
        """Order-independent summary across every point."""
        out: Dict[str, Any] = {
            "points": len(self.points),
            "waves": len(self.waves),
            "refined_points": sum(1 for p in self.points
                                  if p.get("wave", 0) > 0),
            "warm_restarts": sum(1 for p in self.points
                                 if p.get("restart") is not None),
        }
        for key in AGGREGATE_METRICS:
            series = [(p.get("metrics") or {}).get(key, 0) or 0
                      for p in self.points]
            out[key] = summarize_series(series)
        return out

    def to_record(self) -> Dict[str, Any]:
        return {
            "schema": CAMPAIGN_SCHEMA,
            "name": self.name,
            "space": self.space,
            "options": dict(self.options),
            "waves": [dict(w) for w in self.waves],
            "points": [dict(p) for p in self.points],
            "aggregate": self.aggregate(),
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "CampaignReport":
        if record.get("schema") != CAMPAIGN_SCHEMA:
            raise CampaignError(
                f"not a campaign report "
                f"(schema={record.get('schema')!r}, "
                f"expected {CAMPAIGN_SCHEMA!r})")
        return cls(
            name=record["name"],
            space=record["space"],
            options=dict(record.get("options", {})),
            waves=[dict(w) for w in record.get("waves", [])],
            points=[dict(p) for p in record.get("points", [])],
        )

    def canonical_bytes(self) -> bytes:
        """The report as canonical JSON — the bytes the determinism
        contract is stated over."""
        return json.dumps(self.to_record(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_record(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CampaignReport":
        return cls.from_record(json.loads(text))


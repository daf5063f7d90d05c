"""Window access auditing: the data-control rules, checked at run time.

"Tasks may communicate through windows" — safely, only if writers keep
out of each other's regions.  The auditor observes every window access
through the run-time's hook and reports:

* per-array access counts by kind and task,
* **conflicts**: overlapping plain-write regions touched by different
  tasks (accumulating writes commute and are exempt — that is exactly
  why the FEM assembly uses them).  Read-write interleavings are not
  flagged: reads are ordered by the wait discipline, so judging them
  is left to the analyst (and to :mod:`repro.lint`'s W2 check).

Attach with :meth:`WindowAudit.attach`; the hook costs nothing when not
installed.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .windows import Window


@dataclass(frozen=True)
class AccessRecord:
    task: int
    kind: str                 # "read" | "write" | "accumulate"
    rows: Tuple[int, int]
    cols: Tuple[int, int]


@dataclass
class Conflict:
    """Two different tasks plain-wrote overlapping regions of one array."""

    array_id: int
    first: AccessRecord
    second: AccessRecord

    def describe(self) -> str:
        return (
            f"array #{self.array_id}: task {self.first.task} wrote "
            f"rows{self.first.rows} cols{self.first.cols}, task "
            f"{self.second.task} wrote rows{self.second.rows} "
            f"cols{self.second.cols} (overlapping)"
        )


def _overlap(a: AccessRecord, b: AccessRecord) -> bool:
    return not (
        a.rows[1] <= b.rows[0] or b.rows[1] <= a.rows[0]
        or a.cols[1] <= b.cols[0] or b.cols[1] <= a.cols[0]
    )


class WindowAudit:
    """Observer of all window traffic in one runtime."""

    def __init__(self) -> None:
        self._accesses: Dict[int, List[AccessRecord]] = defaultdict(list)
        self.conflicts: List[Conflict] = []
        self.counts: Dict[str, int] = defaultdict(int)

    # -- installation ------------------------------------------------------

    def attach(self, runtime) -> "WindowAudit":
        runtime.window_hook = self.observe
        return self

    @classmethod
    def on(cls, program) -> "WindowAudit":
        """Attach a fresh auditor to a :class:`Fem2Program`."""
        return cls().attach(program.runtime)

    # -- observation ---------------------------------------------------------

    def observe(self, task_id: int, window: Window, kind: str) -> None:
        rec = AccessRecord(task_id, kind, tuple(window.rows), tuple(window.cols))
        self.counts[kind] += 1
        aid = window.handle.array_id
        if kind == "write":
            for prev in self._accesses[aid]:
                if (
                    prev.kind == "write"
                    and prev.task != task_id
                    and _overlap(prev, rec)
                ):
                    self.conflicts.append(Conflict(aid, prev, rec))
        self._accesses[aid].append(rec)

    # -- reporting --------------------------------------------------------------

    @property
    def clean(self) -> bool:
        return not self.conflicts

    def accesses(self, array_id: int) -> List[AccessRecord]:
        return list(self._accesses[array_id])

    def tasks_touching(self, array_id: int) -> set:
        return {r.task for r in self._accesses[array_id]}

    def report(self) -> str:
        lines = [
            f"window audit: {self.counts['read']} reads, "
            f"{self.counts['write']} writes, "
            f"{self.counts['accumulate']} accumulates over "
            f"{len(self._accesses)} arrays"
        ]
        if self.conflicts:
            lines.append(f"{len(self.conflicts)} write-write conflicts:")
            for c in self.conflicts[:10]:
                lines.append("  " + c.describe())
        else:
            lines.append("no write-write conflicts")
        return "\n".join(lines)

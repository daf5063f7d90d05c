"""Lint findings: stable codes, severities, structured records.

Every checker in :mod:`repro.lint` reports :class:`Finding` values — a
stable code (W1, D1, A3, ...), a ``file:line`` location, a severity,
and a human-readable message — collected into a :class:`LintReport`.
Reports are machine-readable first (``to_record`` yields plain dicts,
schema ``fem2-lint/1``) and can be emitted onto a :mod:`repro.obs`
tracer as ``lint.<code>`` point spans, so findings ride the same
JSON exporters as every other measurement in the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..obs.export import plain

SCHEMA = "fem2-lint/1"

#: stable finding codes and what they mean (the contract of this package)
CODES: Dict[str, str] = {
    "E0": "file could not be parsed",
    "W1": "overlapping plain-write window regions across parallel siblings",
    "W2": "read of a region written by a still-unwaited parallel task",
    "W3": "write-write conflict across a spawn chain (transitive writes)",
    "D1": "initiate without matching wait, or unconditional wait cycle",
    "D2": "wait on a provably empty or already-waited task id set",
    "O1": "raw storage access outside the owning task (ownership escape)",
    "A1": "layering violation: a lower layer imports a higher one",
    "A2": "obs_begin without obs_end on some code path",
    "A3": "public-API drift: __all__ name does not resolve",
    "S1": "incomplete snapshot/restore pair (checkpoint contract)",
    "X1": "task registered but unreachable from any entry task",
    "C1": "statically unbounded cost: unresolvable replication in an "
          "unresolvable loop",
    "P1": "task type has a statically unresolved spawn target or "
          "replication count",
}

SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One static-analysis result, anchored to a source location."""

    code: str
    message: str
    file: str
    line: int
    severity: str = "error"
    task: Optional[str] = None  # task-type name, for program checks

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown finding code {self.code!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def location(self) -> str:
        return f"{self.file}:{self.line}"

    def to_record(self) -> Dict[str, Any]:
        return plain(
            {
                "code": self.code,
                "severity": self.severity,
                "file": self.file,
                "line": self.line,
                "task": self.task,
                "message": self.message,
            }
        )

    def render(self) -> str:
        where = f" [{self.task}]" if self.task else ""
        return f"{self.location}: {self.code} {self.severity}{where}: {self.message}"


class LintReport:
    """All findings of one lint run, plus what was covered."""

    def __init__(self, findings: Optional[List[Finding]] = None,
                 files_checked: int = 0, tasks_checked: int = 0) -> None:
        self.findings: List[Finding] = []
        self._seen: set = set()
        self.files_checked = files_checked
        self.tasks_checked = tasks_checked
        #: the --select/--ignore rule selection this report was filtered
        #: by, or None when every rule is in effect
        self.selection: Optional[Dict[str, List[str]]] = None
        if findings:
            self.extend(findings)

    # -- aggregation -------------------------------------------------------

    def extend(self, findings: List[Finding]) -> None:
        """Add findings, dropping exact duplicates (the same file can be
        reachable from several lint roots; diff-stable output needs one
        copy)."""
        for f in findings:
            key = (f.code, f.file, f.line, f.task, f.message)
            if key in self._seen:
                continue
            self._seen.add(key)
            self.findings.append(f)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self.findings:
            counts[f.code] = counts.get(f.code, 0) + 1
        return counts

    def filtered(self, select: Optional[List[str]] = None,
                 ignore: Optional[List[str]] = None) -> "LintReport":
        """A copy restricted to a rule-code selection.

        ``select`` keeps only the listed codes (all when empty/None);
        ``ignore`` then drops its codes.  Unknown codes raise
        :class:`ValueError` — a typo that silently matched nothing
        would look like a clean run.  The selection is recorded on the
        copy and shows up in the ``--json`` report header.
        """
        for code in list(select or ()) + list(ignore or ()):
            if code not in CODES:
                raise ValueError(f"unknown finding code {code!r} "
                                 f"(known: {', '.join(sorted(CODES))})")
        kept = [f for f in self.findings
                if (not select or f.code in select)
                and (not ignore or f.code not in ignore)]
        out = LintReport(files_checked=self.files_checked,
                         tasks_checked=self.tasks_checked)
        out.extend(kept)
        out.selection = {"select": sorted(select or ()),
                         "ignore": sorted(ignore or ())}
        return out

    def exit_code(self, strict: bool = False) -> int:
        """Process exit status: 1 when errors (or any finding, if strict)."""
        if self.errors or (strict and self.findings):
            return 1
        return 0

    # -- export ------------------------------------------------------------

    def sorted_findings(self) -> List[Finding]:
        """Findings in the canonical (file, line, code) order."""
        return sorted(self.findings, key=lambda f: (f.file, f.line, f.code))

    def to_record(self) -> Dict[str, Any]:
        """The whole report as one plain dict (schema ``fem2-lint/1``)."""
        record = {
            "schema": SCHEMA,
            "files_checked": self.files_checked,
            "tasks_checked": self.tasks_checked,
            "counts": self.by_code(),
            "findings": [f.to_record() for f in self.sorted_findings()],
        }
        if self.selection is not None:
            record["selection"] = self.selection
        return record

    def emit(self, tracer, now: int = 0) -> None:
        """Post every finding as a ``lint.<code>`` point span on *tracer*,
        so findings appear in :mod:`repro.obs` JSON/flame exports."""
        if tracer is None:
            return
        for f in self.findings:
            tracer.point(
                f"lint.{f.code}", f.message, now,
                severity=f.severity, file=f.file, line=f.line, task=f.task,
            )

    def render(self) -> str:
        lines = [f.render() for f in self.sorted_findings()]
        lines.append(
            f"repro.lint: {self.files_checked} file(s), "
            f"{self.tasks_checked} task(s), "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"LintReport({len(self.errors)} errors, "
                f"{len(self.warnings)} warnings)")

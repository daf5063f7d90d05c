"""``python -m repro.lint`` — lint FEM-2 programs and the repo layout.

Usage::

    python -m repro.lint                    # lint ./src and ./examples
    python -m repro.lint src/ examples/     # explicit paths
    python -m repro.lint path/to/prog.py    # one program file
    python -m repro.lint --json ...         # machine-readable report
    python -m repro.lint --strict ...       # warnings also fail
    python -m repro.lint --select W1,C1 ... # only these rule codes
    python -m repro.lint --ignore C2 ...    # all but these codes
    python -m repro.lint --cost ...         # fem2-cost/1 bounds too

Program checkers (W1/W2/D1/O1) run over every task function found in
the given files; task registries are resolved across *all* given files,
so a program initiating a task type registered in another linted file
is checked against that type's real behaviour.  Architecture checkers
(A1 layering, A2 span balance, A3 public-API drift) run whenever a
``repro`` package root is among the paths.

Exit status: 1 when any error-severity finding exists (or any finding
at all under ``--strict``), else 0.
"""

from __future__ import annotations

import argparse
import ast
import json
import pathlib
import sys
from typing import Iterable, List, Optional, Sequence

from .api import check_public_api
from .astutil import TaskInfo, collect_tasks
from .cache import LintCache, content_digest, selection_salt
from .findings import CODES, Finding, LintReport
from .layering import check_layering
from .program import check_tasks
from .snapshots import check_snapshots
from .spans import check_span_balance


def iter_py_files(paths: Sequence[pathlib.Path]) -> List[pathlib.Path]:
    files: List[pathlib.Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    # de-duplicate while keeping order (overlapping path arguments)
    seen = set()
    out = []
    for f in files:
        r = f.resolve()
        if r not in seen:
            seen.add(r)
            out.append(f)
    return out


def find_repro_roots(paths: Sequence[pathlib.Path]) -> List[pathlib.Path]:
    """``.../repro`` package dirs reachable from the given paths."""
    roots = []
    for path in paths:
        if not path.is_dir():
            continue
        if path.name == "repro" and (path / "__init__.py").exists():
            roots.append(path)
            continue
        for candidate in (path / "repro", path / "src" / "repro"):
            if (candidate / "__init__.py").exists():
                roots.append(candidate)
    return roots


def _analyze_file(f: pathlib.Path, source: str):
    """Per-file analysis: (findings, tasks) — the cacheable unit."""
    findings: List[Finding] = []
    tasks: List[TaskInfo] = []
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError) as exc:
        lineno = getattr(exc, "lineno", 1) or 1
        findings.append(Finding("E0", f"cannot parse: {exc}", str(f), lineno))
        return findings, tasks
    tasks = collect_tasks(tree, str(f))
    findings.extend(check_span_balance(tree, str(f)))
    findings.extend(check_snapshots(tree, str(f)))
    if f.name == "__init__.py":
        findings.extend(check_public_api(tree, str(f)))
    return findings, tasks


def lint_files(files: Sequence[pathlib.Path],
               report: Optional[LintReport] = None,
               cache: Optional[LintCache] = None,
               tasks_out: Optional[List[TaskInfo]] = None) -> LintReport:
    """Program + per-file architecture checks over a set of files.

    With a :class:`~repro.lint.cache.LintCache`, unchanged files reuse
    their per-file findings and extracted tasks; the cross-file program
    checks always re-run over the assembled task set.  Pass *tasks_out*
    to receive the assembled task set (the ``--cost`` report is built
    from it without re-parsing).
    """
    report = report or LintReport()
    tasks: List[TaskInfo] = tasks_out if tasks_out is not None else []
    findings: List[Finding] = []
    for f in files:
        source = f.read_text()
        if cache is not None:
            digest = content_digest(source)
            entry = cache.get(str(f), digest)
            if entry is None:
                file_findings, file_tasks = _analyze_file(f, source)
                cache.put(str(f), digest, file_findings, file_tasks)
                report.cache_misses += 1
            else:
                file_findings, file_tasks = entry.findings, entry.tasks
                report.cache_hits += 1
        else:
            file_findings, file_tasks = _analyze_file(f, source)
        findings.extend(file_findings)
        tasks.extend(file_tasks)
        report.files_checked += 1
    findings.extend(check_tasks(tasks))
    report.tasks_checked += len(tasks)
    report.extend(findings)
    return report


def lint_paths(paths: Iterable, arch: bool = True,
               cache: Optional[LintCache] = None,
               tasks_out: Optional[List[TaskInfo]] = None) -> LintReport:
    """Lint files and (when a repro root is present) the architecture."""
    paths = [pathlib.Path(p) for p in paths]
    report = lint_files(iter_py_files(paths), cache=cache,
                        tasks_out=tasks_out)
    if arch:
        for root in find_repro_roots(paths):
            report.extend(check_layering(root))
    return report


def lint_source(source: str, filename: str = "<string>") -> LintReport:
    """Lint one program given as source text (test/tooling entry point)."""
    report = LintReport(files_checked=1)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        report.extend([Finding("E0", f"cannot parse: {exc.msg}", filename,
                               exc.lineno or 1)])
        return report
    tasks = collect_tasks(tree, filename)
    report.tasks_checked = len(tasks)
    report.extend(check_tasks(tasks))
    report.extend(check_span_balance(tree, filename))
    report.extend(check_snapshots(tree, filename))
    return report


def _default_paths() -> List[str]:
    cwd = pathlib.Path.cwd()
    found = [str(p) for p in (cwd / "src", cwd / "examples") if p.is_dir()]
    if found:
        return found
    # fall back to the installed package itself
    return [str(pathlib.Path(__file__).resolve().parents[1])]


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Static race, deadlock, and architecture analyzer "
                    "for FEM-2 programs.",
    )
    ap.add_argument("paths", nargs="*",
                    help="files or directories to lint "
                         "(default: ./src and ./examples)")
    ap.add_argument("--json", action="store_true",
                    help="emit the report as one JSON document")
    ap.add_argument("--strict", action="store_true",
                    help="exit non-zero on warnings too")
    ap.add_argument("--no-arch", action="store_true",
                    help="skip the architecture checkers (A1 layering)")
    ap.add_argument("--cache", action="store_true",
                    help="reuse per-file results for unchanged files "
                         "(stored under --cache-dir)")
    ap.add_argument("--cache-dir", type=pathlib.Path,
                    default=pathlib.Path(".lint-cache"),
                    help="directory for the incremental cache "
                         "(default: ./.lint-cache)")
    ap.add_argument("--select", action="append", default=None,
                    metavar="CODES",
                    help="comma-separated rule codes to report "
                         "(default: all); repeatable")
    ap.add_argument("--ignore", action="append", default=None,
                    metavar="CODES",
                    help="comma-separated rule codes to suppress; "
                         "repeatable")
    ap.add_argument("--cost", action="store_true",
                    help="emit the fem2-cost/1 static cost report for "
                         "the linted task set")
    ap.add_argument("--cost-out", type=pathlib.Path, default=None,
                    metavar="PATH",
                    help="write the cost report as JSON to PATH "
                         "(implies --cost)")
    args = ap.parse_args(argv)

    select = _split_codes(ap, args.select)
    ignore = _split_codes(ap, args.ignore)
    paths = args.paths or _default_paths()
    cache = (LintCache(args.cache_dir, salt=selection_salt(select, ignore))
             if args.cache else None)
    want_cost = args.cost or args.cost_out is not None
    tasks: List[TaskInfo] = []
    report = lint_paths(paths, arch=not args.no_arch, cache=cache,
                        tasks_out=tasks if want_cost else None)
    if select or ignore:
        report = report.filtered(select, ignore)

    cost_record = None
    if want_cost:
        from .cost import analyze_costs, build_cost_report
        cost = build_cost_report(analyze_costs(tasks))
        cost_record = cost.to_record()
        if args.cost_out is not None:
            args.cost_out.write_text(json.dumps(cost_record, indent=2) + "\n")

    if args.json:
        record = report.to_record()
        if cost_record is not None:
            record["cost"] = cost_record
        print(json.dumps(record, indent=2))
    else:
        print(report.render())
        if want_cost:
            print(cost.render())
    return report.exit_code(strict=args.strict)


def _split_codes(ap: argparse.ArgumentParser,
                 groups: Optional[Sequence[str]]) -> Optional[List[str]]:
    if groups is None:
        return None
    codes: List[str] = []
    for group in groups:
        codes.extend(c.strip() for c in group.split(",") if c.strip())
    for code in codes:
        if code not in CODES:
            ap.error(f"unknown rule code {code!r} "
                     f"(known: {', '.join(sorted(CODES))})")
    return codes


if __name__ == "__main__":  # pragma: no cover - module CLI
    sys.exit(main())

#!/usr/bin/env python
"""The use ledger: which entry points reach each ``src/repro`` function.

Every entry point the repo claims runs in a fresh interpreter under a
``sys.setprofile`` hook that records the code objects it calls,
campaign worker processes included.  The result is
``benchmarks/results/reach.json``: each function, keyed by
``module:qualname`` (never by line number, so an edit elsewhere does
not move it), with its length and the entry points that reach it, plus
the totals.  Tests are deliberately not an entry point: a function only
its own tests call serves no one.

Usage::

    python benchmarks/reach.py            # rewrite results/reach.json

Three ways the hook under-counts, each guarded here:

* ``cProfile`` installs its own profile function, replacing this one, so
  the host workloads are driven directly rather than through
  ``measure.py``'s traced role;
* a forked pool worker inherits the hook, but must switch it off before
  dumping (otherwise the dump's own calls grow the set it iterates) and
  must dump on SIGTERM as well as on a clean exit, because
  ``Pool.__exit__`` terminates its workers;
* set iteration order follows the hash seed, so every child runs with
  ``PYTHONHASHSEED=0``.
"""

from __future__ import annotations

import ast
import functools
import json
import multiprocessing.util
import os
import pathlib
import runpy
import signal
import subprocess
import sys
import tempfile
import threading
from typing import Callable, Dict, List, Set, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
OUT = HERE / "results" / "reach.json"

SCHEMA = "fem2-reach/1"

#: the seed the host workloads draw their inputs from
HOST_SEED = 1984

HOST_WORKLOADS = ("solve_large", "service_stream", "preempt_churn",
                  "campaign_cold", "gate_cold")

EXAMPLES = ("design_method_walkthrough", "fault_tolerant_run",
            "machine_study", "multiuser_workstation", "parallel_program",
            "quickstart", "substructure_analysis")

CAMPAIGN_ARGS = ("--axis", "n_clusters=2,4", "--axis", "nx=2,4",
                 "--campaign-workers", "2", "--waves", "2", "--refine", "2",
                 "--restart-events", "200")

LINT_ARGS = ("src", "examples", "--cost")


# -- the universe: every function defined under src/repro ---------------------

def module_of(path: pathlib.Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _defs(tree: ast.Module):
    """``(qualname, first line, def line, last line)`` of every function,
    methods and nested functions included, qualified as CPython does."""
    stack: List[Tuple[ast.AST, str]] = [(node, "") for node in tree.body]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + node.name
            first = min([d.lineno for d in node.decorator_list] + [node.lineno])
            yield qualname, first, node.lineno, node.end_lineno
            inner = qualname + ".<locals>."
        elif isinstance(node, ast.ClassDef):
            inner = prefix + node.name + "."
        else:
            inner = prefix
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))


def universe() -> Tuple[Dict[str, int], Dict[Tuple[str, int, str], str]]:
    """``{key: lines}`` over every function, and the map from what the
    hook records, ``(file, first line, name)``, to the key.  Two defs
    with one qualname (a property and its setter) share a key."""
    lines: Dict[str, int] = {}
    where: Dict[Tuple[str, int, str], str] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        module = module_of(path)
        for qualname, first, def_line, last in _defs(ast.parse(path.read_text())):
            key = f"{module}:{qualname}"
            lines[key] = lines.get(key, 0) + last - def_line + 1
            where[(rel, first, qualname.rsplit(".", 1)[-1])] = key
    return lines, where


# -- the hook -------------------------------------------------------------------

class Recorder:
    """Records every code object called in this process and in the
    processes ``multiprocessing`` forks from it, and writes one
    ``<pid>.txt`` per process into *out_dir*: ``file:line:name`` per
    ``src/repro`` code object."""

    def __init__(self, out_dir: pathlib.Path) -> None:
        self.out_dir = out_dir
        self.seen: Set = set()

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            self.seen.add(frame.f_code)

    def start(self) -> None:
        sys.setprofile(self._hook)
        threading.setprofile(self._hook)
        multiprocessing.util.register_after_fork(self, Recorder._in_child)

    def _in_child(self) -> None:
        # the finalizer registry was just cleared for the new process;
        # a clean worker exit runs the finalizers, a terminated one gets
        # SIGTERM
        sys.setprofile(self._hook)
        multiprocessing.util.Finalize(None, self.dump, exitpriority=0)
        signal.signal(signal.SIGTERM, self._on_term)

    def _on_term(self, signum, frame) -> None:
        self.dump()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    def dump(self) -> None:
        # off first: with the hook on, writing the file grows the set
        sys.setprofile(None)
        threading.setprofile(None)
        prefix = str(PACKAGE) + os.sep
        rows = sorted({
            f"{pathlib.Path(c.co_filename).relative_to(SRC).as_posix()}:"
            f"{c.co_firstlineno}:{c.co_name}"
            for c in list(self.seen) if c.co_filename.startswith(prefix)})
        (self.out_dir / f"{os.getpid()}.txt").write_text("".join(
            row + "\n" for row in rows))


def trace_call(fn: Callable[[], object], out_dir: pathlib.Path) -> None:
    """Run ``fn()`` with every call recorded into *out_dir*."""
    recorder = Recorder(out_dir)
    recorder.start()
    try:
        fn()
    finally:
        recorder.dump()


def collect(out_dir: pathlib.Path) -> Set[Tuple[str, int, str]]:
    """Everything the processes of one traced run recorded."""
    got = set()
    for path in out_dir.glob("*.txt"):
        for row in path.read_text().splitlines():
            rel, line, name = row.rsplit(":", 2)
            got.add((rel, int(line), name))
    return got


# -- the entry points, as run inside one traced child ------------------------------

def _run_script(path: pathlib.Path, *args: str) -> None:
    sys.argv = [str(path), *args]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        if exc.code:
            raise


def _run_module(name: str, *args: str) -> None:
    sys.argv = [name, *args]
    try:
        runpy.run_module(name, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if exc.code:
            raise


def _run_host(name: str) -> None:
    sys.path.insert(0, str(HERE / "host"))
    import probes
    from workloads import BY_NAME, Verdict

    workload = BY_NAME[name](HOST_SEED)
    records = [workload.run(workload.prepare(i))
               for i in range(2 * workload.round_size)]
    verdict = Verdict()
    workload.verify(records, verdict)
    if verdict.failed:
        raise RuntimeError(f"{name}: {verdict.failed} ops failed verification")
    probes.run_all(probes.Case(*workload.probe_case()))
    if workload.runs_campaigns:
        probes.campaign_fanout()


def _run_all() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        _run_script(HERE / "run_all.py", "--lint", "--out", tmp)


def _entry_points() -> Dict[str, Tuple[str, Callable[[], None]]]:
    out = {"run_all": ("python benchmarks/run_all.py --lint", _run_all)}
    for name in EXAMPLES:
        path = ROOT / "examples" / f"{name}.py"
        out[f"example:{name}"] = (f"python examples/{name}.py",
                                  functools.partial(_run_script, path))
    for name in HOST_WORKLOADS:
        out[f"host:{name}"] = (f"benchmarks/host {name}: 2 rounds of "
                               f"prepare/run/verify, then the probes",
                               functools.partial(_run_host, name))
    out["campaign_cli"] = (
        "python -m repro.campaign " + " ".join(CAMPAIGN_ARGS),
        functools.partial(_run_module, "repro.campaign", *CAMPAIGN_ARGS))
    out["lint_cli"] = ("python -m repro.lint " + " ".join(LINT_ARGS),
                       functools.partial(_run_module, "repro.lint", *LINT_ARGS))
    return out


#: entry-point name -> (the command it stands for, how a child runs it)
ENTRY_POINTS = _entry_points()


def child(name: str, out_dir: str) -> None:
    """Run entry point *name* under the hook (in a fresh interpreter)."""
    trace_call(ENTRY_POINTS[name][1], pathlib.Path(out_dir))


def run_child(name: str, out_dir: pathlib.Path) -> None:
    # FEM2_* knobs (e.g. FEM2_E16_WORKERS) would resize what run_all runs
    env = {k: v for k, v in os.environ.items() if not k.startswith("FEM2_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import reach; reach.child({name!r}, {str(out_dir)!r})"],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    if proc.returncode:
        raise RuntimeError(f"{name} failed:\n{proc.stderr}")


# -- the ledger ------------------------------------------------------------------------

def ledger(reached: Dict[str, Set[Tuple[str, int, str]]]) -> dict:
    """The ``fem2-reach/1`` document from each entry point's records."""
    lines, where = universe()
    by: Dict[str, List[str]] = {key: [] for key in lines}
    for name in sorted(reached):
        for key in sorted({where[r] for r in reached[name] if r in where}):
            by[key].append(name)
    unreached = [key for key in lines if not by[key]]
    packages: Dict[str, int] = {}
    for key in unreached:
        package = (key.split(":")[0].split(".") + ["repro"])[1]
        packages[package] = packages.get(package, 0) + lines[key]
    return {
        "schema": SCHEMA,
        "entry_points": {name: command
                         for name, (command, _) in ENTRY_POINTS.items()},
        "totals": {
            "functions": len(lines),
            "function_lines": sum(lines.values()),
            "unreached_functions": len(unreached),
            "unreached_lines": sum(lines[key] for key in unreached),
            "unreached_lines_by_package": dict(sorted(packages.items())),
            "functions_by_entry_point": {
                name: sum(1 for key in lines if name in by[key])
                for name in sorted(reached)},
        },
        "functions": {key: {"lines": lines[key], "reached_by": by[key]}
                      for key in sorted(lines)},
    }


def render(doc: dict) -> str:
    """JSON with one function per line, so a diff names the function."""
    head = {k: v for k, v in doc.items() if k != "functions"}
    text = json.dumps(head, indent=1)[:-2]
    rows = [f"  {json.dumps(key)}: {json.dumps(value)}"
            for key, value in doc["functions"].items()]
    return text + ',\n "functions": {\n' + ",\n".join(rows) + "\n }\n}\n"


def main() -> int:
    reached = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in ENTRY_POINTS:
            print(f"[reach] {name} ...", file=sys.stderr, flush=True)
            out_dir = pathlib.Path(tmp) / name.replace(":", "-")
            out_dir.mkdir()
            run_child(name, out_dir)
            reached[name] = collect(out_dir)
    doc = ledger(reached)
    OUT.write_text(render(doc))
    totals = doc["totals"]
    print(f"[reach] {totals['unreached_functions']} of {totals['functions']} "
          f"functions ({totals['unreached_lines']} of "
          f"{totals['function_lines']} lines) reached by no entry point; "
          f"wrote {OUT.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

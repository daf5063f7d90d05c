#!/usr/bin/env python
"""The use ledger: which entry points reach each ``src/repro`` function,
and which of them vary each of its keywords.

Every entry point the repo claims runs in a fresh interpreter under a
``sys.setprofile`` hook that records the code objects it calls,
campaign worker processes included.  The result is
``benchmarks/results/reach.json`` (``fem2-reach/3``), three sections:

* ``functions``: each function, keyed by ``module:qualname`` (never by
  line number, so an edit elsewhere does not move it), with its length
  and the entry points that reach it;
* ``knobs``: each defaulted parameter of a reached public function, and
  each defaulted field of a reached ``repro`` dataclass, keyed
  ``module:qualname|param``, with its default and the entry points that
  passed it another value (``varied_by``).  A knob no entry point varies
  is a constant spelled as a setting;
* ``record_state``: the same rows for the fields of a non-frozen
  dataclass (``TCB``, ``TaskInfo``, ``TenantLedger``, ``Message``, ...).
  Such a field is state the program mutates, not a setting a caller
  chooses, so it is counted here rather than among the knobs.  Function
  parameters and the fields of frozen dataclasses (``MachineConfig``,
  ``JobSpec``, ``Tenant``, ``RunOptions``, ``Material``) stay knobs.

plus the totals.  Tests are deliberately not an entry point: a function
only its own tests call, or a keyword only its tests set, serves no one.

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

Three pitfalls of the knob half, each handled here:

* a frame does not carry its function object, so the hook maps a code
  object to its function's defaults once, by scanning the namespace of
  the module that defines it (methods, class and static methods and
  property getters included) the first time the code is called, and
  reads ``f_locals`` only for code objects in that map;
* a dataclass's generated ``__init__`` has ``co_filename ==
  "<string>"``: it is matched through ``type(self)`` and its defaults
  come from ``dataclasses.fields`` (``default``, or
  ``default_factory()``);
* a passed value is compared with the default by ``is`` first, then by
  a guarded ``==``; an ambiguous truth value (a numpy array) counts as
  varied.  A resumed generator also fires ``call``: only its first
  entry is compared, since the body may have rebound a parameter.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import dis
import functools
import importlib
import inspect
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
from typing import Callable, Dict, List, Optional, Set, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
#: what every src/repro code object's co_filename starts with
PREFIX = str(PACKAGE) + os.sep
OUT = HERE / "results" / "reach.json"

SCHEMA = "fem2-reach/3"

#: the seed the host workloads draw their inputs from
HOST_SEED = 1984

HOST_WORKLOADS = ("solve_large", "service_stream", "preempt_churn",
                  "campaign_cold", "gate_cold")

EXAMPLES = ("design_method_walkthrough", "fault_tolerant_run",
            "machine_study", "multiuser_workstation", "parallel_program",
            "quickstart", "substructure_analysis")

#: the two CLIs run as CI runs them; ``<tmp>`` is a file in a fresh temporary
#: directory, so the records they write are built and then discarded
CAMPAIGN_ARGS = ("--axis", "n_clusters=2,4", "--axis", "nx=2,4",
                 "--campaign-workers", "2", "--waves", "2", "--refine", "2",
                 "--restart-events", "200", "--out", "<tmp>")

LINT_ARGS = ("src", "examples", "benchmarks", "--strict", "--json",
             "--cost-out", "<tmp>")


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


# -- knobs: the defaulted parameters of the public surface -----------------------

_GENERATOR = (inspect.CO_GENERATOR | inspect.CO_COROUTINE
              | inspect.CO_ASYNC_GENERATOR)

#: a code object the hook has resolved and found without knobs
_UNSEEN = object()


def public(qualname: str) -> bool:
    """True unless a component is ``<locals>`` or private (a leading
    ``_``; dunders such as ``__init__`` are public)."""
    return all(part != "<locals>" and (
        not part.startswith("_") or (part.startswith("__")
                                     and part.endswith("__")))
        for part in qualname.split("."))


def shown(value: object) -> str:
    """A default as the ledger shows it: its repr, or its type name when
    the repr would carry an address."""
    text = repr(value)
    return type(value).__name__ if " at 0x" in text else text


def same(passed: object, default: object) -> bool:
    """Whether a passed value equals the default; an ``==`` that raises
    or has no truth value (a numpy array) counts as varied."""
    if passed is default:
        return True
    try:
        return bool(passed == default)
    except Exception:
        return False


class Knobs:
    """One function's defaulted parameters, as seen in one process:
    *pending* holds those no call has varied yet, each with the object
    a call that omits it receives and the value it compares against."""

    __slots__ = ("key", "shown", "pending", "start", "reached")

    def __init__(self, key: str, defaults: Dict[str, Tuple[object, object]],
                 code) -> None:
        self.key = key
        self.shown = {param: shown(value)
                      for param, (_, value) in defaults.items()}
        self.pending = dict(defaults)
        # a generator fires "call" on every resume: compare only its
        # first entry, the offset of its first RESUME
        self.start = None
        if code.co_flags & _GENERATOR:
            self.start = next(ins.offset for ins in dis.get_instructions(code)
                              if ins.opname == "RESUME")
        self.reached = False


def function_knobs(key: str, fn, cls=None) -> Optional[Knobs]:
    """The :class:`Knobs` of *fn*, or None when it has no defaulted
    parameter.  *cls* is the dataclass whose generated ``__init__`` *fn*
    is: a ``default_factory`` field then compares against a fresh
    ``default_factory()``."""
    code = fn.__code__
    names = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
    positional = fn.__defaults__ or ()
    defaults: Dict[str, Tuple[object, object]] = {}
    for name, value in zip(names[code.co_argcount - len(positional):],
                           positional):
        defaults[name] = (value, value)
    for name, value in (fn.__kwdefaults__ or {}).items():
        defaults[name] = (value, value)
    if cls is not None:
        for f in dataclasses.fields(cls):
            if f.name in defaults and f.default is dataclasses.MISSING:
                defaults[f.name] = (defaults[f.name][0], f.default_factory())
    return Knobs(key, defaults, code) if defaults else None


def _is_dataclass_init(cls, fn) -> bool:
    return (dataclasses.is_dataclass(cls) and fn.__name__ == "__init__"
            and fn.__code__.co_filename == "<string>")


def is_record_state(knob: str) -> bool:
    """Whether *knob* (``module:qualname|param``) is a field of a
    non-frozen dataclass, set through its generated ``__init__``."""
    where = knob.split("|")[0]
    module, qualname = where.split(":")
    if not qualname.endswith(".__init__"):
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cls = importlib.import_module(module)
    for part in qualname.split(".")[:-1]:
        cls = getattr(cls, part)
    return (_is_dataclass_init(cls, cls.__init__)
            and not cls.__dataclass_params__.frozen)


def module_knobs(module) -> Dict[object, Knobs]:
    """``{code: Knobs}`` for every public function *module* defines:
    module functions, methods, class and static methods, property
    getters and generated dataclass ``__init__`` methods."""
    name = module.__name__
    out: Dict[object, Knobs] = {}
    stack = [(vars(module), None)]
    seen_classes = set()
    while stack:
        namespace, owner = stack.pop()
        for obj in list(namespace.values()):
            if isinstance(obj, (staticmethod, classmethod)):
                obj = obj.__func__
            elif isinstance(obj, property):
                obj = obj.fget
            if isinstance(obj, type):
                if obj.__module__ == name and obj not in seen_classes:
                    seen_classes.add(obj)
                    stack.append((vars(obj), obj))
                continue
            if not inspect.isfunction(obj):
                continue
            fn = inspect.unwrap(obj)
            if fn.__module__ != name or not public(fn.__qualname__):
                continue
            dataclass_init = owner is not None and _is_dataclass_init(owner, fn)
            if not (dataclass_init
                    or fn.__code__.co_filename.startswith(PREFIX)):
                continue
            knobs = function_knobs(f"{name}:{fn.__qualname__}", fn,
                                   owner if dataclass_init else None)
            if knobs is not None:
                out.setdefault(fn.__code__, knobs)
    return out


# -- the hook -------------------------------------------------------------------

class Recorder:
    """Records every code object called in this process and in the
    processes ``multiprocessing`` forks from it, and writes two files
    per process into *out_dir*: ``<pid>.txt``, ``file:line:name`` per
    ``src/repro`` code object, and ``<pid>.knobs``, one JSON line
    ``[knob, default, varied]`` per parameter of a called function with
    knobs."""

    def __init__(self, out_dir: pathlib.Path) -> None:
        self.out_dir = out_dir
        self.seen: Set = set()
        #: code object -> its Knobs, or None once it has none left
        self.knobs: Dict[object, Optional[Knobs]] = {}
        self.reached: List[Knobs] = []

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            self.seen.add(code)
            knobs = self.knobs.get(code, _UNSEEN)
            if knobs is _UNSEEN:
                knobs = self._resolve(frame)
            if knobs is not None:
                self._compare(code, knobs, frame)

    def _resolve(self, frame) -> Optional[Knobs]:
        """Map a code object seen for the first time to its knobs, by
        scanning the module that defines it."""
        code = frame.f_code
        name = None
        if code.co_filename.startswith(PREFIX):
            name = module_of(pathlib.Path(code.co_filename))
        elif code.co_filename == "<string>" and code.co_name == "__init__" \
                and code.co_varnames:
            # a dataclass __init__: find its class through the instance
            owner = frame.f_locals.get(code.co_varnames[0])
            for cls in type(owner).__mro__:
                if getattr(cls.__dict__.get("__init__"), "__code__",
                           None) is code:
                    name = cls.__module__
                    break
        module = sys.modules.get(name) if name else None
        if module is not None and name.split(".")[0] == "repro":
            for found, knobs in module_knobs(module).items():
                self.knobs.setdefault(found, knobs)
        return self.knobs.setdefault(code, None)

    def _compare(self, code, knobs: Knobs, frame) -> None:
        if knobs.start is not None and frame.f_lasti != knobs.start:
            return
        if not knobs.reached:
            knobs.reached = True
            self.reached.append(knobs)
        passed = frame.f_locals
        pending = knobs.pending
        for param, (omitted, default) in list(pending.items()):
            value = passed.get(param, omitted)
            if value is not omitted and not same(value, default):
                del pending[param]
        if not pending:
            self.knobs[code] = None

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
        rows = sorted({
            f"{pathlib.Path(c.co_filename).relative_to(SRC).as_posix()}:"
            f"{c.co_firstlineno}:{c.co_name}"
            for c in list(self.seen) if c.co_filename.startswith(PREFIX)})
        (self.out_dir / f"{os.getpid()}.txt").write_text("".join(
            row + "\n" for row in rows))
        knobs = sorted(
            json.dumps([f"{k.key}|{param}", default, param not in k.pending])
            for k in self.reached for param, default in k.shown.items())
        (self.out_dir / f"{os.getpid()}.knobs").write_text("".join(
            row + "\n" for row in knobs))


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


def collect_knobs(out_dir: pathlib.Path) -> Tuple[Dict[str, str], Set[str]]:
    """The knobs the processes of one traced run reached, each with its
    default, and those any of them varied."""
    defaults: Dict[str, str] = {}
    varied: Set[str] = set()
    for path in out_dir.glob("*.knobs"):
        for row in path.read_text().splitlines():
            knob, default, was_varied = json.loads(row)
            defaults[knob] = default
            if was_varied:
                varied.add(knob)
    return defaults, varied


# -- the entry points, as run inside one traced child ------------------------------

def _run_script(path: pathlib.Path, *args: str) -> None:
    sys.argv = [str(path), *args]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        if exc.code:
            raise


def _run_module(name: str, *args: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        sys.argv = [name, *(out if arg == "<tmp>" else arg for arg in args)]
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

def ledger(reached: Dict[str, Set[Tuple[str, int, str]]],
           knobs: Dict[str, Tuple[Dict[str, str], Set[str]]]) -> dict:
    """The ``fem2-reach/3`` document from each entry point's records:
    *reached* its function records, *knobs* its ``(defaults, varied)``."""
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
    knob_rows: Dict[str, dict] = {}
    record_rows: Dict[str, dict] = {}
    for name in sorted(knobs):
        defaults, varied = knobs[name]
        for knob, default in defaults.items():
            rows = record_rows if is_record_state(knob) else knob_rows
            row = rows.setdefault(knob, {"default": default,
                                         "varied_by": []})
            if knob in varied:
                row["varied_by"].append(name)
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
            "knobs": len(knob_rows),
            "idle_knobs": sum(1 for row in knob_rows.values()
                              if not row["varied_by"]),
            "record_state": len(record_rows),
            "idle_record_state": sum(1 for row in record_rows.values()
                                     if not row["varied_by"]),
        },
        "functions": {key: {"lines": lines[key], "reached_by": by[key]}
                      for key in sorted(lines)},
        "knobs": dict(sorted(knob_rows.items())),
        "record_state": dict(sorted(record_rows.items())),
    }


def render(doc: dict) -> str:
    """JSON with one function or knob per line, so a diff names it."""
    sections = ("functions", "knobs", "record_state")
    head = {k: v for k, v in doc.items() if k not in sections}
    text = json.dumps(head, indent=1)[:-2]
    for section in sections:
        rows = [f"  {json.dumps(key)}: {json.dumps(value)}"
                for key, value in doc[section].items()]
        text += f',\n "{section}": {{\n' + ",\n".join(rows) + "\n }"
    return text + "\n}\n"


def main(argv: Optional[List[str]] = None) -> int:
    argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    reached, knobs = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in ENTRY_POINTS:
            print(f"[reach] {name} ...", file=sys.stderr, flush=True)
            out_dir = pathlib.Path(tmp) / name.replace(":", "-")
            out_dir.mkdir()
            run_child(name, out_dir)
            reached[name] = collect(out_dir)
            knobs[name] = collect_knobs(out_dir)
    doc = ledger(reached, knobs)
    OUT.write_text(render(doc))
    totals = doc["totals"]
    print(f"[reach] {totals['unreached_functions']} of {totals['functions']} "
          f"functions ({totals['unreached_lines']} of "
          f"{totals['function_lines']} lines) reached by no entry point; "
          f"{totals['idle_knobs']} of {totals['knobs']} knobs varied by "
          f"none ({totals['idle_record_state']} of {totals['record_state']} "
          f"record-state fields); wrote {OUT.relative_to(ROOT)}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

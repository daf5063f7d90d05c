"""The process-wide analysis store behind the program entry points.

What :func:`repro.lint.lint_program`, :func:`~repro.lint.flow_summary`
and :func:`~repro.lint.cost_report` say about a program is a pure
function of its registered task bodies' *code*: the passes read source
text, file, start line and registered name — no closure cell, no model,
no machine configuration.  So a task set is analysed once per process
and found again by content: the registry's ordered ``(name, code
object, co_filename)`` tuple → one
:class:`~repro.lint.program.Analysis`, every pass run once.  Code
objects compare by value but not by file, hence the filename; two
closures of one ``def`` share a code object, so every fresh pool's
scratch solve is the same entry.

The key is the code the runtime will execute, not the file's mtime:
editing a file under a live process re-imports nothing, so it re-lints
nothing.  The memo is a bounded LRU map; eviction costs a re-analysis
and nothing else.  Cached values are shared between callers and are
read-only by contract: no pass writes to a :class:`TaskInfo` after
:func:`analyze_task` returns it (``tests/test_lint_store.py`` compares
them before and after every consumer).
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from collections import OrderedDict
from types import CodeType
from typing import List, Optional

from .astutil import TaskInfo, analyze_task
from .program import Analysis, analyze_tasks

#: task sets kept before the least recently used one is dropped
MAX_TASK_SETS = 64

_task_sets: "OrderedDict[tuple, Analysis]" = OrderedDict()


def clear() -> None:
    """Forget every cached task set (the next analysis of each is a
    miss; results are unaffected)."""
    _task_sets.clear()


def _recover(name: str, body) -> Optional[TaskInfo]:
    """Parse one task body's source into the :class:`TaskInfo` of the
    task registered as *name*; None when the source cannot be recovered
    (REPL, generated code; the run-time audit still covers those)."""
    try:
        lines, start = inspect.getsourcelines(body)
        file = inspect.getsourcefile(body) or "<unknown>"
    except (OSError, TypeError):
        return None
    try:
        tree = ast.parse(textwrap.dedent("".join(lines)))
    except SyntaxError:
        return None
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            # snippet line k is file line start + k - 1 (the snippet
            # begins at the decorator, which getsourcelines includes)
            return analyze_task(node, file, registered_name=name,
                                line_offset=start - 1, registered=True)
    return None


def _code_of(body) -> Optional[CodeType]:
    """The code object whose source :mod:`inspect` would read for
    *body* (None for callables that have none: partials, instances)."""
    return getattr(inspect.unwrap(body), "__code__", None)


def _analyze(names, bodies) -> Analysis:
    tasks: List[TaskInfo] = []
    for name, body in zip(names, bodies):
        info = _recover(name, body)
        if info is not None:
            tasks.append(info)
    return analyze_tasks(tasks)


def program_analysis(program) -> Analysis:
    """The :class:`Analysis` of the task types registered on *program*.

    Walks the program's :class:`~repro.sysvm.code.CodeRegistry`; bodies
    whose source cannot be recovered are skipped.
    """
    registry = program.runtime.registry
    names = registry.types()
    bodies = [registry.get(name).body for name in names]
    codes = [_code_of(body) for body in bodies]
    key = tuple((name, code, code and code.co_filename)
                for name, code in zip(names, codes))
    try:
        analysis = _task_sets[key]
    except KeyError:
        analysis = _task_sets[key] = _analyze(names, bodies)
        if len(_task_sets) > MAX_TASK_SETS:
            _task_sets.popitem(last=False)
    else:
        _task_sets.move_to_end(key)
    return analysis

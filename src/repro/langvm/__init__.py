"""Layer 2 of the FEM-2 design: the numerical analyst's virtual machine.

The high-level parallel language sketched in the paper, embedded in
Python: tasks with initiate/pause/resume/terminate, windows on arrays,
forall and pardo sequence control, ``ctx.broadcast``, remote procedure
calls located by window data (``ctx.call``), and parallel linear algebra.
"""

from .windows import Window, block, col, row, vec, whole
from .ownership import check_owner
from .program import Fem2Program, TaskContext
from .parallel import forall, pardo
from . import linalg
from .linalg import LINALG_TASKS, ensure_registered
from .reduce import REDUCE_NODE, ensure_reduce_registered, flat_reduce, tree_reduce
from .audit import AccessRecord, Conflict, WindowAudit

__all__ = [
    "Window",
    "block",
    "col",
    "row",
    "vec",
    "whole",
    "check_owner",
    "Fem2Program",
    "TaskContext",
    "forall",
    "pardo",
    "linalg",
    "LINALG_TASKS",
    "ensure_registered",
    "REDUCE_NODE",
    "ensure_reduce_registered",
    "flat_reduce",
    "tree_reduce",
    "AccessRecord",
    "Conflict",
    "WindowAudit",
]

"""The effect protocol between task bodies and the run-time system.

Task bodies in this simulation are Python *generator functions*: they
``yield`` effect objects and are resumed with the effect's result.  The
run-time (:mod:`repro.sysvm.runtime`) interprets each effect against
the simulated machine — charging PE cycles, formatting messages,
blocking and waking tasks — so the generator's control flow *is* the
task's control flow under the simulated clock.

The numerical analyst's VM (:mod:`repro.langvm`) wraps these effects in
the language constructs the paper lists (forall, pardo, windows,
broadcast, task control); nothing above the language layer yields raw
effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np


class Effect:
    """Base class for everything a task body may yield."""

    __slots__ = ()


# The four effects every task step yields write their own ``__init__``:
# generated dataclass methods all share one profiler key
# (``<string>:2:__init__``), so a per-function profile would fold their
# construction into a single entry.  Fields, order, equality, hashing and
# frozenness are still the dataclass's.
_set = object.__setattr__


@dataclass(frozen=True, init=False)
class Compute(Effect):
    """Occupy the task's PE for *cycles* cycles of arithmetic.

    Resumes with ``None``.  ``flops`` optionally records how many of
    those cycles were floating-point work, for the E1 processing table.
    """

    cycles: int
    flops: int = 0

    def __init__(self, cycles: int, flops: int = 0) -> None:
        _set(self, "cycles", cycles)
        _set(self, "flops", flops)


@dataclass(frozen=True)
class CreateArray(Effect):
    """Create an array in the local cluster, owned by this task.

    Resumes with an :class:`~repro.sysvm.storage.ArrayHandle`.  The data
    lives until the owner terminates ("data lifetime - lifetime of owner
    task") unless the task was spawned with ``retain_data=True``.
    """

    data: np.ndarray


@dataclass(frozen=True)
class FreeArray(Effect):
    """Explicitly release an array this task owns.  Resumes with None."""

    handle: Any


@dataclass(frozen=True, init=False)
class ReadWindow(Effect):
    """Read the data visible in a window.  Resumes with an ndarray copy.

    Local windows cost memory-touch cycles; remote windows cost a
    remote-call/return message pair.
    """

    window: Any

    def __init__(self, window: Any) -> None:
        _set(self, "window", window)


@dataclass(frozen=True, init=False)
class WriteWindow(Effect):
    """Assign the data visible in a window.  Resumes with None."""

    window: Any
    data: Any
    accumulate: bool = False  # += instead of =, for FEM assembly

    def __init__(self, window: Any, data: Any, accumulate: bool = False) -> None:
        _set(self, "window", window)
        _set(self, "data", data)
        _set(self, "accumulate", accumulate)


@dataclass(frozen=True)
class Initiate(Effect):
    """"Initiate a task" / "dynamic creation of multiple task
    replications": start *count* replications of *task_type*.

    Resumes with the list of new task ids.  ``cluster`` pins placement;
    None lets the run-time's placement policy choose per replication.
    Each replication receives ``args`` plus, when ``index_arg`` is true,
    its replication index appended.
    """

    task_type: str
    args: Tuple[Any, ...] = ()
    count: int = 1
    cluster: Optional[int] = None
    index_arg: bool = True


@dataclass(frozen=True)
class WaitChildren(Effect):
    """Block until the listed child tasks terminate.

    Resumes with ``{tid: result}``.
    """

    tids: Tuple[int, ...]


@dataclass(frozen=True, init=False)
class WaitPause(Effect):
    """Block until the given child notifies that it paused.

    Resumes with ``None`` once the pause notification arrives.
    """

    tid: int

    def __init__(self, tid: int) -> None:
        _set(self, "tid", tid)


@dataclass(frozen=True)
class Pause(Effect):
    """"Pause and notify parent task."  Local data is retained; the task
    resumes (with ``None``) when the parent sends resume."""


@dataclass(frozen=True)
class ResumeChild(Effect):
    """"Resume a paused child task."  Non-blocking; resumes with None."""

    tid: int


@dataclass(frozen=True)
class Broadcast(Effect):
    """"Broadcast data to a set of tasks": deliver *value* to each task's
    mailbox.  Non-blocking; resumes with None."""

    tids: Tuple[int, ...]
    value: Any


@dataclass(frozen=True)
class Receive(Effect):
    """Take the next value from this task's mailbox (blocking).

    Resumes with the broadcast value.
    """


@dataclass(frozen=True)
class RemoteCall(Effect):
    """"Remote procedure call - location determined by location of data
    visible in a window."

    Executes procedure *proc* (a registered task type) at *cluster* —
    or, when cluster is None, at the cluster owning the first window
    argument.  Blocks until the remote return arrives; resumes with the
    procedure's result.
    """

    proc: str
    args: Tuple[Any, ...] = ()
    cluster: Optional[int] = None

"""Data-control rules of the numerical analyst's VM.

"Data control: All data owned by a single task; data accessible
non-locally only via windows; windows may be transmitted as parameters
... tasks may communicate through windows."

The language layer enforces the first two rules at its API boundary:
direct access to an array's storage is granted only to the owning task
(:func:`check_owner`); everyone else must present a window, which the
run-time then services locally or remotely.
"""

from __future__ import annotations

from ..errors import OwnershipError
from ..sysvm.storage import ArrayHandle


def check_owner(handle: ArrayHandle, task_id: int) -> None:
    """Raise :class:`OwnershipError` unless *task_id* owns the array."""
    if handle.owner_task != task_id:
        raise OwnershipError(
            f"task {task_id} touched array #{handle.array_id} owned by task "
            f"{handle.owner_task}; non-local data is reachable only through windows"
        )

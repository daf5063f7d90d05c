"""Storage representations for scalars, arrays, and descriptors.

The system programmer's VM fixes "storage representations for scalars,
arrays, etc."  Sizes are measured in *words*; one word holds one
floating-point value, integer, or pointer (the FEM's 32-bit heritage,
kept simple).  :func:`words_of` is the single sizing rule used by the
message codec, the heap, and the storage-requirements estimates, so E1
measures and estimates in the same units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..errors import SysVMError

#: Fixed overhead of any array: base pointer, rank, dims, dtype tag.
ARRAY_DESCRIPTOR_WORDS = 6
#: A window descriptor: array id, kind tag, 2x(offset, extent), owner.
WINDOW_DESCRIPTOR_WORDS = 8
#: Message header: kind, id, src/dst task, src/dst cluster, size, flags.
MESSAGE_HEADER_WORDS = 8
#: Activation record overhead beyond locals: links, state, code pointer.
ACTIVATION_BASE_WORDS = 16


def words_of(value: Any) -> int:
    """Words needed to store or transmit *value*.

    Scalars cost one word; strings pack four characters per word;
    arrays cost their element count plus a descriptor; containers cost
    the sum of their parts plus one length word.
    """
    # exact types first (what messages mostly carry); subclasses and the
    # rest walk the isinstance ladder below
    kind = type(value)
    if value is None or kind is int or kind is float or kind is bool:
        return 1
    if kind is str:
        return 1 + (len(value) + 3) // 4
    if kind is np.ndarray:
        return ARRAY_DESCRIPTOR_WORDS + int(value.size)
    if isinstance(value, (bool, int, float, complex)):
        return 2 if isinstance(value, complex) else 1
    if isinstance(value, str):
        return 1 + (len(value) + 3) // 4
    if isinstance(value, np.ndarray):
        return ARRAY_DESCRIPTOR_WORDS + int(value.size)
    if isinstance(value, np.generic):
        return 1
    if isinstance(value, (list, tuple)):
        return 1 + sum(words_of(v) for v in value)
    if isinstance(value, dict):
        return 1 + sum(words_of(k) + words_of(v) for k, v in value.items())
    if hasattr(value, "size_words"):
        return int(value.size_words())
    raise SysVMError(f"cannot size value of type {type(value).__name__}")


@dataclass(frozen=True)
class ArrayHandle:
    """A descriptor for an array resident in one cluster's memory.

    The data itself ("owned by a single task") lives in the
    :class:`DataStore`; everything off-cluster sees only this handle and
    must reach the data through windows.
    """

    array_id: int
    shape: Tuple[int, ...]
    dtype: str
    cluster: int
    owner_task: Optional[int]

    def size_words(self) -> int:
        """Transmission/storage size of the *handle* (not the data)."""
        return ARRAY_DESCRIPTOR_WORDS

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrayHandle(#{self.array_id} {self.dtype}{list(self.shape)} @c{self.cluster})"


class DataStore:
    """Cluster-resident array storage with capacity accounting.

    ``register`` reserves words in the owning cluster's shared memory;
    ``drop`` releases them.  Access checks live at the language layer
    (:mod:`repro.langvm.ownership`); the store itself is the physical
    model.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self._arrays: Dict[int, np.ndarray] = {}
        self._handles: Dict[int, ArrayHandle] = {}
        self._next_id = 1

    def register(
        self, data: np.ndarray, cluster: int, owner_task: Optional[int] = None
    ) -> ArrayHandle:
        data = np.asarray(data)
        aid = self._next_id
        self._next_id += 1
        handle = ArrayHandle(aid, data.shape, str(data.dtype), cluster, owner_task)
        self.machine.cluster(cluster).memory.reserve(
            ARRAY_DESCRIPTOR_WORDS + int(data.size), tag="arrays"
        )
        self._arrays[aid] = data
        self._handles[aid] = handle
        return handle

    def raw(self, handle: ArrayHandle) -> np.ndarray:
        """The backing array.  Physical access only — callers above the
        system VM must go through windows."""
        try:
            return self._arrays[handle.array_id]
        except KeyError:
            raise SysVMError(f"stale array handle #{handle.array_id}") from None

    def drop(self, handle: ArrayHandle) -> None:
        arr = self.raw(handle)
        self.machine.cluster(handle.cluster).memory.release(
            ARRAY_DESCRIPTOR_WORDS + int(arr.size), tag="arrays"
        )
        del self._arrays[handle.array_id]
        del self._handles[handle.array_id]

    def drop_owned_by(self, task_id: int) -> int:
        """Release every array owned by a task ("data lifetime = lifetime
        of owner task").  Returns the number of arrays dropped."""
        doomed = [h for h in self._handles.values() if h.owner_task == task_id]
        for h in doomed:
            self.drop(h)
        return len(doomed)

    def snapshot(self) -> Dict:
        """Arrays, handles (as field tuples; ArrayHandle is frozen), and
        the id counter.  Shared-memory words are accounted by the
        hardware snapshot, so restore installs without re-reserving."""
        return {
            "next_id": self._next_id,
            "arrays": [
                (aid, self._arrays[aid],
                 (h.array_id, tuple(h.shape), h.dtype, h.cluster, h.owner_task))
                for aid, h in self._handles.items()
            ],
        }

    def restore(self, state: Dict) -> None:
        self._next_id = state["next_id"]
        self._arrays = {}
        self._handles = {}
        for aid, arr, hfields in state["arrays"]:
            self._arrays[aid] = arr
            self._handles[aid] = ArrayHandle(*hfields)


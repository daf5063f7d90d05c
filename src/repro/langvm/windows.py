"""Windows on arrays: row, column, and block descriptors.

"Data objects: Windows on arrays (e.g., row, column, block descriptors,
for remote access to non-local data)" — following Mehrotra's thesis
(the paper's ref [6]).  A window is a value: it can be "transmitted as
parameters, further partitioned, stored as values of variables"; tasks
communicate through windows.

A window implements the system-VM descriptor protocol — ``handle``,
``words``, ``read_from``, ``write_to``, ``size_words`` — so the kernel
can service remote window traffic without knowing the window algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import WindowError
from ..sysvm.storage import ArrayHandle, WINDOW_DESCRIPTOR_WORDS


@dataclass(frozen=True)
class Window:
    """A rectangular view onto an array resident in some cluster.

    ``rows``/``cols`` are half-open index ranges into the (at most 2-D)
    array.  1-D arrays are treated as single-row matrices.
    """

    handle: ArrayHandle
    rows: Tuple[int, int]
    cols: Tuple[int, int]

    def __post_init__(self) -> None:
        nr, nc = self._array_dims()
        r0, r1 = self.rows
        c0, c1 = self.cols
        if not (0 <= r0 < r1 <= nr and 0 <= c0 < c1 <= nc):
            raise WindowError(
                f"window rows={self.rows} cols={self.cols} out of bounds for "
                f"array of shape {self.handle.shape}"
            )

    def _array_dims(self) -> Tuple[int, int]:
        shape = self.handle.shape
        if len(shape) == 1:
            return (1, shape[0])
        if len(shape) == 2:
            return shape
        raise WindowError(f"windows support 1-D/2-D arrays, got shape {shape}")

    # -- geometry ----------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows[1] - self.rows[0], self.cols[1] - self.cols[0])

    @property
    def words(self) -> int:
        r, c = self.shape
        return r * c

    def size_words(self) -> int:
        """Wire size of the descriptor itself (windows are small values)."""
        return WINDOW_DESCRIPTOR_WORDS

    # -- data access (descriptor protocol) -------------------------------------

    def _view(self, arr: np.ndarray) -> np.ndarray:
        if arr.ndim == 1:
            return arr[self.cols[0] : self.cols[1]]
        return arr[self.rows[0] : self.rows[1], self.cols[0] : self.cols[1]]

    def read_from(self, arr: np.ndarray) -> np.ndarray:
        return self._view(arr).copy()

    def write_to(self, arr: np.ndarray, data, accumulate: bool = False) -> None:
        view = self._view(arr)
        data = np.asarray(data).reshape(view.shape)
        if accumulate:
            view += data
        else:
            view[...] = data

    # -- window algebra ------------------------------------------------------------

    def split_rows(self, n: int) -> List["Window"]:
        """Partition into <= n row-bands of near-equal size ("windows may
        be ... further partitioned")."""
        return self._split(n, axis=0)

    def split_cols(self, n: int) -> List["Window"]:
        return self._split(n, axis=1)

    def _split(self, n: int, axis: int) -> List["Window"]:
        if n < 1:
            raise WindowError(f"cannot split into {n} parts")
        lo, hi = (self.rows, self.cols)[axis]
        extent = hi - lo
        n = min(n, extent)
        bounds = np.linspace(lo, hi, n + 1).astype(int)
        out = []
        for i in range(n):
            r, c = (self.rows, self.cols)
            if axis == 0:
                r = (int(bounds[i]), int(bounds[i + 1]))
            else:
                c = (int(bounds[i]), int(bounds[i + 1]))
            out.append(Window(self.handle, r, c))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Window(#{self.handle.array_id} rows={self.rows} cols={self.cols})"
        )


# -- constructors ("create window" operations) --------------------------------

def whole(handle: ArrayHandle) -> Window:
    shape = handle.shape
    if len(shape) == 1:
        return Window(handle, (0, 1), (0, shape[0]))
    return Window(handle, (0, shape[0]), (0, shape[1]))


def row(handle: ArrayHandle, i: int) -> Window:
    w = whole(handle)
    return Window(handle, (i, i + 1), w.cols)


def col(handle: ArrayHandle, j: int) -> Window:
    w = whole(handle)
    return Window(handle, w.rows, (j, j + 1))


def block(handle: ArrayHandle, rows: Tuple[int, int], cols: Tuple[int, int]) -> Window:
    return Window(handle, rows, cols)


def vec(handle: ArrayHandle, lo: int, hi: int) -> Window:
    """A contiguous slice of a 1-D array."""
    if len(handle.shape) != 1:
        raise WindowError("vec windows require a 1-D array")
    return Window(handle, (0, 1), (lo, hi))

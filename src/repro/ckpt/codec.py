"""Checkpoint blob codec: a versioned, compressed, memo-free pickle.

A checkpoint is the data tree produced by ``Fem2Program.snapshot()``.
Code is never part of a blob — task bodies and the code registry are
re-created by the program factory on the restore side, which is what
models recovering onto *spare hardware* running the same program image.

Layout: ``b"FEM2CKPT"`` + one version byte + zlib-compressed pickle.

The bytes are a function of the tree's content alone: the pickler runs
without a memo (``fast``), so host object aliasing never reaches a
blob, and every numpy array or scalar is written through one builder,
:func:`_array`.  Equal states give equal blobs, dict insertion order
included.  The decoder accepts only :data:`VOCABULARY` — ``_array``
plus the classes a snapshot holds — and refuses any other global by
name before importing anything.
"""

from __future__ import annotations

import hashlib
import io
import math
import pickle
import zlib
from typing import Any

import numpy as np

from ..errors import CkptError

MAGIC = b"FEM2CKPT"
VERSION = 2

#: the numeric dtypes :func:`_array` builds, ``dtype.str`` -> itemsize
DTYPES = {"|b1": 1, "|i1": 1, "|u1": 1, "<i2": 2, "<u2": 2, "<i4": 4,
          "<u4": 4, "<i8": 8, "<u8": 8, "<f4": 4, "<f8": 8, "<c8": 8,
          "<c16": 16}

#: every global a blob may name, as ``(module, qualname)``
VOCABULARY = frozenset({
    ("repro.ckpt.codec", "_array"),
    ("repro.sysvm.storage", "ArrayHandle"),
    ("repro.sysvm.messages", "Message"),
    ("repro.sysvm.messages", "MsgKind"),
    ("repro.langvm.windows", "Window"),
    ("repro.fem.mesh", "Mesh"),
    ("repro.fem.materials", "Material"),
    ("repro.fem.loads", "LoadSet"),
    ("repro.fem.bc", "Constraints"),
    ("repro.appvm.model", "StructureModel"),
})


def _array(dtype: str, shape: tuple, order: str, data: bytes,
           scalar: bool) -> Any:
    """The one numpy constructor a blob can reach: a writable array (or,
    with *scalar*, a numpy scalar) of a :data:`DTYPES` dtype."""
    if (type(dtype) is not str or dtype not in DTYPES
            or type(shape) is not tuple
            or not all(type(n) is int and n >= 0 for n in shape)
            or order not in ("C", "F") or type(data) is not bytes
            or type(scalar) is not bool or (scalar and shape != ())):
        raise CkptError(f"corrupt checkpoint blob: bad array "
                        f"{dtype!r} {shape!r} {order!r}")
    size = math.prod(shape) * DTYPES[dtype]
    if len(data) != size:
        raise CkptError(f"corrupt checkpoint blob: array {dtype} {shape} "
                        f"needs {size} bytes, has {len(data)}")
    array = np.ndarray(shape, dtype, bytearray(data), order=order)
    return array[()] if scalar else array


class _Pickler(pickle.Pickler):
    def reducer_override(self, obj: Any) -> Any:
        kind = type(obj)
        if kind is np.ndarray or isinstance(obj, np.generic):
            dtype = obj.dtype.str
            if dtype not in DTYPES:
                raise CkptError(f"cannot checkpoint a {dtype} array")
            order = ("F" if kind is np.ndarray and obj.flags.f_contiguous
                     and not obj.flags.c_contiguous else "C")
            return _array, (dtype, obj.shape, order, obj.tobytes(order),
                            kind is not np.ndarray)
        cls = obj if isinstance(obj, type) else kind
        if obj is not _array and (
                (cls.__module__, cls.__qualname__) not in VOCABULARY):
            raise CkptError(f"cannot checkpoint a {cls.__module__}."
                            f"{cls.__qualname__}: not checkpoint state")
        return NotImplemented


class _Unpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        if (module, name) not in VOCABULARY:
            raise CkptError(f"checkpoint names {module}.{name}, which is "
                            f"not checkpoint state")
        return super().find_class(module, name)


def fingerprint(blob: bytes) -> str:
    """The sha256 hex digest of a checkpoint blob's exact bytes.

    Blob bytes depend on the snapshot's content alone, so equal digests
    mean equal machine states, however each was reached.
    """
    if not isinstance(blob, (bytes, bytearray)) or not blob.startswith(MAGIC):
        raise CkptError("not a FEM-2 checkpoint (bad magic)")
    return hashlib.sha256(bytes(blob)).hexdigest()


def to_bytes(state: Any) -> bytes:
    """Serialize a snapshot tree into a self-describing blob."""
    out = io.BytesIO()
    pickler = _Pickler(out, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    try:
        pickler.dump(state)
    except ValueError as exc:  # fast mode's refusal of a cyclic tree
        raise CkptError(f"cannot checkpoint: {exc}") from exc
    return MAGIC + bytes([VERSION]) + zlib.compress(out.getvalue())


def from_bytes(blob: bytes) -> Any:
    """Decode a blob back into a snapshot tree.

    Every call deserializes afresh, so one blob can be restored many
    times without the restores aliasing each other's arrays.
    """
    if not isinstance(blob, (bytes, bytearray)) or not blob.startswith(MAGIC):
        raise CkptError("not a FEM-2 checkpoint (bad magic)")
    if len(blob) < len(MAGIC) + 1:
        raise CkptError("truncated checkpoint blob")
    version = blob[len(MAGIC)]
    if version != VERSION:
        raise CkptError(
            f"checkpoint version {version} not supported (expected {VERSION})"
        )
    try:
        payload = zlib.decompress(bytes(blob[len(MAGIC) + 1:]))
        return _Unpickler(io.BytesIO(payload)).load()
    except CkptError:
        raise
    except Exception as exc:
        raise CkptError(f"corrupt checkpoint blob: {exc}") from exc

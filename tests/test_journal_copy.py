"""The journal's by-type copy is ``copy.deepcopy`` by another route.

``Runtime._step`` journals every value sent into a task coroutine so a
checkpoint can rebuild the coroutine by replay.  ``journal_copy`` skips
``copy.deepcopy`` for the kinds it can copy directly (``None``, exact
``int``, the frozen ``ArrayHandle``, plain numeric arrays).  These
properties hold it to ``copy.deepcopy``: the same type, value, dtype,
shape, strides and flags, the same ``fem2-ckpt/1`` codec bytes, and no
aliasing of a mutable sent value.
"""

import copy

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ckpt import to_bytes
from repro.errors import CkptError
from repro.langvm.windows import Window
from repro.sysvm.runtime import RemoteFault, journal_copy
from repro.sysvm.storage import ArrayHandle

PROPS = settings(max_examples=200, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])

dtypes = st.sampled_from([np.float64, np.float32, np.int64, np.int32,
                          np.uint8, np.bool_, np.complex128,
                          np.dtype(">f8"), np.dtype("<i2")])


@st.composite
def arrays(draw):
    """Numeric arrays in every layout: 0-d, C, Fortran, strided,
    transposed and read-only."""
    base = draw(hnp.arrays(dtypes, hnp.array_shapes(min_dims=0, max_dims=3,
                                                    max_side=4)))
    layout = draw(st.sampled_from(["c", "f", "step", "transpose", "readonly"]))
    if layout == "f":
        return np.asfortranarray(base)
    if layout == "step" and base.ndim:
        return base[::2]
    if layout == "transpose":
        return base.T
    if layout == "readonly":
        base.flags.writeable = False
    return base


handles = st.builds(
    ArrayHandle, array_id=st.integers(0, 99), shape=st.just((4, 6)),
    dtype=st.just("float64"), cluster=st.integers(0, 3),
    owner_task=st.none() | st.integers(1, 9))


@st.composite
def windows(draw):
    r0 = draw(st.integers(0, 3))
    c0 = draw(st.integers(0, 5))
    return Window(draw(handles), (r0, draw(st.integers(r0 + 1, 4))),
                  (c0, draw(st.integers(c0 + 1, 6))))


def object_arrays():
    return st.lists(st.lists(st.integers(), max_size=3), min_size=1,
                    max_size=3).map(lambda rows: _object_array(rows))


def _object_array(rows):
    out = np.empty(len(rows), dtype=object)
    for i, row in enumerate(rows):
        out[i] = row
    return out


scalars = (st.none() | st.integers() | st.booleans() | st.floats(allow_nan=False)
           | st.text(max_size=5) | handles)
leaves = (scalars | arrays() | windows() | object_arrays()
          | st.builds(RemoteFault, st.text(max_size=8))
          | st.lists(st.integers(), max_size=6))
values = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.tuples(inner, inner)
                   | st.dictionaries(st.integers(0, 9), inner, max_size=3)),
    max_leaves=6)


def same(a, b):
    """Equal as ``copy.deepcopy`` sees it: type, value and layout."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides)
        for flag in ("C_CONTIGUOUS", "F_CONTIGUOUS", "WRITEABLE", "ALIGNED",
                     "OWNDATA"):
            assert a.flags[flag] == b.flags[flag], flag
        if a.dtype.hasobject:
            for x, y in zip(a.flat, b.flat):
                same(x, y)
        else:
            assert a.tobytes() == b.tobytes()
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            same(x, y)
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            same(a[key], b[key])
    elif isinstance(a, RemoteFault):
        assert a.message == b.message
    else:
        assert a == b


def mutable_parts(value):
    """Every mutable object reachable from *value*."""
    if isinstance(value, np.ndarray):
        yield value
        if value.dtype.hasobject:
            for item in value.flat:
                yield from mutable_parts(item)
    elif isinstance(value, (list, dict)):
        yield value
        for item in (value.values() if isinstance(value, dict) else value):
            yield from mutable_parts(item)
    elif isinstance(value, tuple):
        for item in value:
            yield from mutable_parts(item)
    elif isinstance(value, RemoteFault):
        yield value


@PROPS
@given(values)
def test_journal_copy_equals_deepcopy(value):
    kept, reference = journal_copy(value), copy.deepcopy(value)
    same(kept, reference)
    try:
        blob = to_bytes(reference)
    except CkptError:
        # outside the codec's vocabulary (big-endian, RemoteFault, object
        # arrays): then the copy must be refused the same way
        try:
            to_bytes(kept)
        except CkptError:
            return
        raise AssertionError("the copy checkpoints where deepcopy's does not")
    assert to_bytes(kept) == blob


@PROPS
@given(arrays())
@example(np.asfortranarray(np.arange(6.0).reshape(2, 3)))
@example(np.arange(12).reshape(3, 4)[:, ::2])
@example(np.array(2.5))
def test_arrays_keep_their_layout(array):
    kept = journal_copy(array)
    same(kept, copy.deepcopy(array))
    assert not np.shares_memory(kept, array)


@PROPS
@given(values)
def test_journal_copy_never_aliases_a_mutable_value(value):
    kept = journal_copy(value)
    sent = {id(part) for part in mutable_parts(value)}
    for part in mutable_parts(kept):
        assert id(part) not in sent
        if isinstance(part, np.ndarray):
            for original in mutable_parts(value):
                if isinstance(original, np.ndarray):
                    assert not np.shares_memory(part, original)


def test_immutables_are_kept_as_they_are():
    handle = ArrayHandle(1, (2, 3), "float64", 0, None)
    for value in (None, 7, handle):
        assert journal_copy(value) is value


def test_subclasses_and_object_arrays_take_deepcopy():
    rows = _object_array([[1, 2], [3]])
    kept = journal_copy(rows)
    kept[0].append(9)
    assert rows[0] == [1, 2]

    class Flag(int):
        pass

    flag = Flag(3)
    assert type(journal_copy(flag)) is Flag

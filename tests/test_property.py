"""Property-based tests (hypothesis) on core data structures and
invariants: heap, windows, event engine, histograms, grammars, solvers,
partitions."""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import HeapError
from repro.fem import conjugate_gradient, partition_strips, rect_grid
from repro.hardware import EventEngine, Histogram
from repro.hgraph import Alt, AtomKind, Generator, Grammar, HGraph, Matcher, Ref, Struct
from repro.sysvm import ArrayHandle, Heap, words_of
from repro.langvm import whole

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# -- heap ---------------------------------------------------------------------

@st.composite
def heap_scripts(draw):
    """A random sequence of alloc/free operations."""
    n_ops = draw(st.integers(1, 60))
    ops = []
    for _ in range(n_ops):
        if draw(st.booleans()):
            ops.append(("alloc", draw(st.integers(1, 40))))
        else:
            ops.append(("free", draw(st.integers(0, 30))))
    return ops


class TestHeapProperties:
    @SETTINGS
    @given(heap_scripts(), st.sampled_from(["first_fit", "best_fit"]))
    def test_invariants_under_random_scripts(self, script, policy):
        heap = Heap(512, policy=policy)
        live = []
        for op, arg in script:
            if op == "alloc":
                try:
                    addr = heap.alloc(arg)
                except HeapError:
                    continue
                live.append((addr, arg))
            elif live:
                addr, size = live.pop(arg % len(live))
                heap.free(addr)
            heap.check_invariants()
            # conservation: used words == sum of live allocation sizes
            assert heap.used_words() == sum(s for _, s in live)
        # drain: freeing everything restores one block
        for addr, _ in live:
            heap.free(addr)
        heap.check_invariants()
        assert heap.block_count() == 1
        assert heap.largest_free() == 512

    @SETTINGS
    @given(heap_scripts())
    def test_no_overlapping_allocations(self, script):
        heap = Heap(512)
        live = {}
        for op, arg in script:
            if op == "alloc":
                try:
                    addr = heap.alloc(arg)
                except HeapError:
                    continue
                for other, osize in live.items():
                    assert addr + arg <= other or other + osize <= addr
                live[addr] = arg
            elif live:
                addr = sorted(live)[arg % len(live)]
                heap.free(addr)
                del live[addr]


# -- windows -----------------------------------------------------------------------

class TestWindowProperties:
    @SETTINGS
    @given(
        st.integers(1, 12), st.integers(1, 12), st.integers(1, 8),
        st.sampled_from([0, 1]),
    )
    def test_split_is_exact_disjoint_cover(self, nr, nc, parts, axis):
        handle = ArrayHandle(1, (nr, nc), "float64", 0, None)
        w = whole(handle)
        bands = w.split_rows(parts) if axis == 0 else w.split_cols(parts)
        assert sum(b.words for b in bands) == w.words
        for i in range(len(bands)):
            for j in range(i + 1, len(bands)):
                assert not bands[i].overlaps(bands[j])

    @SETTINGS
    @given(st.integers(2, 10), st.integers(2, 10), st.integers(0, 1000))
    def test_read_write_roundtrip(self, nr, nc, seed):
        rng = np.random.default_rng(seed)
        handle = ArrayHandle(1, (nr, nc), "float64", 0, None)
        arr = rng.normal(size=(nr, nc))
        r0 = int(rng.integers(0, nr))
        r1 = int(rng.integers(r0 + 1, nr + 1))
        c0 = int(rng.integers(0, nc))
        c1 = int(rng.integers(c0 + 1, nc + 1))
        from repro.langvm import block

        w = block(handle, (r0, r1), (c0, c1))
        data = rng.normal(size=w.shape)
        w.write_to(arr, data)
        assert np.array_equal(w.read_from(arr), data)


# -- event engine ------------------------------------------------------------------

class TestEngineProperties:
    @SETTINGS
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=40))
    def test_events_fire_in_nondecreasing_time(self, delays):
        eng = EventEngine()
        fired = []
        for d in delays:
            eng.schedule(d, lambda d=d: fired.append(eng.now))
        eng.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
        assert eng.now == max(delays)

    @SETTINGS
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 20)), max_size=20))
    def test_nested_scheduling_is_deterministic(self, spec):
        def run():
            eng = EventEngine()
            log = []
            for t, extra in spec:
                def outer(t=t, extra=extra):
                    log.append(("o", eng.now))
                    eng.schedule(extra, lambda: log.append(("i", eng.now)))
                eng.schedule(t, outer)
            eng.run()
            return log

        assert run() == run()


# -- histograms -----------------------------------------------------------------------

class TestHistogramProperties:
    @SETTINGS
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
        st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=50),
    )
    def test_merge_equals_combined(self, xs, ys):
        h1, h2, hall = Histogram(), Histogram(), Histogram()
        for x in xs:
            h1.observe(x)
            hall.observe(x)
        for y in ys:
            h2.observe(y)
            hall.observe(y)
        h1.merge(h2)
        assert h1.count == hall.count
        assert h1.mean == pytest.approx(hall.mean, rel=1e-9, abs=1e-6)
        assert h1.variance == pytest.approx(hall.variance, rel=1e-6, abs=1e-3)


# -- grammars -----------------------------------------------------------------------------

class TestHGraphProperties:
    @SETTINGS
    @given(st.integers(0, 10_000))
    def test_generated_members_always_match(self, seed):
        # a recursive list: a head/tail cons cell, or nil (no arcs)
        gram = Grammar("list").define(
            "list",
            Alt(
                Struct(arcs={"head": AtomKind("int"), "tail": Ref("list")}),
                Struct(arcs={}),
            ),
        )
        hg = HGraph()
        g = Generator(gram, random.Random(seed)).generate(hg, max_depth=6)
        assert Matcher(gram).matches(g)


# -- words_of -------------------------------------------------------------------------------

class TestSizingProperties:
    @SETTINGS
    @given(
        st.recursive(
            st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=8),
                      st.booleans(), st.none()),
            lambda children: st.lists(children, max_size=4),
            max_leaves=12,
        )
    )
    def test_words_positive_and_superadditive(self, value):
        w = words_of(value)
        assert w >= 1
        if isinstance(value, list):
            assert w >= sum(words_of(v) for v in value)


# -- solvers ------------------------------------------------------------------------------------

class TestSolverProperties:
    @SETTINGS
    @given(st.integers(2, 25), st.integers(0, 10_000))
    def test_cg_solves_random_spd(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        a = a @ a.T + n * np.eye(n)
        b = rng.normal(size=n)
        r = conjugate_gradient(a, b, tol=1e-10, max_iter=20 * n)
        assert r.converged
        assert np.allclose(a @ r.x, b, atol=1e-6 * max(1.0, np.linalg.norm(b)))


# -- partitions ------------------------------------------------------------------------------------

class TestPartitionProperties:
    @SETTINGS
    @given(st.integers(1, 8), st.integers(1, 6), st.integers(1, 10))
    def test_strips_cover_every_element_once(self, nx, ny, p):
        mesh = rect_grid(nx, ny)
        subs = partition_strips(mesh, p)
        seen = sorted(
            row for s in subs for row in s.element_rows.get("quad4", [])
        )
        assert seen == list(range(mesh.groups["quad4"].shape[0]))
        for s in subs:
            assert s.dof_lo <= s.dof_hi <= mesh.n_dofs

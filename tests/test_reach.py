"""The use ledger's tracer: knobs, and forked pool workers.

``benchmarks/reach.py`` attributes every ``src/repro`` function to the
entry points that reach it, and every defaulted parameter to the entry
points that pass it another value.  A knob counts as varied however it
is passed, and only when the value differs from the default; a
dataclass's generated ``__init__`` counts like any other function.

Campaign points run in ``multiprocessing`` workers, so a worker whose
records are lost under-counts silently.  A worker exits one of two
ways: ``close()`` + ``join()`` lets it return (the finalizers run),
``Pool.__exit__`` terminates it (SIGTERM; the worker is kept busy so
that it cannot return first).  Each path here calls a function, and
varies a knob, only the worker does.
"""

import importlib.util
import multiprocessing
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"

SCRIPT = '''
import multiprocessing, pathlib, sys, time
sys.path.insert(0, {bench!r})
import reach
from repro.bench import summarize_series
from repro.fem import rect_grid

ctx = multiprocessing.get_context("fork")
BUSY = ctx.Event()


def terminated(x):
    rect_grid(1, 1, ly=2.0)
    return summarize_series([x])["n"]


def busy():
    BUSY.set()
    time.sleep(60)


def joined(n):
    return rect_grid(n, 1, 2.0).n_nodes


def pools():
    with ctx.Pool(1) as pool:        # __exit__ terminates the worker
        assert pool.map(terminated, [1, 2]) == [1, 1]
        pool.apply_async(busy)
        assert BUSY.wait(30)
    pool = ctx.Pool(1)
    assert pool.map(joined, [1]) == [4]
    pool.close()
    pool.join()


if __name__ == "__main__":
    reach.trace_call(pools, pathlib.Path(sys.argv[1]))
'''


def load_reach():
    spec = importlib.util.spec_from_file_location("reach", BENCH / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the campaign pool forks only where fork exists")
def test_forked_pool_workers_are_recorded(tmp_path):
    script, out = tmp_path / "pools.py", tmp_path / "out"
    script.write_text(SCRIPT.format(bench=str(BENCH)))
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(script), str(out)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # the main process and one file per worker
    assert len(list(out.glob("*.txt"))) == 3
    assert len(list(out.glob("*.knobs"))) == 3

    reach = load_reach()
    _, where = reach.universe()
    keys = {where[r] for r in reach.collect(out) if r in where}
    assert "repro.bench.harness:summarize_series" in keys  # terminated
    assert "repro.fem.mesh:rect_grid" in keys              # joined
    defaults, varied = reach.collect_knobs(out)
    assert defaults["repro.fem.mesh:rect_grid|lx"] == "1.0"
    assert "repro.fem.mesh:rect_grid|ly" in varied          # terminated
    assert "repro.fem.mesh:rect_grid|lx" in varied          # joined
    assert "repro.fem.mesh:rect_grid|kind" not in varied


def traced_knobs(tmp_path, fn):
    reach = load_reach()
    reach.trace_call(fn, tmp_path)
    return reach.collect_knobs(tmp_path)


def test_knob_varied_positionally_or_by_keyword(tmp_path):
    from repro.fem import rect_grid

    def calls():
        rect_grid(2, 1, 2.0)                     # lx, positionally
        rect_grid(2, 1, ly=3.0)                  # ly, by keyword

    defaults, varied = traced_knobs(tmp_path, calls)
    key = "repro.fem.mesh:rect_grid|"
    assert {key + "lx", key + "ly"} <= varied
    assert key + "kind" not in varied
    assert defaults[key + "kind"] == "'quad4'"


def test_a_value_equal_to_the_default_is_not_varied(tmp_path):
    from repro.fem import rect_grid

    def calls():
        # equal, but not the default object itself
        rect_grid(2, 1, float("1.0"), kind="".join(["quad", "4"]))

    defaults, varied = traced_knobs(tmp_path, calls)
    key = "repro.fem.mesh:rect_grid|"
    assert {key + "lx", key + "kind"} <= set(defaults)
    assert not {k for k in varied if k.startswith(key)}


def test_dataclass_init_knobs(tmp_path):
    from repro.appvm import StructureModel
    from repro.fem import Material

    def calls():
        Material(nu=0.25, e=210e9)
        StructureModel("m", load_sets={})       # equal to default_factory()

    defaults, varied = traced_knobs(tmp_path, calls)
    material = "repro.fem.materials:Material.__init__|"
    model = "repro.appvm.model:StructureModel.__init__|"
    assert defaults[material + "nu"] == "0.3"
    assert material + "nu" in varied
    assert material + "e" not in varied
    assert defaults[model + "load_sets"] == "{}"
    assert model + "load_sets" not in varied


def test_an_ambiguous_comparison_counts_as_varied():
    np = pytest.importorskip("numpy")
    reach = load_reach()
    assert not reach.same(np.zeros(2), None)
    assert not reach.same(np.zeros(2), np.zeros(2))
    assert reach.same(1.0, 1)

"""The use ledger's tracer sees into forked pool workers.

``benchmarks/reach.py`` attributes every ``src/repro`` function to the
entry points that reach it; campaign points run in ``multiprocessing``
workers, so a worker whose records are lost under-counts silently.  A
worker exits one of two ways: ``close()`` + ``join()`` lets it return
(the finalizers run), ``Pool.__exit__`` terminates it (SIGTERM; the
worker is kept busy so that it cannot return first).  Each path here
calls a function only the worker calls.
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
    return summarize_series([x])["n"]


def busy():
    BUSY.set()
    time.sleep(60)


def joined(n):
    return rect_grid(n, 1).n_nodes


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

    reach = load_reach()
    _, where = reach.universe()
    keys = {where[r] for r in reach.collect(out) if r in where}
    assert "repro.bench.harness:summarize_series" in keys  # terminated
    assert "repro.fem.mesh:rect_grid" in keys              # joined

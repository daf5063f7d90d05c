"""Tests for the parallel linear-algebra library (windows + chunk tasks)."""

import numpy as np
import pytest

from repro.hardware import MachineConfig
from repro.langvm import Fem2Program, ensure_registered, linalg, whole


def make_program(n_clusters=2, pes=4):
    cfg = MachineConfig(
        n_clusters=n_clusters, pes_per_cluster=pes, memory_words_per_cluster=500_000
    )
    prog = Fem2Program(cfg)
    ensure_registered(prog)
    return prog


def run_main(prog, body):
    prog.define("main", body)
    return prog.run("main")


class TestInner:
    def test_inner_product_correct(self):
        prog = make_program()
        x = np.arange(16.0)
        y = np.ones(16)

        def main(ctx):
            hx = yield ctx.create(x)
            hy = yield ctx.create(y)
            result = yield from linalg.inner(ctx, ctx.window(hx), ctx.window(hy), workers=4)
            return result

        assert run_main(prog, main) == pytest.approx(float(x @ y))

    def test_inner_counts_flops(self):
        prog = make_program()

        def main(ctx):
            hx = yield ctx.create(np.ones(32))
            hy = yield ctx.create(np.ones(32))
            return (yield from linalg.inner(ctx, ctx.window(hx), ctx.window(hy), 4))

        run_main(prog, main)
        assert prog.metrics.get("proc.flops") >= 64

    def test_inner_size_mismatch(self):
        prog = make_program()

        def main(ctx):
            hx = yield ctx.create(np.ones(8))
            hy = yield ctx.create(np.ones(9))
            yield from linalg.inner(ctx, ctx.window(hx), ctx.window(hy), 2)

        with pytest.raises(Exception):
            run_main(prog, main)

    def test_more_workers_than_elements(self):
        prog = make_program()

        def main(ctx):
            hx = yield ctx.create(np.ones(3))
            hy = yield ctx.create(np.full(3, 2.0))
            return (yield from linalg.inner(ctx, ctx.window(hx), ctx.window(hy), 10))

        assert run_main(prog, main) == 6.0


class TestNormAxpyScale:
    def test_norm2(self):
        prog = make_program()

        def main(ctx):
            h = yield ctx.create(np.full(9, 2.0))
            return (yield from linalg.norm2(ctx, ctx.window(h), 3))

        assert run_main(prog, main) == pytest.approx(36.0)


class TestMatvec:
    def test_matvec_correct(self):
        prog = make_program()
        rng = np.random.default_rng(1)
        A = rng.normal(size=(8, 8))
        x = rng.normal(size=8)

        def main(ctx):
            ha = yield ctx.create(A)
            hx = yield ctx.create(x)
            hy = yield ctx.create(np.zeros(8))
            yield from linalg.matvec(ctx, ctx.window(ha), ctx.window(hx), ctx.window(hy), 4)
            out = yield ctx.read(ctx.window(hy))
            return out.ravel()

        result = run_main(prog, main)
        assert np.allclose(result, A @ x)

    def test_matvec_rectangular(self):
        prog = make_program()
        A = np.arange(12.0).reshape(3, 4)
        x = np.ones(4)

        def main(ctx):
            ha = yield ctx.create(A)
            hx = yield ctx.create(x)
            hy = yield ctx.create(np.zeros(3))
            yield from linalg.matvec(ctx, ctx.window(ha), ctx.window(hx), ctx.window(hy), 2)
            out = yield ctx.read(ctx.window(hy))
            return out.ravel()

        assert np.allclose(run_main(prog, main), A @ x)

    def test_matvec_shape_mismatch(self):
        prog = make_program()

        def main(ctx):
            ha = yield ctx.create(np.ones((3, 4)))
            hx = yield ctx.create(np.ones(5))
            hy = yield ctx.create(np.zeros(3))
            yield from linalg.matvec(ctx, ctx.window(ha), ctx.window(hx), ctx.window(hy), 2)

        with pytest.raises(Exception):
            run_main(prog, main)


class TestRegistration:
    def test_ensure_registered_idempotent(self):
        prog = make_program()
        ensure_registered(prog)  # second call must not raise
        for name in ("la.dot", "la.norm", "la.matvec"):
            assert name in prog.runtime.registry

    def test_parallelism_speeds_up_large_dot(self):
        def elapsed(workers, pes):
            prog = make_program(n_clusters=1, pes=pes)

            def main(ctx):
                hx = yield ctx.create(np.ones(4096))
                hy = yield ctx.create(np.ones(4096))
                return (
                    yield from linalg.inner(ctx, ctx.window(hx), ctx.window(hy), workers)
                )

            run_main(prog, main)
            return prog.now

        assert elapsed(4, pes=6) < elapsed(1, pes=6)

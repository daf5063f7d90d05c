"""Iterative solvers: conjugate gradient, Jacobi, and SOR.

CG is the solver the FEM-2 scenario analyses (ref [8]) centre on: its
inner products, axpys, and matvec map directly onto the numerical
analyst's linear-algebra operations, and it is what the distributed
solver (:mod:`repro.fem.parallel`) runs on the simulated machine.
These host-side versions are the correctness oracles and the baselines
for E9.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...errors import SolverError
from .result import SolveResult


def _as_matvec(a):
    """Accept dense, sparse, or callable operators; return (matvec, n, diag)."""
    import scipy.sparse as sp

    if callable(a) and not hasattr(a, "shape"):
        raise SolverError("callable operators must be passed as (matvec, n, diag)")
    if sp.issparse(a):
        a = a.tocsr()
        return (lambda v: a @ v), a.shape[0], a.diagonal()
    a = np.asarray(a, dtype=float)
    return (lambda v: a @ v), a.shape[0], np.diag(a).copy()


def conjugate_gradient(
    a,
    b: np.ndarray,
    tol: float = 1e-8,
    max_iter: Optional[int] = None,
    preconditioner: str = "none",
) -> SolveResult:
    """Preconditioned conjugate gradient for SPD systems, from x = 0.

    Convergence test: ||r|| <= tol * ||b||.  ``preconditioner`` is
    ``"none"`` or ``"jacobi"`` (diagonal scaling).
    """
    import scipy.sparse as sp

    matvec, n, diag = _as_matvec(a)
    b = np.asarray(b, dtype=float)
    if b.shape[0] != n:
        raise SolverError(f"rhs length {b.shape[0]} != n {n}")
    if preconditioner not in ("none", "jacobi"):
        raise SolverError(f"unknown preconditioner {preconditioner!r}")
    if preconditioner == "jacobi" and np.any(diag <= 0):
        raise SolverError("Jacobi preconditioner needs positive diagonal")
    max_iter = 10 * n if max_iter is None else max_iter

    x = np.zeros(n)
    r = b - matvec(x)
    z = r / diag if preconditioner == "jacobi" else r
    p = z.copy()
    rz = float(r @ z)
    b_norm = float(np.linalg.norm(b)) or 1.0
    history = [float(np.linalg.norm(r))]
    flops = 0
    it = 0
    nnz_cost = 2 * n * n  # per-matvec flops for a dense operator
    if sp.issparse(a):
        nnz_cost = 2 * a.nnz

    while history[-1] > tol * b_norm and it < max_iter:
        q = matvec(p)
        pq = float(p @ q)
        if pq <= 0:
            raise SolverError(f"matrix not SPD: p'Ap = {pq:g} at iteration {it}")
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        z = r / diag if preconditioner == "jacobi" else r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
        res = float(np.linalg.norm(r))
        history.append(res)
        flops += nnz_cost + 10 * n

    return SolveResult(
        x,
        "cg" if preconditioner == "none" else "pcg_jacobi",
        converged=history[-1] <= tol * b_norm,
        iterations=it,
        residual_norm=history[-1],
        flops=flops,
        residual_history=history,
    )


def jacobi(
    a,
    b: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> SolveResult:
    """Jacobi iteration: x_{k+1} = D^{-1}(b - (A - D) x_k)."""
    import scipy.sparse as sp

    matvec, n, diag = _as_matvec(a)
    b = np.asarray(b, dtype=float)
    if np.any(diag == 0):
        raise SolverError("Jacobi needs a nonzero diagonal")
    x = np.zeros(n)
    b_norm = float(np.linalg.norm(b)) or 1.0
    history = []
    flops = 0
    nnz_cost = 2 * a.nnz if sp.issparse(a) else 2 * n * n
    for it in range(1, max_iter + 1):
        r = b - matvec(x)
        res = float(np.linalg.norm(r))
        history.append(res)
        flops += nnz_cost + 4 * n
        if res <= tol * b_norm:
            return SolveResult(
                x, "jacobi", True, it - 1, res, flops, residual_history=history
            )
        if not np.isfinite(res) or res > 1e12 * (history[0] or 1.0):
            # divergence (the iteration matrix has spectral radius >= 1)
            return SolveResult(
                x, "jacobi", False, it, res, flops, residual_history=history
            )
        x = x + r / diag
    return SolveResult(
        x, "jacobi", False, max_iter, history[-1], flops, residual_history=history
    )


#: SOR's relaxation factor
OMEGA = 1.5


def _sor_sweep_factory(a, diag: np.ndarray, omega: float):
    """Build the per-sweep update ``x -> x_next`` for SOR.

    The sweep ``(D/ω + L) x_next = b − (U + (1 − 1/ω) D) x`` is a
    triangular solve per iteration.  The triangular factor is constant,
    so we LU-factorise it once (``permc_spec="NATURAL"`` keeps the
    ordering — the factor is already triangular, there is no fill) and
    each sweep becomes one sparse matvec plus one back-substitution —
    orders of magnitude faster than a Python loop over rows, with the
    same fixed point and the same iterate sequence up to float rounding
    of the identical per-row recurrence.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    lower = sp.tril(a, k=-1, format="csr")
    upper = sp.triu(a, k=1, format="csr")
    d = sp.diags(diag)
    m = (d / omega + lower).tocsc()
    lu = splu(m, permc_spec="NATURAL")
    rhs_mat = (upper + (1.0 - 1.0 / omega) * d).tocsr()

    def sweep(x: np.ndarray, b: np.ndarray) -> np.ndarray:
        return lu.solve(b - rhs_mat @ x)

    return sweep


def sor(
    a,
    b: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> SolveResult:
    """Successive over-relaxation with ``omega = OMEGA``.

    The sweep is inherently sequential per unknown; it is applied as a
    factored triangular solve (see :func:`_sor_sweep_factory`), so the
    cost is O(nnz) per sweep with no Python-level row loop.
    """
    import scipy.sparse as sp

    a = sp.csr_matrix(a) if not sp.issparse(a) else a.tocsr()
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    diag = a.diagonal()
    if np.any(diag == 0):
        raise SolverError("SOR needs a nonzero diagonal")
    x = np.zeros(n)
    b_norm = float(np.linalg.norm(b)) or 1.0
    history = []
    flops = 0
    sweep = _sor_sweep_factory(a, diag, OMEGA)
    for it in range(1, max_iter + 1):
        x = sweep(x, b)
        r = b - a @ x
        res = float(np.linalg.norm(r))
        history.append(res)
        flops += 4 * a.nnz + 6 * n
        if res <= tol * b_norm:
            return SolveResult(
                x, f"sor({OMEGA:g})", True, it, res, flops, residual_history=history
            )
    return SolveResult(
        x, f"sor({OMEGA:g})", False, max_iter, history[-1], flops,
        residual_history=history,
    )

"""Direct solvers: sparse LU (scipy) and an explicit dense Cholesky.

The Cholesky factorization is written out (vectorized per column) both
as the baseline "fast linear algebra" kernel the hardware requirements
call for and so its flop count is exact for the E1/E9 processing
tables: n^3/3 + O(n^2).
"""

from __future__ import annotations

import numpy as np

from ...errors import SolverError
from .result import SolveResult


def solve_sparse_lu(k, f: np.ndarray) -> SolveResult:
    """Sparse LU via scipy's SuperLU wrapper."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    f = np.asarray(f, dtype=float)
    k = sp.csc_matrix(k)
    n = k.shape[0]
    if k.shape[0] != k.shape[1] or f.shape[0] != n:
        raise SolverError(f"shape mismatch: K {k.shape}, f {f.shape}")
    try:
        x = spla.spsolve(k, f)
    except Exception as exc:  # singular / structurally deficient
        raise SolverError(f"sparse LU failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SolverError("sparse LU produced non-finite solution (singular K?)")
    resid = float(np.linalg.norm(k @ x - f))
    f_norm = float(np.linalg.norm(f))
    if f_norm > 0 and resid > 1e-6 * f_norm:
        raise SolverError(
            f"sparse LU residual {resid:g} vs ||f|| {f_norm:g}: "
            "system is singular or severely ill-conditioned"
        )
    # LU on a banded/sparse SPD matrix ~ 2/3 n b^2; report dense-equivalent
    return SolveResult(
        x, "sparse_lu", converged=True, residual_norm=resid,
        flops=int(2 * n**3 / 3),
    )


def cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with A = L L^T (column-blocked, vectorized).

    Raises :class:`SolverError` if A is not (numerically) SPD.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise SolverError(f"Cholesky needs a square matrix, got {a.shape}")
    l = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - np.dot(l[j, :j], l[j, :j])
        if d <= 0.0 or not np.isfinite(d):
            raise SolverError(
                f"matrix not positive definite at column {j} (pivot {d:g})"
            )
        l[j, j] = np.sqrt(d)
        if j + 1 < n:
            l[j + 1 :, j] = (a[j + 1 :, j] - l[j + 1 :, :j] @ l[j, :j]) / l[j, j]
    return l


def cholesky_solve_factored(l: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Forward/back substitution with a Cholesky factor."""
    from scipy.linalg import solve_triangular

    y = solve_triangular(l, f, lower=True)
    return solve_triangular(l.T, y, lower=False)


def solve_cholesky(k, f: np.ndarray) -> SolveResult:
    """Dense Cholesky solve with exact flop accounting."""
    import scipy.sparse as sp

    k = k.toarray() if sp.issparse(k) else np.asarray(k, dtype=float)
    f = np.asarray(f, dtype=float)
    n = k.shape[0]
    l = cholesky_factor(k)
    x = cholesky_solve_factored(l, f)
    resid = float(np.linalg.norm(k @ x - f))
    flops = n**3 // 3 + 2 * n * n  # factorization + two triangular solves
    return SolveResult(x, "cholesky", converged=True, residual_norm=resid, flops=flops)

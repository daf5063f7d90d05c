"""Linear solvers: direct (sparse LU, dense Cholesky) and iterative
(CG, Jacobi, SOR), all returning :class:`SolveResult`.

:func:`solve_linear` is the one entry point — callers name the method;
it validates the name against the private registry and lists the
available methods in its error.
"""

from ...errors import SolverError
from .result import SolveResult
from .direct import (
    cholesky_factor,
    cholesky_solve_factored,
    solve_cholesky,
    solve_sparse_lu,
)
from .iterative import conjugate_gradient, jacobi, sor

#: name -> callable(k, f, **kw); reached only through solve_linear
_SOLVERS = {
    "sparse_lu": solve_sparse_lu,
    "cholesky": solve_cholesky,
    "cg": conjugate_gradient,
    "pcg_jacobi": lambda a, b, **kw: conjugate_gradient(
        a, b, preconditioner="jacobi", **kw
    ),
    "jacobi": jacobi,
    "sor": sor,
}


def solve_linear(k, f, *, method: str = "sparse_lu", **kw) -> SolveResult:
    """Solve ``k x = f`` with the named method from the solver registry.

    The single facade over the registry: validates the method name (with
    the available names in the error) and forwards solver keywords
    (``tol``, ``max_iter``, ``preconditioner``, ...).
    """
    try:
        solver = _SOLVERS[method]
    except KeyError:
        raise SolverError(
            f"unknown method {method!r}; one of {sorted(_SOLVERS)}"
        ) from None
    return solver(k, f, **kw)


__all__ = [
    "SolveResult",
    "cholesky_factor",
    "cholesky_solve_factored",
    "solve_cholesky",
    "solve_sparse_lu",
    "conjugate_gradient",
    "jacobi",
    "sor",
    "solve_linear",
]

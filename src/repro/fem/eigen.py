"""Modal analysis: natural frequencies and mode shapes.

Solves the generalized symmetric eigenproblem ``K phi = omega^2 M phi``
on the free DOFs with **subspace iteration** (Bathe's algorithm, the
workhorse of 1980s structural dynamics): inverse-iterate a block of
vectors through the factored stiffness, Rayleigh-Ritz project, repeat.
The projected dense eigenproblem uses ``scipy.linalg.eigh``; the
factorization is our own Cholesky, so the flop accounting stays
explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import SolverError
from .bc import Constraints
from .mass import assemble_mass
from .assembly import assemble_stiffness
from .materials import Material
from .mesh import Mesh
from .solvers.direct import cholesky_factor, cholesky_solve_factored


@dataclass
class ModalResult:
    """Frequencies (Hz), circular frequencies, and mass-normalized modes."""

    frequencies: np.ndarray     # (n_modes,) in Hz, ascending
    omega: np.ndarray           # (n_modes,) rad/s
    modes: np.ndarray           # (n_free, n_modes), M-orthonormal
    iterations: int
    converged: bool

    def mode_full(self, constraints: Constraints, j: int) -> np.ndarray:
        """Mode *j* expanded to the full DOF vector."""
        return constraints.expand(self.modes[:, j])


def subspace_eigensolve(
    k: np.ndarray,
    m: np.ndarray,
    n_modes: int,
    tol: float = 1e-10,
    max_iter: int = 200,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray, int, bool]:
    """Lowest ``n_modes`` of K phi = lambda M phi (dense SPD K, SPD or
    diagonal-lumped M).  Returns (lambdas, modes, iterations, converged)."""
    import scipy.linalg

    k = np.asarray(k, dtype=float)
    m = np.asarray(m, dtype=float)
    n = k.shape[0]
    if n_modes < 1 or n_modes > n:
        raise SolverError(f"need 1 <= n_modes <= {n}, got {n_modes}")
    block = min(n, max(2 * n_modes, n_modes + 4))
    l = cholesky_factor(k)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, block))
    lam_old = np.zeros(n_modes)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        # inverse iteration: X <- K^-1 (M X)
        x = cholesky_solve_factored(l, m @ x)
        # Rayleigh-Ritz on the subspace
        k_red = x.T @ (k @ x)
        m_red = x.T @ (m @ x)
        try:
            lam, q = scipy.linalg.eigh(k_red, m_red)
        except scipy.linalg.LinAlgError as exc:
            raise SolverError(f"subspace iteration broke down: {exc}") from exc
        x = x @ q
        lam_new = lam[:n_modes]
        if np.all(np.abs(lam_new - lam_old) <= tol * np.maximum(np.abs(lam_new), 1e-30)):
            converged = True
            break
        lam_old = lam_new
    modes = x[:, :n_modes]
    # mass-normalize
    for j in range(n_modes):
        scale = np.sqrt(modes[:, j] @ (m @ modes[:, j]))
        if scale > 0:
            modes[:, j] /= scale
    return lam[:n_modes], modes, it, converged


def natural_frequencies(
    mesh: Mesh,
    material: Material,
    constraints: Constraints,
    n_modes: int = 4,
    lumped: bool = True,
    tol: float = 1e-10,
) -> ModalResult:
    """Lowest natural frequencies of a constrained structure."""
    k = assemble_stiffness(mesh, material, fmt="dense")
    m = assemble_mass(mesh, material, lumped=lumped, fmt="dense")
    free = constraints.free_dofs
    if free.size == 0:
        raise SolverError("no free degrees of freedom")
    k_ff = k[np.ix_(free, free)]
    m_ff = m[np.ix_(free, free)]
    if np.any(np.diag(m_ff) <= 0):
        raise SolverError("singular mass on a free dof (massless mechanism?)")
    lam, modes, it, converged = subspace_eigensolve(k_ff, m_ff, n_modes, tol=tol)
    lam = np.maximum(lam, 0.0)
    omega = np.sqrt(lam)
    return ModalResult(
        frequencies=omega / (2.0 * np.pi),
        omega=omega,
        modes=modes,
        iterations=it,
        converged=converged,
    )


def rayleigh_quotient(k, m, phi: np.ndarray) -> float:
    """omega^2 estimate of a trial shape — the hand-check of the era."""
    phi = np.asarray(phi, dtype=float)
    num = phi @ (k @ phi)
    den = phi @ (m @ phi)
    if den <= 0:
        raise SolverError("trial shape has no mass participation")
    return float(num / den)

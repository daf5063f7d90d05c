"""Transient dynamics: Newmark-beta time integration.

The 1983 structural-dynamics workhorse, completing the workstation's
analysis menu: M a + C v + K u = f(t), integrated with the Newmark
family (average acceleration by default — unconditionally stable for
linear problems), with optional Rayleigh damping C = a0 M + a1 K.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import SolverError
from .assembly import assemble_stiffness
from .bc import Constraints
from .mass import assemble_mass
from .materials import Material
from .mesh import Mesh
from .solvers.direct import cholesky_factor, cholesky_solve_factored


@dataclass
class TransientResult:
    """Sampled response history on the free DOFs, expanded on demand."""

    times: np.ndarray              # (n_steps + 1,)
    u: np.ndarray                  # (n_steps + 1, n_free)
    v: np.ndarray
    a: np.ndarray
    free_dofs: np.ndarray

    def displacement_at(self, mesh: Mesh, node: int, comp: int) -> np.ndarray:
        """Time history of one DOF (zero if it is constrained)."""
        dof = mesh.dof(node, comp)
        idx = np.nonzero(self.free_dofs == dof)[0]
        if idx.size == 0:
            return np.zeros_like(self.times)
        return self.u[:, idx[0]]

    def peak_displacement(self) -> float:
        return float(np.abs(self.u).max()) if self.u.size else 0.0


def newmark_transient(
    mesh: Mesh,
    material: Material,
    constraints: Constraints,
    force_fn: Callable[[float], np.ndarray],
    dt: float,
    n_steps: int,
    beta: float = 0.25,
    gamma: float = 0.5,
    rayleigh: tuple = (0.0, 0.0),
    lumped_mass: bool = True,
    u0: Optional[np.ndarray] = None,
    v0: Optional[np.ndarray] = None,
) -> TransientResult:
    """Integrate the constrained structure under ``force_fn(t)`` (full
    DOF vector) for ``n_steps`` of size ``dt``.

    beta=1/4, gamma=1/2 is the trapezoidal (average-acceleration) rule;
    beta=0, gamma=1/2 would be explicit central difference (not offered:
    the effective matrix would lose definiteness checks).
    """
    if dt <= 0 or n_steps < 1:
        raise SolverError("need dt > 0 and n_steps >= 1")
    if not (0 < beta <= 0.5 and 0.25 <= gamma <= 1.0):
        raise SolverError(f"unstable Newmark parameters beta={beta}, gamma={gamma}")
    free = constraints.free_dofs
    if free.size == 0:
        raise SolverError("no free degrees of freedom")
    k = assemble_stiffness(mesh, material, fmt="dense")[np.ix_(free, free)]
    m = assemble_mass(mesh, material, lumped=lumped_mass, fmt="dense")[
        np.ix_(free, free)
    ]
    a0, a1 = rayleigh
    c = a0 * m + a1 * k
    n = free.size

    u = np.zeros(n) if u0 is None else np.asarray(u0, dtype=float)[free]
    v = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float)[free]
    f_now = np.asarray(force_fn(0.0), dtype=float)[free]
    # initial acceleration from equilibrium
    m_diag = np.diag(m)
    if lumped_mass and np.all(np.abs(m - np.diag(m_diag)) < 1e-12 * m_diag.max()):
        a_vec = (f_now - c @ v - k @ u) / m_diag
    else:
        a_vec = np.linalg.solve(m, f_now - c @ v - k @ u)

    # effective stiffness, factored once
    k_eff = k + (gamma / (beta * dt)) * c + (1.0 / (beta * dt * dt)) * m
    l = cholesky_factor(k_eff)

    times = np.zeros(n_steps + 1)
    hist_u = np.zeros((n_steps + 1, n))
    hist_v = np.zeros((n_steps + 1, n))
    hist_a = np.zeros((n_steps + 1, n))
    hist_u[0], hist_v[0], hist_a[0] = u, v, a_vec

    b1 = 1.0 / (beta * dt * dt)
    b2 = 1.0 / (beta * dt)
    b3 = 1.0 / (2.0 * beta) - 1.0
    g1 = gamma / (beta * dt)
    g2 = gamma / beta - 1.0
    g3 = dt * (gamma / (2.0 * beta) - 1.0)

    t = 0.0
    for step in range(1, n_steps + 1):
        t += dt
        f_next = np.asarray(force_fn(t), dtype=float)[free]
        rhs = (
            f_next
            + m @ (b1 * u + b2 * v + b3 * a_vec)
            + c @ (g1 * u + g2 * v + g3 * a_vec)
        )
        u_next = cholesky_solve_factored(l, rhs)
        a_next = b1 * (u_next - u) - b2 * v - b3 * a_vec
        v_next = v + dt * ((1.0 - gamma) * a_vec + gamma * a_next)
        u, v, a_vec = u_next, v_next, a_next
        times[step] = t
        hist_u[step], hist_v[step], hist_a[step] = u, v, a_vec

    return TransientResult(times, hist_u, hist_v, hist_a, free)


def energy_history(result: TransientResult, k: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Total mechanical energy per step (strain + kinetic) — conserved by
    the trapezoidal rule for undamped free vibration."""
    strain = 0.5 * np.einsum("ti,ij,tj->t", result.u, k, result.u)
    kinetic = 0.5 * np.einsum("ti,ij,tj->t", result.v, m, result.v)
    return strain + kinetic

"""Boundary conditions: supports and prescribed displacements."""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..errors import FEMError
from .mesh import Mesh


class Constraints:
    """Fixed and prescribed DOFs, with system reduction/expansion.

    ``reduce`` extracts the free-free system (moving prescribed values
    to the right-hand side); ``expand`` scatters a free-DOF solution
    back to the full DOF vector.
    """

    def __init__(self, mesh: Mesh) -> None:
        self.mesh = mesh
        self._prescribed: Dict[int, float] = {}

    # -- definition ---------------------------------------------------------

    def fix(self, node: int, comps: Iterable[int] = None) -> "Constraints":
        """Fix components of *node* to zero (all components if None)."""
        comps = range(self.mesh.dofs_per_node) if comps is None else comps
        for c in comps:
            self.prescribe(node, c, 0.0)
        return self

    def fix_nodes(self, nodes: Iterable[int], comps: Iterable[int] = None) -> "Constraints":
        for n in nodes:
            self.fix(n, comps)
        return self

    def prescribe(self, node: int, comp: int, value: float) -> "Constraints":
        dof = self.mesh.dof(node, comp)
        existing = self._prescribed.get(dof)
        if existing is not None and existing != value:
            raise FEMError(
                f"dof {dof} prescribed twice with different values "
                f"({existing} vs {value})"
            )
        self._prescribed[dof] = float(value)
        return self

    # -- index sets ------------------------------------------------------------

    @property
    def fixed_dofs(self) -> np.ndarray:
        return np.array(sorted(self._prescribed), dtype=int)

    @property
    def free_dofs(self) -> np.ndarray:
        mask = np.ones(self.mesh.n_dofs, dtype=bool)
        mask[self.fixed_dofs] = False
        return np.nonzero(mask)[0]

    def prescribed_values(self) -> np.ndarray:
        """Values aligned with :attr:`fixed_dofs`."""
        return np.array([self._prescribed[d] for d in sorted(self._prescribed)])

    # -- system reduction ----------------------------------------------------------

    def reduce(self, k, f: np.ndarray):
        """(K, f) -> (K_ff, f_f - K_fc @ u_c) on the free DOFs.

        *k* may be dense or scipy-sparse; the return matches the input
        kind (sparse stays sparse).
        """
        if not self._prescribed:
            return k, np.asarray(f, dtype=float)
        free, fixed = self.free_dofs, self.fixed_dofs
        uc = self.prescribed_values()
        import scipy.sparse as sp

        if sp.issparse(k):
            k = k.tocsr()
            k_ff = k[free][:, free]
            k_fc = k[free][:, fixed]
            rhs = np.asarray(f, dtype=float)[free] - k_fc @ uc
            return k_ff, rhs
        k = np.asarray(k, dtype=float)
        k_ff = k[np.ix_(free, free)]
        rhs = np.asarray(f, dtype=float)[free] - k[np.ix_(free, fixed)] @ uc
        return k_ff, rhs

    def expand(self, u_free: np.ndarray) -> np.ndarray:
        """Scatter a free-DOF solution into the full displacement vector."""
        u = np.zeros(self.mesh.n_dofs)
        u[self.free_dofs] = u_free
        for dof, value in self._prescribed.items():
            u[dof] = value
        return u

    def reactions(self, k, u: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Support reactions at the fixed DOFs: (K u - f) restricted."""
        r = (k @ u) - np.asarray(f, dtype=float)
        return np.asarray(r).ravel()[self.fixed_dofs]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Constraints({len(self._prescribed)} prescribed dofs)"

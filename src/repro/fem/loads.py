"""Load sets.

"Data objects: ... Load set" / "Solve structure model/load set for
displacements" — load sets are first-class, named objects so one model
can be solved under several loadings (and several *independent* load
sets give the outermost level of parallelism).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

import numpy as np

from .mesh import Mesh


class LoadSet:
    """Named collection of nodal loads (and gravity body load)."""

    def __init__(self, name: str = "load") -> None:
        self.name = name
        self._nodal: Dict[Tuple[int, int], float] = {}
        self._gravity: Tuple[float, float] = (0.0, 0.0)

    def add_nodal(self, node: int, comp: int, value: float) -> "LoadSet":
        """Add a point load at (node, dof component); accumulates."""
        key = (int(node), int(comp))
        self._nodal[key] = self._nodal.get(key, 0.0) + float(value)
        return self

    def add_nodal_many(self, nodes: Iterable[int], comp: int, value: float) -> "LoadSet":
        for n in nodes:
            self.add_nodal(n, comp, value)
        return self

    def set_gravity(self, gx: float, gy: float) -> "LoadSet":
        """Uniform acceleration applied through lumped nodal masses."""
        self._gravity = (float(gx), float(gy))
        return self

    def vector(self, mesh: Mesh) -> np.ndarray:
        """Assemble the global load vector for *mesh*."""
        f = np.zeros(mesh.n_dofs)
        for (node, comp), value in self._nodal.items():
            f[mesh.dof(node, comp)] += value
        gx, gy = self._gravity
        if gx or gy:
            f += self._gravity_vector(mesh, gx, gy)
        return f

    def _gravity_vector(self, mesh: Mesh, gx: float, gy: float) -> np.ndarray:
        """Lumped-mass gravity: each element spreads rho*V*g equally to
        its nodes (translational DOFs only)."""
        from .elements import element_type
        from .materials import STEEL

        f = np.zeros(mesh.n_dofs)
        for name, conn in mesh.groups.items():
            et = element_type(name)
            coords = mesh.element_coords(name)
            if name == "bar2d":
                length = np.linalg.norm(coords[:, 1] - coords[:, 0], axis=1)
                vol = length * STEEL.area
            elif name == "tri3":
                x, y = coords[:, :, 0], coords[:, :, 1]
                area2 = (
                    x[:, 0] * (y[:, 1] - y[:, 2])
                    + x[:, 1] * (y[:, 2] - y[:, 0])
                    + x[:, 2] * (y[:, 0] - y[:, 1])
                )
                vol = np.abs(area2) / 2.0 * STEEL.thickness
            else:  # quad4: split into two triangles
                x, y = coords[:, :, 0], coords[:, :, 1]
                a1 = np.abs(
                    x[:, 0] * (y[:, 1] - y[:, 2]) + x[:, 1] * (y[:, 2] - y[:, 0])
                    + x[:, 2] * (y[:, 0] - y[:, 1])
                ) / 2.0
                a2 = np.abs(
                    x[:, 0] * (y[:, 2] - y[:, 3]) + x[:, 2] * (y[:, 3] - y[:, 0])
                    + x[:, 3] * (y[:, 0] - y[:, 2])
                ) / 2.0
                vol = (a1 + a2) * STEEL.thickness
            share = STEEL.density * vol / et.nodes_per_element
            for comp, g in ((0, gx), (1, gy)):
                if g:
                    np.add.at(
                        f,
                        conn.ravel() * mesh.dofs_per_node + comp,
                        np.repeat(share * g, et.nodes_per_element),
                    )
        return f

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LoadSet({self.name!r}, {len(self._nodal)} nodal loads)"

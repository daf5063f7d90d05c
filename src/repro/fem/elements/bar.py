"""Bar2D: the two-node axial (truss) element.

The workhorse of the original Finite Element Machine's demonstration
problems.  Two translational DOF per node; stiffness ``EA/L`` along the
member axis; stress recovery returns the axial stress.
"""

from __future__ import annotations

import numpy as np

from ...errors import FEMError
from ..materials import Material
from .base import ElementType, register


class Bar2D(ElementType):
    name = "bar2d"
    nodes_per_element = 2
    stress_components = ("axial",)

    def _geometry(self, coords: np.ndarray):
        d = coords[:, 1, :] - coords[:, 0, :]  # (E, 2)
        length = np.linalg.norm(d, axis=1)
        if np.any(length <= 0):
            raise FEMError("bar2d: zero-length element")
        c = d[:, 0] / length
        s = d[:, 1] / length
        return length, c, s

    def stiffness(self, coords: np.ndarray, material: Material) -> np.ndarray:
        coords = self.validate_coords(coords)
        length, c, s = self._geometry(coords)
        k_ax = material.e * material.area / length  # (E,)
        # outer product of the direction cosines, tiled into 4x4
        t = np.stack([c * c, c * s, c * s, s * s], axis=1).reshape(-1, 2, 2)
        k = np.empty((coords.shape[0], 4, 4))
        k[:, :2, :2] = t
        k[:, 2:, 2:] = t
        k[:, :2, 2:] = -t
        k[:, 2:, :2] = -t
        return k * k_ax[:, None, None]

    def stress(self, coords: np.ndarray, material: Material, u: np.ndarray) -> np.ndarray:
        coords = self.validate_coords(coords)
        u = np.asarray(u, dtype=float).reshape(coords.shape[0], 4)
        length, c, s = self._geometry(coords)
        elongation = (
            c * (u[:, 2] - u[:, 0]) + s * (u[:, 3] - u[:, 1])
        )
        return (material.e * elongation / length)[:, None]


BAR2D = register(Bar2D())

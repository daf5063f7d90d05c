"""Tri3: the constant-strain triangle (CST) for plane problems."""

from __future__ import annotations

import numpy as np

from ...errors import FEMError
from ..materials import Material
from .base import ElementType, register


class Tri3(ElementType):
    name = "tri3"
    nodes_per_element = 3
    stress_components = ("sxx", "syy", "sxy")

    def _b_matrices(self, coords: np.ndarray):
        """Strain-displacement matrices B (E, 3, 6) and areas (E,)."""
        x = coords[:, :, 0]
        y = coords[:, :, 1]
        # b_i = y_j - y_k, c_i = x_k - x_j (cyclic)
        b = np.stack([x[:, 1] * 0, x[:, 1] * 0, x[:, 1] * 0], axis=1)
        b = np.stack(
            [y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1
        )
        c = np.stack(
            [x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1
        )
        det = b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]  # = 2*area (signed)
        area2 = x[:, 0] * (y[:, 1] - y[:, 2]) + x[:, 1] * (y[:, 2] - y[:, 0]) + x[:, 2] * (
            y[:, 0] - y[:, 1]
        )
        if np.any(area2 <= 0):
            raise FEMError("tri3: degenerate or inverted element (area <= 0)")
        ne = coords.shape[0]
        bm = np.zeros((ne, 3, 6))
        for i in range(3):
            bm[:, 0, 2 * i] = b[:, i]
            bm[:, 1, 2 * i + 1] = c[:, i]
            bm[:, 2, 2 * i] = c[:, i]
            bm[:, 2, 2 * i + 1] = b[:, i]
        bm /= area2[:, None, None]
        return bm, area2 / 2.0

    def stiffness(self, coords: np.ndarray, material: Material) -> np.ndarray:
        coords = self.validate_coords(coords)
        bm, area = self._b_matrices(coords)
        d = material.d_matrix()
        t = material.thickness
        return np.einsum("eji,jk,ekl->eil", bm, d, bm) * (area * t)[:, None, None]

    def stress(self, coords: np.ndarray, material: Material, u: np.ndarray) -> np.ndarray:
        coords = self.validate_coords(coords)
        u = np.asarray(u, dtype=float).reshape(coords.shape[0], 6)
        bm, _ = self._b_matrices(coords)
        strain = np.einsum("eij,ej->ei", bm, u)
        return strain @ material.d_matrix().T


TRI3 = register(Tri3())

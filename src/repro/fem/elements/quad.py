"""Quad4: the four-node bilinear isoparametric quadrilateral.

Integrated with a 2x2 Gauss rule; stress recovery evaluates at the
element centroid.  Fully vectorized over elements.
"""

from __future__ import annotations

import numpy as np

from ...errors import FEMError
from ..materials import Material
from .base import ElementType, register

_G = 1.0 / np.sqrt(3.0)
GAUSS_POINTS = [(-_G, -_G), (_G, -_G), (_G, _G), (-_G, _G)]


def _shape_derivs(xi: float, eta: float) -> np.ndarray:
    """dN/d(xi,eta) for the bilinear quad: (2, 4)."""
    return 0.25 * np.array(
        [
            [-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)],
            [-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)],
        ]
    )


#: dN/d(xi,eta) at the four Gauss points, then at the centroid: (5, 2, 4)
_DN = np.array([_shape_derivs(xi, eta) for xi, eta in GAUSS_POINTS + [(0.0, 0.0)]])


class Quad4(ElementType):
    name = "quad4"
    nodes_per_element = 4
    stress_components = ("sxx", "syy", "sxy")

    def _b_at(self, coords: np.ndarray, dn: np.ndarray):
        """B matrices (P, E, 3, 8) and |J| (P, E) at the P integration
        points whose shape derivatives *dn* (P, 2, 4) are given."""
        jac = np.einsum("pin,enj->peij", dn, coords)  # (P, E, 2, 2)
        det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
        if np.any(det <= 0):
            raise FEMError("quad4: non-positive Jacobian (bad node ordering?)")
        inv = np.empty_like(jac)
        inv[..., 0, 0] = jac[..., 1, 1]
        inv[..., 1, 1] = jac[..., 0, 0]
        inv[..., 0, 1] = -jac[..., 0, 1]
        inv[..., 1, 0] = -jac[..., 1, 0]
        inv /= det[..., None, None]
        dndx = np.einsum("peij,pjn->pein", inv, dn)  # (P, E, 2, 4)
        b = np.zeros(dndx.shape[:2] + (3, 8))
        b[..., 0, 0::2] = dndx[..., 0, :]
        b[..., 1, 1::2] = dndx[..., 1, :]
        b[..., 2, 0::2] = dndx[..., 1, :]
        b[..., 2, 1::2] = dndx[..., 0, :]
        return b, det

    def stiffness(self, coords: np.ndarray, material: Material) -> np.ndarray:
        coords = self.validate_coords(coords)
        d = material.d_matrix()
        t = material.thickness
        b, det = self._b_at(coords, _DN[:4])
        k = np.zeros((coords.shape[0], 8, 8))
        for g in range(4):  # unit weights for 2x2 Gauss
            k += np.einsum("eji,jk,ekl->eil", b[g], d, b[g]) * (det[g] * t)[:, None, None]
        return k

    def stress(self, coords: np.ndarray, material: Material, u: np.ndarray) -> np.ndarray:
        coords = self.validate_coords(coords)
        u = np.asarray(u, dtype=float).reshape(coords.shape[0], 8)
        b, _ = self._b_at(coords, _DN[4:])  # centroid
        strain = np.einsum("eij,ej->ei", b[0], u)
        return strain @ material.d_matrix().T


QUAD4 = register(Quad4())

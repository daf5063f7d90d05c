"""Material and section properties for structural elements."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FEMError


@dataclass(frozen=True)
class Material:
    """Linear-elastic isotropic material.

    ``e`` Young's modulus, ``nu`` Poisson's ratio, ``density`` mass
    density, ``thickness`` out-of-plane thickness for plane elements,
    ``area`` cross-section area for bars, ``inertia`` second moment of
    area (no element reads it; it stays a field because checkpointed
    models carry their material).
    """

    e: float = 210e9
    nu: float = 0.3
    density: float = 7850.0
    thickness: float = 1.0
    area: float = 1.0
    inertia: float = 1.0
    plane_stress: bool = True

    def __post_init__(self) -> None:
        if self.e <= 0:
            raise FEMError(f"Young's modulus must be positive, got {self.e}")
        if not -1.0 < self.nu < 0.5:
            raise FEMError(f"Poisson's ratio must be in (-1, 0.5), got {self.nu}")
        if min(self.thickness, self.area, self.inertia) <= 0:
            raise FEMError("thickness, area, and inertia must be positive")

    def d_matrix(self) -> np.ndarray:
        """The 3x3 constitutive matrix for plane stress or plane strain."""
        e, nu = self.e, self.nu
        if self.plane_stress:
            c = e / (1.0 - nu * nu)
            return c * np.array(
                [[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, (1.0 - nu) / 2.0]]
            )
        c = e / ((1.0 + nu) * (1.0 - 2.0 * nu))
        return c * np.array(
            [
                [1.0 - nu, nu, 0.0],
                [nu, 1.0 - nu, 0.0],
                [0.0, 0.0, (1.0 - 2.0 * nu) / 2.0],
            ]
        )


#: A soft aluminium-like default used across examples and benchmarks.
STEEL = Material()
ALUMINUM = Material(e=70e9, nu=0.33, density=2700.0)

"""Element-type protocol and registry.

An element type computes element stiffness matrices (batched — the
guides' vectorize-everything rule) and recovers stresses from element
displacements: ``stiffness(coords, material)`` maps ``(E, nn, 2)``
coordinates of E elements with nn nodes each to ``(E, nd, nd)``, where
``nd = nn * dofs_per_node``, and ``stress(coords, material, u)`` maps
``(E, nd)`` element displacements to ``(E, n_components)``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ...errors import FEMError


class ElementType:
    """Abstract element type."""

    name: str = "abstract"
    nodes_per_element: int = 0
    dofs_per_node: int = 2
    #: rows returned by stress(): labels for reporting
    stress_components: tuple = ()

    @property
    def dofs_per_element(self) -> int:
        return self.nodes_per_element * self.dofs_per_node

    def validate_coords(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 3 or coords.shape[1:] != (self.nodes_per_element, 2):
            raise FEMError(
                f"{self.name}: expected coords (E, {self.nodes_per_element}, 2), "
                f"got {coords.shape}"
            )
        return coords

    def flops_per_stiffness(self) -> int:
        """Estimated flops to form one element stiffness — used by the
        analysis package and charged by the parallel assembly tasks."""
        nd = self.dofs_per_element
        return 8 * nd * nd  # B^T D B style cost, small constants folded in


_REGISTRY: Dict[str, ElementType] = {}


def register(etype: ElementType) -> ElementType:
    if etype.name in _REGISTRY:
        raise FEMError(f"element type {etype.name!r} already registered")
    _REGISTRY[etype.name] = etype
    return etype


def element_type(name: str) -> ElementType:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise FEMError(
            f"unknown element type {name!r}; known: {list(known_types())}"
        ) from None


def known_types() -> tuple:
    return tuple(sorted(_REGISTRY))

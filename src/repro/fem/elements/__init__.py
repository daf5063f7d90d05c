"""Element library: bar, constant-strain triangle, bilinear quad."""

from .base import ElementType, element_type, known_types, register
from .bar import BAR2D, Bar2D
from .tri import TRI3, Tri3
from .quad import GAUSS_POINTS, QUAD4, Quad4

__all__ = [
    "ElementType",
    "element_type",
    "known_types",
    "register",
    "BAR2D",
    "Bar2D",
    "TRI3",
    "Tri3",
    "GAUSS_POINTS",
    "QUAD4",
    "Quad4",
]

"""Common result type for linear solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np


@dataclass
class SolveResult:
    """Outcome of one linear solve.

    ``flops`` is the solver's own estimate of floating-point work, used
    by the analysis package to cross-check simulator measurements.
    """

    x: np.ndarray
    method: str
    converged: bool = True
    iterations: int = 0
    residual_norm: float = 0.0
    flops: int = 0
    residual_history: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)

"""Benchmark support: standard workloads and the experiment harness."""

from .harness import Experiment, summarize_series
from .workloads import BENCH_MATERIAL, Problem, plane_stress_cantilever

__all__ = [
    "Experiment",
    "summarize_series",
    "BENCH_MATERIAL",
    "Problem",
    "plane_stress_cantilever",
]

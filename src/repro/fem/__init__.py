"""The finite-element substrate: the application FEM-2 was built for.

Host-side (numpy/scipy) meshing, assembly, solvers, stresses, and
substructuring — the correctness oracles — plus distributed drivers
(:mod:`repro.fem.parallel`) that run the same problems on the simulated
FEM-2 machine through the numerical analyst's VM.
"""

from .materials import ALUMINUM, STEEL, Material
from .mesh import Mesh, cantilever_frame, portal_frame, pratt_truss, rect_grid, rect_grid_quad8
from .elements import element_type, known_types
from .loads import LoadSet
from .bc import Constraints
from .assembly import (
    assemble_stiffness,
    assembly_flops,
    element_stiffness_batches,
    stiffness_stats,
)
from .solvers import (
    SolveResult,
    cholesky_factor,
    conjugate_gradient,
    jacobi,
    solve_cholesky,
    solve_linear,
    solve_sparse_lu,
    sor,
)
from .stress import max_stress_summary, recover_stresses, stress_flops, von_mises_plane
from .solve import StaticResult, static_solve
from .partition import (
    Subdomain,
    interface_dofs,
    partition_bisection,
    partition_stats,
    partition_strips,
    shared_nodes,
)
from .substructure import (
    CondensedSubstructure,
    SubstructureSolution,
    condense_substructure,
    subdomain_stiffness,
    substructure_solve,
)
from .parallel import (
    ParallelSolveInfo,
    collect_parallel_cg,
    parallel_cg_solve,
    parallel_power_iteration,
    parallel_stress_recovery,
    parallel_substructure_solve,
    register_parallel_cg,
    start_parallel_cg,
)
from .multilevel import MultilevelSolution, multilevel_substructure_solve
from .mass import assemble_mass, element_mass, total_mass
from .eigen import ModalResult, natural_frequencies, rayleigh_quotient, subspace_eigensolve
from .quality import acceptable, element_quality, mesh_quality
from .dynamics import TransientResult, energy_history, newmark_transient

__all__ = [
    "ALUMINUM",
    "STEEL",
    "Material",
    "Mesh",
    "cantilever_frame",
    "portal_frame",
    "pratt_truss",
    "rect_grid",
    "rect_grid_quad8",
    "element_type",
    "known_types",
    "LoadSet",
    "Constraints",
    "assemble_stiffness",
    "assembly_flops",
    "element_stiffness_batches",
    "stiffness_stats",
    "SolveResult",
    "cholesky_factor",
    "conjugate_gradient",
    "jacobi",
    "solve_cholesky",
    "solve_linear",
    "solve_sparse_lu",
    "sor",
    "max_stress_summary",
    "recover_stresses",
    "stress_flops",
    "von_mises_plane",
    "StaticResult",
    "static_solve",
    "Subdomain",
    "interface_dofs",
    "partition_bisection",
    "partition_stats",
    "partition_strips",
    "shared_nodes",
    "CondensedSubstructure",
    "SubstructureSolution",
    "condense_substructure",
    "subdomain_stiffness",
    "substructure_solve",
    "ParallelSolveInfo",
    "collect_parallel_cg",
    "parallel_cg_solve",
    "parallel_power_iteration",
    "parallel_stress_recovery",
    "register_parallel_cg",
    "start_parallel_cg",
    "parallel_substructure_solve",
    "MultilevelSolution",
    "multilevel_substructure_solve",
    "assemble_mass",
    "element_mass",
    "total_mass",
    "ModalResult",
    "natural_frequencies",
    "rayleigh_quotient",
    "subspace_eigensolve",
    "acceptable",
    "element_quality",
    "mesh_quality",
    "TransientResult",
    "energy_history",
    "newmark_transient",
]

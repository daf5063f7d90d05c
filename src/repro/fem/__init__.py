"""The finite-element substrate: the application FEM-2 was built for.

Host-side (numpy/scipy) meshing, assembly, solvers, stresses, and
substructuring — the correctness oracles — plus distributed drivers
(:mod:`repro.fem.parallel`) that run the same problems on the simulated
FEM-2 machine through the numerical analyst's VM.
"""

from .materials import ALUMINUM, STEEL, Material
from .mesh import Mesh, pratt_truss, rect_grid
from .elements import element_type, known_types
from .loads import LoadSet
from .bc import Constraints
from .assembly import assemble_stiffness, element_stiffness_batches
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
from .stress import recover_stresses, von_mises_plane
from .solve import StaticResult, static_solve
from .partition import (
    Subdomain,
    interface_dofs,
    partition_bisection,
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
    parallel_substructure_solve,
    register_parallel_cg,
    start_parallel_cg,
)
from .multilevel import MultilevelSolution, multilevel_substructure_solve

__all__ = [
    "ALUMINUM",
    "STEEL",
    "Material",
    "Mesh",
    "pratt_truss",
    "rect_grid",
    "element_type",
    "known_types",
    "LoadSet",
    "Constraints",
    "assemble_stiffness",
    "element_stiffness_batches",
    "SolveResult",
    "cholesky_factor",
    "conjugate_gradient",
    "jacobi",
    "solve_cholesky",
    "solve_linear",
    "solve_sparse_lu",
    "sor",
    "recover_stresses",
    "von_mises_plane",
    "StaticResult",
    "static_solve",
    "Subdomain",
    "interface_dofs",
    "partition_bisection",
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
    "register_parallel_cg",
    "start_parallel_cg",
    "parallel_substructure_solve",
    "MultilevelSolution",
    "multilevel_substructure_solve",
]

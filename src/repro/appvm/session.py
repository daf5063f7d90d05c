"""Workstation sessions: the application user's operations.

"The FEM-2 user would typically be a structural engineer using the
system as an interactive workstation that allows one to store the
description of a structural model, to invoke applications packages to
analyze the model, and to display the results."

Operations (from the paper's list): define structure model, generate
grid, define elements, solve model/load set for displacements,
calculate stresses, data base store/retrieve.  ``solve`` runs either
host-side (the oracle) or on the simulated FEM-2 machine
(``engine="fem2"``), which is how a whole interactive session becomes a
measurable machine workload (experiment E12).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..errors import AppVMError

from ..fem import (
    Constraints,
    LoadSet,
    Material,
    parallel_cg_solve,
    pratt_truss,
    recover_stresses,
    rect_grid,
    static_solve,
)
from ..hardware.machine import MachineConfig
from ..langvm import Fem2Program
from .database import ModelDatabase
from .display import render_displacements, render_model, render_stresses
from .model import AnalysisResult, StructureModel
from .workspace import Workspace


class WorkstationSession:
    """One user's interactive session against a (possibly shared) database."""

    def __init__(
        self,
        user: str = "engineer",
        database: Optional[ModelDatabase] = None,
        machine_config: Optional[MachineConfig] = None,
    ) -> None:
        self.user = user
        self.database = database if database is not None else ModelDatabase()
        self.workspace = Workspace(owner=user)
        self.machine_config = machine_config or MachineConfig(
            memory_words_per_cluster=4_000_000
        )
        self.current: Optional[StructureModel] = None
        self.last_program: Optional[Fem2Program] = None

    # -- model building ("define structure model", "generate grid") ------------

    def define_structure(self, name: str) -> StructureModel:
        model = StructureModel(name)
        self.workspace.put(f"model:{name}", model)
        self.current = model
        return model

    def _model(self) -> StructureModel:
        if self.current is None:
            raise AppVMError("no current model; define one first")
        return self.current

    def set_material(self, **props: Any) -> Material:
        model = self._model()
        model.material = Material(**props)
        return model.material

    def generate_grid(self, nx: int, ny: int, lx: float = 1.0, ly: float = 1.0,
                      kind: str = "quad4") -> None:
        self._model().set_mesh(rect_grid(nx, ny, lx, ly, kind))

    def generate_truss(self, n_panels: int, panel: float = 1.0,
                       height: float = 1.0) -> None:
        self._model().set_mesh(pratt_truss(n_panels, panel, height))

    # -- supports and loads -----------------------------------------------------

    def fix_nodes(self, nodes: Iterable[int], comps: Optional[Iterable[int]] = None) -> None:
        model = self._model()
        model.require_mesh()
        model.constraints.fix_nodes(nodes, comps)

    def fix_line(self, x: Optional[float] = None, y: Optional[float] = None,
                 comps: Optional[Iterable[int]] = None) -> int:
        model = self._model()
        nodes = model.require_mesh().nodes_on(x=x, y=y)
        if not len(nodes):
            raise AppVMError(f"no nodes on line x={x} y={y}")
        model.constraints.fix_nodes(nodes, comps)
        return len(nodes)

    def define_load_set(self, name: str) -> LoadSet:
        model = self._model()
        model.require_mesh()
        if name in model.load_sets:
            raise AppVMError(f"load set {name!r} already defined")
        ls = LoadSet(name)
        model.load_sets[name] = ls
        return ls

    def add_load(self, load_set: str, node: int, comp: int, value: float) -> None:
        self._model().load_set(load_set).add_nodal(node, comp, value)

    def add_line_load(self, load_set: str, comp: int, value: float,
                      x: Optional[float] = None, y: Optional[float] = None) -> int:
        model = self._model()
        nodes = model.require_mesh().nodes_on(x=x, y=y)
        if not len(nodes):
            raise AppVMError(f"no nodes on line x={x} y={y}")
        model.load_set(load_set).add_nodal_many(nodes, comp, value)
        return len(nodes)

    # -- analysis ("solve", "calculate stresses") -----------------------------------

    def solve(
        self,
        load_set: str,
        method: str = "sparse_lu",
        engine: str = "host",
        workers: int = 4,
        tol: float = 1e-10,
    ) -> AnalysisResult:
        model = self._model()
        mesh = model.require_mesh()
        constraints = model.require_constraints()
        loads = model.load_set(load_set)
        if engine == "host":
            r = static_solve(mesh, model.material, constraints, loads,
                             method=method, with_stresses=True)
            result = AnalysisResult(
                model.name, load_set, r.u, r.stresses, method,
                iterations=r.solver.iterations,
            )
        elif engine == "fem2":
            program = Fem2Program(self.machine_config)
            info = parallel_cg_solve(
                program, mesh, model.material, constraints, loads,
                n_workers=workers, tol=tol,
            )
            stresses = recover_stresses(mesh, model.material, info.u)
            result = AnalysisResult(
                model.name, load_set, info.u, stresses, f"fem2-cg[{workers}]",
                iterations=info.iterations, elapsed_cycles=info.elapsed_cycles,
            )
            self.last_program = program
        else:
            raise AppVMError(f"unknown engine {engine!r}; host or fem2")
        self.workspace.put(f"result:{model.name}:{load_set}", result)
        return result

    def result(self, load_set: str) -> AnalysisResult:
        """The current model's last result for *load_set*."""
        return self.workspace.get(f"result:{self._model().name}:{load_set}")

    def set_gravity(self, load_set: str, gx: float, gy: float) -> None:
        """Add a uniform gravity field to a load set."""
        self._model().load_set(load_set).set_gravity(gx, gy)

    # -- database ("store model in DB/retrieve") ----------------------------------------

    def store_model(self, key: Optional[str] = None) -> int:
        model = self._model()
        return self.database.store(key or model.name, model.to_dict(), kind="model")

    def retrieve_model(self, key: str) -> StructureModel:
        model = StructureModel.from_dict(self.database.retrieve(key))
        self.workspace.put(f"model:{model.name}", model)
        self.current = model
        return model

    # -- display -----------------------------------------------------------------------------

    def show(self, what: str, load_set: Optional[str] = None) -> str:
        model = self._model()
        if what == "model":
            return render_model(model)
        if load_set is None:
            raise AppVMError(f"show {what} needs a load set")
        result = self.result(load_set)
        if what == "displacements":
            return render_displacements(model.require_mesh(), result)
        if what == "stresses":
            return render_stresses(result)
        raise AppVMError(f"cannot show {what!r}")

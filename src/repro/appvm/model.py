"""Structure models and analysis results — the application user's data
objects.

"Data objects: Structure/substructure model, Grid description,
Node/element description, Load set, Displacements of nodes, Stresses on
elements."  :class:`StructureModel` bundles the first four;
:class:`AnalysisResult` the last two.  Both serialize to plain dicts so
the model database can store them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from ..errors import AppVMError
from ..fem import Constraints, LoadSet, Material, Mesh


@dataclass
class StructureModel:
    """A named structural model: mesh + material + supports + load sets."""

    name: str
    mesh: Optional[Mesh] = None
    material: Material = field(default_factory=Material)
    constraints: Optional[Constraints] = None
    load_sets: Dict[str, LoadSet] = field(default_factory=dict)

    def require_mesh(self) -> Mesh:
        if self.mesh is None:
            raise AppVMError(f"model {self.name!r} has no grid yet")
        return self.mesh

    def require_constraints(self) -> Constraints:
        if self.constraints is None or not len(self.constraints.fixed_dofs):
            raise AppVMError(f"model {self.name!r} has no supports")
        return self.constraints

    def load_set(self, name: str) -> LoadSet:
        try:
            return self.load_sets[name]
        except KeyError:
            raise AppVMError(
                f"model {self.name!r} has no load set {name!r} "
                f"(have: {sorted(self.load_sets)})"
            ) from None

    def set_mesh(self, mesh: Mesh) -> None:
        self.mesh = mesh
        self.constraints = Constraints(mesh)
        self.load_sets.clear()

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name, "load_sets": sorted(self.load_sets)}
        if self.mesh is not None:
            out.update(self.mesh.stats())
            out["supports"] = int(len(self.constraints.fixed_dofs)) if self.constraints else 0
        return out

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"name": self.name, "material": _mat_to_dict(self.material)}
        if self.mesh is not None:
            d["mesh"] = {
                "coords": self.mesh.coords.tolist(),
                "dofs_per_node": self.mesh.dofs_per_node,
                "groups": {k: v.tolist() for k, v in self.mesh.groups.items()},
            }
            d["fixed"] = {
                str(dof): val
                for dof, val in zip(
                    self.constraints.fixed_dofs.tolist(),
                    self.constraints.prescribed_values().tolist(),
                )
            }
        d["load_sets"] = {
            name: {
                "nodal": [[n, c, v] for (n, c), v in ls._nodal.items()],
                "gravity": list(ls._gravity),
            }
            for name, ls in self.load_sets.items()
        }
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "StructureModel":
        model = cls(d["name"], material=_mat_from_dict(d["material"]))
        if "mesh" in d:
            mesh = Mesh(np.array(d["mesh"]["coords"]))
            for etype, conn in d["mesh"]["groups"].items():
                mesh.add_elements(etype, np.array(conn, dtype=int))
            model.set_mesh(mesh)
            dpn = mesh.dofs_per_node
            for dof_str, val in d.get("fixed", {}).items():
                dof = int(dof_str)
                model.constraints.prescribe(dof // dpn, dof % dpn, val)
        for name, spec in d.get("load_sets", {}).items():
            ls = LoadSet(name)
            for n, c, v in spec["nodal"]:
                ls.add_nodal(n, c, v)
            ls.set_gravity(*spec["gravity"])
            model.load_sets[name] = ls
        return model


def _mat_to_dict(m: Material) -> Dict[str, Any]:
    return {
        "e": m.e, "nu": m.nu, "density": m.density, "thickness": m.thickness,
        "area": m.area, "inertia": m.inertia, "plane_stress": m.plane_stress,
    }


def _mat_from_dict(d: Dict[str, Any]) -> Material:
    return Material(**d)


@dataclass
class AnalysisResult:
    """Displacements of nodes and stresses on elements, plus provenance."""

    model_name: str
    load_set: str
    u: np.ndarray
    stresses: Dict[str, np.ndarray]
    method: str
    iterations: int = 0
    elapsed_cycles: int = 0  # 0 for host-side solves

    def max_displacement(self) -> float:
        return float(np.abs(self.u).max()) if self.u.size else 0.0

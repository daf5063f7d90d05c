"""The FEM-2 design method — the paper's primary contribution.

Virtual-machine layer specifications (five components per layer),
top-down requirement derivation, refinement checking between adjacent
layers, the iterative design process, and the actual FEM-2 four-layer
specification (:func:`fem2_stack`) wired to this repository's
executable artifacts and H-graph formal models.
"""

from .vm_spec import ComponentKind, SpecItem, VMSpec
from .layers import LayerStack
from .refinement import (
    RefinementReport,
    check_refinement,
    resolve_artifact,
)
from .requirements import (
    PAPER_HARDWARE_REQUIREMENTS,
    Requirement,
    derive_requirements,
)
from .process import (
    DesignProcess,
    IterationRecord,
    OrderStudyResult,
    classify_requirements,
    design_order_study,
)
from .specs import fem2_grammars, fem2_stack, fem2_transforms
from .report import render_stack

__all__ = [
    "ComponentKind",
    "SpecItem",
    "VMSpec",
    "LayerStack",
    "RefinementReport",
    "check_refinement",
    "resolve_artifact",
    "PAPER_HARDWARE_REQUIREMENTS",
    "Requirement",
    "derive_requirements",
    "DesignProcess",
    "IterationRecord",
    "OrderStudyResult",
    "classify_requirements",
    "design_order_study",
    "fem2_grammars",
    "fem2_stack",
    "fem2_transforms",
    "render_stack",
]

"""Tests for the design-method core: specs, refinement, requirements,
the iterative process, and the shipped FEM-2 stack."""

import pytest

from repro.errors import DesignError, RefinementError
from repro.sysvm import MsgKind, TaskState
from repro.core import (
    ComponentKind,
    DesignProcess,
    LayerStack,
    PAPER_HARDWARE_REQUIREMENTS,
    SpecItem,
    VMSpec,
    check_refinement,
    classify_requirements,
    derive_requirements,
    design_order_study,
    fem2_grammars,
    fem2_stack,
    fem2_transforms,
    render_stack,
    require_refined,
    resolve_artifact,
)


def tiny_stack():
    """A minimal two-layer stack used by the unit tests."""
    stack = LayerStack("tiny")
    top = VMSpec("top", 1)
    top.data_object("model", implemented_by=("array",))
    top.operation("solve", implemented_by=("mult",))
    top.sequence_control("loop", implemented_by=("clock",))
    top.data_control("own", implemented_by=("mem",))
    top.storage_management("alloc", implemented_by=("mem",))
    bottom = VMSpec("bottom", 2)
    bottom.data_object("array")
    bottom.operation("mult")
    bottom.sequence_control("clock")
    bottom.data_control("mem")
    bottom.storage_management("mem_mgmt")
    stack.add_layer(top)
    stack.add_layer(bottom)
    return stack


class TestVMSpec:
    def test_five_component_kinds(self):
        assert len(ComponentKind) == 5

    def test_add_and_query(self):
        vm = VMSpec("l", 1)
        vm.data_object("a", "desc")
        vm.operation("b")
        assert len(vm) == 2
        assert vm.get("a").kind is ComponentKind.DATA_OBJECT
        assert [i.name for i in vm.items(ComponentKind.OPERATION)] == ["b"]

    def test_duplicate_item_rejected(self):
        vm = VMSpec("l", 1)
        vm.data_object("a")
        with pytest.raises(DesignError):
            vm.operation("a")

    def test_completeness(self):
        vm = VMSpec("l", 1)
        vm.data_object("a")
        assert not vm.is_complete()
        vm.operation("b")
        vm.sequence_control("c")
        vm.data_control("d")
        vm.storage_management("e")
        assert vm.is_complete()

    def test_invalid_level(self):
        with pytest.raises(DesignError):
            VMSpec("l", 0)


class TestLayerStack:
    def test_validate_tiny(self):
        tiny_stack().validate()

    def test_duplicate_level_rejected(self):
        stack = tiny_stack()
        with pytest.raises(DesignError):
            stack.add_layer(VMSpec("again", 1))

    def test_non_contiguous_levels_rejected(self):
        stack = LayerStack()
        full = VMSpec("a", 1)
        for method in ("data_object", "operation", "sequence_control",
                       "data_control", "storage_management"):
            getattr(full, method)(method)
        stack.add_layer(full)
        other = VMSpec("c", 3)
        for method in ("data_object", "operation", "sequence_control",
                       "data_control", "storage_management"):
            getattr(other, method)(method)
        stack.add_layer(other)
        with pytest.raises(DesignError, match="contiguous"):
            stack.validate()

    def test_incomplete_layer_rejected(self):
        stack = LayerStack()
        vm = VMSpec("a", 1)
        vm.data_object("x")
        stack.add_layer(vm)
        with pytest.raises(DesignError, match="missing components"):
            stack.validate()

    def test_unregistered_formal_model_rejected(self):
        stack = tiny_stack()
        stack.layer(1).data_object("formal_thing", formal="ghost_grammar")
        with pytest.raises(DesignError, match="unregistered formal"):
            stack.validate()

    def test_below(self):
        stack = tiny_stack()
        assert stack.below(stack.layer(1)).name == "bottom"
        assert stack.below(stack.layer(2)) is None


class TestRefinement:
    def test_tiny_stack_refines(self):
        report = check_refinement(tiny_stack(), check_artifacts=False)
        assert report.ok
        assert report.coverage() == 1.0
        # mem_mgmt is unused by the top layer -> orphan, not an error
        assert ("bottom", "mem_mgmt") in report.orphans

    def test_uncovered_item_detected(self):
        stack = tiny_stack()
        stack.layer(1).operation("mystery")  # no implemented_by
        report = check_refinement(stack, check_artifacts=False)
        assert not report.ok
        assert ("top", "mystery") in report.uncovered
        assert report.coverage() < 1.0

    def test_dangling_reference_detected(self):
        stack = tiny_stack()
        stack.layer(1).operation("bad", implemented_by=("no_such_item",))
        report = check_refinement(stack, check_artifacts=False)
        assert ("top", "bad", "no_such_item") in report.dangling

    def test_require_refined_raises(self):
        stack = tiny_stack()
        stack.layer(1).operation("mystery")
        with pytest.raises(RefinementError):
            require_refined(stack)

    def test_resolve_artifact(self):
        assert resolve_artifact("repro.sysvm.heap.Heap")
        assert resolve_artifact("repro.fem.mesh.Mesh.add_elements")
        assert not resolve_artifact("repro.sysvm.heap.Pile")
        assert not resolve_artifact("no.such.module.Thing")

    def test_missing_artifact_detected(self):
        stack = tiny_stack()
        stack.layer(2).operation("phantom", artifact="repro.not.there")
        report = check_refinement(stack, check_artifacts=True)
        assert any(item == "phantom" for _, item, _ in report.missing_artifacts)


class TestRequirements:
    def test_derivation_counts(self):
        stack = tiny_stack()
        reqs = derive_requirements(stack)
        # 5 items on the top layer + 10 paper hardware requirements
        assert len(reqs) == 5 + len(PAPER_HARDWARE_REQUIREMENTS)
        assert all(r.on_level == 2 for r in reqs)

    def test_classify_orders(self):
        reqs = derive_requirements(tiny_stack())
        late_td, early_td = classify_requirements(reqs, (1, 2))
        late_bu, early_bu = classify_requirements(reqs, (2, 1))
        assert not late_td                      # top-down: nothing late
        assert len(late_bu) == len(reqs)        # bottom-up: everything late

    def test_design_order_study(self):
        study = design_order_study(fem2_stack())
        assert study["top_down"].late_count == 0
        assert study["bottom_up"].late_count > 30
        assert study["bottom_up"].late_fraction == 1.0


class TestDesignProcess:
    def test_iteration_tracks_defect_curve(self):
        stack = tiny_stack()
        stack.layer(1).operation("mystery")  # defect: uncovered
        proc = DesignProcess(stack)
        proc.baseline()
        assert not proc.converged()

        def fix(s):
            s.layer(1).get("mystery").implemented_by = ("mult",)

        rec = proc.iterate("cover mystery op", fix)
        assert rec.defects == 0
        assert proc.converged()
        assert proc.defect_curve()[0] > proc.defect_curve()[-1]


class TestFem2Stack:
    def test_stack_builds_and_validates(self):
        stack = fem2_stack()
        assert stack.levels() == [1, 2, 3, 4]
        assert stack.total_items() > 40

    def test_full_refinement_coverage_with_artifacts(self):
        """The shipped FEM-2 design refines completely AND every artifact
        link resolves to real code in this repository."""
        report = require_refined(fem2_stack())
        assert report.coverage() == 1.0

    def test_grammars_validate(self):
        for g in fem2_grammars().values():
            g.validate()

    def test_message_grammar_matches_message_model(self):
        from repro.hgraph import HGraph, Matcher, Symbol

        grammars = fem2_grammars()
        hg = HGraph()
        g = hg.build_record(
            {"kind": Symbol("remote_call"), "src": 0, "dst": 1, "size": 42}
        )
        assert Matcher(grammars["message"]).matches(g)
        bad = hg.build_record(
            {"kind": Symbol("smoke_signal"), "src": 0, "dst": 1, "size": 42}
        )
        assert not Matcher(grammars["message"]).matches(bad)

    def test_transforms_execute_with_verification(self):
        from repro.hgraph import HGraph

        interp = fem2_transforms()
        hg = HGraph()
        ls = interp.run("new_load_set", hg)
        interp.run("add_load", hg, ls, 3, 1, -100.0)
        interp.run("add_load", hg, ls, 5, 0, 50.0)
        assert interp.run("total_load", hg, ls) == 150.0
        assert interp.stats.condition_checks >= 5

    def test_renders(self):
        stack = fem2_stack()
        doc = render_stack(stack)
        assert "numerical_analyst" in doc and "general_heap" in doc


def enumerated_symbols(grammar, symbol):
    """The names of the ``Const(Symbol(...))`` alternatives of one rule."""
    return {form.value.name for form in grammar.resolve(symbol).forms}


class TestSpecAgreesWithRuntime:
    """The layer-3 grammars enumerate what sysvm sends and schedules, and
    both lists are written out twice (``core/specs.py`` and ``sysvm``):
    a value added to one side only must fail here, naming the grammar."""

    @pytest.mark.parametrize("grammar,symbol,runtime", [
        ("message", "kind", MsgKind),
        ("task_state", "task_state", TaskState),
    ])
    def test_grammar_enumerates_runtime_values(self, grammar, symbol, runtime):
        spec = enumerated_symbols(fem2_grammars()[grammar], symbol)
        live = {member.value for member in runtime}
        assert spec == live, (
            f"grammar {grammar!r} rule {symbol!r} admits {sorted(spec)} but "
            f"{runtime.__name__} has {sorted(live)}: missing from the grammar "
            f"{sorted(live - spec)}, not in the runtime {sorted(spec - live)}"
        )

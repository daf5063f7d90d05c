"""The FEM-2 specification: the paper's four layers, made checkable.

This module transcribes the paper's component lists into a
:class:`~repro.core.layers.LayerStack` whose items

* refine into named items of the next layer down (checked by
  :mod:`repro.core.refinement`),
* link to the executable artifacts of this repository (checked by
  import), and
* carry H-graph grammars as formal models where the paper's method
  calls for them.

``fem2_stack()`` is the deliverable the paper's status section says was
"nearing completion"; the test suite holds it to full refinement
coverage.
"""

from __future__ import annotations

from ..hgraph import (
    Alt,
    AtomKind,
    Const,
    Grammar,
    Interpreter,
    Ref,
    Struct,
    Sub,
    Symbol,
    Transform,
)
from .layers import LayerStack
from .vm_spec import VMSpec


# -- formal models (H-graph grammars) -----------------------------------------

def fem2_grammars() -> dict:
    """The formal data-object models referenced by the layer specs."""
    load_set = Grammar("load_set")
    load_set.define(
        "load_set",
        Alt(
            Struct(arcs={"head": Ref("load"), "tail": Ref("load_set")}),
            Struct(arcs={}),
        ),
    )
    load_set.define(
        "load",
        Sub(Struct(arcs={
            "node": AtomKind("int"),
            "comp": AtomKind("int"),
            "value": AtomKind("number"),
        })),
    )

    structure_model = Grammar("structure_model")
    structure_model.define(
        "structure_model",
        Struct(arcs={
            "name": AtomKind("str"),
            "grid": Sub(Ref("grid")),
            "loads": Sub(Ref("load_sets")),
        }),
    )
    structure_model.define(
        "grid",
        Struct(arcs={"nodes": AtomKind("int"), "elements": AtomKind("int")}),
    )
    structure_model.define(
        "load_sets",
        Alt(
            Struct(arcs={"head": AtomKind("str"), "tail": Ref("load_sets")}),
            Struct(arcs={}),
        ),
    )

    window_descriptor = Grammar("window_descriptor")
    window_descriptor.define(
        "window_descriptor",
        Struct(arcs={
            "array": AtomKind("int"),
            "r0": AtomKind("int"),
            "r1": AtomKind("int"),
            "c0": AtomKind("int"),
            "c1": AtomKind("int"),
        }),
    )

    message = Grammar("message")
    message.define(
        "message",
        Struct(
            arcs={
                "kind": Ref("kind"),
                "src": AtomKind("int"),
                "dst": AtomKind("int"),
                "size": AtomKind("int"),
            },
            closed=False,
        ),
    )
    message.define(
        "kind",
        Alt(*[
            Const(Symbol(s))
            for s in (
                "initiate_task", "pause_notify", "resume_task",
                "terminate_notify", "remote_call", "remote_return", "load_code",
            )
        ]),
    )

    task_state = Grammar("task_state")
    task_state.define(
        "task_state",
        Alt(*[
            Const(Symbol(s))
            for s in ("ready", "running", "blocked", "paused", "done", "failed")
        ]),
    )

    return {
        g.name: g
        for g in (load_set, structure_model, window_descriptor, message, task_state)
    }


def fem2_transforms() -> Interpreter:
    """Example H-graph transforms over the formal models: the operations
    side of the specification, executable and condition-checked."""
    grammars = fem2_grammars()
    load_set_g = grammars["load_set"]

    def new_load_set(ctx, hg):
        """Create an empty load-set H-graph."""
        return hg.new_graph(hg.new_node(None, label="load_set"))

    def add_load(ctx, hg, ls, node, comp, value):
        """Prepend one load record to a load-set H-graph."""
        load = hg.build_record({"node": node, "comp": comp, "value": float(value)})
        cell = hg.new_node(None, label="cons")
        ls.add_arc(cell, "head", hg.subgraph_node(load))
        ls.add_arc(cell, "tail", ls.root)
        ls.root = cell
        return ls

    def total_load(ctx, hg, ls):
        """Sum of load magnitudes in a load-set H-graph."""
        total = 0.0
        node = ls.root
        while True:
            arcs = ls.arcs_from(node)
            if "head" not in arcs:
                return total
            record = arcs["head"].value
            total += abs(record.follow(record.root, "value").value)
            node = arcs["tail"]

    interp = Interpreter()
    interp.register(Transform("new_load_set", new_load_set).ensure(load_set_g))
    interp.register(
        Transform("add_load", add_load).require(0, load_set_g).ensure(load_set_g)
    )
    interp.register(Transform("total_load", total_load).require(0, load_set_g))
    return interp


# -- the four layers -------------------------------------------------------------

def _layer1() -> VMSpec:
    vm = VMSpec("application_user", 1, audience="structural engineer")
    vm.data_object(
        "structure_model", "structure/substructure model",
        implemented_by=("windows", "tasks"), formal="structure_model",
        artifact="repro.appvm.model.StructureModel",
    )
    vm.data_object(
        "grid_description", "grid description",
        implemented_by=("windows",), artifact="repro.fem.mesh.Mesh",
    )
    vm.data_object(
        "node_element_description", "node/element description",
        implemented_by=("windows",), artifact="repro.fem.mesh.Mesh.element_coords",
    )
    vm.data_object(
        "load_set", "load set", implemented_by=("windows",),
        formal="load_set", artifact="repro.fem.loads.LoadSet",
    )
    vm.data_object(
        "displacements", "displacements of nodes",
        implemented_by=("windows",), artifact="repro.appvm.model.AnalysisResult",
    )
    vm.data_object(
        "stresses", "stresses on elements",
        implemented_by=("windows",), artifact="repro.fem.stress.recover_stresses",
    )
    vm.operation(
        "define_structure_model", "define structure model",
        implemented_by=("tasks",), artifact="repro.appvm.session.WorkstationSession.define_structure",
    )
    vm.operation(
        "generate_grid", "generate grid", implemented_by=("tasks",),
        artifact="repro.fem.mesh.rect_grid",
    )
    vm.operation(
        "define_elements", "define elements", implemented_by=("tasks",),
        artifact="repro.fem.mesh.Mesh.add_elements",
    )
    vm.operation(
        "solve_model", "solve structure model/load set for displacements",
        implemented_by=("tasks", "linalg_operations", "forall"),
        artifact="repro.fem.parallel.parallel_cg_solve",
    )
    vm.operation(
        "calculate_stresses", "calculate stresses", implemented_by=("tasks",),
        artifact="repro.fem.stress.recover_stresses",
    )
    vm.operation(
        "db_operations", "store model in DB / retrieve",
        implemented_by=("tasks", "window_operations"),
        artifact="repro.appvm.database.ModelDatabase",
    )
    vm.sequence_control(
        "command_interpretation", "direct interpretation of user commands",
        implemented_by=("task_control",),
        artifact="repro.appvm.commands.CommandInterpreter",
    )
    vm.data_control(
        "workspace", "user local data", implemented_by=("single_task_ownership",),
        artifact="repro.appvm.workspace.Workspace",
    )
    vm.data_control(
        "database", "long-term storage; shared data",
        implemented_by=("window_communication",),
        artifact="repro.appvm.database.ModelDatabase",
    )
    vm.storage_management(
        "dynamic_allocation", "dynamic storage allocation for models, results, workspaces",
        implemented_by=("dynamic_data_creation",),
        artifact="repro.appvm.workspace.Workspace.put",
    )
    vm.storage_management(
        "db_workspace_movement", "data movement between data base and workspace",
        implemented_by=("window_operations",),
        artifact="repro.appvm.session.WorkstationSession.retrieve_model",
    )
    return vm


def _layer2() -> VMSpec:
    vm = VMSpec("numerical_analyst", 2, audience="research user / numerical analyst")
    vm.data_object(
        "windows", "windows on arrays: row, column, block descriptors",
        implemented_by=("window_descriptors", "storage_representations"),
        formal="window_descriptor", artifact="repro.langvm.windows.Window",
    )
    vm.operation(
        "tasks", "programmer-defined parallel procedures",
        implemented_by=("activation_records", "code_blocks", "decode_execute_message"),
        artifact="repro.sysvm.effects.Initiate",
    )
    vm.operation(
        "window_operations", "create window, access/assign data visible in a window",
        implemented_by=("format_send_message", "decode_execute_message", "window_descriptors"),
        artifact="repro.langvm.program.TaskContext.read",
    )
    vm.operation(
        "broadcast", "broadcast data to a set of tasks",
        implemented_by=("format_send_message",),
        artifact="repro.sysvm.effects.Broadcast",
    )
    vm.operation(
        "linalg_operations", "inner product, vector operations, etc.",
        implemented_by=("linalg_library",),
        artifact="repro.langvm.linalg.inner",
    )
    vm.sequence_control(
        "forall", "do all iterations in parallel if possible",
        implemented_by=("messages", "decode_execute_message"),
        artifact="repro.langvm.parallel.forall",
    )
    vm.sequence_control(
        "pardo", "do all statements in parallel",
        implemented_by=("messages", "decode_execute_message"),
        artifact="repro.langvm.parallel.pardo",
    )
    vm.sequence_control(
        "task_control", "initiate, pause, resume, terminate",
        implemented_by=("messages", "decode_execute_message"),
        formal="task_state", artifact="repro.sysvm.scheduler.TaskState",
    )
    vm.sequence_control(
        "remote_procedure_call", "location determined by window data location",
        implemented_by=("messages", "format_send_message"),
        artifact="repro.sysvm.effects.RemoteCall",
    )
    vm.data_control(
        "single_task_ownership", "all data owned by a single task",
        implemented_by=("storage_representations",),
        artifact="repro.langvm.ownership.check_owner",
    )
    vm.data_control(
        "window_access", "data accessible non-locally only via windows",
        implemented_by=("window_descriptors",),
        artifact="repro.langvm.ownership.check_owner",
    )
    vm.data_control(
        "window_communication", "tasks may communicate through windows",
        implemented_by=("window_descriptors", "messages"),
        artifact="repro.langvm.windows.Window.write_to",
    )
    vm.storage_management(
        "dynamic_data_creation", "dynamic creation of data objects by a task",
        implemented_by=("general_heap",),
        artifact="repro.sysvm.effects.CreateArray",
    )
    vm.storage_management(
        "data_lifetime", "data lifetime = lifetime of owner task",
        implemented_by=("general_heap",),
        artifact="repro.sysvm.storage.DataStore.drop_owned_by",
    )
    vm.storage_management(
        "task_replication", "dynamic creation of multiple task replications",
        implemented_by=("activation_records", "messages"),
        artifact="repro.sysvm.effects.Initiate",
    )
    vm.storage_management(
        "pause_retention", "local data of a task retained over pause/resume",
        implemented_by=("activation_records",),
        artifact="repro.sysvm.activation.ActivationRecord",
    )
    return vm


def _layer3() -> VMSpec:
    vm = VMSpec("system_programmer", 3, audience="operating-system implementor")
    vm.data_object(
        "code_blocks", "code blocks / constants blocks",
        implemented_by=("cluster_memory",),
        artifact="repro.sysvm.code.CodeBlock",
    )
    vm.data_object(
        "activation_records", "task/procedure activation records (local data)",
        implemented_by=("cluster_memory",),
        artifact="repro.sysvm.activation.ActivationRecord",
    )
    vm.data_object(
        "window_descriptors", "window descriptors",
        implemented_by=("cluster_memory",),
        artifact="repro.sysvm.storage.WINDOW_DESCRIPTOR_WORDS",
    )
    vm.data_object(
        "storage_representations", "storage representations for scalars, arrays, etc.",
        implemented_by=("cluster_memory",),
        artifact="repro.sysvm.storage.words_of",
    )
    vm.data_object(
        "messages", "the seven task/OS message types",
        implemented_by=("message_delivery", "input_queues"),
        formal="message", artifact="repro.sysvm.messages.MsgKind",
    )
    vm.operation(
        "sequential_operations", "arithmetic, procedure call, etc.",
        implemented_by=("pe_execution",),
        artifact="repro.sysvm.effects.Compute",
    )
    vm.operation(
        "linalg_library", "library routines for linear algebra operations",
        implemented_by=("pe_execution",),
        artifact="repro.langvm.linalg.ensure_registered",
    )
    vm.operation(
        "format_send_message", "format and send message (one of the 7 types)",
        implemented_by=("message_delivery", "pe_execution"),
        artifact="repro.sysvm.codec.encode",
    )
    vm.operation(
        "decode_execute_message",
        "decode and execute message (find code, allocate activation record, "
        "copy parameters, enter ready queue)",
        implemented_by=("kernel_dispatch", "input_queues"),
        artifact="repro.sysvm.runtime.Runtime.handle_message",
    )
    vm.sequence_control(
        "sequential_control", "usual sequential language control structures",
        implemented_by=("pe_execution",),
        artifact="repro.sysvm.runtime.Runtime._step",
    )
    vm.sequence_control(
        "ready_queue_scheduling", "enter task in ready queue; assign available PEs",
        implemented_by=("kernel_dispatch",),
        artifact="repro.sysvm.scheduler.ReadyQueue",
    )
    vm.data_control(
        "sequential_data_control", "usual sequential language structures",
        implemented_by=("shared_cluster_memory",),
        artifact="repro.sysvm.runtime.Runtime._step",
    )
    vm.storage_management(
        "general_heap", "general heap with variable size blocks",
        implemented_by=("memory_capacity",),
        artifact="repro.sysvm.heap.Heap",
    )
    return vm


def _layer4() -> VMSpec:
    vm = VMSpec("hardware", 4, audience="hardware architect")
    vm.data_object(
        "cluster_memory", "shared memory per cluster",
        artifact="repro.hardware.memory.SharedMemory",
    )
    vm.data_object(
        "input_queues", "per-cluster message input queues",
        artifact="repro.hardware.cluster.Cluster.enqueue",
    )
    vm.operation(
        "pe_execution", "processing-element compute bursts",
        artifact="repro.hardware.pe.ProcessingElement.execute",
    )
    vm.operation(
        "message_delivery", "network transfer between clusters",
        artifact="repro.hardware.machine.Machine.deliver",
    )
    vm.sequence_control(
        "event_clock", "deterministic discrete-event ordering in cycles",
        artifact="repro.hardware.events.EventEngine",
    )
    vm.sequence_control(
        "kernel_dispatch", "kernel PE fields messages, assigns any available PE",
        artifact="repro.sysvm.kernel.Kernel",
    )
    vm.data_control(
        "shared_cluster_memory", "PEs of a cluster share one memory",
        artifact="repro.hardware.cluster.Cluster",
    )
    vm.storage_management(
        "memory_capacity", "capacity-accounted physical allocation",
        artifact="repro.hardware.memory.SharedMemory.reserve",
    )
    vm.storage_management(
        "reconfiguration", "isolate faulty hardware components",
        artifact="repro.hardware.faults.FaultInjector",
    )
    return vm


def fem2_stack() -> LayerStack:
    """The complete, checkable FEM-2 design."""
    stack = LayerStack("fem2")
    for grammar in fem2_grammars().values():
        stack.add_grammar(grammar)
    stack.add_layer(_layer1())
    stack.add_layer(_layer2())
    stack.add_layer(_layer3())
    stack.add_layer(_layer4())
    stack.validate()
    return stack

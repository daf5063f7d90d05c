"""E3 — Message traffic by type, size distribution, and network load.

The system VM's seven message types and the hardware requirements
"large messages" and "irregular communication patterns", measured on a
real workload: a distributed CG solve plus a distributed substructure
analysis.  Expected shape: data-access messages (remote call/return)
dominate the count for CG; the substructure run moves the largest
single messages (Schur complements); network link load is uneven.
"""

import pytest

from conftest import run_once
from repro.analysis import burstiness, communication_matrix, hub_score
from repro.bench import Experiment, plane_stress_cantilever
from repro.fem import parallel_cg_solve, parallel_substructure_solve, partition_strips
from repro.hardware import MachineConfig
from repro.langvm import Fem2Program
from repro.obs import Tracer
from repro.sysvm import MsgKind, traffic_class


def run_workload(kind):
    problem = plane_stress_cantilever(10)
    cfg = MachineConfig(n_clusters=4, pes_per_cluster=5,
                        memory_words_per_cluster=32_000_000, topology="ring")
    prog = Fem2Program(cfg, tracer=Tracer())
    subs = partition_strips(problem.mesh, 4)
    if kind == "cg":
        parallel_cg_solve(prog, problem.mesh, problem.material,
                          problem.constraints, problem.loads, subs=subs, tol=1e-8)
    else:
        parallel_substructure_solve(prog, problem.mesh, problem.material,
                                    problem.constraints, problem.loads, subs=subs)
    return prog


def run_e3():
    tables = []
    stats = {}
    for workload in ("cg", "substructure"):
        prog = run_workload(workload)
        m = prog.metrics
        exp = Experiment(f"E3-{workload}", f"message traffic of the {workload} solve")
        exp.set_headers("message kind", "class", "count", "words", "mean words")
        counts = {}
        for kind in MsgKind:
            count = m.get(f"comm.messages.{kind.value}")
            words = m.get(f"comm.message_words.{kind.value}")
            counts[kind] = count
            if count:
                exp.add_row(kind.value, traffic_class(kind), int(count),
                            int(words), words / count)
        h = m.histogram("comm.message_size")
        exp.note(f"message sizes: mean {h.mean:.1f}, max {h.max:.0f} words "
                 f"('large messages')")
        tracer = prog.tracer
        m_comm = communication_matrix(tracer, 4)
        exp.note(f"pattern: hub score {hub_score(m_comm):.2f}, burstiness "
                 f"{burstiness(tracer):.2f} (peak/mean per time bin)")
        stats[f"{workload}_hub"] = hub_score(m_comm)
        link_loads = prog.machine.network.link_traffic()
        if link_loads:
            loads = sorted(link_loads.values())
            exp.note(f"link loads (words): min {loads[0]:,} max {loads[-1]:,} "
                     f"over {len(loads)} links ('irregular communication')")
            stats[f"{workload}_link_spread"] = loads[-1] / max(1, loads[0])
        stats[f"{workload}_counts"] = counts
        stats[f"{workload}_max_msg"] = h.max
        tables.append(exp)
    return tables, stats


def test_e3_message_traffic(benchmark, experiment_sink):
    tables, stats = run_once(benchmark, run_e3)
    experiment_sink(*tables)
    cg = stats["cg_counts"]
    # CG's traffic is dominated by window remote calls + their returns
    data_msgs = cg[MsgKind.REMOTE_CALL] + cg[MsgKind.REMOTE_RETURN]
    control = cg[MsgKind.PAUSE_NOTIFY] + cg[MsgKind.RESUME_TASK]
    assert data_msgs > control > 0
    # all seven kinds appear across the two workloads
    seen = {k for k, v in cg.items() if v} | {
        k for k, v in stats["substructure_counts"].items() if v
    }
    assert seen == set(MsgKind)
    # the substructure run ships the largest single messages (Schur blocks)
    assert stats["substructure_max_msg"] > 500
    # network load is uneven across links
    assert stats["cg_link_spread"] > 1.5
    # the driver pattern is hub-and-spoke through the root cluster
    assert stats["cg_hub"] == pytest.approx(1.0)

"""Distributed FEM on the simulated FEM-2 machine.

Two drivers, both expressed entirely in the numerical analyst's VM:

* :func:`parallel_cg_solve` — the equation-solution level of
  parallelism: subdomain tasks assemble their local stiffness and serve
  distributed matvecs; a root task runs conjugate gradient, exchanging
  search directions and partial products through windows, and
  synchronizing rounds with pause/resume.

* :func:`parallel_substructure_solve` — the substructure level of
  parallelism: one task per substructure condenses its interior onto
  the interface (keeping the factor as local data across a pause), the
  root assembles and solves the interface system, broadcasts nothing
  back but writes interface displacements into the shared solution
  array, and the workers back-substitute their interiors in parallel.

Results are bit-comparable (to solver tolerance) with the host-side
oracles in :mod:`repro.fem.solve` and :mod:`repro.fem.substructure`;
every benchmark that uses these drivers asserts that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..errors import FEMError, SolverError
from ..langvm import Fem2Program, vec, whole
from .bc import Constraints
from .elements import element_type
from .loads import LoadSet
from .materials import Material
from .mesh import Mesh
from .partition import Subdomain, interface_dofs, partition_strips

def _fresh_uid(program: Fem2Program, *prefixes: str) -> int:
    """Smallest suffix making ``{prefix}.{n}`` unused on *program*.

    Task-type names enter simulated message payloads, so their length
    is charged by the cost model: deriving the suffix from the
    program's own registry (instead of a host-global counter) keeps
    simulated cycles a function of the workload alone, not of how many
    solves ran earlier in the host process.
    """
    types = set(program.runtime.registry.types())
    n = 1
    while any(f"{p}.{n}" in types for p in prefixes):
        n += 1
    return n


def _mat_tuple(m: Material) -> tuple:
    return (m.e, m.nu, m.density, m.thickness, m.area, m.inertia, m.plane_stress)


def _worker_payload(mesh: Mesh, material: Material, sub: Subdomain,
                    fixed: np.ndarray) -> Dict:
    """Everything a subdomain task needs, as plain transmissible values.

    Element coordinates and hull-relative DOF maps per element type,
    the hull geometry, the fixed DOFs inside the hull (hull-relative),
    and the material constants.  The *size* of this payload is the
    model-distribution traffic of the run.
    """
    lo, hi = sub.dof_lo, sub.dof_hi
    etypes = {}
    for name, rows in sub.element_rows.items():
        dof_map = mesh.element_dofs(name)[rows] - lo
        etypes[name] = {
            "coords": mesh.element_coords(name)[rows],
            "dofs_rel": dof_map,
        }
    fixed_rel = np.array([d - lo for d in fixed if lo <= d < hi], dtype=int)
    return {
        "etypes": etypes,
        "hull_lo": lo,
        "hull": hi - lo,
        "fixed_rel": fixed_rel,
        "mat": _mat_tuple(material),
    }


def _assemble_hull(payload: Dict) -> tuple:
    """Assemble the hull-local dense stiffness; returns (k_hull, flops)."""
    material = Material(*payload["mat"])
    hull = payload["hull"]
    k_hull = np.zeros((hull, hull))
    flops = 0
    for name, part in payload["etypes"].items():
        et = element_type(name)
        k_batch = et.stiffness(part["coords"], material)
        dofs = part["dofs_rel"]
        ne, nd = dofs.shape
        rows = np.repeat(dofs, nd, axis=1).ravel()
        cols = np.tile(dofs, (1, nd)).ravel()
        np.add.at(k_hull, (rows, cols), k_batch.ravel())
        flops += ne * et.flops_per_stiffness()
    fixed_rel = payload["fixed_rel"]
    if fixed_rel.size:
        k_hull[fixed_rel, :] = 0.0
        k_hull[:, fixed_rel] = 0.0
    return k_hull, flops


# -- distributed conjugate gradient ----------------------------------------------

def _cg_worker(ctx, payload, p_win, q_win, ctrl_win, band):
    """Subdomain task: assemble once, then serve matvec rounds."""
    k_assembled, flops = _assemble_hull(payload)
    yield ctx.compute(flops=flops)
    # the local stiffness lives in cluster memory for the run's duration,
    # so storage measurements see the dominant FEM data structure
    k_handle = yield ctx.create(k_assembled)
    k_hull = ctx.local(k_handle)
    yield ctx.pause()  # ready
    rounds = 0
    while True:
        ctrl = yield ctx.read(ctrl_win)
        if ctrl.ravel()[0] > 0:
            break
        p_loc = (yield ctx.read(p_win)).ravel()
        yield ctx.compute(flops=2 * k_hull.size)
        q_loc = k_hull @ p_loc
        yield ctx.accumulate(q_win, q_loc)
        rounds += 1
        yield ctx.pause()
    return {"band": band, "rounds": rounds, "assembly_flops": flops}


@dataclass
class ParallelSolveInfo:
    """Result of a distributed solve, plus machine measurements."""

    u: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    elapsed_cycles: int
    worker_stats: List[Dict]


def register_parallel_cg(
    program: Fem2Program,
    mesh: Mesh,
    material: Material,
    constraints: Constraints,
    loads: LoadSet,
    n_workers: int = 4,
    tol: float = 1e-8,
    max_iter: Optional[int] = None,
    subs: Optional[List[Subdomain]] = None,
    worker_name: Optional[str] = None,
    root_name: Optional[str] = None,
) -> str:
    """Define the worker and root task types of a distributed-CG solve
    *without spawning anything*; returns the root task-type name.

    Everything the bodies capture is computed deterministically from the
    arguments, so re-registering with the same inputs and explicit names
    yields replay-identical bodies — which is how checkpoint resume
    (:meth:`repro.appvm.MachineService.resume`) rebuilds a program a
    blob can be restored into.  Supports homogeneous constraints only.
    """
    if np.any(constraints.prescribed_values() != 0.0):
        raise FEMError("parallel CG supports homogeneous constraints only")
    if subs is None:
        subs = partition_strips(mesh, n_workers)
    n = mesh.n_dofs
    fixed = constraints.fixed_dofs
    f = loads.vector(mesh)
    f = f.copy()
    f[fixed] = 0.0
    payloads = [_worker_payload(mesh, material, s, fixed) for s in subs]
    limit = 4 * n if max_iter is None else max_iter
    if worker_name is None or root_name is None:
        uid = _fresh_uid(program, "fem.cg_worker", "fem.cg_root")
        worker_name = worker_name or f"fem.cg_worker.{uid}"
        root_name = root_name or f"fem.cg_root.{uid}"
    program.define(worker_name, _cg_worker, code_words=512, locals_words=256)
    n_clusters = program.machine.config.n_clusters

    def root(ctx):
        p_arr = yield ctx.create(np.zeros(n))
        q_arr = yield ctx.create(np.zeros(n))
        ctrl = yield ctx.create(np.zeros(1))
        tids = []
        # the worker spawn is a forall over subdomains (hand-rolled so each
        # worker gets its own strip windows); scope it like one for profiles
        span = ctx.obs_begin("langvm.forall", worker_name, n=len(subs))
        for i, (sub, payload) in enumerate(zip(subs, payloads)):
            got = yield ctx.initiate(
                worker_name,
                payload,
                vec(p_arr, sub.dof_lo, sub.dof_hi),
                vec(q_arr, sub.dof_lo, sub.dof_hi),
                whole(ctrl),
                i,
                count=1,
                index_arg=False,
                cluster=i % n_clusters,
            )
            tids.extend(got)
        for t in tids:
            yield ctx.wait_pause(t)
        ctx.obs_end(span, tasks=len(tids))

        x = np.zeros(n)
        r = f.copy()
        p_vec = r.copy()
        rz = float(r @ r)
        b_norm = float(np.sqrt(rz)) or 1.0
        res = float(np.sqrt(rz))
        it = 0
        while res > tol * b_norm and it < limit:
            yield ctx.write(whole(p_arr), p_vec)
            yield ctx.write(whole(q_arr), np.zeros(n))
            for t in tids:
                yield ctx.resume(t)
            for t in tids:
                yield ctx.wait_pause(t)
            q = (yield ctx.read(whole(q_arr))).ravel()
            yield ctx.compute(flops=10 * n)
            pq = float(p_vec @ q)
            if pq <= 0:
                raise SolverError(f"distributed CG: p'Kp = {pq:g} (not SPD)")
            alpha = rz / pq
            x += alpha * p_vec
            r -= alpha * q
            rz_new = float(r @ r)
            p_vec = r + (rz_new / rz) * p_vec
            rz = rz_new
            res = float(np.sqrt(rz))
            it += 1
        # stop the workers
        yield ctx.write(whole(ctrl), np.ones(1))
        for t in tids:
            yield ctx.resume(t)
        stats = yield ctx.wait(tids)
        return {
            "x": x,
            "iterations": it,
            "residual": res,
            "converged": res <= tol * b_norm,
            "worker_stats": [stats[t] for t in tids],
        }

    program.define(root_name, root, code_words=1024, locals_words=512)
    return root_name


def start_parallel_cg(
    program: Fem2Program,
    mesh: Mesh,
    material: Material,
    constraints: Constraints,
    loads: LoadSet,
    n_workers: int = 4,
    tol: float = 1e-8,
    max_iter: Optional[int] = None,
    subs: Optional[List[Subdomain]] = None,
    cluster: int = 0,
) -> int:
    """Spawn a distributed-CG solve *without* running the clock.

    Several solves may be submitted to one machine and run concurrently
    (the multi-user scenario); collect each with
    :func:`collect_parallel_cg` after the machine runs.
    """
    root_name = register_parallel_cg(
        program, mesh, material, constraints, loads,
        n_workers=n_workers, tol=tol, max_iter=max_iter, subs=subs,
    )
    return program.start(root_name, cluster=cluster)


def collect_parallel_cg(program: Fem2Program, tid: int) -> ParallelSolveInfo:
    """Build the solve result from a finished :func:`start_parallel_cg`."""
    out = program.runtime.result_of(tid)
    return ParallelSolveInfo(
        u=out["x"],
        iterations=out["iterations"],
        residual_norm=out["residual"],
        converged=out["converged"],
        elapsed_cycles=program.now,
        worker_stats=out["worker_stats"],
    )


def parallel_cg_solve(
    program: Fem2Program,
    mesh: Mesh,
    material: Material,
    constraints: Constraints,
    loads: LoadSet,
    n_workers: int = 4,
    tol: float = 1e-8,
    max_iter: Optional[int] = None,
    subs: Optional[List[Subdomain]] = None,
) -> ParallelSolveInfo:
    """Solve K u = f on the simulated machine with distributed CG.

    The one-shot form of :func:`start_parallel_cg`: spawn, run to
    quiescence, collect.
    """
    tid = start_parallel_cg(
        program, mesh, material, constraints, loads,
        n_workers=n_workers, tol=tol, max_iter=max_iter, subs=subs,
    )
    program.runtime.run()
    return collect_parallel_cg(program, tid)


# -- distributed substructure analysis -----------------------------------------------

def _sub_worker(ctx, payload, extra, root_tid, u_win, band):
    """Condense, hand the Schur complement to the root, pause with the
    interior factor as retained local data, then back-substitute."""
    k_assembled, flops = _assemble_hull(payload)
    k_handle = yield ctx.create(k_assembled)
    k_hull = ctx.local(k_handle)
    li = extra["interior_rel"]
    lb = extra["boundary_rel"]
    f_i = extra["f_i"]
    k_ii = k_hull[np.ix_(li, li)]
    k_ib = k_hull[np.ix_(li, lb)]
    k_bb = k_hull[np.ix_(lb, lb)]
    ni, nb = li.size, lb.size
    if ni:
        w = np.linalg.solve(k_ii, np.column_stack([k_ib, f_i]))
        x_ib, x_fi = w[:, :-1], w[:, -1]
        schur = k_bb - k_ib.T @ x_ib
        g = -k_ib.T @ x_fi
    else:
        schur, g = k_bb, np.zeros(nb)
    flops += ni**3 // 3 + 2 * ni * ni * (nb + 1)
    yield ctx.compute(flops=flops)
    yield ctx.broadcast((root_tid,), (band, schur, g, extra["boundary_global"]))
    yield ctx.pause()  # interior factor retained across the pause
    u_hull = (yield ctx.read(u_win)).ravel()
    u_b = u_hull[lb]
    if ni:
        yield ctx.compute(flops=2 * ni * nb + 2 * ni * ni)
        u_i = x_fi - x_ib @ u_b
        scatter = np.zeros(payload["hull"])
        scatter[li] = u_i
        yield ctx.accumulate(u_win, scatter)
    return {"band": band, "interior": int(ni), "boundary": int(nb)}


def parallel_substructure_solve(
    program: Fem2Program,
    mesh: Mesh,
    material: Material,
    constraints: Constraints,
    loads: LoadSet,
    n_substructures: int = 4,
    subs: Optional[List[Subdomain]] = None,
) -> ParallelSolveInfo:
    """Substructure analysis on the simulated machine."""
    if subs is None:
        subs = partition_strips(mesh, n_substructures)
    n = mesh.n_dofs
    fixed = constraints.fixed_dofs
    fixed_set = set(fixed.tolist())
    f = loads.vector(mesh)
    f = f.copy()
    f[fixed] = 0.0
    iface_all = interface_dofs(mesh, subs)
    iface = np.array([d for d in iface_all if d not in fixed_set], dtype=int)
    iface_pos = {g: i for i, g in enumerate(iface)}
    iface_set = set(iface.tolist())
    nb_total = iface.size

    payloads, extras = [], []
    d = mesh.dofs_per_node
    for sub in subs:
        payload = _worker_payload(mesh, material, sub, fixed)
        lo = sub.dof_lo
        sub_dofs = (sub.nodes[:, None] * d + np.arange(d)[None, :]).ravel()
        li, lb, bg = [], [], []
        for g_dof in sub_dofs:
            if g_dof in fixed_set:
                continue
            if g_dof in iface_set:
                lb.append(g_dof - lo)
                bg.append(g_dof)
            else:
                li.append(g_dof - lo)
        extras.append(
            {
                "interior_rel": np.array(li, dtype=int),
                "boundary_rel": np.array(lb, dtype=int),
                "boundary_global": np.array(bg, dtype=int),
                "f_i": f[np.array(li, dtype=int) + lo] if li else np.zeros(0),
            }
        )
        payloads.append(payload)

    uid = _fresh_uid(program, "fem.sub_worker", "fem.sub_root")
    worker_name = f"fem.sub_worker.{uid}"
    root_name = f"fem.sub_root.{uid}"
    program.define(worker_name, _sub_worker, code_words=640, locals_words=512)
    n_clusters = program.machine.config.n_clusters
    cfg = program.machine.config

    def root(ctx):
        u_arr = yield ctx.create(np.zeros(n))
        tids = []
        for i, (sub, payload, extra) in enumerate(zip(subs, payloads, extras)):
            got = yield ctx.initiate(
                worker_name,
                payload,
                extra,
                ctx.task_id,
                vec(u_arr, sub.dof_lo, sub.dof_hi),
                i,
                count=1,
                index_arg=False,
                cluster=i % n_clusters,
            )
            tids.extend(got)
        k_iface = np.zeros((nb_total, nb_total))
        rhs = f[iface].astype(float).copy()
        for _ in tids:
            band, schur, g, bg = yield ctx.receive()
            idx = np.array([iface_pos[gd] for gd in bg], dtype=int)
            if idx.size:
                k_iface[np.ix_(idx, idx)] += schur
                rhs[idx] += g
        yield ctx.compute(flops=nb_total**3 // 3 + 2 * nb_total * nb_total)
        u_b = np.linalg.solve(k_iface, rhs) if nb_total else np.zeros(0)
        # the root owns the solution array: write interface values in place
        u_host = ctx.local(u_arr)
        u_host[iface] = u_b
        yield ctx.compute(cycles=cfg.word_touch_cycles * max(1, nb_total))
        for t in tids:
            yield ctx.resume(t)
        stats = yield ctx.wait(tids)
        u_full = ctx.local(u_arr).copy()
        return {"u": u_full, "stats": [stats[t] for t in tids]}

    program.define(root_name, root, code_words=1024, locals_words=512)
    out = program.run(root_name, cluster=0)
    u = out["u"]
    for dof, value in zip(constraints.fixed_dofs, constraints.prescribed_values()):
        u[dof] = value
    return ParallelSolveInfo(
        u=u,
        iterations=1,
        residual_norm=0.0,
        converged=True,
        elapsed_cycles=program.now,
        worker_stats=out["stats"],
    )


"""Text rendering of models and results ("display the results").

The FEM-2 workstation of 1983 would have driven a graphics terminal;
here the display device is monospaced text, which the examples print
and the session tests assert against.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..fem import Mesh, von_mises_plane
from .model import AnalysisResult, StructureModel


def render_model(model: StructureModel) -> str:
    s = model.summary()
    lines = [f"model {s['name']}"]
    for key in sorted(s):
        if key != "name":
            lines.append(f"  {key:<18} {s[key]}")
    return "\n".join(lines)


def render_displacements(mesh: Mesh, result: AnalysisResult) -> str:
    """The ten nodes of largest displacement magnitude, as a table."""
    u = result.u.reshape(-1, 2)
    order = np.argsort(-np.linalg.norm(u, axis=1))[:10]
    header = f"{'node':>6} {'x':>10} {'y':>10} " + " ".join(
        f"{c:>12}" for c in ("ux", "uy"))
    lines = [f"displacements ({result.model_name}/{result.load_set}):", header]
    for n in order:
        coords = mesh.coords[n]
        vals = " ".join(f"{u[n, i]:>12.4e}" for i in range(2))
        lines.append(f"{n:>6} {coords[0]:>10.3f} {coords[1]:>10.3f} {vals}")
    lines.append(f"max |u| = {result.max_displacement():.6e}")
    return "\n".join(lines)


def render_stresses(result: AnalysisResult) -> str:
    """The five most stressed elements of each element type."""
    lines = [f"stresses ({result.model_name}/{result.load_set}):"]
    for etype, s in result.stresses.items():
        if not s.size:
            continue
        if s.shape[1] == 3:  # plane components -> report von Mises
            vm = von_mises_plane(s)
            order = np.argsort(-vm)[:5]
            lines.append(f"  {etype}: top von Mises")
            for e in order:
                lines.append(f"    element {e:>5}  svm = {vm[e]:.4e}")
        else:
            peak = np.abs(s).max(axis=1)
            order = np.argsort(-peak)[:5]
            lines.append(f"  {etype}: top |component|")
            for e in order:
                lines.append(f"    element {e:>5}  s = {peak[e]:.4e}")
    return "\n".join(lines)


def render_table(headers: List[str], rows: List[List]) -> str:
    """Generic fixed-width table used by benches and the command shell."""
    widths = [len(h) for h in headers]
    txt_rows = []
    for row in rows:
        txt = [f"{v:.4g}" if isinstance(v, float) else str(v) for v in row]
        widths = [max(w, len(t)) for w, t in zip(widths, txt)]
        txt_rows.append(txt)
    def fmt(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    out = [fmt(headers), fmt(["-" * w for w in widths])]
    out.extend(fmt(r) for r in txt_rows)
    return "\n".join(out)

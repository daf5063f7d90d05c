"""Exporters for traced profiles: JSON and a flame-style text tree.

Machine-readable first: :func:`to_record` produces plain dicts of plain
values (numpy scalars and arrays are converted) so every profile can be
dumped with :mod:`json` and diffed across runs.  :func:`flame` renders
the span tree as fixed-width text in the idiom of the workstation's
table displays.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .tracer import Span, Tracer


def plain(value: Any) -> Any:
    """Coerce *value* to JSON-serializable plain Python.

    Handles numpy scalars/arrays without importing numpy (duck-typed via
    ``item()``/``tolist()``); anything else unrecognized becomes ``str``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [plain(v) for v in value]
    if hasattr(value, "tolist"):  # numpy array
        return plain(value.tolist())
    if hasattr(value, "item"):  # numpy scalar
        return plain(value.item())
    return str(value)


def to_record(tracer: Tracer) -> Dict[str, Any]:
    """The whole profile as one plain dict: spans + per-kind aggregates."""
    return {
        "spans": [plain(s.to_record()) for s in tracer.spans()],
        "kinds": plain(tracer.kind_summary()),
        "recorded": tracer.recorded,
        "dropped": tracer.dropped,
    }


def span_tree(tracer: Tracer) -> List[Dict[str, Any]]:
    """Nested profile: each node is a span record with a ``children`` list."""
    children: Dict[Optional[int], List[Span]] = {}
    for s in tracer.spans():
        children.setdefault(s.parent_sid, []).append(s)
    present = {s.sid for s in tracer.spans()}

    def build(span: Span) -> Dict[str, Any]:
        node = plain(span.to_record())
        node["children"] = [build(c) for c in children.get(span.sid, [])]
        return node

    return [build(s) for s in tracer.spans() if s.parent_sid not in present]


def flame(tracer: Tracer) -> str:
    """Flame-style text summary of the span tree.

    Siblings of one (kind, label) are merged into a single line with a
    replication count; lines report cycles so "where did the cycles go"
    reads top-down, one indent level per causal hop.  Each level shows
    its 12 heaviest groups and the tree stops below depth 8.
    """
    by_parent: Dict[Optional[int], List[Span]] = {}
    for s in tracer.spans():
        by_parent.setdefault(s.parent_sid, []).append(s)
    present = {s.sid for s in tracer.spans()}
    lines: List[str] = []

    def emit(spans: List[Span], depth: int) -> None:
        if depth > 8 or not spans:
            return
        groups: Dict[tuple, List[Span]] = {}
        for s in spans:
            groups.setdefault((s.kind, s.label), []).append(s)
        ordered = sorted(
            groups.items(), key=lambda kv: -sum(g.cycles for g in kv[1])
        )
        for i, ((kind, label), group) in enumerate(ordered):
            if i >= 12:
                rest = sum(len(g) for _, g in ordered[i:])
                lines.append(f"{'  ' * depth}... {rest} more span(s)")
                break
            cyc = sum(g.cycles for g in group)
            mult = f" x{len(group)}" if len(group) > 1 else ""
            lines.append(
                f"{'  ' * depth}{kind}:{label}{mult}  [{cyc:,} cycles]"
            )
            kids: List[Span] = []
            for g in group:
                kids.extend(by_parent.get(g.sid, []))
            emit(kids, depth + 1)

    roots = [s for s in tracer.spans() if s.parent_sid not in present]
    lines.append(f"== span profile: {tracer.recorded} span(s), "
                 f"{len(tracer.stats())} kind(s) ==")
    emit(roots, 0)
    agg = tracer.kind_summary()
    if agg:
        width = max(len(k) for k in agg)
        lines.append("-- per-kind aggregate --")
        for kind, s in agg.items():
            lines.append(
                f"{kind:<{width}}  n={s['count']:>8,}  "
                f"cycles={s['cycles']:>14,}  mean={s['mean']:>12,.1f}"
            )
    return "\n".join(lines)

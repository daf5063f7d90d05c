"""The FEM-2 observability spine: spans + structured metrics export.

The paper's design exists to *measure* — "simulations to measure the
storage, processing, and communication patterns in typical FEM-2
applications".  This package is the cross-layer half of that program:
one :class:`Tracer` threaded through all four virtual machines records
causally linked spans (application job → analyst task scopes → system
messages → hardware cycles), and the exporters turn a run into
machine-readable records (JSON) or a flame-style text profile.

Layering: ``obs`` sits below every virtual machine — it imports nothing
from the rest of the stack, and the stack reaches it only through the
tracer object a :class:`~repro.hardware.machine.Machine` carries.
Tracing is observational only: cycle counts and results are identical
with tracing on (a :class:`Tracer`) or off (``None``, the default).
"""

from .tracer import Span, SpanStats, Tracer
from .export import flame, plain, span_tree, to_json, to_record

__all__ = [
    "Span",
    "SpanStats",
    "Tracer",
    "flame",
    "plain",
    "span_tree",
    "to_json",
    "to_record",
]

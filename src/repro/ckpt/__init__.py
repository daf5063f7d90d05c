"""Checkpoint/restore and deterministic replay across all four VM layers.

Every layer of the FEM-2 stack enumerates its mutable state explicitly
in a ``snapshot()`` / ``restore()`` pair (lint rule S1 keeps each pair
complete); this package turns those per-layer snapshots into
whole-machine checkpoints: a versioned blob codec whose bytes are a
function of machine state alone and whose decoder accepts only the
snapshot vocabulary, a clock-neutral periodic :class:`Checkpointer`,
and restore-into-fresh-program recovery that rebuilds task coroutines
by journal replay.
"""

from .checkpoint import Checkpoint, Checkpointer, restore_program
from .codec import MAGIC, VERSION, fingerprint, from_bytes, to_bytes

__all__ = [
    "Checkpoint",
    "Checkpointer",
    "restore_program",
    "MAGIC",
    "VERSION",
    "fingerprint",
    "from_bytes",
    "to_bytes",
]

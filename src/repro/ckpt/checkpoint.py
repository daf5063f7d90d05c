"""Periodic checkpointing and restore-from-checkpoint recovery.

The :class:`Checkpointer` drives the event engine *itself* rather than
scheduling checkpoint events, so safe points fall exactly between
engine events and a checkpointed run's simulated clock is bit-identical
to an un-checkpointed one.  Snapshots are serialized immediately
(:mod:`repro.ckpt.codec`), so the blob size metrics reflect what a real
machine would write to stable storage.

Recovery restores a blob into a *fresh* program built by a caller
supplied factory — the model is faulty hardware swapped for spares that
boot the same program image.  Deterministic replay of each live task's
journal (see :meth:`repro.sysvm.runtime.Runtime._replay`) rebuilds the
un-serializable coroutines; re-scheduling every captured event in its
original (time, seq) order makes the resumed run bit-identical.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, List

from ..errors import CkptError
from .codec import from_bytes, to_bytes


@dataclass
class Checkpoint:
    """One captured machine state: sim time + serialized blob."""

    time: int
    blob: bytes = field(repr=False)

    @property
    def nbytes(self) -> int:
        return len(self.blob)

    def state(self) -> Any:
        """A fresh deserialization of the captured snapshot tree."""
        return from_bytes(self.blob)


class Checkpointer:
    """Takes checkpoints of a program every *interval* simulated cycles.

    Use :meth:`run` instead of ``program.runtime.run()``; it steps the
    engine one event at a time and captures a snapshot whenever the next
    event would cross the checkpoint boundary.  Because nothing is ever
    *scheduled*, final cycle counts match the plain run exactly.
    """

    def __init__(self, program, interval: int) -> None:
        if interval <= 0:
            raise CkptError(f"checkpoint interval must be positive, got {interval}")
        self.program = program
        self.interval = interval
        self.checkpoints: List[Checkpoint] = []
        #: wall-clock seconds spent snapshotting + serializing (host
        #: overhead — simulated time is never charged)
        self.host_seconds = 0.0

    def take(self) -> Checkpoint:
        """Capture a checkpoint right now (between events).

        Metrics and spans are recorded *after* the state is captured, so
        the act of checkpointing never perturbs the checkpoint itself.
        """
        engine = self.program.machine.engine
        t0 = _time.perf_counter()
        blob = to_bytes(self.program.snapshot())
        elapsed = _time.perf_counter() - t0
        ckpt = Checkpoint(time=engine.now, blob=blob)
        self.checkpoints.append(ckpt)
        self.host_seconds += elapsed
        metrics = self.program.metrics
        metrics.incr("ckpt.snapshots")
        metrics.incr("ckpt.bytes", ckpt.nbytes)
        metrics.observe("ckpt.blob_bytes", ckpt.nbytes)
        tracer = self.program.tracer
        if tracer is not None:
            span = tracer.begin(
                "ckpt.snapshot", f"t={engine.now}", engine.now,
                bytes=ckpt.nbytes, host_seconds=round(elapsed, 6),
            )
            tracer.end(span, engine.now)  # zero simulated cycles, by design
        return ckpt

    def run(self, max_events: int = 5_000_000) -> int:
        """Drain the event queue, checkpointing at interval boundaries.

        Returns events processed.  Stops early when the engine halts
        (a fault injector requested checkpointed recovery); the caller
        then recovers via :meth:`recover` or :func:`restore_program`.
        """
        engine = self.program.machine.engine
        if not self.checkpoints:
            # checkpoint zero: a restore point exists even when the
            # first fault beats the first interval crossing
            self.take()
        next_at = engine.now + self.interval
        processed = 0
        while processed < max_events and not engine.halted:
            nxt = engine._peek()
            if nxt is None:
                break
            if nxt.time >= next_at:
                self.take()
                # re-anchor on the upcoming event so idle stretches don't
                # produce a burst of identical checkpoints
                next_at = nxt.time + self.interval
                continue
            engine.step()
            processed += 1
        return processed

    def latest(self) -> Checkpoint:
        if not self.checkpoints:
            raise CkptError("no checkpoint has been taken")
        return self.checkpoints[-1]

    def recover(self, factory: Callable[[], Any]) -> Any:
        """Build a fresh program with *factory* and restore the latest
        checkpoint into it (the spare-hardware model).  The checkpointer
        re-targets the new program so checkpointing can continue.
        Returns the restored program."""
        ckpt = self.latest()
        program = factory()
        restore_program(program, ckpt)
        metrics = program.metrics
        metrics.incr("ckpt.recoveries")
        tracer = program.tracer
        if tracer is not None:
            tracer.point(
                "ckpt.recover", f"from_t={ckpt.time}",
                program.machine.engine.now, bytes=ckpt.nbytes,
            )
        self.program = program
        return program


def restore_program(program, checkpoint: Checkpoint) -> Any:
    """Install *checkpoint* into a freshly built *program*.

    The program must have been produced by the same factory as the
    checkpointed one (same config, same registered task types) with
    ``journal=True``; the blob carries no code.
    """
    program.restore(checkpoint.state())
    return program

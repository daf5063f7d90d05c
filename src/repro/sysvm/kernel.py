"""The per-cluster operating-system kernel.

"Within each cluster, one PE runs the operating system kernel, which
fields incoming messages and assigns available PE's to process them."

The kernel is a serialized service loop on the cluster's kernel PE.
Each unit of kernel work — decoding one incoming message, or assigning
one ready task to a worker PE — occupies the kernel PE for the
configured number of cycles (``message_fixed_cycles`` and
``dispatch_cycles``).  Because the loop is serialized, a flooded input
queue shows up as kernel-PE saturation, which is exactly the effect the
cluster architecture was designed around.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..hardware.cluster import Cluster
from ..hardware.pe import PEState


class Kernel:
    """Message-fielding and dispatch loop for one cluster."""

    def __init__(self, runtime, cluster: Cluster) -> None:
        self.runtime = runtime
        self.cluster = cluster
        self._active = False
        #: the unit of work occupying the kernel PE right now, kept as a
        #: descriptor (not a closure) so checkpoints can serialize it
        self._work: Optional[Tuple] = None
        cluster.on_message = self.kick

    def kick(self, _cluster: Optional[Cluster] = None) -> None:
        """Wake the kernel loop if it has work and is not already busy.
        Also the cluster's ``on_message`` hook (hence the argument).
        Bound method + payload ride the completion event directly (no
        per-burst closure; see ProcessingElement.execute)."""
        cluster = self.cluster
        if self._active or cluster.failed:
            return
        kpe = cluster.kernel_pe
        if kpe.state is PEState.FAULTY:
            return
        runtime = self.runtime
        cfg = runtime.machine.config
        if cluster.input_queue:
            msg = cluster.input_queue.popleft()
            self._active = True
            self._work = ("msg", msg)
            kpe.execute(cfg.message_fixed_cycles, self._finish_msg, msg)
        else:
            ready = runtime.ready[cluster.cluster_id]
            pick = ready.pick(cluster, runtime.dispatch_policy)
            if pick is not None:
                self._active = True
                self._work = ("dispatch", pick)
                kpe.execute(cfg.dispatch_cycles, self._finish_dispatch, *pick)

    def _finish_msg(self, msg) -> None:
        self._active = False
        self._work = None
        self.runtime.handle_message(self.cluster.cluster_id, msg)
        self.kick()

    def _finish_dispatch(self, tcb, pe) -> None:
        self._active = False
        self._work = None
        # the PE was idle when picked and the kernel is serialized, but a
        # fault may have hit it during the dispatch burst
        if pe.state is PEState.IDLE:
            self.runtime.start_on_pe(tcb, pe)
        else:
            self.runtime.requeue(tcb)
        self.kick()

    # -- checkpoint/restore ------------------------------------------------

    def snapshot(self) -> Dict:
        """The in-progress kernel burst as a descriptor: the work item
        plus the (end time, seq, cycles) of the burst event on the
        kernel PE, read back from the live event so restore can re-issue
        an identical completion."""
        state: Dict = {"active": self._active, "work": None}
        if self._active and self._work is not None:
            ev = self.cluster.kernel_pe._burst_event
            desc: Dict = {
                "kind": self._work[0],
                "end_time": ev.time,
                "seq": ev.seq,
                "cycles": ev.args[0],
            }
            if self._work[0] == "msg":
                desc["msg"] = self._work[1]
            else:
                tcb, pe = self._work[1]
                desc["tid"] = tcb.tid
                desc["pe"] = pe.index
            state["work"] = desc
        return state

    def restore(self, state: Dict, pending: list) -> None:
        """Install the loop state; if a burst was in flight, append a
        ``(time, seq, thunk)`` entry to *pending* that re-issues it via
        :meth:`ProcessingElement.resume_burst`.  Tasks must already be
        restored (dispatch work references a TCB by tid)."""
        self._active = state["active"]
        self._work = None
        w = state.get("work")
        if w is None:
            return
        kpe = self.cluster.kernel_pe
        if w["kind"] == "msg":
            msg = w["msg"]
            self._work = ("msg", msg)
            done_args = (self._finish_msg, msg)
        else:
            tcb = self.runtime.tasks[w["tid"]]
            pe = self.cluster.pes[w["pe"]]
            self._work = ("dispatch", (tcb, pe))
            done_args = (self._finish_dispatch, tcb, pe)
        pending.append((
            w["end_time"], w["seq"],
            lambda c=w["cycles"], e=w["end_time"], fa=done_args: kpe.resume_burst(c, e, *fa),
        ))

"""Layer 4 of the FEM-2 design: the hardware architecture, simulated.

Clusters of processing elements around shared memories, connected by a
common communication network, driven by a deterministic discrete-event
engine clocked in cycles.  This package is the substrate every virtual
machine above it (sysvm, langvm, appvm) runs on.
"""

from .events import ENGINES, Event, EventEngine
from .metrics import BusyTracker, Cells, Counter, Histogram, MetricsRegistry
from .pe import PEState, ProcessingElement
from .memory import SharedMemory
from .network import TOPOLOGIES, Network, build_topology
from .cluster import Cluster
from .machine import Machine, MachineConfig
from .faults import FaultInjector, FaultRecord

__all__ = [
    "ENGINES",
    "Event",
    "EventEngine",
    "BusyTracker",
    "Cells",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "PEState",
    "ProcessingElement",
    "SharedMemory",
    "TOPOLOGIES",
    "Network",
    "build_topology",
    "Cluster",
    "Machine",
    "MachineConfig",
    "FaultInjector",
    "FaultRecord",
]

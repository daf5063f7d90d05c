"""repro — an executable reproduction of *The FEM-2 Design Method*
(Pratt, Adams, Mehrotra, Van Rosendale, Voigt, Patrick; ICASE 83-41 /
NASA CR-172197, 1983).

The paper designs a parallel finite-element computer top-down as four
formally-specified layers of virtual machine.  This package implements
every layer as running code:

* :mod:`repro.hgraph`   — H-graph semantics (the formal-spec machinery)
* :mod:`repro.hardware` — layer 4: the simulated FEM-2 machine
* :mod:`repro.sysvm`    — layer 3: the system programmer's VM
* :mod:`repro.langvm`   — layer 2: the numerical analyst's VM
* :mod:`repro.appvm`    — layer 1: the application user's workstation
* :mod:`repro.fem`      — the finite-element substrate + distributed FEM
* :mod:`repro.core`     — the design method itself (the contribution)
* :mod:`repro.analysis` — requirement estimation (Adams & Voigt, ref [8])
* :mod:`repro.obs`      — observability spine: spans + structured export
* :mod:`repro.lint`     — static race/deadlock/architecture analyzer
* :mod:`repro.bench`    — workloads and the experiment harness

Quickstart::

    from repro import CommandInterpreter
    ci = CommandInterpreter()
    ci.run_script('''
        new plate
        material e=70e9 nu=0.3 thickness=0.01
        grid 8 4 2.0 1.0
        fix x=0
        loadset tip
        lineload tip x=2.0 fy -1e4
        solve tip engine=fem2 workers=4
    ''')
    print(ci.execute("show displacements tip"))
"""

from . import (
    analysis,
    appvm,
    bench,
    core,
    fem,
    hardware,
    hgraph,
    langvm,
    lint,
    obs,
    sysvm,
)
from .errors import Fem2Error
from .hardware import Machine, MachineConfig
from .langvm import Fem2Program
from .appvm import CommandInterpreter, WorkstationSession
from .core import fem2_stack

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "appvm",
    "bench",
    "core",
    "fem",
    "hardware",
    "hgraph",
    "langvm",
    "lint",
    "obs",
    "sysvm",
    "Fem2Error",
    "Machine",
    "MachineConfig",
    "Fem2Program",
    "CommandInterpreter",
    "WorkstationSession",
    "fem2_stack",
    "__version__",
]

"""Tests for gravity loads, the workstation operation that adds a
uniform body force to a load set, and for the command summary."""

import pytest

from repro.errors import CommandError
from repro.appvm import CommandInterpreter, WorkstationSession


def plate_session():
    s = WorkstationSession()
    s.define_structure("plate")
    s.set_material(e=70e9, nu=0.3, thickness=0.01, density=2700.0)
    s.generate_grid(4, 2, 2.0, 1.0)
    s.fix_line(x=0.0)
    return s


class TestQualityAndGravity:
    def test_gravity_adds_self_weight(self):
        s = plate_session()
        s.define_load_set("dead")
        s.set_gravity("dead", 0.0, -9.81)
        result = s.solve("dead")
        assert result.max_displacement() > 0
        # self-weight pulls the free edge downward
        mesh = s.current.mesh
        tip = int(mesh.nodes_on(x=2.0, y=0.5)[0])
        assert result.u[mesh.dof(tip, 1)] < 0


class TestNewCommands:
    def test_gravity_command(self):
        ci = CommandInterpreter()
        ci.run_script(
            """
            new m
            material e=70e9 nu=0.3 thickness=0.01
            grid 3 2 1.5 1.0
            fix x=0
            loadset dead
            gravity dead 0 -9.81
            """
        )
        out = ci.execute("solve dead")
        assert "max |u|" in out

    def test_gravity_usage_error(self):
        ci = CommandInterpreter()
        ci.execute("new m")
        ci.execute("grid 2 2")
        ci.execute("loadset g")
        with pytest.raises(CommandError):
            ci.execute("gravity g 1")

    def test_help_mentions_new_commands(self):
        """``help`` prints the command summary: every verb the
        interpreter dispatches, and no other."""
        ci = CommandInterpreter()
        out = ci.execute("help")
        assert "gravity" in out
        listed = {line.split()[0] for line in out.splitlines()}
        assert listed == set(ci._handlers)

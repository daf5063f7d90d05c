"""Tests for the application user's VM: models, database, workspace,
sessions, and the command language."""

import json

import numpy as np
import pytest

from repro.errors import AppVMError, CommandError, DatabaseError
from repro.appvm import (
    CommandInterpreter,
    ModelDatabase,
    StructureModel,
    Workspace,
    WorkstationSession,
)
from repro.fem import Material, rect_grid


class TestStructureModel:
    def test_roundtrip_through_dict(self):
        model = StructureModel("plate", material=Material(e=1e9, nu=0.25))
        model.set_mesh(rect_grid(2, 2, 2.0, 1.0))
        model.constraints.fix_nodes(model.mesh.nodes_on(x=0.0))
        ls = StructureModel.from_dict
        model.load_sets["wind"] = __import__("repro.fem", fromlist=["LoadSet"]).LoadSet("wind")
        model.load_sets["wind"].add_nodal(3, 1, -5.0).set_gravity(0, -9.81)
        clone = ls(model.to_dict())
        assert clone.name == "plate"
        assert clone.material.e == 1e9
        assert clone.mesh.n_nodes == model.mesh.n_nodes
        assert np.array_equal(clone.constraints.fixed_dofs, model.constraints.fixed_dofs)
        assert np.allclose(
            clone.load_sets["wind"].vector(clone.mesh),
            model.load_sets["wind"].vector(model.mesh),
        )

    def test_missing_pieces_raise(self):
        model = StructureModel("m")
        with pytest.raises(AppVMError):
            model.require_mesh()
        model.set_mesh(rect_grid(1, 1))
        with pytest.raises(AppVMError):
            model.require_constraints()
        with pytest.raises(AppVMError):
            model.load_set("nope")

    def test_summary(self):
        model = StructureModel("m")
        model.set_mesh(rect_grid(2, 2))
        s = model.summary()
        assert s["nodes"] == 9 and s["elements"] == 4


class TestDatabase:
    def test_store_retrieve_roundtrip(self):
        db = ModelDatabase()
        v = db.store("a", {"x": 1}, kind="model")
        assert v == 1
        assert db.retrieve("a") == {"x": 1}
        assert db.kind("a") == "model"

    def test_retrieval_is_a_copy(self):
        db = ModelDatabase()
        db.store("a", {"x": [1, 2]})
        got = db.retrieve("a")
        got["x"].append(3)
        assert db.retrieve("a") == {"x": [1, 2]}

    def test_versions_increment(self):
        db = ModelDatabase()
        assert db.store("a", {}) == 1
        assert db.store("a", {}) == 2
        assert db.version("a") == 2
        assert db.version("missing") == 0

    def test_optimistic_concurrency(self):
        db = ModelDatabase()
        db.store("a", {"v": 1})
        db.store("a", {"v": 2})  # someone else wrote
        with pytest.raises(DatabaseError, match="conflict"):
            db.store("a", {"v": 3}, expect_version=1)
        db.store("a", {"v": 3}, expect_version=2)

    def test_keys_by_kind(self):
        db = ModelDatabase()
        db.store("m1", {}, kind="model")
        db.store("r1", {}, kind="result")
        assert db.keys() == ["m1", "r1"]
        assert [k for k in db.keys() if db.kind(k) == "model"] == ["m1"]

    def test_missing_key(self):
        db = ModelDatabase()
        with pytest.raises(DatabaseError):
            db.retrieve("nope")
        with pytest.raises(DatabaseError):
            db.kind("nope")

    def test_save_load(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps(
            {"a": {"value": {"x": 1}, "version": 1, "kind": "model"}}))
        db2 = ModelDatabase.load(str(path))
        assert db2.retrieve("a") == {"x": 1}
        assert db2.version("a") == 1

    @pytest.mark.parametrize("text, match", [
        ("[]", "expected an object of entries, got list"),
        ('{"k": {}}', "entry 'k'.*keys value, version, kind"),
        ('{"k": 3}', "entry 'k'.*keys value, version, kind"),
        ('{"k": {"value": [1], "version": 1, "kind": "model"}}',
         "entry 'k'.*value must be an object, got list"),
    ])
    def test_load_refuses_wrong_shape(self, tmp_path, text, match):
        """A database file comes from outside the program: a wrong shape
        is a typed error naming the key, never an AttributeError /
        KeyError / TypeError, and never an entry store() would refuse."""
        path = tmp_path / "db.json"
        path.write_text(text)
        with pytest.raises(DatabaseError, match=match):
            ModelDatabase.load(str(path))

    def test_non_dict_rejected(self):
        with pytest.raises(DatabaseError):
            ModelDatabase().store("a", [1, 2])


class TestWorkspace:
    def test_put_get_replace(self):
        ws = Workspace("u")
        ws.put("x", {"a": 1})
        assert ws.get("x") == {"a": 1}
        ws.put("x", {"a": 2})
        assert ws.get("x") == {"a": 2}

    def test_missing_object(self):
        with pytest.raises(AppVMError):
            Workspace().get("nope")


def build_plate_session(engine="host", **solve_kw):
    s = WorkstationSession()
    s.define_structure("plate")
    s.set_material(e=70e9, nu=0.3, thickness=0.01)
    s.generate_grid(4, 2, 2.0, 1.0)
    s.fix_line(x=0.0)
    s.define_load_set("tip")
    s.add_line_load("tip", 1, -1e4, x=2.0)
    result = s.solve("tip", engine=engine, **solve_kw)
    return s, result


class TestSession:
    def test_full_engineering_workflow(self):
        s, result = build_plate_session()
        assert result.max_displacement() > 0
        assert "quad4" in result.stresses
        # downward tip load -> downward tip displacement
        mesh = s.current.mesh
        tip = int(mesh.nodes_on(x=2.0, y=0.0)[0])
        assert result.u[mesh.dof(tip, 1)] < 0

    def test_fem2_engine_matches_host(self):
        s_host, r_host = build_plate_session("host")
        s_fem2, r_fem2 = build_plate_session("fem2", workers=2)
        assert np.allclose(r_host.u, r_fem2.u, atol=1e-6 * r_host.max_displacement())
        assert r_fem2.elapsed_cycles > 0
        assert s_fem2.last_program is not None

    def test_store_and_retrieve_model(self):
        s, _ = build_plate_session()
        s.store_model()
        s2 = WorkstationSession(user="other", database=s.database)
        model = s2.retrieve_model("plate")
        assert model.mesh.n_nodes == s.current.mesh.n_nodes

    def test_show_renders(self):
        s, _ = build_plate_session()
        assert "plate" in s.show("model")
        assert "max |u|" in s.show("displacements", "tip")
        assert "von Mises" in s.show("stresses", "tip")

    def test_errors(self):
        s = WorkstationSession()
        with pytest.raises(AppVMError):
            s.solve("x")
        s.define_structure("m")
        with pytest.raises(AppVMError):
            s.fix_line(x=99.0)  # no mesh
        s.generate_grid(1, 1)
        with pytest.raises(AppVMError):
            s.fix_line(x=99.0)  # no nodes there
        s.define_load_set("a")
        with pytest.raises(AppVMError):
            s.define_load_set("a")
        with pytest.raises(AppVMError):
            s.solve("a", engine="quantum")


class TestCommandLanguage:
    def script(self):
        return """
            # cantilevered plate under tip shear
            new plate
            material e=70e9 nu=0.3 thickness=0.01
            grid 4 2 2.0 1.0
            fix x=0
            loadset tip
            lineload tip x=2.0 fy -1e4
            solve tip
            show model
            store
        """

    def test_script_runs(self):
        ci = CommandInterpreter()
        outputs = ci.run_script(self.script())
        assert any("grid generated" in o for o in outputs)
        assert any("solved tip" in o for o in outputs)
        assert any("stored" in o for o in outputs)
        assert ci.commands_run == 9

    def test_comments_and_blanks_skipped(self):
        ci = CommandInterpreter()
        assert ci.execute("# comment") == ""
        assert ci.execute("") == ""
        assert ci.commands_run == 0

    def test_unknown_command(self):
        with pytest.raises(CommandError, match="unknown command"):
            CommandInterpreter().execute("launch missiles")

    def test_usage_errors(self):
        ci = CommandInterpreter()
        with pytest.raises(CommandError):
            ci.execute("new")
        with pytest.raises(CommandError):
            ci.execute("grid 2")
        ci.execute("new m")
        ci.execute("grid 2 2")
        with pytest.raises(CommandError):
            ci.execute("load set node x fy nope")

    def test_domain_errors_become_command_errors(self):
        ci = CommandInterpreter()
        ci.execute("new m")
        ci.execute("grid 2 2")
        with pytest.raises(CommandError):
            ci.execute("fix x=42")  # no nodes on that line

    def test_solve_via_fem2_engine(self):
        ci = CommandInterpreter()
        ci.run_script(
            """
            new p
            material e=70e9 nu=0.3 thickness=0.01
            grid 3 2 1.5 1.0
            fix x=0
            loadset tip
            lineload tip x=1.5 fy -1e3
            """
        )
        out = ci.execute("solve tip engine=fem2 workers=2")
        assert "cycles" in out

    def test_truss_command(self):
        ci = CommandInterpreter()
        ci.execute("new bridge")
        assert "bars" in ci.execute("truss 4 2.0 2.0")

    def test_node_fix_and_load(self):
        ci = CommandInterpreter()
        ci.execute("new m")
        ci.execute("material e=1e9 nu=0.3 area=0.01")
        ci.execute("truss 4")
        ci.execute("fix node 0")
        ci.execute("fix node 4 uy")
        ci.execute("loadset p")
        ci.execute("load p node 2 fy -1000")
        out = ci.execute("solve p")
        assert "max |u|" in out

    def test_db_and_restore(self):
        ci = CommandInterpreter()
        ci.execute("new m")
        ci.execute("grid 2 2")
        ci.execute("store")
        assert "m (v1, model)" in ci.execute("db")
        ci.execute("new other")
        assert "retrieved" in ci.execute("restore m")
        assert ci.session.current.name == "m"

    def test_help(self):
        out = CommandInterpreter().execute("help")
        assert "solve" in out and "grid" in out

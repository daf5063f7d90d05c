"""The interactive command language.

"Sequence control: Direct interpretation of user commands."  Each line
is parsed and executed immediately against a
:class:`~repro.appvm.session.WorkstationSession`; the interpreter
returns the text the workstation would display.

Command summary (also printed by ``help``)::

    new NAME                                define structure model
    material e=2e11 nu=0.3 [thickness=...]  set material properties
    grid NX NY [LX LY] [quad4|tri3]         generate grid
    truss N [PANEL HEIGHT]                  generate Pratt truss
    fix x=VAL | fix y=VAL | fix node N      add supports
    loadset NAME                            define a load set
    load SET node N fx|fy VALUE             add a nodal load
    lineload SET x=VAL|y=VAL fx|fy VALUE    load every node on a line
    gravity SET GX GY                       uniform gravity on a load set
    solve SET [method=M] [engine=host|fem2] [workers=K]
    show model|displacements|stresses [SET]
    store [KEY]                             store model in database
    restore KEY                             retrieve model from database
    db                                      list database contents
    help                                    this text
"""

from __future__ import annotations

import shlex
from typing import Callable, Dict, List, Tuple

from ..errors import CommandError, Fem2Error
from .session import WorkstationSession

_COMP = {"fx": 0, "fy": 1, "ux": 0, "uy": 1}


def _num(token: str, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise CommandError(f"{what}: expected a number, got {token!r}") from None


def _split_kwargs(tokens: List[str]) -> Tuple[List[str], Dict[str, str]]:
    pos, kw = [], {}
    for t in tokens:
        if "=" in t:
            key, _, val = t.partition("=")
            kw[key] = val
        else:
            pos.append(t)
    return pos, kw


class CommandInterpreter:
    """Direct interpreter for the workstation command language."""

    def __init__(self) -> None:
        self.session = WorkstationSession()
        self.commands_run = 0
        self._handlers: Dict[str, Callable[[List[str]], str]] = {
            "new": self._cmd_new,
            "material": self._cmd_material,
            "grid": self._cmd_grid,
            "truss": self._cmd_truss,
            "fix": self._cmd_fix,
            "loadset": self._cmd_loadset,
            "load": self._cmd_load,
            "lineload": self._cmd_lineload,
            "gravity": self._cmd_gravity,
            "solve": self._cmd_solve,
            "show": self._cmd_show,
            "store": self._cmd_store,
            "restore": self._cmd_restore,
            "db": self._cmd_db,
            "help": self._cmd_help,
        }

    # -- driver -----------------------------------------------------------

    def execute(self, line: str) -> str:
        """Interpret one command line; returns display text."""
        line = line.strip()
        if not line or line.startswith("#"):
            return ""
        tokens = shlex.split(line)
        verb = tokens[0].lower()
        handler = self._handlers.get(verb)
        if handler is None:
            raise CommandError(f"unknown command {verb!r} (try 'help')")
        self.commands_run += 1
        try:
            return handler(tokens[1:])
        except CommandError:
            raise
        except Fem2Error as exc:
            raise CommandError(str(exc)) from exc

    def run_script(self, text: str) -> List[str]:
        """Interpret a multi-line script; returns non-empty outputs."""
        outputs = []
        for line in text.splitlines():
            out = self.execute(line)
            if out:
                outputs.append(out)
        return outputs

    # -- handlers ------------------------------------------------------------

    def _cmd_new(self, args: List[str]) -> str:
        if len(args) != 1:
            raise CommandError("usage: new NAME")
        self.session.define_structure(args[0])
        return f"model {args[0]} defined"

    def _cmd_material(self, args: List[str]) -> str:
        _, kw = _split_kwargs(args)
        if not kw:
            raise CommandError("usage: material e=... nu=... [thickness=...]")
        props = {k: _num(v, f"material {k}") for k, v in kw.items()}
        self.session.set_material(**props)
        return f"material set ({', '.join(f'{k}={v:g}' for k, v in props.items())})"

    def _cmd_grid(self, args: List[str]) -> str:
        pos, _ = _split_kwargs(args)
        kind = "quad4"
        if pos and pos[-1] in ("quad4", "tri3"):
            kind = pos.pop()
        if len(pos) not in (2, 4):
            raise CommandError("usage: grid NX NY [LX LY] [quad4|tri3]")
        nx, ny = int(_num(pos[0], "nx")), int(_num(pos[1], "ny"))
        lx, ly = (1.0, 1.0) if len(pos) == 2 else (_num(pos[2], "lx"), _num(pos[3], "ly"))
        self.session.generate_grid(nx, ny, lx, ly, kind)
        mesh = self.session.current.mesh
        return f"grid generated: {mesh.n_nodes} nodes, {mesh.n_elements} {kind} elements"

    def _cmd_truss(self, args: List[str]) -> str:
        if not args:
            raise CommandError("usage: truss N [PANEL HEIGHT]")
        n = int(_num(args[0], "panels"))
        panel = _num(args[1], "panel") if len(args) > 1 else 1.0
        height = _num(args[2], "height") if len(args) > 2 else 1.0
        self.session.generate_truss(n, panel, height)
        mesh = self.session.current.mesh
        return f"truss generated: {mesh.n_nodes} nodes, {mesh.n_elements} bars"

    def _cmd_fix(self, args: List[str]) -> str:
        pos, kw = _split_kwargs(args)
        if "x" in kw or "y" in kw:
            n = self.session.fix_line(
                x=_num(kw["x"], "x") if "x" in kw else None,
                y=_num(kw["y"], "y") if "y" in kw else None,
            )
            return f"fixed {n} nodes"
        if pos and pos[0] == "node":
            node = int(_num(pos[1], "node"))
            comps = [_COMP[c] for c in pos[2:]] if len(pos) > 2 else None
            self.session.fix_nodes([node], comps)
            return f"fixed node {node}"
        raise CommandError("usage: fix x=VAL | fix y=VAL | fix node N [ux uy]")

    def _cmd_loadset(self, args: List[str]) -> str:
        if len(args) != 1:
            raise CommandError("usage: loadset NAME")
        self.session.define_load_set(args[0])
        return f"load set {args[0]} defined"

    def _cmd_load(self, args: List[str]) -> str:
        if len(args) != 5 or args[1] != "node":
            raise CommandError("usage: load SET node N fx|fy VALUE")
        name, node, comp_name, value = args[0], args[2], args[3], args[4]
        comp = _COMP.get(comp_name)
        if comp is None:
            raise CommandError(f"unknown load component {comp_name!r}")
        self.session.add_load(
            name, int(_num(node, "node")), comp, _num(value, "value")
        )
        return f"load added to {name}"

    def _cmd_lineload(self, args: List[str]) -> str:
        pos, kw = _split_kwargs(args)
        if len(pos) != 3 or not ("x" in kw or "y" in kw):
            raise CommandError("usage: lineload SET x=VAL|y=VAL fx|fy VALUE")
        name, comp_name, value = pos
        comp = _COMP.get(comp_name)
        if comp is None:
            raise CommandError(f"unknown load component {comp_name!r}")
        n = self.session.add_line_load(
            name,
            comp,
            _num(value, "value"),
            x=_num(kw["x"], "x") if "x" in kw else None,
            y=_num(kw["y"], "y") if "y" in kw else None,
        )
        return f"loaded {n} nodes"

    def _cmd_gravity(self, args: List[str]) -> str:
        if len(args) != 3:
            raise CommandError("usage: gravity SET GX GY")
        self.session.set_gravity(
            args[0], _num(args[1], "gx"), _num(args[2], "gy")
        )
        return f"gravity set on {args[0]}"

    def _cmd_solve(self, args: List[str]) -> str:
        pos, kw = _split_kwargs(args)
        if len(pos) != 1:
            raise CommandError("usage: solve SET [method=M] [engine=host|fem2] [workers=K]")
        result = self.session.solve(
            pos[0],
            method=kw.get("method", "sparse_lu"),
            engine=kw.get("engine", "host"),
            workers=int(kw.get("workers", 4)),
        )
        extra = f", {result.elapsed_cycles} cycles" if result.elapsed_cycles else ""
        return (
            f"solved {pos[0]} with {result.method}: max |u| = "
            f"{result.max_displacement():.4e}{extra}"
        )

    def _cmd_show(self, args: List[str]) -> str:
        if not args:
            raise CommandError("usage: show model|displacements|stresses [SET]")
        return self.session.show(args[0], args[1] if len(args) > 1 else None)

    def _cmd_store(self, args: List[str]) -> str:
        version = self.session.store_model(args[0] if args else None)
        return f"stored (version {version})"

    def _cmd_restore(self, args: List[str]) -> str:
        if len(args) != 1:
            raise CommandError("usage: restore KEY")
        model = self.session.retrieve_model(args[0])
        return f"model {model.name} retrieved"

    def _cmd_db(self, args: List[str]) -> str:
        keys = self.session.database.keys()
        if not keys:
            return "database is empty"
        return "\n".join(
            f"{k} (v{self.session.database.version(k)}, {self.session.database.kind(k)})"
            for k in keys
        )

    def _cmd_help(self, args: List[str]) -> str:
        return __doc__.split("::", 1)[1].strip()

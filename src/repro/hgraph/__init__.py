"""H-graph semantics (Pratt, ref [7] of the paper).

The formal-specification machinery of the FEM-2 design method: data
objects are hierarchies of directed graphs (:class:`HGraph`), data types
are H-graph grammars (:class:`Grammar`), and operations are H-graph
transforms (:class:`Transform`) executed by the :class:`Interpreter`.
"""

from .atoms import ATOM_TYPES, Symbol, atom_kind, is_atom
from .graph import Graph, HGraph, Node
from .grammar import (
    Alt,
    AtomKind,
    Const,
    Form,
    Grammar,
    Ref,
    Struct,
    Sub,
)
from .matcher import Generator, MatchReport, Matcher
from .transform import Condition, Transform
from .interpreter import CallContext, Interpreter, InterpreterStats

__all__ = [
    "ATOM_TYPES",
    "Symbol",
    "atom_kind",
    "is_atom",
    "Graph",
    "HGraph",
    "Node",
    "Alt",
    "AtomKind",
    "Const",
    "Form",
    "Grammar",
    "Ref",
    "Struct",
    "Sub",
    "Generator",
    "MatchReport",
    "Matcher",
    "Condition",
    "Transform",
    "CallContext",
    "Interpreter",
    "InterpreterStats",
]

"""AST nodes for the Smalltalk subset (paper section 4).

The subset covers what the paper's execution model discusses: classes
with instance variables, unary/binary/keyword message sends, method
temporaries, assignments, explicit returns, literals, and the inlined
control-flow selectors (``ifTrue:``/``ifFalse:``, ``whileTrue:``,
``to:do:``, ``timesRepeat:``) whose block arguments the compiler opens
in line -- the Deutsch-Schiffman technique the paper cites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union


@dataclass
class Literal:
    """An integer, float, atom (#foo), true, false or nil literal."""

    value: object
    kind: str   # "int" | "float" | "atom" | "special"


@dataclass
class VarRef:
    """A reference to self, a parameter, a temporary, an instance
    variable or a class name (resolved during compilation)."""

    name: str


@dataclass
class Assign:
    """``name := expression``."""

    name: str
    expression: "Expr"


@dataclass
class BlockNode:
    """A literal block ``[:p | stmts]``.

    Blocks appear only as arguments to the inlined control selectors;
    the compiler opens them in line (no first-class closures; the
    non-LIFO machinery is exercised through xfer instead -- see
    DESIGN.md).
    """

    params: List[str]
    temps: List[str]
    body: List["Stmt"]


@dataclass
class Send:
    """A message send: receiver, selector, argument expressions."""

    receiver: "Expr"
    selector: str
    args: List["Expr"] = field(default_factory=list)


@dataclass
class Return:
    """``^ expression``."""

    expression: "Expr"


@dataclass
class ExprStmt:
    """An expression evaluated for effect."""

    expression: "Expr"


Expr = Union[Literal, VarRef, Send, BlockNode]
Stmt = Union[Assign, Return, ExprStmt]


@dataclass
class MethodDecl:
    """``Class >> selector`` with a pattern, temps and a body."""

    class_name: str
    selector: str
    params: List[str]
    temps: List[str]
    body: List[Stmt]


@dataclass
class ClassDecl:
    """``class Name [extends Super] [fields: a b c]``."""

    name: str
    superclass: Optional[str]
    fields: List[str]


@dataclass
class MainDecl:
    """The program entry: temporaries plus statements."""

    temps: List[str]
    body: List[Stmt]


@dataclass
class Program:
    classes: List[ClassDecl]
    methods: List[MethodDecl]
    main: Optional[MainDecl]

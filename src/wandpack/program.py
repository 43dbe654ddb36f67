"""Program AST: methods over a universe, with package/apply ghost operations.

A package's proof script is a block of the same statements a method body
uses, restricted by the parser to ``assert``, ``apply`` and ``if``, plus
the script-only ``fold`` and ``unfold``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .assertions import Assertion, Wand, format_assertion
from .exprs import Expr, format_expr

Pos = tuple[int, int]  # (line, column)


@dataclass(frozen=True)
class Inhale:
    assertion: Assertion
    pos: Pos = (0, 0)


@dataclass(frozen=True)
class Exhale:
    assertion: Assertion
    pos: Pos = (0, 0)


@dataclass(frozen=True)
class AssertStmt:
    assertion: Assertion
    pos: Pos = (0, 0)


@dataclass(frozen=True)
class VarDecl:
    name: str
    type: str
    init: Expr
    pos: Pos = (0, 0)


@dataclass(frozen=True)
class Assign:
    name: str
    expr: Expr
    pos: Pos = (0, 0)


@dataclass(frozen=True)
class HeapWrite:
    base: Expr
    field: str
    expr: Expr
    pos: Pos = (0, 0)


@dataclass(frozen=True)
class If:
    cond: Expr
    then: tuple["Stmt", ...]
    els: tuple["Stmt", ...]
    pos: Pos = (0, 0)


@dataclass(frozen=True)
class Package:
    wand: Wand
    script: tuple["Stmt", ...] = ()
    pos: Pos = (0, 0)


@dataclass(frozen=True)
class Apply:
    wand: Wand
    pos: Pos = (0, 0)


@dataclass(frozen=True)
class Fold:
    name: str
    args: tuple[Expr, ...]
    pos: Pos = (0, 0)


@dataclass(frozen=True)
class Unfold:
    name: str
    args: tuple[Expr, ...]
    pos: Pos = (0, 0)


Stmt = Union[Inhale, Exhale, AssertStmt, VarDecl, Assign, HeapWrite, If, Package, Apply, Fold, Unfold]


@dataclass(frozen=True)
class Method:
    name: str
    params: tuple[str, ...]  # reference-typed parameters
    requires: Optional[Assertion]
    body: tuple[Stmt, ...]
    pos: Pos = (0, 0)


@dataclass(frozen=True)
class Program:
    universe_ref: str  # path as written in the source, "" when inline
    methods: tuple[Method, ...]
    universe: "object" = None  # resolved universe.Universe


# -- printing -------------------------------------------------------------------


def format_stmts(stmts, indent: str) -> list[str]:
    out = []
    for s in stmts:
        if isinstance(s, Inhale):
            out.append(f"{indent}inhale {format_assertion(s.assertion)}")
        elif isinstance(s, Exhale):
            out.append(f"{indent}exhale {format_assertion(s.assertion)}")
        elif isinstance(s, AssertStmt):
            out.append(f"{indent}assert {format_assertion(s.assertion)}")
        elif isinstance(s, VarDecl):
            out.append(f"{indent}var {s.name}: {s.type} := {format_expr(s.init)}")
        elif isinstance(s, Assign):
            out.append(f"{indent}{s.name} := {format_expr(s.expr)}")
        elif isinstance(s, HeapWrite):
            out.append(f"{indent}{format_expr(s.base)}.{s.field} := {format_expr(s.expr)}")
        elif isinstance(s, If):
            out.append(f"{indent}if ({format_expr(s.cond)}) {{")
            out.extend(format_stmts(s.then, indent + "  "))
            if s.els:
                out.append(f"{indent}}} else {{")
                out.extend(format_stmts(s.els, indent + "  "))
            out.append(f"{indent}}}")
        elif isinstance(s, Package):
            head = f"{indent}package {format_assertion(s.wand)}"
            if s.script:
                out.append(head + " {")
                out.extend(format_stmts(s.script, indent + "  "))
                out.append(f"{indent}}}")
            else:
                out.append(head)
        elif isinstance(s, Apply):
            out.append(f"{indent}apply {format_assertion(s.wand)}")
        elif isinstance(s, (Fold, Unfold)):
            args = ", ".join(format_expr(a) for a in s.args)
            out.append(f"{indent}{type(s).__name__.lower()} {s.name}({args})")
        else:
            raise TypeError(f"unknown statement {s!r}")
    return out


def format_program(p: Program) -> str:
    lines = ["program v1"]
    if p.universe_ref:
        lines.append(f'universe "{p.universe_ref}"')
    for m in p.methods:
        lines.append("")
        params = ", ".join(f"{x}: Ref" for x in m.params)
        lines.append(f"method {m.name}({params})")
        if m.requires is not None:
            lines.append(f"  requires {format_assertion(m.requires)}")
        lines.append("{")
        lines.extend(format_stmts(m.body, "  "))
        lines.append("}")
    return "\n".join(lines) + "\n"

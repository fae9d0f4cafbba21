"""Pretty-printer: IR → human-readable pseudo-source.

Used by ``repr`` of kernels, in tests (golden comparisons of adjoint
structure), and for debugging transformation passes.  The format is
Python-ish but explicit about declarations and casts.
"""

from __future__ import annotations

from typing import List

from repro.ir import nodes as N

_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "//": 5, "%": 5,
}


def format_expr(e: N.Expr, parent_prec: int = 0) -> str:
    """Render an expression with minimal parentheses."""
    if isinstance(e, N.EpsConst):
        return f"eps({e.var})"
    if isinstance(e, N.Const):
        if isinstance(e.value, bool):
            return "True" if e.value else "False"
        return repr(e.value)
    if isinstance(e, N.Name):
        return e.id
    if isinstance(e, N.Index):
        return f"{e.base}[{format_expr(e.index)}]"
    if isinstance(e, N.BinOp):
        prec = _PRECEDENCE[e.op]
        text = (
            f"{format_expr(e.left, prec)} {e.op} "
            f"{format_expr(e.right, prec + 1)}"
        )
        return f"({text})" if prec < parent_prec else text
    if isinstance(e, N.UnaryOp):
        inner = format_expr(e.operand, 6)
        return f"(-{inner})" if e.op == "-" else f"(not {inner})"
    if isinstance(e, N.Call):
        args = ", ".join(format_expr(a) for a in e.args)
        return f"{e.fn}({args})"
    if isinstance(e, N.Cast):
        return f"cast[{e.to.value}]({format_expr(e.operand)})"
    raise TypeError(f"unknown expr node {type(e).__name__}")


def format_stmt(s: N.Stmt, indent: int = 0) -> List[str]:
    """Render one statement as a list of indented lines."""
    pad = "    " * indent
    if isinstance(s, N.VarDecl):
        init = f" = {format_expr(s.init)}" if s.init is not None else ""
        return [f"{pad}{s.name}: {s.dtype.value}{init}"]
    if isinstance(s, N.Assign):
        return [f"{pad}{_lvalue(s.target)} = {format_expr(s.value)}"]
    if isinstance(s, N.For):
        lines = [
            f"{pad}for {s.var} in range({format_expr(s.lo)}, "
            f"{format_expr(s.hi)}, {format_expr(s.step)}):"
        ]
        lines.extend(_body(s.body, indent + 1))
        return lines
    if isinstance(s, N.While):
        lines = [f"{pad}while {format_expr(s.cond)}:"]
        lines.extend(_body(s.body, indent + 1))
        return lines
    if isinstance(s, N.If):
        lines = [f"{pad}if {format_expr(s.cond)}:"]
        lines.extend(_body(s.then, indent + 1))
        if s.orelse:
            lines.append(f"{pad}else:")
            lines.extend(_body(s.orelse, indent + 1))
        return lines
    if isinstance(s, N.Break):
        return [f"{pad}break"]
    if isinstance(s, N.Return):
        return [f"{pad}return {format_expr(s.value)}"]
    if isinstance(s, N.ReturnTuple):
        vals = ", ".join(format_expr(v) for v in s.values)
        return [f"{pad}return ({vals})"]
    if isinstance(s, N.ExprStmt):
        return [f"{pad}{format_expr(s.value)}"]
    if isinstance(s, N.Push):
        return [f"{pad}push[{s.stack}]({format_expr(s.value)})"]
    if isinstance(s, N.Pop):
        return [f"{pad}{_lvalue(s.target)} = pop[{s.stack}]()"]
    if isinstance(s, N.PopDiscard):
        return [f"{pad}pop[{s.stack}]()"]
    if isinstance(s, N.TraceAppend):
        return [f"{pad}trace[{s.trace}] << {format_expr(s.value)}"]
    raise TypeError(f"unknown stmt node {type(s).__name__}")


def _lvalue(lv: N.LValue) -> str:
    if isinstance(lv, N.Name):
        return lv.id
    return f"{lv.base}[{format_expr(lv.index)}]"


def _body(body: List[N.Stmt], indent: int) -> List[str]:
    if not body:
        return ["    " * indent + "pass"]
    lines: List[str] = []
    for s in body:
        lines.extend(format_stmt(s, indent))
    return lines


def format_function(fn: N.Function) -> str:
    """Render a whole function."""
    params = ", ".join(
        f"{p.name}: {p.type}" + ("" if p.differentiable else " [nodiff]")
        for p in fn.params
    )
    ret = f" -> {fn.ret_dtype.value}" if fn.ret_dtype is not None else ""
    lines = [f"def {fn.name}({params}){ret}:"]
    lines.extend(_body(fn.body, 1))
    return "\n".join(lines)

"""Convenience constructors for IR nodes.

Transformation passes build a lot of expressions; these helpers keep that
code terse and make sure ``dtype`` is always populated.
"""

from __future__ import annotations

import copy
from typing import Any, List, Optional, Sequence, TypeVar, Union

from repro.ir import nodes as N
from repro.ir.types import DType, Type, promote

_T = TypeVar("_T")


def const(value: Union[float, int, bool], dtype: Optional[DType] = None) -> N.Const:
    """Build a constant; dtype inferred from the Python type by default."""
    c = N.Const(value)
    if dtype is not None:
        c.dtype = dtype
    return c


def fzero() -> N.Const:
    """The float64 literal ``0.0``."""
    return const(0.0)


def fone() -> N.Const:
    """The float64 literal ``1.0``."""
    return const(1.0)


def name(ident: str, dtype: DType = DType.F64) -> N.Name:
    """Build a scalar variable reference."""
    n = N.Name(ident)
    n.dtype = dtype
    return n


def index(base: str, idx: N.Expr, dtype: DType = DType.F64) -> N.Index:
    """Build an array element reference ``base[idx]``."""
    n = N.Index(base, idx)
    n.dtype = dtype
    return n


def binop(op: str, left: N.Expr, right: N.Expr) -> N.BinOp:
    """Build a binary operation; dtype via standard promotion."""
    b = N.BinOp(op, left, right)
    if op in N.CMPOPS or op in N.BOOLOPS:
        b.dtype = DType.B1
    elif op == "/":
        b.dtype = promote(
            promote(left.dtype or DType.F64, right.dtype or DType.F64),
            DType.F64,
        )
    else:
        b.dtype = promote(left.dtype or DType.F64, right.dtype or DType.F64)
    return b


def add(left: N.Expr, right: N.Expr) -> N.BinOp:
    return binop("+", left, right)


def sub(left: N.Expr, right: N.Expr) -> N.BinOp:
    return binop("-", left, right)


def mul(left: N.Expr, right: N.Expr) -> N.BinOp:
    return binop("*", left, right)


def div(left: N.Expr, right: N.Expr) -> N.BinOp:
    return binop("/", left, right)


def neg(operand: N.Expr) -> N.UnaryOp:
    u = N.UnaryOp("-", operand)
    u.dtype = operand.dtype
    return u


def call(fn: str, args: Sequence[N.Expr], dtype: DType = DType.F64) -> N.Call:
    """Build an intrinsic call with an explicit result dtype."""
    c = N.Call(fn, list(args))
    c.dtype = dtype
    return c


def cast(to: DType, operand: N.Expr) -> N.Cast:
    return N.Cast(to, operand)


def fabs(e: N.Expr) -> N.Call:
    """``fabs(e)`` — the workhorse of every error model."""
    return call("fabs", [e], dtype=e.dtype or DType.F64)


def assign(target: N.LValue, value: N.Expr) -> N.Assign:
    return N.Assign(target, value)


def decl(
    ident: str, dtype: DType, init: Optional[N.Expr] = None
) -> N.VarDecl:
    return N.VarDecl(ident, dtype, init)


def accumulate(target: N.LValue, value: N.Expr) -> N.Assign:
    """``target += value`` desugared to ``target = target + value``."""
    read: N.Expr
    if isinstance(target, N.Name):
        read = name(target.id, target.dtype or DType.F64)
    else:
        read = index(
            target.base, clone(target.index), target.dtype or DType.F64
        )
    return N.Assign(clone(target), add(read, value))


#: values a clone shares with its original: immutable scalars and
#: enums; frozen :class:`~repro.ir.types.Type`\ s are shared too
_SHARED = frozenset({str, int, float, bool, type(None), DType})


def _copy(x: Any) -> Any:
    t = type(x)
    if t in _SHARED:
        return x
    if t is list:
        return [_copy(v) for v in x]
    if isinstance(x, (N.Expr, N.Stmt, N.Param, N.Function)):
        new = object.__new__(t)
        new.__dict__.update({k: _copy(v) for k, v in x.__dict__.items()})
        return new
    if isinstance(x, Type):
        return x
    if t is dict:
        return {k: _copy(v) for k, v in x.items()}
    if t is tuple:
        return tuple(_copy(v) for v in x)
    return copy.deepcopy(x)


def clone(node: _T) -> _T:
    """Copy an IR subtree (nodes are mutable dataclasses).

    A structural copy over the IR dataclasses: every node, list and
    dict (``Function.meta`` included) is copied, while strings,
    numbers, dtypes and the frozen types are shared.  Values of any
    other type inside ``meta`` are deep-copied.
    """
    return _copy(node)


def for_range(
    var: str, lo: N.Expr, hi: N.Expr, body: List[N.Stmt], step: Optional[N.Expr] = None
) -> N.For:
    return N.For(var, lo, hi, step if step is not None else const(1), body)

"""IR → Python source rendering.

``generate_source`` turns any IR function (primal or adjoint, including
the adjoint-only Push/Pop/TraceAppend nodes) into a flat Python function
definition.  Options:

* ``counting`` — additionally accumulate the cost model's simulated
  cycles into ``_cost`` and return it (the "performance measurement"
  substrate; see :mod:`repro.interp.cost_model`),
* ``approx`` — affects only the *cost constants* baked in counting mode;
  the actual approximate implementations are chosen by the runtime
  bindings (:mod:`repro.codegen.runtime`).

Storage-precision semantics match the interpreter: stores to f32/f16
variables round through ``_c32``/``_c16``, and every f32/f16-typed
operation result is rounded — the all-f64 fast path emits no rounding
calls at all.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.interp.cost_model import (
    CostModel,
    DEFAULT_COST_MODEL,
    expr_cost,
    store_cost,
)
from repro.ir import nodes as N
from repro.ir.types import DType
from repro.ir.visitor import walk_stmts


class _Gen:
    def __init__(
        self,
        fn: N.Function,
        counting: bool,
        cost_model: CostModel,
        approx: Optional[Set[str]],
    ) -> None:
        self.fn = fn
        self.counting = counting
        self.cm = cost_model
        self.approx = approx or set()
        self.lines: List[str] = []
        self.indent = 1
        self.stacks: List[str] = []
        self.traces: List[str] = []

    # -- emission helpers ---------------------------------------------------
    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def charge(self, cycles: float) -> None:
        if self.counting and cycles > 0:
            self.emit(f"_cost += {cycles!r}")

    # -- expressions ----------------------------------------------------------
    def expr(self, e: N.Expr) -> str:
        text = self._expr_raw(e)
        if (
            isinstance(e, (N.BinOp, N.Call))
            and e.dtype in (DType.F32, DType.F16)
            and not (isinstance(e, N.BinOp) and (e.op in N.CMPOPS or e.op in N.BOOLOPS))
        ):
            fn = "_c32" if e.dtype is DType.F32 else "_c16"
            return f"{fn}({text})"
        return text

    def _expr_raw(self, e: N.Expr) -> str:
        if isinstance(e, N.Const):
            if isinstance(e.value, bool):
                return "True" if e.value else "False"
            return repr(e.value)
        if isinstance(e, N.Name):
            return e.id
        if isinstance(e, N.Index):
            return f"{e.base}[{self.expr(e.index)}]"
        if isinstance(e, N.BinOp):
            return f"({self.expr(e.left)} {e.op} {self.expr(e.right)})"
        if isinstance(e, N.UnaryOp):
            op = "-" if e.op == "-" else "not "
            return f"({op}{self.expr(e.operand)})"
        if isinstance(e, N.Call):
            args = ", ".join(self.expr(a) for a in e.args)
            return f"_i_{e.fn}({args})"
        if isinstance(e, N.Cast):
            inner = self.expr(e.operand)
            if e.to is DType.F32:
                return f"_c32({inner})"
            if e.to is DType.F16:
                return f"_c16({inner})"
            if e.to is DType.I64:
                return f"int({inner})"
            return inner  # F64/B1: values are already held wide
        raise TypeError(type(e).__name__)

    def _store(self, target: N.LValue, value: N.Expr) -> None:
        text = self.expr(value)
        tdt = target.dtype or DType.F64
        vdt = value.dtype or DType.F64
        if tdt in (DType.F32, DType.F16) and vdt is not tdt:
            text = f"_c32({text})" if tdt is DType.F32 else f"_c16({text})"
        if isinstance(target, N.Name):
            self.emit(f"{target.id} = {text}")
        else:
            self.emit(f"{target.base}[{self.expr(target.index)}] = {text}")
        if self.counting:
            self.charge(
                expr_cost(value, self.cm, self.approx)
                + store_cost(target, value, self.cm)
            )

    # -- statements -------------------------------------------------------------
    def body(self, stmts: List[N.Stmt]) -> None:
        if not stmts:
            self.emit("pass")
            return
        for s in stmts:
            self.stmt(s)

    def stmt(self, s: N.Stmt) -> None:
        if isinstance(s, N.VarDecl):
            if s.init is None:
                self.emit(f"{s.name} = 0.0")
                return
            tgt = N.Name(s.name)
            tgt.dtype = s.dtype
            self._store(tgt, s.init)
        elif isinstance(s, N.Assign):
            self._store(s.target, s.value)
        elif isinstance(s, N.For):
            lo, hi, step = (
                self.expr(s.lo),
                self.expr(s.hi),
                self.expr(s.step),
            )
            self.emit(f"for {s.var} in range({lo}, {hi}, {step}):")
            self.indent += 1
            self.charge(1.0)  # loop bookkeeping per iteration
            self.body(s.body)
            self.indent -= 1
        elif isinstance(s, N.While):
            self.emit(f"while {self.expr(s.cond)}:")
            self.indent += 1
            self.charge(
                1.0 + (expr_cost(s.cond, self.cm, self.approx) if self.counting else 0.0)
            )
            self.body(s.body)
            self.indent -= 1
        elif isinstance(s, N.If):
            if self.counting:
                self.charge(expr_cost(s.cond, self.cm, self.approx))
            self.emit(f"if {self.expr(s.cond)}:")
            self.indent += 1
            self.body(s.then)
            self.indent -= 1
            if s.orelse:
                self.emit("else:")
                self.indent += 1
                self.body(s.orelse)
                self.indent -= 1
        elif isinstance(s, N.Break):
            self.emit("break")
        elif isinstance(s, N.Return):
            self._emit_return([self.expr(s.value)])
        elif isinstance(s, N.ReturnTuple):
            self._emit_return([self.expr(v) for v in s.values])
        elif isinstance(s, N.ExprStmt):
            self.emit(self.expr(s.value))
        elif isinstance(s, N.Push):
            self.emit(f"_stk_{s.stack}.append({self.expr(s.value)})")
        elif isinstance(s, N.Pop):
            if isinstance(s.target, N.Name):
                self.emit(f"{s.target.id} = _stk_{s.stack}.pop()")
            else:
                self.emit(
                    f"{s.target.base}[{self.expr(s.target.index)}] = "
                    f"_stk_{s.stack}.pop()"
                )
        elif isinstance(s, N.PopDiscard):
            self.emit(f"_stk_{s.stack}.pop()")
        elif isinstance(s, N.TraceAppend):
            self.emit(f"_tr_{s.trace}.append({self.expr(s.value)})")
        else:
            raise TypeError(type(s).__name__)

    def _emit_return(self, values: List[str]) -> None:
        extras = [f"_tr_{t}" for t in self.traces]
        if self.counting:
            extras.append("_cost")
        parts = values + extras
        if len(parts) == 1:
            self.emit(f"return {parts[0]}")
        else:
            self.emit(f"return ({', '.join(parts)})")

    # -- function -----------------------------------------------------------------
    def generate(self) -> str:
        fn = self.fn
        for s in walk_stmts(fn.body):
            if isinstance(s, (N.Push,)) and s.stack not in self.stacks:
                self.stacks.append(s.stack)
            if (
                isinstance(s, (N.Pop, N.PopDiscard))
                and s.stack not in self.stacks
            ):
                self.stacks.append(s.stack)
            if isinstance(s, N.TraceAppend) and s.trace not in self.traces:
                self.traces.append(s.trace)
        params = ", ".join(p.name for p in fn.params)
        header = f"def {fn.name}({params}):"
        for stack in self.stacks:
            self.emit(f"_stk_{stack} = []")
        for trace in self.traces:
            self.emit(f"_tr_{trace} = []")
        if self.counting:
            self.emit("_cost = 0.0")
        self.body(fn.body)
        if not fn.body or not isinstance(
            fn.body[-1], (N.Return, N.ReturnTuple)
        ):
            self._emit_return(["None"])
        return header + "\n" + "\n".join(self.lines)


def generate_source(
    fn: N.Function,
    counting: bool = False,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    approx: Optional[Set[str]] = None,
) -> str:
    """Render ``fn`` as Python source.

    The generated function's extra return slots (in order): declared
    sensitivity traces, then ``_cost`` if ``counting`` — callers use
    :func:`extra_return_layout` to unpack.
    """
    return _Gen(fn, counting, cost_model, approx).generate()


def extra_return_layout(
    fn: N.Function, counting: bool = False
) -> Dict[str, object]:
    """Describe the extra return slots appended by :func:`generate_source`."""
    traces: List[str] = []
    for s in walk_stmts(fn.body):
        if isinstance(s, N.TraceAppend) and s.trace not in traces:
            traces.append(s.trace)
    return {"traces": traces, "counting": counting}

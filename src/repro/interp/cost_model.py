"""Simulated performance model.

Pure Python cannot observe the speed difference between binary32 and
binary64 arithmetic, so the paper's *performance* axis is modelled
with per-operation cycle costs that reflect typical superscalar CPU
behaviour:

* arithmetic on narrower floats is cheaper (f32 ≈ half of f64),
* memory traffic scales with element width (array load/store costs),
* implicit precision casts cost cycles (this is what erases the benefit
  of demoting only ``attributes`` in k-Means, reproducing Table I's
  "no speedup" row),
* approximate FastApprox intrinsics are much cheaper than libm calls
  (driving the Black-Scholes speedups in Table IV).

Costs are relative cycles; only ratios matter for the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.frontend.intrinsics import INTRINSICS
from repro.ir import nodes as N
from repro.ir.types import DType


def _per_dtype(f64: float, f32: float, f16: float) -> Dict[DType, float]:
    return {
        DType.F64: f64,
        DType.F32: f32,
        DType.F16: f16,
        DType.I64: min(f32, 1.0) if f32 < 1 else 1.0,
        DType.B1: 0.5,
    }


@dataclass
class CostModel:
    """Per-operation cycle cost tables, keyed by dtype."""

    add: Dict[DType, float] = field(
        default_factory=lambda: _per_dtype(4.0, 2.0, 1.5)
    )
    mul: Dict[DType, float] = field(
        default_factory=lambda: _per_dtype(5.0, 2.5, 2.0)
    )
    div: Dict[DType, float] = field(
        default_factory=lambda: _per_dtype(22.0, 11.0, 8.0)
    )
    compare: float = 1.0
    boolean: float = 0.5
    negate: float = 1.0
    cast: float = 3.0
    #: reading/writing one array element (memory traffic by width)
    array_access: Dict[DType, float] = field(
        default_factory=lambda: _per_dtype(4.0, 2.0, 1.0)
    )
    #: writing a scalar variable
    scalar_store: Dict[DType, float] = field(
        default_factory=lambda: _per_dtype(1.0, 0.5, 0.5)
    )

    def binop_cost(self, op: str, dtype: DType) -> float:
        """Cycle cost of one binary operation at ``dtype``."""
        if op in N.CMPOPS:
            return self.compare
        if op in N.BOOLOPS:
            return self.boolean
        if op in ("+", "-"):
            return self.add[dtype]
        if op == "*":
            return self.mul[dtype]
        if op in ("/", "//", "%"):
            return self.div[dtype]
        raise KeyError(op)

    def call_cost(self, fname: str, dtype: DType, approx: Optional[Set[str]] = None) -> float:
        """Cycle cost of one intrinsic call.

        :param approx: names for which the FastApprox variant is in use.
        """
        info = INTRINSICS[fname]
        if approx and fname in approx and info.approx_impl is not None:
            return info.approx_cost
        table = info.cost
        if dtype in table:
            return table[dtype]
        return table[DType.F64]


#: Shared default model used by all experiments.
DEFAULT_COST_MODEL = CostModel()


# --------------------------------------------------------------------------
# Static expression/statement costing (used by the counting code variant)
# --------------------------------------------------------------------------


def expr_cost(
    e: N.Expr,
    model: CostModel,
    approx: Optional[Set[str]] = None,
) -> float:
    """Static cycle cost of evaluating ``e`` once.

    Implicit promotion casts are charged whenever an operand's dtype
    differs from the operation's dtype (integer→float conversions on
    loop indices are free — they compile to register moves).
    """
    if isinstance(e, N.Const):
        return 0.0
    if isinstance(e, N.Name):
        return 0.0
    if isinstance(e, N.Index):
        return expr_cost(e.index, model, approx) + model.array_access[
            e.dtype or DType.F64
        ]
    if isinstance(e, N.BinOp):
        c = expr_cost(e.left, model, approx) + expr_cost(e.right, model, approx)
        op_dtype = e.dtype or DType.F64
        if e.op in N.CMPOPS or e.op in N.BOOLOPS:
            return c + model.binop_cost(e.op, op_dtype)
        c += model.binop_cost(e.op, op_dtype)
        for side in (e.left, e.right):
            sd = side.dtype or DType.F64
            if sd.is_float and op_dtype.is_float and sd is not op_dtype:
                c += model.cast
        return c
    if isinstance(e, N.UnaryOp):
        return expr_cost(e.operand, model, approx) + model.negate
    if isinstance(e, N.Call):
        c = sum(expr_cost(a, model, approx) for a in e.args)
        return c + model.call_cost(e.fn, e.dtype or DType.F64, approx)
    if isinstance(e, N.Cast):
        inner = expr_cost(e.operand, model, approx)
        src = e.operand.dtype or DType.F64
        if src.is_float and e.to.is_float and src is not e.to:
            inner += model.cast
        return inner
    raise TypeError(type(e).__name__)


def store_cost(
    target: N.LValue, value: N.Expr, model: CostModel
) -> float:
    """Cost of storing ``value`` into ``target``, incl. demotion casts."""
    tdt = target.dtype or DType.F64
    c = (
        model.array_access[tdt]
        if isinstance(target, N.Index)
        else model.scalar_store[tdt]
    )
    vdt = value.dtype or DType.F64
    if vdt.is_float and tdt.is_float and vdt is not tdt:
        c += model.cast
    return c


def static_function_cost(
    fn: N.Function,
    trip_counts: Dict[str, float],
    model: CostModel = DEFAULT_COST_MODEL,
    approx: Optional[Set[str]] = None,
) -> float:
    """Estimate total cycles for one invocation of ``fn``.

    ``trip_counts`` maps loop variables (for ``For``) or synthetic keys
    ``"while@<line>"`` (for ``While``) to expected trip counts; missing
    entries default to the statically-evaluable range when constant,
    else 1.  Branches are costed as the mean of both arms.

    This is the quick analytical estimator; the dynamic counting variant
    produced by the code generator is exact.
    """
    return _body_cost(fn.body, trip_counts, model, approx)


def _body_cost(body, trips, model, approx) -> float:
    total = 0.0
    for s in body:
        total += _stmt_cost(s, trips, model, approx)
    return total


def _stmt_cost(s: N.Stmt, trips, model, approx) -> float:
    if isinstance(s, N.VarDecl):
        if s.init is None:
            return 0.0
        c = expr_cost(s.init, model, approx)
        tgt = N.Name(s.name)
        tgt.dtype = s.dtype
        return c + store_cost(tgt, s.init, model)
    if isinstance(s, N.Assign):
        return expr_cost(s.value, model, approx) + store_cost(
            s.target, s.value, model
        )
    if isinstance(s, N.For):
        n = trips.get(s.var)
        if n is None:
            n = _static_trip(s)
        inner = _body_cost(s.body, trips, model, approx)
        return n * (inner + 1.0) + expr_cost(s.hi, model, approx)
    if isinstance(s, N.While):
        key = f"while@{s.loc}"
        n = trips.get(key, 1.0)
        inner = _body_cost(s.body, trips, model, approx) + expr_cost(
            s.cond, model, approx
        )
        return n * inner
    if isinstance(s, N.If):
        c = expr_cost(s.cond, model, approx)
        t = _body_cost(s.then, trips, model, approx)
        e = _body_cost(s.orelse, trips, model, approx)
        return c + 0.5 * (t + e)
    if isinstance(s, (N.Return, N.ExprStmt)):
        return expr_cost(s.value, model, approx)
    if isinstance(s, N.ReturnTuple):
        return sum(expr_cost(v, model, approx) for v in s.values)
    return 0.0


def static_config_cost(
    fn: N.Function,
    config,
    trip_counts: Optional[Dict[str, float]] = None,
    model: CostModel = DEFAULT_COST_MODEL,
    approx: Optional[Set[str]] = None,
) -> float:
    """Static cycle estimate of ``fn`` under a precision configuration.

    Applies the configuration to a clone of the IR (dtype re-inference
    places the promotion casts the cost model charges) and costs it
    analytically — nothing is compiled or executed.

    :param config: a :class:`repro.tuning.PrecisionConfig` (empty/falsy
        configs cost the reference itself).
    """
    # local import: repro.tuning.validate imports this module at load
    from repro.tuning.config import apply_precision

    mixed = apply_precision(fn, config) if config else fn
    return static_function_cost(mixed, trip_counts or {}, model, approx)


def config_cycle_delta(
    fn: N.Function,
    config,
    trip_counts: Optional[Dict[str, float]] = None,
    model: CostModel = DEFAULT_COST_MODEL,
    approx: Optional[Set[str]] = None,
) -> float:
    """Per-config cycle delta versus the uniform-f64 reference.

    ``static_config_cost(fn, config) - static_function_cost(fn)``,
    computed without recompiling (or rerunning) the reference: demotion
    savings are negative, cast-dominated configurations (the k-Means
    "no speedup" effect) come out positive.  This is the cheap analytic
    screen — the exact per-config numbers come from the counting run
    the candidate evaluator performs.
    """
    trips = trip_counts or {}
    return static_config_cost(
        fn, config, trips, model, approx
    ) - static_function_cost(fn, trips, model, approx)


def _static_trip(s: N.For) -> float:
    if (
        isinstance(s.lo, N.Const)
        and isinstance(s.hi, N.Const)
        and isinstance(s.step, N.Const)
    ):
        lo, hi, step = s.lo.value, s.hi.value, s.step.value
        if step > 0 and hi > lo:
            return float((hi - lo + step - 1) // step)
        return 0.0
    return 1.0

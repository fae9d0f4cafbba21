"""Configuration validation: actual error and modelled speedup.

Given a precision configuration, run the demoted program against the
uniform-f64 reference to obtain the *actual* introduced error (the
"Actual Error" columns of Tables I and III), and compare simulated
cycle counts to obtain the speedup (modelled by
:mod:`repro.interp.cost_model` — pure Python cannot observe f32
hardware speedups).

Search loops validate many configurations against one reference:
:func:`measure_reference` runs the reference once and the result feeds
every subsequent :func:`validate_config` call via its ``reference``
parameter, and :func:`counting_runner` compiles a cost-counting variant
once for evaluation at several input points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.codegen.compile import (
    ConfigLaneKernel,
    compile_raw,
    config_lane_kernel,
)
from repro.codegen.npgen import UnvectorizableError
from repro.frontend.registry import Kernel
from repro.interp.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.ir import nodes as N
from repro.ir.types import ArrayType, DType
from repro.tuning.config import PrecisionConfig, apply_precision


@dataclass
class ReferencePoint:
    """One reference (uniform-f64) execution: value and modelled cost."""

    value: float
    cost: float


def modelled_speedup(
    cost_reference: float, cost_mixed: float, what: str = "configuration"
) -> float:
    """Speedup policy shared by every (reference, mixed) cycle pair.

    A zero-cost kernel (both programs cost 0 cycles) is trivially 1.0;
    a *degenerate* pair (mixed cost 0 against a non-zero reference)
    raises instead of silently reporting 1.0.
    """
    if cost_reference == 0.0 and cost_mixed == 0.0:
        return 1.0
    if cost_mixed == 0.0:
        raise ValueError(
            f"degenerate {what}: zero mixed cycle count against "
            f"reference cost {cost_reference}"
        )
    return cost_reference / cost_mixed


@dataclass
class ConfigValidation:
    """Actual-versus-reference measurement of one configuration."""

    config: PrecisionConfig
    reference_value: float
    mixed_value: float
    actual_error: float
    cost_reference: float
    cost_mixed: float

    def __post_init__(self) -> None:
        if self.cost_reference < 0 or self.cost_mixed < 0:
            raise ValueError(
                "negative modelled cycle count "
                f"(reference={self.cost_reference}, "
                f"mixed={self.cost_mixed}) — the cost model is broken"
            )

    @property
    def is_zero_cost(self) -> bool:
        """Both programs cost nothing — a zero-work kernel."""
        return self.cost_reference == 0.0 and self.cost_mixed == 0.0

    @property
    def degenerate(self) -> bool:
        """The mixed program reports zero cycles against a non-trivial
        reference — a broken configuration, not a real speedup."""
        return self.cost_mixed == 0.0 and self.cost_reference > 0.0

    @property
    def speedup(self) -> float:
        """Modelled execution speedup of the mixed configuration
        (see :func:`modelled_speedup` for the edge-case policy)."""
        return modelled_speedup(
            self.cost_reference,
            self.cost_mixed,
            what=f"configuration {self.config.describe()}",
        )


def counting_runner(
    fn: N.Function,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    approx: Optional[Set[str]] = None,
) -> Callable[[Sequence[object]], Tuple[float, float]]:
    """Compile ``fn`` with cycle counting once; return a point runner.

    The runner maps an argument tuple to ``(value, cost)``.  Array
    arguments are copied per call so repeated runs stay independent
    (kernels may mutate arrays in place).
    """
    compiled = compile_raw(
        fn, counting=True, cost_model=cost_model, approx=approx
    )

    def run(args: Sequence[object]) -> Tuple[float, float]:
        call_args = [
            a.copy() if isinstance(a, np.ndarray) else a for a in args
        ]
        value, extras = compiled(*call_args)  # type: ignore[misc]
        cost = float(extras["cost"])
        if cost < 0:
            raise ValueError(
                f"{fn.name}: negative modelled cycle count {cost}"
            )
        return float(value), cost

    return run


class PoolCountingRunner:
    """Counting execution of K configurations × N points, compile-once.

    Wraps one :class:`~repro.codegen.compile.ConfigLaneKernel` (shared
    through the fingerprint-keyed kernel cache) and executes proposal
    pools in one of two lane layouts:

    * ``grid`` — every scalar parameter is additionally batched along
      the validation-point axis, so K configs × N points run as a
      single NumPy execution over a ``(K, N)`` grid (configs are the
      rows — ``(K, 1)`` selector columns — points the columns);
    * ``perpoint`` — inputs stay lane-uniform (required when the kernel
      takes array arguments or input-dependent loop bounds) and the
      K-wide lane batch runs once per validation point.

    Either way each lane performs, bit for bit, the operations the
    per-config compiled scalar code would.
    """

    def __init__(
        self,
        fn: N.Function,
        kernel: ConfigLaneKernel,
        mode: str,
        cost_model: CostModel,
        approx: Optional[Set[str]],
    ) -> None:
        self.fn = fn
        self.kernel = kernel
        self.mode = mode
        self.cost_model = cost_model
        self.approx = approx

    def __call__(
        self,
        configs: Sequence[PrecisionConfig],
        points: Sequence[Sequence[object]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run the pool; returns ``(values, costs)``, both ``(K, N)``.

        :raises KeyError: for configs naming unknown variables (exactly
            like the scalar path).
        :raises ConfigLoweringError: when the pool cannot be expressed
            as lane parameters — callers fall back to the scalar path.
        """
        pool = self.kernel.lower(
            configs, cost_model=self.cost_model, approx=self.approx
        )
        k, n = len(configs), len(points)
        values, costs = self._run(pool, points, k, n)
        if np.any(costs < 0):
            # same guard the scalar counting_runner enforces per run
            raise ValueError(
                f"{self.fn.name}: negative modelled cycle count "
                f"{float(costs.min())}"
            )
        return values, costs

    def _run(
        self,
        pool,
        points: Sequence[Sequence[object]],
        k: int,
        n: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self.mode == "grid":
            cols: List[object] = []
            for i, p in enumerate(self.fn.params):
                dt = p.type.dtype
                cols.append(
                    np.asarray(
                        [pt[i] for pt in points],
                        dtype=np.int64 if dt is DType.I64 else np.float64,
                    )
                )
            value, cost = self.kernel(pool, *cols)
            values = np.broadcast_to(
                np.asarray(value, dtype=np.float64), (k, n)
            ).copy()
            costs = np.broadcast_to(
                np.asarray(cost, dtype=np.float64), (k, n)
            ).copy()
            return values, costs
        values = np.empty((k, n), dtype=np.float64)
        costs = np.empty((k, n), dtype=np.float64)
        for j, pt in enumerate(points):
            args: List[object] = []
            for a, p in zip(pt, self.fn.params):
                if isinstance(p.type, ArrayType):
                    # fresh copy per call: kernels may mutate arrays
                    args.append(list(a))  # type: ignore[arg-type]
                elif p.type.dtype is DType.I64:
                    args.append(int(a))  # type: ignore[arg-type]
                else:
                    args.append(a)
            value, cost = self.kernel(pool, *args)
            values[:, j] = np.broadcast_to(
                np.asarray(value, dtype=np.float64), (k, 1)
            ).reshape(k)
            costs[:, j] = np.broadcast_to(
                np.asarray(cost, dtype=np.float64), (k, 1)
            ).reshape(k)
        return values, costs


def pool_counting_runner(
    fn: N.Function,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    approx: Optional[Set[str]] = None,
) -> Optional[PoolCountingRunner]:
    """Build the config-batched counting runner for ``fn``, if possible.

    Prefers the full ``(K, N)`` grid layout; kernels whose inputs
    cannot be batched (array arguments, input-dependent loop bounds)
    degrade to the per-point lane layout; kernels the config-lane
    generator cannot express at all return ``None`` and callers use the
    per-config scalar path.
    """
    if not any(isinstance(p.type, ArrayType) for p in fn.params):
        try:
            kernel = config_lane_kernel(
                fn,
                batched={p.name for p in fn.params},
                counting=True,
                approx=approx,
            )
            return PoolCountingRunner(
                fn, kernel, "grid", cost_model, approx
            )
        except UnvectorizableError:
            pass
    try:
        kernel = config_lane_kernel(
            fn, counting=True, allow_arrays=True, approx=approx
        )
    except UnvectorizableError:
        return None
    return PoolCountingRunner(fn, kernel, "perpoint", cost_model, approx)


def _run_counting(
    fn: N.Function,
    args: Sequence[object],
    cost_model: CostModel,
    approx: Optional[Set[str]] = None,
) -> Tuple[float, float]:
    return counting_runner(fn, cost_model, approx)(args)


def measure_reference(
    k: Union[Kernel, N.Function],
    args: Sequence[object],
    cost_model: CostModel = DEFAULT_COST_MODEL,
    approx: Optional[Set[str]] = None,
) -> ReferencePoint:
    """Run the uniform-f64 reference once; reusable across validations."""
    fn = k.ir if isinstance(k, Kernel) else k
    value, cost = _run_counting(fn, args, cost_model, approx)
    return ReferencePoint(value=value, cost=cost)


def validate_config(
    k: Union[Kernel, N.Function],
    config: PrecisionConfig,
    args: Sequence[object],
    cost_model: CostModel = DEFAULT_COST_MODEL,
    approx: Optional[Set[str]] = None,
    reference: Optional[ReferencePoint] = None,
) -> ConfigValidation:
    """Execute reference and demoted programs; measure error and cost.

    :param reference: a prior :func:`measure_reference` result for the
        same kernel/args/cost model — skips recompiling and rerunning
        the reference (the hot path of candidate-evaluation loops).
    """
    fn = k.ir if isinstance(k, Kernel) else k
    if reference is None:
        reference = measure_reference(fn, args, cost_model, approx)
    if config:
        mixed_fn = apply_precision(fn, config)
        mixed_value, mixed_cost = _run_counting(
            mixed_fn, args, cost_model, approx
        )
    else:
        mixed_value, mixed_cost = reference.value, reference.cost
    return ConfigValidation(
        config=config,
        reference_value=reference.value,
        mixed_value=mixed_value,
        actual_error=abs(reference.value - mixed_value),
        cost_reference=reference.cost,
        cost_mixed=mixed_cost,
    )

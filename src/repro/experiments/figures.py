"""Figures 4–8: analysis time and peak memory versus problem size.

Each figure sweeps one benchmark over sizes for three series — CHEF-FP
analysis, ADAPT analysis, and the plain application — reproducing the
bars (time) and lines (memory) of the paper's Figs. 4–8.  ADAPT's
missing top points (its cluster OOMs in Figs. 4, 7, 8) are reproduced
by the tape memory budget.

Sizes are laptop-scaled relative to the paper; pass ``full=True`` for
the larger sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps import arclength, blackscholes, hpccg, kmeans, simpsons
from repro.experiments.measure import (
    Measurement,
    measure_adapt,
    measure_app,
    measure_chef,
)

#: default ADAPT tape budget — produces paper-shaped OOMs at top sizes
ADAPT_BUDGET = 192 * 1024 * 1024


@dataclass
class FigureSpec:
    """One size-sweep figure."""

    fig_id: int
    name: str
    xlabel: str
    kernel: object
    workload: Callable[[int], Tuple[object, ...]]
    sizes: Sequence[int]
    full_sizes: Sequence[int]
    adapt_budget: int = ADAPT_BUDGET


FIGURES: Dict[int, FigureSpec] = {
    4: FigureSpec(
        4, "arclength", "iterations",
        arclength.INSTRUMENTED, arclength.make_workload,
        sizes=(100, 1_000, 10_000, 50_000),
        full_sizes=(100, 1_000, 10_000, 100_000, 1_000_000),
    ),
    5: FigureSpec(
        5, "simpsons", "iterations",
        simpsons.INSTRUMENTED, simpsons.make_workload,
        sizes=(100, 1_000, 10_000, 50_000),
        full_sizes=(100, 1_000, 10_000, 100_000, 1_000_000),
    ),
    6: FigureSpec(
        6, "kmeans", "data points",
        kmeans.INSTRUMENTED, kmeans.make_workload,
        sizes=(100, 1_000, 5_000),
        full_sizes=(100, 1_000, 10_000, 100_000),
    ),
    7: FigureSpec(
        7, "hpccg", "z-dimension",
        hpccg.INSTRUMENTED,
        lambda nz: hpccg.make_workload(nz, max_iter=25),
        sizes=(10, 20, 40),
        full_sizes=(10, 20, 40, 80, 160),
    ),
    8: FigureSpec(
        8, "blackscholes", "data points",
        blackscholes.INSTRUMENTED, blackscholes.make_workload,
        sizes=(100, 1_000, 5_000),
        full_sizes=(100, 1_000, 10_000, 100_000),
    ),
}


@dataclass
class FigureRow:
    """One size point of a figure (three tools)."""

    size: int
    chef: Measurement
    adapt: Measurement
    app: Measurement

    @property
    def time_improvement(self) -> Optional[float]:
        """ADAPT analysis time / CHEF-FP analysis time (Table II)."""
        if self.adapt.oom or self.chef.time_s <= 0:
            return None
        return self.adapt.time_s / self.chef.time_s

    @property
    def memory_improvement(self) -> Optional[float]:
        """ADAPT peak memory / CHEF-FP peak memory (Table II)."""
        if self.adapt.oom or self.chef.peak_bytes <= 0:
            return None
        return self.adapt.peak_bytes / self.chef.peak_bytes


def run_figure(
    fig_id: int,
    full: bool = False,
    sizes: Optional[Sequence[int]] = None,
) -> List[FigureRow]:
    """Run one figure's sweep; returns one row per size.

    :raises KeyError: for unknown figure ids.
    """
    spec = FIGURES[fig_id]
    use_sizes = sizes if sizes is not None else (
        spec.full_sizes if full else spec.sizes
    )
    rows: List[FigureRow] = []
    for size in use_sizes:
        args_chef = spec.workload(size)
        chef = measure_chef(spec.kernel, args_chef)
        args_adapt = spec.workload(size)
        adapt = measure_adapt(
            spec.kernel, args_adapt, memory_budget_bytes=spec.adapt_budget
        )
        args_app = spec.workload(size)
        app = measure_app(spec.kernel, args_app)
        rows.append(FigureRow(size=size, chef=chef, adapt=adapt, app=app))
    return rows


def figure_improvements(
    rows: Sequence[FigureRow],
) -> Tuple[Optional[float], Optional[float]]:
    """Geometric-mean time and memory improvements across a sweep
    (the aggregation behind Table II)."""
    import math

    times = [r.time_improvement for r in rows if r.time_improvement]
    mems = [r.memory_improvement for r in rows if r.memory_improvement]

    def gmean(xs: List[float]) -> Optional[float]:
        if not xs:
            return None
        return math.exp(sum(math.log(x) for x in xs) / len(xs))

    return gmean(times), gmean(mems)

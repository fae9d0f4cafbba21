"""Optimization pass pipeline.

Levels mirror a compiler's ``-O`` flags:

* 0 — no optimization (the ablation baseline),
* 1 — constant folding / algebraic simplification to a fixpoint,
* 2 — folding + local CSE of intrinsic calls + dead-code elimination,
  iterated (DCE exposes folds and vice versa).
"""

from __future__ import annotations

from repro.ir import builder as b
from repro.ir import nodes as N
from repro.ir.typecheck import infer_types
from repro.opt.cse import cse_function
from repro.opt.dce import dce_function
from repro.opt.fold import fold_function

_MAX_ITER = 10


def optimize(fn: N.Function, level: int = 2) -> N.Function:
    """Return an optimized clone of ``fn`` (the input is not mutated)."""
    if level <= 0:
        return fn
    out = b.clone(fn)
    for _ in range(_MAX_ITER):
        changed = fold_function(out)
        if level >= 2:
            changed |= cse_function(out)
            changed |= fold_function(out)
            changed |= dce_function(out)
        if not changed:
            break
    infer_types(out)
    return out

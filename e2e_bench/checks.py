"""Output checks: every search front is recomputed by the reference
interpreter, and repeated searches must reproduce the same front.

The interpreter (:class:`repro.interp.interpreter.Interpreter`) defines
the IR's semantics, independently of the compiled code the search
scores candidates with.  A front point passes when the interpreter,
run on ``apply_precision(kernel, config)`` at every validation point,
reproduces its per-point actual errors bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Sequence


def front_digest(front_dicts: Sequence[Dict[str, object]]) -> str:
    """Content digest of a front's JSON form (floats round-trip)."""
    payload = json.dumps(list(front_dicts), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _fresh(args: Sequence[object]) -> List[object]:
    # kernels may write their array arguments: copy per run
    return [a.copy() if hasattr(a, "copy") else a for a in args]


def interpreted_values(fn: object, points: Sequence[Sequence[object]]):
    from repro.interp.interpreter import Interpreter

    return [float(Interpreter(fn).run(_fresh(p))) for p in points]


def check_front(
    kernel: object,
    points: Sequence[Sequence[object]],
    front: Sequence[object],
    perturb: bool = False,
) -> List[str]:
    """Problems found in a front (empty: every point checks out).

    ``perturb`` shifts the first front point's recorded actual error by
    one ulp before checking — the benchmark's own proof that a wrong
    front value is caught.
    """
    from repro.frontend.registry import Kernel
    from repro.tuning.config import apply_precision

    fn = kernel.ir if isinstance(kernel, Kernel) else kernel
    refs = interpreted_values(fn, points)
    problems: List[str] = []
    for i, p in enumerate(front):
        recorded = list(p.point_errors)
        if perturb and i == 0:
            recorded[0] = math.nextafter(recorded[0], math.inf)
        mixed = apply_precision(fn, p.config) if p.config else fn
        values = interpreted_values(mixed, points)
        errors = [abs(r - v) for r, v in zip(refs, values)]
        if errors != recorded or max(errors) != p.actual_error:
            problems.append(
                f"{fn.name}: front point {p.config.describe()} records "
                f"errors {recorded}, the interpreter gives {errors}"
            )
    return problems


def cycle_offset(kernel: object, points: Sequence[Sequence[object]]) -> float:
    """Compiled counting cycles minus interpreter cycles of the
    uniform-precision kernel, summed over the points."""
    from repro.frontend.registry import Kernel
    from repro.interp.cost_model import DEFAULT_COST_MODEL
    from repro.interp.interpreter import Interpreter
    from repro.tuning.validate import counting_runner

    fn = kernel.ir if isinstance(kernel, Kernel) else kernel
    run = counting_runner(fn, DEFAULT_COST_MODEL)
    total = 0.0
    for p in points:
        _, compiled = run(p)
        interp = Interpreter(fn, cost_model=DEFAULT_COST_MODEL)
        interp.run(_fresh(p))
        total += compiled - interp.cycles
    return total

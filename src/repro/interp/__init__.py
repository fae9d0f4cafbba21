"""Execution substrate: reference interpreter and the performance model.

The tree-walking interpreter (:mod:`repro.interp.interpreter`) is the
semantic ground truth against which generated code is tested, and the
engine used for mixed-precision "actual error" validation runs on small
sizes.  The cost model (:mod:`repro.interp.cost_model`) assigns simulated
cycle costs to every operation by precision — the substitute for the
hardware float/double speed difference that pure Python cannot
express.
"""

from repro.interp.interpreter import run_function, Interpreter
from repro.interp.cost_model import CostModel, DEFAULT_COST_MODEL, static_function_cost

__all__ = [
    "run_function",
    "Interpreter",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "static_function_cost",
]

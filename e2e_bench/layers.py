"""Per-layer ledger of the traced run.

The benchmark wraps the public entry functions of each layer of
``repro`` from the outside — nothing inside ``src/`` carries a span for
it.  Each wrapped function is resolved by qualified name; one that no
longer exists is reported as ``absent`` rather than crashing the run,
so a later change that deletes code keeps the benchmark running.

Every wrapper records calls, inclusive time and self time (inclusive
minus the wrapped callees' inclusive time, per thread) plus a few
layer-specific counts: IR nodes in and out of the transform and the
optimizer, lanes per lane execution, and points / loop fallbacks per
batched sweep.  Counting runs outside the timed interval of the wrapper
and is excluded from the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (ledger key, qualified name of the wrapped callable, counter)
LAYER_FUNCTIONS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("tuning.apply_precision", "repro.tuning.config.apply_precision", None),
    ("core.transform",
     "repro.core.reverse.ReverseModeTransformer.transform", "nodes_out"),
    ("core.estimator", "repro.core.api.cached_error_estimator", None),
    ("opt.optimize", "repro.opt.pipeline.optimize", "nodes_in_out"),
    ("codegen.compile_raw", "repro.codegen.compile.compile_raw", None),
    ("codegen.exec", "repro.codegen.compile.CompiledFunction.__call__", None),
    ("codegen.lane_kernel", "repro.codegen.compile.config_lane_kernel", None),
    ("codegen.lane_lower", "repro.codegen.compile.ConfigLaneKernel.lower",
     None),
    ("codegen.lane_exec", "repro.codegen.compile.ConfigLaneKernel.__call__",
     "lanes"),
    ("codegen.batch_source", "repro.codegen.npgen.generate_batch_source",
     None),
    ("codegen.pair_functions", "repro.codegen.compile.pair_functions", None),
    ("ir.fingerprint", "repro.ir.fingerprint.ir_fingerprint", None),
    ("sweep.run", "repro.sweep.engine.run_sweep", None),
    ("sweep.execute", "repro.sweep.batch.BatchedErrorEstimator.execute",
     "sweep"),
    ("search.run", "repro.search.api.run_search", None),
    ("search.parallel",
     "repro.search.parallel.ParallelEvaluator._compute_many", None),
)


def resolve(qualname: str) -> Tuple[Optional[object], Optional[str], object]:
    """``(owner, attribute, target)`` for a dotted name, or
    ``(None, None, None)`` when any part of it no longer exists."""
    parts = qualname.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: object = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None, None, None
    return None, None, None


def count_ir_nodes(fn: object) -> int:
    """Statements plus expression nodes of an IR function."""
    from repro.ir.visitor import iter_stmt_exprs, walk_expr, walk_stmts

    n = 0
    for stmt in walk_stmts(fn.body):  # type: ignore[attr-defined]
        n += 1
        for expr in iter_stmt_exprs(stmt):
            n += sum(1 for _ in walk_expr(expr))
    return n


class LayerLedger:
    """Installs the wrappers and accumulates their numbers."""

    def __init__(self) -> None:
        self.stats: Dict[str, Dict[str, float]] = {}
        self.absent: List[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # -- installation --------------------------------------------------------
    def install(self) -> "LayerLedger":
        import sys

        self.stats, self.absent = {}, []
        for key, qualname, counter in LAYER_FUNCTIONS:
            owner, attr, target = resolve(qualname)
            if target is None or not callable(target):
                self.absent.append(key)
                continue
            self.stats[key] = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
            wrapper = self._wrap(key, target, counter)
            if isinstance(owner, type):
                self._rebind(owner, attr, target, wrapper)
                continue
            # module-level function: rebind every ``repro`` module that
            # imported it by name, so existing call sites see the wrapper
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (
                    mod_name == "repro" or mod_name.startswith("repro.")
                ):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is target:
                        self._rebind(mod, name, target, wrapper)
        return self

    def _rebind(self, owner: object, name: str, old: object,
                new: object) -> None:
        setattr(owner, name, new)
        self._undo.append(lambda: setattr(owner, name, old))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- the wrapper ---------------------------------------------------------
    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, key: str, fn: Callable, counter: Optional[str]):
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = ledger._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                child = stack.pop()
                counts = (
                    ledger._count(counter, args, result) if counter else {}
                )
                with ledger._lock:
                    st = ledger.stats[key]
                    st["calls"] += 1
                    st["incl_s"] += t1 - t0
                    st["self_s"] += t1 - t0 - child
                    for name, value in counts.items():
                        st[name] = st.get(name, 0) + value
                if stack:
                    # the caller's self time excludes this call and the
                    # counting done after it
                    stack[-1] += time.perf_counter() - t0

        return wrapper

    @staticmethod
    def _count(counter: str, args: tuple, result: object) -> Dict[str, float]:
        if result is None:
            return {}
        if counter == "nodes_out":
            return {"nodes_out": count_ir_nodes(result)}
        if counter == "nodes_in_out":
            return {
                "nodes_in": count_ir_nodes(args[0]),
                "nodes_out": count_ir_nodes(result),
            }
        if counter == "lanes":
            pool = args[1] if len(args) > 1 else None
            return {"lanes": int(getattr(pool, "k", 0) or 0)}
        if counter == "sweep":
            return {
                "points": int(getattr(result, "n", 0) or 0),
                "loop_fallbacks": int(
                    getattr(result, "backend", "") == "loop"
                ),
            }
        return {}

    # -- reading -------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {k: dict(v) for k, v in self.stats.items()}

"""The cold-search workloads: ``search-estimate`` and ``search-validate``.

Each operation is one default precision search (serial evaluation,
config lanes on, default strategies — what ``python -m repro search``
runs), started with empty process-wide memos and a collected heap, like
a fresh CLI process.  One *cycle* searches every app of the workload
once; the run repeats cycles on the same seeded inputs until the
measuring window is spent, so every repeat must reproduce the first
front exactly, and each app's first front is recomputed by the
reference interpreter.

With tracing, untraced and traced cycles alternate: the untraced ones
give the end-to-end numbers and the tracing overhead, the traced ones
(layer wrappers installed, see :mod:`layers`) the per-layer ledger.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from typing import Callable, Dict, List, Tuple

from common import GcMeter, median, ratio, self_peak_rss_mb
from checks import check_front, cycle_offset, front_digest

Scenario = object


def _blackscholes(seed: int, tiny: bool):
    from repro.apps import blackscholes

    if tiny:
        scen = blackscholes.search_scenario(n_samples=8, seed=seed)
        return dataclasses.replace(scen, budget=6)
    return blackscholes.search_scenario(seed=seed)  # budget 48


def _arclength(seed: int, tiny: bool):
    from repro.apps import arclength

    if tiny:
        scen = arclength.search_scenario(size=12, n_samples=8, seed=seed)
        return dataclasses.replace(scen, budget=6)
    return arclength.search_scenario(seed=seed)  # budget 32


def _simpsons(seed: int, tiny: bool):
    from repro.apps import simpsons

    if tiny:
        scen = simpsons.search_scenario(size=12, n_samples=8, seed=seed)
        return dataclasses.replace(scen, budget=6)
    return simpsons.search_scenario(seed=seed)  # budget 32


#: enlarged so candidate execution dominates the search
KMEANS_SIZE = 256
HPCCG_NZ, HPCCG_ITERS = 4, 12


def _kmeans(seed: int, tiny: bool):
    from repro.apps import kmeans

    size = 16 if tiny else KMEANS_SIZE
    scen = kmeans.search_scenario(size=size)
    points = [
        kmeans.make_workload(size, seed=1000 * seed + 7 * i)
        for i in range(len(scen.points))
    ]
    return dataclasses.replace(scen, points=points)


def _hpccg(seed: int, tiny: bool):
    from repro.apps import hpccg

    # the HPCCG generator is deterministic: no input depends on the seed
    if tiny:
        return hpccg.search_scenario(nz=1, max_iter=3)
    return hpccg.search_scenario(nz=HPCCG_NZ, max_iter=HPCCG_ITERS)


#: app -> scenario factory(seed, tiny)
SCENARIOS: Dict[str, Callable[[int, bool], Scenario]] = {
    "blackscholes": _blackscholes,
    "arclength": _arclength,
    "simpsons": _simpsons,
    "kmeans": _kmeans,
    "hpccg": _hpccg,
}
APPS = {
    "search-estimate": ("blackscholes", "arclength", "simpsons"),
    "search-validate": ("kmeans", "hpccg"),
}


def build_inputs(workload: str, seed: int, tiny: bool) -> List[Tuple[str, Scenario]]:
    return [(app, SCENARIOS[app](seed, tiny)) for app in APPS[workload]]


#: fixed inputs of the codegen-vs-interpreter cycle comparison
OFFSET_SCENARIOS = {
    "arclength": lambda m: m.search_scenario(),
    "simpsons": lambda m: m.search_scenario(),
    "kmeans": lambda m: m.search_scenario(size=96),
    "hpccg": lambda m: m.search_scenario(nz=3),
    "blackscholes": lambda m: m.search_scenario(),
}


def cycle_offsets() -> Dict[str, float]:
    from repro.apps import ALL_APPS

    out = {}
    for app, make in OFFSET_SCENARIOS.items():
        scen = make(ALL_APPS[app])
        out[app] = cycle_offset(scen.kernel, scen.points)
    return out


def _reset_process_memos() -> None:
    from repro.codegen.compile import clear_config_kernel_cache
    from repro.core.api import clear_estimator_memo

    clear_estimator_memo()
    clear_config_kernel_cache()
    gc.collect()


class SearchRun:
    """One run of a search workload (all cycles, checks, numbers)."""

    def __init__(self, workload: str, seed: int, tiny: bool,
                 perturb: bool = False) -> None:
        import repro

        self.inputs = build_inputs(workload, seed, tiny)
        self.session = repro.Session()
        self.perturb = perturb
        #: one record per search: app, wall-clock, traced, result
        self.ops: List[Dict[str, object]] = []
        self.first: Dict[str, object] = {}
        self.digests: Dict[str, str] = {}
        self.failures: List[str] = []
        self.attempted = 0

    # -- one search ----------------------------------------------------------
    def _search(self, app: str, scen: Scenario, traced: bool) -> Dict[str, object]:
        _reset_process_memos()
        self.attempted += 1
        op: Dict[str, object] = {"app": app, "ok": False, "traced": traced}
        self.ops.append(op)
        t0 = time.perf_counter()
        try:
            result = self.session.search(scen)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            self.failures.append(f"{app}: {type(exc).__name__}: {exc}")
            return op
        op["wall_s"] = time.perf_counter() - t0
        digest = front_digest(result.front.to_dicts())
        if app not in self.first:
            self.first[app] = result
            self.digests[app] = digest
        elif digest != self.digests[app]:
            self.failures.append(
                f"{app}: front digest {digest} differs from the run's "
                f"first {self.digests[app]} on identical inputs"
            )
            return op
        ev = result.stats["evaluator"]
        memo = self.session.stats()["estimator_memo"]
        op.update(
            ok=True,
            computed=ev["computed"],
            memo_hits=ev["memo_hits"],
            pool_runs=ev["pool_runs"],
            pool_fallbacks=ev["pool_fallbacks"],
            evals_to_front=1 + max(
                (p.index for p in result.front.points), default=-1),
            memo_lookups=memo["hits"] + memo["misses"],
            memo_builds=memo["misses"],
        )
        return op

    def _cycle(self, ledger=None) -> Dict[str, object]:
        """One search per app; traced when a ledger is given."""
        if ledger is None:
            t0 = time.perf_counter()
            ops = [self._search(app, scen, False) for app, scen in self.inputs]
            return {"traced": False, "wall_s": time.perf_counter() - t0,
                    "ops": ops}
        ledger.install()
        try:
            with GcMeter() as gc_meter:
                t0 = time.perf_counter()
                ops = [self._search(app, scen, True)
                       for app, scen in self.inputs]
                wall = time.perf_counter() - t0
        finally:
            ledger.uninstall()
        return {"traced": True, "wall_s": wall, "ops": ops,
                "ledger": ledger.snapshot(), "gc": gc_meter.snapshot()}

    # -- the window ----------------------------------------------------------
    def run_window(self, seconds: float, ledger=None) -> None:
        """Repeat cycles until the window is spent: a cycle that would
        end more than half a cycle past the window is not started.
        With a ledger, untraced and traced cycles alternate (at least
        one of each)."""
        start = time.perf_counter()
        self.cycles: List[Dict[str, object]] = []
        while True:
            traced = ledger is not None and len(self.cycles) % 2 == 1
            self.cycles.append(self._cycle(ledger if traced else None))
            elapsed = time.perf_counter() - start
            per_cycle = elapsed / len(self.cycles)
            if ledger is not None and len(self.cycles) < 2:
                continue
            if elapsed + 0.5 * per_cycle > seconds:
                break
        self.peak_rss_mb = self_peak_rss_mb()

    def check(self) -> None:
        """Interpreter check of each app's first front; a wrong front
        fails every search of that app (all repeats match it)."""
        for app, scen in self.inputs:
            result = self.first.get(app)
            if result is None:
                continue
            problems = check_front(scen.kernel, scen.points,
                                   result.front.points, perturb=self.perturb)
            self.failures.extend(problems)
            if problems:
                for op in self.ops:
                    if op["app"] == app:
                        op["ok"] = False

    # -- numbers -------------------------------------------------------------
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op["ok"])

    def end_to_end(self) -> Dict[str, float]:
        ops = [op for op in self.ops if op["ok"] and not op["traced"]]
        walls = [op["wall_s"] for op in ops]
        total = sum(walls)
        per_app = {
            app: median([op["wall_s"] for op in ops if op["app"] == app])
            for app, _ in self.inputs
        }
        return {
            "evals_per_s": ratio(sum(op["computed"] for op in ops), total),
            "ops_per_s": ratio(len(ops), total),
            "peak_rss_mb": self.peak_rss_mb,
            "n_ops": len(ops),
            "per_app_s": per_app,
            "per_app_n": {
                app: sum(1 for op in ops if op["app"] == app)
                for app, _ in self.inputs
            },
        }

    def per_layer(self) -> Tuple[Dict[str, float], Dict[str, object]]:
        """Per-layer metrics of the traced cycles (medians over cycles)
        plus report context (coverage, the first traced ledger)."""
        traced = [c for c in self.cycles if c["traced"]]
        untraced = [c for c in self.cycles if not c["traced"]]

        def med(fn) -> float:
            return median([fn(c) for c in traced])

        def ops_sum(field: str) -> Callable[[Dict[str, object]], float]:
            return lambda c: sum(op.get(field, 0) for op in c["ops"]
                                 if op["ok"])

        per_cycle = [ledger_metrics(c["ledger"], c["gc"]) for c in traced]
        out: Dict[str, float] = {
            name: median([m[name] for m in per_cycle])
            for name in per_cycle[0]
        }
        lookups = med(ops_sum("memo_lookups"))
        out["core.estimator.lookups"] = lookups
        out["core.estimator.builds"] = med(ops_sum("memo_builds"))
        out["core.estimator.hit_ratio"] = ratio(
            lookups - out["core.estimator.builds"], lookups)
        runs = med(ops_sum("pool_runs"))
        out["codegen.lane_pool_ratio"] = ratio(
            runs, runs + med(ops_sum("pool_fallbacks")))
        computed = med(ops_sum("computed"))
        proposed = computed + med(ops_sum("memo_hits"))
        out["search.proposed"] = proposed
        out["search.computed"] = computed
        out["search.memo_hit_ratio"] = ratio(proposed - computed, proposed)
        out["search.evals_to_front"] = med(ops_sum("evals_to_front"))
        out["search.store.bytes"] = 0.0  # the CLI-style search has no store
        out["search.store.files"] = 0.0
        traced_wall = med(ops_sum("wall_s"))
        untraced_wall = median([ops_sum("wall_s")(c) for c in untraced])
        out["trace.overhead_s"] = traced_wall - untraced_wall
        self_sum = med(lambda c: sum(
            st["self_s"] for st in c["ledger"].values()))
        context = {
            "traced_cycles": len(traced),
            "untraced_cycles": len(untraced),
            "traced_search_s": traced_wall,
            "untraced_search_s": untraced_wall,
            "layer_self_coverage": ratio(self_sum, traced_wall),
            "searches_per_cycle": len(self.inputs),
            "transform_calls_expected": computed + len(self.inputs),
            "ledger": traced[0]["ledger"],
        }
        return out, context


#: ledger fields reported as ``<key>.<field>`` per-layer metrics
LEDGER_METRICS = {
    "tuning.apply_precision": ("calls", "self_s"),
    "core.transform": ("calls", "self_s"),
    "opt.optimize": ("calls", "self_s"),
    "codegen.compile_raw": ("calls", "self_s"),
    "codegen.exec": ("calls", "self_s"),
    "codegen.lane_lower": ("self_s",),
    "codegen.lane_exec": ("calls", "lanes", "self_s"),
    "sweep.run": ("calls", "self_s"),
    "sweep.execute": ("self_s",),
}
#: ledger fields reported under another name
LEDGER_RENAMED = {
    "sweep.points": ("sweep.execute", "points"),
    "sweep.loop_fallbacks": ("sweep.execute", "loop_fallbacks"),
    "search.self_s": ("search.run", "self_s"),
}


def ledger_metrics(ledger: Dict[str, Dict[str, float]],
                   gc_stats: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics read off one ledger snapshot (absent layers
    read as zero) plus the GC time measured alongside it."""

    def led(key: str, field: str) -> float:
        return float(ledger.get(key, {}).get(field, 0.0))

    out: Dict[str, float] = {}
    for key, fields in LEDGER_METRICS.items():
        for field in fields:
            out[f"{key}.{field}"] = led(key, field)
    for name, (key, field) in LEDGER_RENAMED.items():
        out[name] = led(key, field)
    # IR sizes are per call: one adjoint build's worth
    out["opt.nodes_in"] = ratio(
        led("opt.optimize", "nodes_in"), led("opt.optimize", "calls"))
    out["opt.nodes_out"] = ratio(
        led("opt.optimize", "nodes_out"), led("opt.optimize", "calls"))
    out["core.transform.nodes_out"] = ratio(
        led("core.transform", "nodes_out"), led("core.transform", "calls"))
    out["runtime.gc_s"] = float(gc_stats["s"])
    out["runtime.gc_collections"] = float(gc_stats["collections"])
    return out

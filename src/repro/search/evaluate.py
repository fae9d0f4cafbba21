"""Candidate evaluation: score one :class:`PrecisionConfig` on both axes.

A candidate's fitness is two numbers:

* **error** — how much the demoted program deviates from the uniform-f64
  reference.  Measured two ways and combined conservatively: the
  *actual* error of executing the demoted program at the validation
  points (:mod:`repro.tuning.validate`), and — when an input
  distribution is supplied — the *estimated* worst-case error of the
  demoted program over the whole sweep (the Taylor model by default).
  The error-estimating adjoint is built once per search, over the
  baseline kernel; each proposal pool's estimates come from one
  config-lane execution of it (``ErrorEstimator.execute_config_batch``),
  with an optional content-addressed sweep cache in front.
* **cycles** — modelled execution cost of the demoted program, from the
  cycle-counting code variant summed over the validation points.

:class:`CandidateEvaluator` owns the reference measurements (run once),
a result memo keyed by configuration content (strategies re-propose the
same subsets constantly), and the evaluation history in deterministic
order — the substrate the Pareto front is built from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.codegen.compile import ConfigLoweringError, LANE_FALLBACKS
from repro.core.api import KernelLike, adjoint_builds, cached_error_estimator
from repro.frontend.registry import Kernel
from repro.interp.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.ir import nodes as N
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.sweep.aggregate import AggregatorSpec, resolve_aggregator
from repro.sweep.cache import make_key
from repro.sweep.engine import (
    CacheLike,
    _resolve_cache,
    build_args,
    run_sweep,
)
from repro.tuning.config import PrecisionConfig, apply_precision
from repro.util.errors import ConfigError, InvalidRecordError, StoreError
from repro.tuning.validate import (
    ReferencePoint,
    counting_runner,
    modelled_speedup,
    pool_counting_runner,
)

#: how the actual and estimated errors combine into the Pareto error axis
ErrorMetric = str  # "worst" | "actual" | "estimate"


@dataclass
class EvaluatedCandidate:
    """One scored precision configuration, with provenance."""

    #: canonical content key (sorted ``name:dtype`` pairs)
    key: str
    config: PrecisionConfig
    #: worst actual |reference - mixed| over the validation points
    actual_error: float
    #: per-validation-point actual errors
    point_errors: Tuple[float, ...]
    #: aggregated estimated error over the input sweep (None: no sweep)
    estimated_error: Optional[float]
    #: Pareto error objective (see ``error_metric``)
    error: float
    #: modelled mixed cycles summed over the validation points
    cycles: float
    #: modelled reference cycles summed over the validation points
    cycles_reference: float
    #: strategy that first proposed this configuration
    strategy: str = ""
    #: global evaluation index (deterministic discovery order)
    index: int = -1

    @property
    def speedup(self) -> float:
        """Modelled speedup versus the uniform-f64 reference (shares
        the zero-cost/degenerate policy of
        :func:`repro.tuning.validate.modelled_speedup`)."""
        return modelled_speedup(
            self.cycles_reference,
            self.cycles,
            what=f"configuration {self.config.describe()}",
        )

    @property
    def speedup_or_none(self) -> Optional[float]:
        """:attr:`speedup`, or ``None`` for a degenerate candidate —
        the non-raising form used by display and serialization."""
        if self.cycles == 0.0 and self.cycles_reference > 0.0:
            return None
        return self.speedup

    @property
    def demoted(self) -> List[str]:
        return self.config.demoted_names

    def to_dict(self) -> Dict[str, object]:
        return {
            "demoted": self.demoted,
            "config": self.config.describe(),
            "error": self.error,
            "actual_error": self.actual_error,
            "estimated_error": self.estimated_error,
            "cycles": self.cycles,
            "cycles_reference": self.cycles_reference,
            # degenerate configs serialize as null rather than raising
            "speedup": self.speedup_or_none,
            "strategy": self.strategy,
            "index": self.index,
        }


def config_key(config: PrecisionConfig) -> str:
    """Canonical content key of a configuration."""
    return ",".join(
        f"{n}:{dt.value}" for n, dt in sorted(config.demotions.items())
    )


class CandidateEvaluator:
    """Scores precision configurations against one search scenario.

    :param k: kernel under search.
    :param points: validation input tuples — the demoted program is
        executed (with cycle counting) at each; the actual-error axis is
        the worst deviation, the cycle axis the summed cost.
    :param samples: optional swept inputs ``{param: length-N array}``;
        when given, each candidate also gets a distribution-robust
        estimated error from the batch sweep engine.
    :param fixed: lane-uniform values for unswept parameters.
    :param aggregate: how per-sample estimates reduce (default worst
        case, matching ``robust_tune``).
    :param cache: optional :class:`repro.sweep.SweepCache` (or directory)
        for the per-candidate sweep estimates — configurations
        re-proposed across strategies, runs, or processes become cache
        hits.
    :param error_metric: ``"worst"`` (default; max of actual and
        estimated), ``"actual"``, or ``"estimate"``.
    :param config_batch: score each proposal pool through compile-once
        config-lane kernels — one lane execution of the primal's
        counting kernel and one of the error-estimating adjoint (built
        once, over the baseline) — instead of one ``apply_precision`` +
        compile + run + adjoint build per candidate.  Results are
        bit-identical either way; ``False`` forces the per-candidate
        path (the test oracle, and an ablation / benchmarking hook).
    """

    #: cost-ledger counters (``eval_stats``); parallel workers ship
    #: their increments back to the parent evaluator
    LEDGER = (
        "n_pool_runs",
        "n_pool_lanes",
        "n_pool_fallbacks",
        "n_adjoint_builds",
        "n_estimate_lane_runs",
        "n_estimate_lanes",
        "n_estimate_fallbacks",
    )

    def __init__(
        self,
        k: KernelLike,
        points: Sequence[Sequence[object]],
        samples: Optional[Mapping[str, Sequence[float]]] = None,
        fixed: Optional[Mapping[str, object]] = None,
        estimate_model=None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        approx: Optional[Set[str]] = None,
        aggregate: AggregatorSpec = "max",
        cache: CacheLike = None,
        error_metric: ErrorMetric = "worst",
        config_batch: bool = True,
    ) -> None:
        if not points:
            raise ConfigError(
                "at least one validation point is required"
            )
        if error_metric not in ("worst", "actual", "estimate"):
            raise ConfigError(f"unknown error metric {error_metric!r}")
        if error_metric == "estimate" and samples is None:
            raise ConfigError(
                "error_metric='estimate' requires an input sweep"
            )
        self.fn: N.Function = k.ir if isinstance(k, Kernel) else k
        self.points = [tuple(p) for p in points]
        self.samples = dict(samples) if samples is not None else None
        self.fixed = dict(fixed) if fixed else {}
        self.cost_model = cost_model
        self.approx = approx
        self.error_metric = error_metric
        self.cache = _resolve_cache(cache)
        self._agg_name, self._agg = resolve_aggregator(aggregate)
        if estimate_model is None:
            from repro.core.models import TaylorModel

            estimate_model = TaylorModel()
        self.estimate_model = estimate_model

        self._references: Optional[List[ReferencePoint]] = None
        #: content key -> evaluated candidate (dedup across strategies)
        self.memo: Dict[str, EvaluatedCandidate] = {}
        #: computed candidates in deterministic evaluation order
        self.history: List[EvaluatedCandidate] = []
        self.n_computed = 0
        self.n_memo_hits = 0
        #: results re-seeded from a persistent run store (resume path)
        self.n_restored = 0
        #: optional persistence hook: called with ``self`` after every
        #: computed batch lands in the history (run-store checkpointing)
        self.checkpoint = None
        self.config_batch = bool(config_batch)
        self._runner_built = False
        self._runner = None
        self._lanes_built = False
        self._lanes = None
        #: config-batch telemetry: primal lanes executed, pool runs,
        #: fallbacks; adjoint builds; estimate lane runs, lanes and
        #: fallbacks (see :attr:`LEDGER`)
        for name in self.LEDGER:
            setattr(self, name, 0)

    # -- preparation --------------------------------------------------------
    def prepare(self) -> None:
        """Measure the reference points, build the error-estimating
        adjoint and compile the lane kernels, once.  Idempotent; called
        implicitly by evaluation and explicitly by
        :class:`ParallelEvaluator` before forking so workers inherit the
        compiled artifacts."""
        if self._references is not None:
            return
        before = adjoint_builds()
        # one compiled counting variant serves every validation point
        run = counting_runner(self.fn, self.cost_model, self.approx)
        self._references = [
            ReferencePoint(*run(args)) for args in self.points
        ]
        if self.samples is not None:
            # reference estimate: builds the search's one adjoint (into
            # the estimator memo, pre-fork)
            run_sweep(
                self.fn,
                samples=self.samples,
                fixed=self.fixed,
                model=self.estimate_model,
                cache=self.cache,
            )
        # compile the config-lane kernels too: forked workers inherit
        # them (they live in fingerprint-keyed memos)
        self.pool_runner()
        self.estimate_lanes()
        self.n_adjoint_builds += adjoint_builds() - before

    @property
    def references(self) -> List[ReferencePoint]:
        self.prepare()
        assert self._references is not None
        return self._references

    def pool_runner(self):
        """The config-batched counting runner, or ``None`` when disabled
        or the kernel is unvectorizable (per-candidate fallback)."""
        if not self._runner_built:
            self._runner_built = True
            if self.config_batch:
                self._runner = pool_counting_runner(
                    self.fn, self.cost_model, self.approx
                )
        return self._runner

    @property
    def pool_mode(self) -> Optional[str]:
        """Lane layout in use (``"grid"``/``"perpoint"``), or ``None``."""
        runner = self.pool_runner()
        return runner.mode if runner is not None else None

    def estimate_lanes(self):
        """``(ConfigBatchedEstimator, sweep args)`` of the baseline
        adjoint, or ``None`` when there is no input sweep, lanes are
        disabled, or the kernel or model cannot be laned (per-candidate
        estimates)."""
        if not self._lanes_built:
            self._lanes_built = True
            model = self.estimate_model
            # an uncacheable model would build an unshared estimator
            # here only for lane_kernel to refuse it
            if (
                self.config_batch
                and self.samples is not None
                and model.cacheable
            ):
                est = cached_error_estimator(self.fn, model=model)
                facade = est.config_batched
                if facade.lane_kernel(self.samples) is not None:
                    args = build_args(
                        est.primal_ir, self.samples, self.fixed
                    )
                    self._lanes = (facade, args)
        return self._lanes

    def restore(self, candidates: Sequence[EvaluatedCandidate]) -> int:
        """Seed the memo and history with previously computed results.

        The resume substrate: a run store hands back the stored
        evaluation history (a prefix of the deterministic evaluation
        order) and the strategies replay against it — every stored
        configuration becomes a memo hit (never recomputed) and fresh
        indices continue where the stored run stopped, so a resumed
        run's history is bit-identical to an uninterrupted one.

        Must be called on a fresh evaluator (before any evaluation);
        restored results count in :attr:`n_restored`, not
        :attr:`n_computed`.
        """
        if self.history:
            raise StoreError(
                "restore() requires a fresh evaluator (history is "
                "non-empty)"
            )
        for cand in sorted(candidates, key=lambda c: c.index):
            if cand.index != len(self.history):
                raise InvalidRecordError(
                    f"stored history is not a contiguous prefix: "
                    f"index {cand.index} at position {len(self.history)}"
                )
            self.memo[cand.key] = cand
            self.history.append(cand)
            self.n_restored += 1
        return self.n_restored

    def eval_stats(self) -> Dict[str, object]:
        """Evaluation counters: memoization, config-batching and the
        cost ledger (adjoint builds, estimate lane runs)."""
        return {
            "computed": self.n_computed,
            "memo_hits": self.n_memo_hits,
            "restored": self.n_restored,
            "pool_mode": self.pool_mode,
            "pool_runs": self.n_pool_runs,
            "pool_lanes": self.n_pool_lanes,
            "pool_fallbacks": self.n_pool_fallbacks,
            "adjoint_builds": self.n_adjoint_builds,
            "estimate_lane_runs": self.n_estimate_lane_runs,
            "estimate_lanes": self.n_estimate_lanes,
            "estimate_fallbacks": self.n_estimate_fallbacks,
        }

    # -- evaluation ---------------------------------------------------------
    def evaluate(
        self, config: PrecisionConfig, strategy: str = ""
    ) -> EvaluatedCandidate:
        """Score one configuration (memoized by content)."""
        return self.evaluate_many([config], strategy)[0]

    def evaluate_many(
        self, configs: Sequence[PrecisionConfig], strategy: str = ""
    ) -> List[EvaluatedCandidate]:
        """Score a pool of configurations, preserving order.

        Configurations already scored (this run) are served from the
        memo; the rest go through :meth:`_compute_many` — the hook the
        parallel evaluator overrides to fan the pool out over worker
        processes.  Results merge deterministically: indices are
        assigned in submission order regardless of which worker finished
        first.
        """
        self.prepare()
        keys = [config_key(c) for c in configs]
        fresh: "Dict[str, PrecisionConfig]" = {}
        memo_hits = 0
        for c, key in zip(configs, keys):
            if key in self.memo:
                self.n_memo_hits += 1
                memo_hits += 1
            elif key not in fresh:
                fresh[key] = c
        if memo_hits:
            obs_metrics.REGISTRY.counter(
                "repro_search_memo_hits_total",
                "candidate evaluations served from the evaluator memo",
            ).inc(memo_hits)
        if fresh:
            t0 = time.perf_counter()
            with obs_trace.span(
                "search.batch",
                k=len(fresh),
                memo_hits=memo_hits,
                strategy=strategy,
            ):
                computed = self._compute_many(list(fresh.values()))
            obs_metrics.REGISTRY.histogram(
                "repro_search_batch_seconds",
                "latency of one computed candidate batch",
            ).observe(time.perf_counter() - t0)
            obs_metrics.REGISTRY.counter(
                "repro_search_evaluations_total",
                "candidate configurations computed (not memoized)",
            ).inc(len(fresh))
            for key, cand in zip(fresh, computed):
                cand.index = len(self.history)
                cand.strategy = strategy
                self.memo[key] = cand
                self.history.append(cand)
                self.n_computed += 1
            if self.checkpoint is not None:
                self.checkpoint(self)
        return [self.memo[key] for key in keys]

    # -- computation --------------------------------------------------------
    def _compute_many(
        self, configs: Sequence[PrecisionConfig]
    ) -> List[EvaluatedCandidate]:
        """Serial pool computation (overridden by ParallelEvaluator).

        The config-batched path scores the whole pool — K ≥ 2 configs ×
        N validation points — through one execution of the compiled
        counting lane kernel, and estimates it — any K configs × the
        input sweep — through one execution of the compiled config-lane
        adjoint.  The per-candidate path (``config_batch=False``,
        kernels or pools the lanes cannot express) applies, compiles
        and runs each configuration separately.  Scores are
        bit-identical.
        """
        self.prepare()
        before = adjoint_builds()
        try:
            measured = self._measure_pool(configs)
            estimates = self._estimate_pool(configs)
            out = []
            for config, m, est in zip(configs, measured, estimates):
                mixed = None
                if m is None or (self.samples is not None and est is None):
                    mixed = (
                        apply_precision(self.fn, config)
                        if config
                        else self.fn
                    )
                if m is None:
                    m = self._measure(config, mixed)
                if self.samples is not None and est is None:
                    est = self._estimate(mixed)
                out.append(self._finish(config, m[0], m[1], est))
            return out
        finally:
            self.n_adjoint_builds += adjoint_builds() - before

    def _measure_pool(
        self, configs: Sequence[PrecisionConfig]
    ) -> List[Optional[Tuple[List[float], float]]]:
        """``(point errors, cycles)`` per config from one counting lane
        execution for pools of two or more; ``None`` entries go
        per-candidate."""
        refs = self.references
        out: List[Optional[Tuple[List[float], float]]] = [
            None if c else ([0.0 for _ in refs], sum(r.cost for r in refs))
            for c in configs
        ]
        runner = self.pool_runner()
        pool = [c for c in configs if c]
        if runner is None or len(pool) < 2:
            # one configuration runs at least as fast as compiled
            # scalar code, and far faster in the per-point layout
            return out
        try:
            values, costs = runner(pool, self.points)
        except ConfigLoweringError:
            LANE_FALLBACKS.inc()
            self.n_pool_fallbacks += 1
            return out
        self.n_pool_runs += 1
        self.n_pool_lanes += len(pool)
        lanes = iter(range(len(pool)))
        for i, config in enumerate(configs):
            if not config:
                continue
            lane = next(lanes)
            errors = [
                abs(ref.value - float(values[lane, j]))
                for j, ref in enumerate(refs)
            ]
            cycles = 0.0
            for j in range(len(self.points)):
                cycles += float(costs[lane, j])
            out[i] = (errors, cycles)
        return out

    def _estimate_pool(
        self, configs: Sequence[PrecisionConfig]
    ) -> List[Optional[float]]:
        """Aggregated estimated error per config — sweep-cache hits, the
        rest from one config-lane execution of the baseline adjoint;
        ``None`` entries go per-candidate (or there is no sweep)."""
        out: List[Optional[float]] = [None] * len(configs)
        if self.samples is None:
            return out
        lanes = self.estimate_lanes()
        if lanes is None:
            if self.config_batch:
                self.n_estimate_fallbacks += 1
            return out
        facade, args = lanes
        keys: List[Optional[str]] = [None] * len(configs)
        todo: List[int] = []
        for i, config in enumerate(configs):
            if self.cache is not None:
                mixed = (
                    apply_precision(self.fn, config) if config else self.fn
                )
                keys[i] = make_key(mixed, self.estimate_model, args)
                hit = self.cache.get(keys[i])
                if hit is not None:
                    out[i] = self._aggregate(hit.total_error)
                    continue
            todo.append(i)
        if not todo:
            return out
        rep = facade.execute_lanes([configs[i] for i in todo], *args)
        if rep is None:
            self.n_estimate_fallbacks += 1
            return out
        self.n_estimate_lane_runs += 1
        self.n_estimate_lanes += len(todo)
        for lane, i in enumerate(todo):
            out[i] = self._aggregate(rep.total_error[lane])
            if self.cache is not None:
                self.cache.put(keys[i], rep.report(lane))
        return out

    def _measure(
        self, config: PrecisionConfig, mixed_fn: N.Function
    ) -> Tuple[List[float], float]:
        """Per-candidate ``(point errors, cycles)``: compile and run the
        demoted program at every validation point."""
        run = counting_runner(mixed_fn, self.cost_model, self.approx)
        errors: List[float] = []
        cycles = 0.0
        for ref, args in zip(self.references, self.points):
            value, cost = run(args)
            errors.append(abs(ref.value - value))
            cycles += cost
        return errors, cycles

    def _estimate(self, mixed_fn: N.Function) -> float:
        """Per-candidate estimate: one sweep of the demoted program's
        own (memoized, cached) error-estimating adjoint."""
        batch = run_sweep(
            mixed_fn,
            samples=self.samples,
            fixed=self.fixed,
            model=self.estimate_model,
            cache=self.cache,
        )
        return self._aggregate(batch.total_error)

    def _aggregate(self, total_error) -> float:
        return float(self._agg(np.asarray(total_error, dtype=np.float64)))

    def _finish(
        self,
        config: PrecisionConfig,
        errors: List[float],
        cycles: float,
        estimated: Optional[float],
    ) -> EvaluatedCandidate:
        """Shared scoring tail: objective and candidate.

        Both computation paths funnel through here so the objective
        arithmetic (and therefore every float in the result) is the
        same code either way.
        """
        cycles_ref = sum(r.cost for r in self.references)
        actual = max(errors)
        if self.error_metric == "actual" or estimated is None:
            objective = actual
        elif self.error_metric == "estimate":
            objective = estimated
        else:  # "worst"
            objective = max(actual, estimated)
        return EvaluatedCandidate(
            key=config_key(config),
            config=config,
            actual_error=actual,
            point_errors=tuple(errors),
            estimated_error=estimated,
            error=objective,
            cycles=cycles,
            cycles_reference=cycles_ref,
        )

    def close(self) -> None:
        """Release resources (no-op for the serial evaluator)."""
        return None

"""Cost-aware Pareto precision-search subsystem (beyond the paper).

The paper's mixed-precision workflow is a single greedy demotion pass
driven by error contributions alone; its Discussion concedes the result
is input-dependent and says nothing about the error/performance
trade-off.  This subsystem treats tuning as what it is — a
multi-objective search over (error, modelled cycles):

* :mod:`~repro.search.evaluate` — :class:`CandidateEvaluator` scores a
  configuration by actually executing it (actual error + counted
  cycles, via :mod:`repro.tuning.validate`) and, when an input
  distribution is given, by a distribution-robust estimated error from
  the batched sweep engine (content-addressed cache included).  Whole
  proposal pools score in one pass through the compile-once
  config-batched lane kernel (``repro.codegen``) and estimate in one
  pass through the search's one error-estimating adjoint, compiled in
  config-lane form — bit-identical to the per-candidate path;
* :mod:`~repro.search.strategies` — the :class:`SearchStrategy`
  interface and registry: the paper's greedy pass as a baseline
  adapter, Precimonious-style delta debugging, simulated annealing with
  random restarts (exhaustive enumeration as the small-kernel
  fallback), lockstep population annealing proposing whole generations,
  and plain exhaustive search;
* :mod:`~repro.search.parallel` — :class:`ParallelEvaluator` fans
  candidate pools out over forked worker processes as contiguous config
  blocks, bit-identical to the serial path, with compiled-estimator
  construction memoized per worker;
* :mod:`~repro.search.pareto` — :class:`ParetoFront` with dominance
  pruning and per-candidate provenance;
* :mod:`~repro.search.api` — the :func:`search` driver and
  :class:`SearchResult`;
* :mod:`~repro.search.scenario` — per-app :class:`SearchScenario`
  bundles backing the ``python -m repro search --kernel <app>`` CLI
  (``python -m repro.search`` survives as a deprecated alias);
* :mod:`~repro.search.store` — :class:`RunStore`: content-addressed
  on-disk persistence of run metadata, evaluation history, and Pareto
  fronts, with atomic checkpoints and crash-safe, bit-identical resume
  (``search(..., store=, resume=)``);
* :mod:`~repro.search.orchestrator` — :class:`SearchOrchestrator`:
  durable multi-scenario search plans over a shared store with
  estimator-memo warm-start and cross-run comparison reporting
  (``python -m repro plan --plan plan.json --store runs/``).

The canonical entry point is :meth:`repro.session.Session.search` /
``session.plan`` / ``session.runs``; :func:`repro.search.search`
remains as a deprecated wrapper over a default session (removal 2.0).
"""

from repro.search.api import SearchResult, search, search_run_id
from repro.search.evaluate import (
    CandidateEvaluator,
    EvaluatedCandidate,
    config_key,
)
from repro.search.orchestrator import (
    PlanEntry,
    PlanRun,
    SearchOrchestrator,
    shard_entries,
)
from repro.search.parallel import ParallelEvaluator
from repro.search.pareto import FrontPoint, ParetoFront, dominates, union_fronts
from repro.search.scenario import SearchScenario
from repro.search.store import RunStore
from repro.search.strategies import (
    DEFAULT_STRATEGIES,
    STRATEGIES,
    SearchProblem,
    SearchStrategy,
    get_strategy,
    register_strategy,
)

__all__ = [
    "CandidateEvaluator",
    "DEFAULT_STRATEGIES",
    "EvaluatedCandidate",
    "FrontPoint",
    "ParallelEvaluator",
    "ParetoFront",
    "PlanEntry",
    "PlanRun",
    "RunStore",
    "STRATEGIES",
    "SearchOrchestrator",
    "SearchProblem",
    "SearchResult",
    "SearchScenario",
    "SearchStrategy",
    "config_key",
    "dominates",
    "get_strategy",
    "register_strategy",
    "search_run_id",
    "search",
    "shard_entries",
    "union_fronts",
]

"""Parallel candidate evaluation over a fork-started worker pool.

Scoring a candidate is compile-and-run heavy (apply the precision
config, compile the counting variant, run the validation points, sweep
the input distribution), and strategies propose candidates in pools —
greedy ladders, delta-debugging partitions, exhaustive enumerations.
:class:`ParallelEvaluator` fans those pools out over a
``multiprocessing`` pool while keeping results **bit-identical** to the
serial path:

* workers are *forked* after :meth:`CandidateEvaluator.prepare`, so the
  parent's measured references and memoized compiled estimators
  (:mod:`repro.core.api`) are inherited copy-on-write — the
  per-process estimator memo then grows independently in each worker,
  i.e. compiled-adjoint construction is memoized per worker;
* each worker computes with exactly the same generated code and inputs
  as the serial evaluator would, so every float matches bit for bit;
* pools ship as contiguous config *blocks* — one lane execution of the
  inherited config-batched kernel per block, not one compile per
  config — and lane results are independent of the block split;
* results merge deterministically in submission order (blocks are
  consumed in dispatch order; evaluation indices are assigned by the
  parent).

Failure containment (none of it can change results — the fallback is
always the bit-identical serial recompute of the same block):

* a worker exception, a worker that *dies* (OOM kill, injected
  ``worker-kill`` fault), or a block that stalls past
  ``hang_timeout_s`` (per-block heartbeat through ``imap``) reaps the
  pool and recomputes the block serially in-process;
* the pool then **respawns** on the next computation — up to
  ``max_respawns`` times (counted in ``repro_worker_respawns_total``)
  — instead of the old permanent serial fallback; only after the
  respawn budget is exhausted does the evaluator stay serial;
* the ``worker.exec`` fault site is probed in the *parent* per
  dispatched block (fork-inherited counters diverge per process, so a
  child-side check would kill every worker at once); a drawn
  ``worker-kill`` poisons exactly one block, whose worker exits hard.

On platforms without the ``fork`` start method (or with ``workers <=
1``) the evaluator degrades to the serial path transparently.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import List, Optional, Sequence, Tuple

from repro import faults
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.search.evaluate import CandidateEvaluator, EvaluatedCandidate
from repro.tuning.config import PrecisionConfig

#: the evaluator the forked workers compute with (inherited at fork
#: time; compiled artifacts cannot be pickled, so initargs won't do)
_FORK_EVALUATOR: Optional[CandidateEvaluator] = None

#: default per-block heartbeat before a pool is declared hung
_DEFAULT_HANG_TIMEOUT_S = 120.0

_RESPAWNS = obs_metrics.REGISTRY.counter(
    "repro_worker_respawns_total",
    "worker pools rebuilt after a failure/hang",
)


class WorkerHangError(RuntimeError):
    """A worker block produced no result within the hang timeout."""


def _worker_compute_block(
    payload: Tuple[List[PrecisionConfig], bool],
) -> Tuple[List[EvaluatedCandidate], Tuple[int, ...]]:
    """Score one contiguous block of a proposal pool in a worker.

    Runs the *serial* pool computation — i.e. the config-batched lane
    engine when available — on the inherited evaluator: each worker
    lowers its block onto the compiled kernel it inherited at fork
    time, so a block of B configs costs one lane execution, not B
    compiles.  Lane results are independent of how the pool is split,
    so block results are bit-identical to the serial evaluator's.

    Also returns the block's cost-ledger deltas
    (:attr:`CandidateEvaluator.LEDGER`) — the worker's counter
    increments die with the fork, so the parent re-applies them to keep
    ``eval_stats()`` truthful under parallelism.

    ``payload`` is ``(configs, kill)``; a poisoned block (parent-side
    ``worker.exec`` fault draw) hard-kills this worker — ``os._exit``,
    no cleanup, no exception — the closest simulation of an OOM kill
    the parent's hang detection exists to survive.
    """
    configs, kill = payload
    if kill:
        os._exit(86)
    ev = _FORK_EVALUATOR
    assert ev is not None, "worker forked without evaluator"
    before = [getattr(ev, name) for name in ev.LEDGER]
    # worker attribution: the span's pid field identifies which forked
    # process scored this block (the inherited tracer appends to the
    # same O_APPEND trace file, one atomic line per record).  The
    # inherited thread-local span stack holds the *parent's* open spans
    # — stale in this process — so it is dropped before tracing here.
    tracer = obs_trace.current()
    if tracer is not None:
        tracer._stack().clear()
    with obs_trace.span("search.worker", k=len(configs)):
        out = CandidateEvaluator._compute_many(ev, configs)
    delta = tuple(
        getattr(ev, name) - b for name, b in zip(ev.LEDGER, before)
    )
    return out, delta


def _blocks(items: List[PrecisionConfig], n: int) -> List[List[PrecisionConfig]]:
    """Split into at most ``n`` near-equal contiguous blocks.

    Blocks are kept at two-plus configs where possible (fewer workers
    rather than smaller blocks): a single-config block would fall off
    the lane engine inside the worker and pay a per-candidate compile.
    """
    n = max(1, min(n, len(items) // 2 or 1))
    size, rem = divmod(len(items), n)
    out, start = [], 0
    for i in range(n):
        end = start + size + (1 if i < rem else 0)
        out.append(items[start:end])
        start = end
    return out


class ParallelEvaluator(CandidateEvaluator):
    """A :class:`CandidateEvaluator` whose pool computations fan out
    over ``workers`` forked processes.

    Accepts the same constructor arguments plus ``workers``,
    ``max_respawns`` (pool rebuilds allowed after failures; beyond it
    the evaluator stays serial) and ``hang_timeout_s`` (per-block
    heartbeat; ``REPRO_WORKER_TIMEOUT`` overrides the default).  Use
    as a context manager (or call :meth:`close`) to reap the pool.
    """

    def __init__(
        self,
        *args,
        workers: int = 2,
        max_respawns: int = 2,
        hang_timeout_s: Optional[float] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.workers = max(int(workers), 0)
        self.max_respawns = max(int(max_respawns), 0)
        if hang_timeout_s is None:
            env = os.environ.get("REPRO_WORKER_TIMEOUT")
            hang_timeout_s = (
                float(env) if env else _DEFAULT_HANG_TIMEOUT_S
            )
        #: per-block result deadline; <= 0 disables hang detection
        self.hang_timeout_s = float(hang_timeout_s)
        self._pool = None
        #: worker failures observed (exceptions, deaths, hangs)
        self._failures = 0
        #: pool rebuilds performed after a failure
        self.n_respawns = 0
        #: platform cannot fork (or pool construction failed hard)
        self._no_fork = False

    # -- pool lifecycle -----------------------------------------------------
    @property
    def parallel(self) -> bool:
        """Whether worker processes are actually in use."""
        return self._pool is not None

    @property
    def exhausted(self) -> bool:
        """Whether the respawn budget is spent (permanently serial)."""
        return self._no_fork or self._failures > self.max_respawns

    def _ensure_pool(self):
        global _FORK_EVALUATOR
        if self._pool is not None or self.workers < 2 or self.exhausted:
            return self._pool
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            self._no_fork = True  # no fork (e.g. Windows): serial
            return None
        # prepare() BEFORE forking: references and the reference
        # estimator compile once in the parent and are inherited by
        # every worker
        self.prepare()
        _FORK_EVALUATOR = self
        try:
            self._pool = ctx.Pool(processes=self.workers)
        except OSError:
            # construction itself failing (fd/process limits) is not a
            # worker crash — treat as a platform limit, stay serial
            self._pool = None
            self._no_fork = True
        finally:
            _FORK_EVALUATOR = None
        if self._pool is not None and self._failures > 0:
            # not the first spawn: this is a post-failure respawn
            self.n_respawns += 1
            _RESPAWNS.inc()
        return self._pool

    def close(self) -> None:
        """Drain and reap the worker pool (idempotent).

        Happy path is ``close()`` + ``join()``: in-flight worker blocks
        finish cleanly instead of being killed mid-write (a run-store
        checkpoint or sweep-cache put must never be interrupted by its
        own evaluator shutting down).  ``terminate()`` is reserved for
        :meth:`__del__` (interpreter teardown) and the failure path.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def _reap(self) -> None:
        """Kill the pool after a worker failure (state is suspect)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None
        except Exception:
            pass

    # -- telemetry ----------------------------------------------------------
    def eval_stats(self) -> dict:
        out = super().eval_stats()
        out["pool_respawns"] = self.n_respawns
        out["pool_worker_failures"] = self._failures
        return out

    # -- computation --------------------------------------------------------
    def _compute_many(
        self, configs: Sequence[PrecisionConfig]
    ) -> List[EvaluatedCandidate]:
        pool = self._ensure_pool() if len(configs) > 1 else None
        if pool is None:
            return super()._compute_many(configs)
        # ship config *blocks*: each worker lowers its whole block onto
        # the inherited compiled lane kernel in one go (per-candidate
        # shipping would pay one lane execution per config)
        blocks = _blocks(list(configs), self.workers)
        try:
            # the worker.exec fault site is drawn here, in the parent,
            # once per dispatched block: parent-side counters are the
            # globally deterministic ones (each fork would inherit its
            # own copy), and a worker-kill must poison exactly one
            # block, not one per worker
            payloads = []
            for block in blocks:
                spec = faults.check("worker.exec")
                payloads.append(
                    (block, spec is not None and spec.kind == "worker-kill")
                )
            with obs_trace.span(
                "search.parallel",
                k=len(configs),
                blocks=len(blocks),
                workers=self.workers,
            ):
                # imap delivers per-block results in dispatch order;
                # next(timeout) is the heartbeat that catches a dead
                # or wedged worker — a plain pool.map would block
                # forever on a lost task (Pool does not resubmit work
                # a dying worker held)
                it = pool.imap(_worker_compute_block, payloads)
                results = []
                timeout = (
                    self.hang_timeout_s
                    if self.hang_timeout_s > 0
                    else None
                )
                for _ in payloads:
                    try:
                        results.append(it.next(timeout))
                    except multiprocessing.TimeoutError:
                        raise WorkerHangError(
                            f"no worker result within "
                            f"{self.hang_timeout_s}s (dead or hung "
                            f"worker)"
                        ) from None
        except Exception:
            # a worker raised, died, or hung: the pool may have lost
            # processes or hold half-delivered results, so it is not
            # trustworthy anymore — reap it and recompute this block
            # in-process so the caller still gets its results.  The
            # next computation rebuilds the pool (bounded respawn);
            # past max_respawns the evaluator stays serial.
            self._failures += 1
            self._reap()
            return super()._compute_many(configs)
        with obs_trace.span("search.merge", blocks=len(blocks)):
            for _, delta in results:
                for name, d in zip(self.LEDGER, delta):
                    setattr(self, name, getattr(self, name) + d)
            return [cand for block, _ in results for cand in block]

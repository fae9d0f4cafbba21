"""The one request layer: a validated :class:`JobSpec` and :func:`execute`.

Every estimate / sweep / tune / analyze / search request — typed on
the ``python -m repro`` command line or POSTed to the serve job server
— becomes one frozen :class:`JobSpec` and runs through one
:func:`execute` onto the :class:`~repro.session.Session` methods.  So
both front ends accept and reject the same values, and each kind has
one JSON payload:

* ``kernel`` is the IR function name (``"kmeans_cost"``); the spec's
  ``kernel`` is the app scenario name (``"kmeans"``);
* there is no ``kind`` key — the job's wire record carries it;
* ``analyze`` and ``search`` payloads are ``AnalysisReport.to_dict()``
  and ``SearchResult.to_dict()``.

Server policy (queue, budget cap, deadlines, journal, fleet fan-out)
stays in :mod:`repro.serve.jobs`; CLI-only plumbing (run-store
``--resume``, tracing, text rendering) stays in :mod:`repro.cli`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Callable, Dict, Optional, Tuple

from repro.util.errors import ConfigError

#: request kinds, mirroring the Session workflow methods
KINDS = ("estimate", "sweep", "tune", "analyze", "search")

#: error models an estimate/sweep may name (``taylor``: the default)
MODELS = ("taylor", "adapt")

#: field → the request modes it applies to (a tune request is in
#: ``point tune`` or ``robust tune`` mode); any other mode rejects a
#: non-default value
_APPLIES = {
    "threshold": ("point tune", "robust tune", "analyze", "search"),
    "budget": ("search",),
    "strategies": ("search",),
    "seed": ("search",),
    "point": ("estimate", "point tune"),
    "robust": ("robust tune",),
    "aggregate": ("sweep", "robust tune"),
    "shards": ("search",),
    "fleet_workers": ("search",),
    "model": ("estimate", "sweep"),
    "demote_to": ("analyze",),
}


def _as_int(spec: "JobSpec", name: str, minimum: Optional[int]) -> None:
    value = getattr(spec, name)
    try:
        object.__setattr__(spec, name, int(value))
    except (TypeError, ValueError):
        raise ConfigError(
            f"{name} must be an integer, got {value!r}"
        ) from None
    if minimum is not None and getattr(spec, name) < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")


def _as_positive_float(spec: "JobSpec", name: str) -> None:
    try:
        value = float(getattr(spec, name))
    except (TypeError, ValueError):
        raise ConfigError(
            f"{name} must be a number, got {getattr(spec, name)!r}"
        ) from None
    object.__setattr__(spec, name, value)
    if not value > 0:
        raise ConfigError(f"{name} must be > 0, got {value!r}")


@dataclass(frozen=True)
class JobSpec:
    """A frozen, validated request — the unit of content identity.

    Follows the :class:`~repro.session.config.SessionConfig`
    discipline: plain JSON-expressible fields, validation on
    construction, a stable content hash (:attr:`job_id`).  Two
    requests that normalize to the same spec are the *same job*.
    A knob given to a kind that ignores it is rejected: silently
    dropping a knob would run a different job than the client asked
    for.
    """

    #: one of :data:`KINDS`
    kind: str
    #: app scenario name (``"blackscholes"``, ``"kmeans"``, ...)
    kernel: str
    #: error threshold (tune/analyze/search; ``None``: scenario default)
    threshold: Optional[float] = None
    #: evaluation budget (search; ``None``: scenario default)
    budget: Optional[int] = None
    #: strategy line-up (search; ``None``: session default)
    strategies: Optional[Tuple[str, ...]] = None
    #: RNG seed (search)
    seed: int = 0
    #: validation point index (estimate / point-mode tune)
    point: int = 0
    #: distribution-robust tuning over the scenario sweep (tune)
    robust: bool = False
    #: sweep/robust-tune aggregation name (``None``: worst case)
    aggregate: Optional[str] = None
    #: per-job wall-clock deadline in seconds (serve; ``None``: server
    #: default)
    timeout_s: Optional[float] = None
    #: fan a search out into N seed-varied shard runs executed by the
    #: distributed worker fleet (serve search; ``None``: no fan-out)
    shards: Optional[int] = None
    #: fleet worker processes for a sharded search (serve search;
    #: ``None`` with ``shards`` set: 2)
    fleet_workers: Optional[int] = None
    #: error model, one of :data:`MODELS` (estimate/sweep; ``None``:
    #: Taylor, Eq. 1)
    model: Optional[str] = None
    #: demotion target the analysis tests against, ``f16``/``f32``
    #: (analyze; ``None``: session default)
    demote_to: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(
                f"job kind must be one of {list(KINDS)}, "
                f"got {self.kind!r}"
            )
        if not isinstance(self.kernel, str) or not self.kernel:
            raise ConfigError(
                f"kernel must be an app scenario name, got {self.kernel!r}"
            )
        object.__setattr__(self, "robust", bool(self.robust))
        _as_int(self, "seed", None)
        _as_int(self, "point", 0)
        for name in ("budget", "shards", "fleet_workers"):
            if getattr(self, name) is not None:
                _as_int(self, name, 1)
        for name in ("threshold", "timeout_s"):
            if getattr(self, name) is not None:
                _as_positive_float(self, name)
        if self.strategies is not None:
            if isinstance(self.strategies, str):
                raise ConfigError(
                    "strategies must be a sequence of names, not a "
                    f"bare string — got {self.strategies!r}"
                )
            object.__setattr__(
                self, "strategies", tuple(self.strategies)
            )
            bad = [s for s in self.strategies if not isinstance(s, str)]
            if bad:
                raise ConfigError(
                    f"strategies must be names (str), got {bad!r}"
                )
        if self.aggregate is not None:
            if not isinstance(self.aggregate, str):
                raise ConfigError(
                    f"aggregate must be a name, got {self.aggregate!r}"
                )
            from repro.sweep.aggregate import resolve_aggregator

            resolve_aggregator(self.aggregate)
        if self.model not in (None, *MODELS):
            raise ConfigError(
                f"model must be one of {list(MODELS)}, got {self.model!r}"
            )
        if self.demote_to not in (None, "f16", "f32"):
            raise ConfigError(
                f"demote_to must be 'f16' or 'f32', got {self.demote_to!r}"
            )
        mode = self.kind
        if mode == "tune":
            mode = f"{'robust' if self.robust else 'point'} tune"
        for f in fields(self):
            modes = _APPLIES.get(f.name, (mode,))
            if getattr(self, f.name) != f.default and mode not in modes:
                raise ConfigError(
                    f"{f.name}= applies to {'/'.join(modes)} jobs, "
                    f"not {mode!r}"
                )
        if self.model == "taylor":
            # the default spelled out is the same job
            object.__setattr__(self, "model", None)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The full normalized field set (JSON-expressible)."""
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, raw: object) -> "JobSpec":
        """Build a spec from a wire payload.

        :raises ConfigError: non-mapping payloads, unknown keys, or
            invalid values (HTTP 400 at the API surface).
        """
        if not isinstance(raw, dict):
            raise ConfigError(
                f"job spec must be a JSON object, got "
                f"{type(raw).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(
                f"job spec: unknown keys {unknown} "
                f"(known: {sorted(known)})"
            )
        return cls(**raw)  # type: ignore[arg-type]

    @property
    def job_id(self) -> str:
        """Content-addressed job id.

        Explicit defaults and omitted fields normalize identically, so
        ``{"kind": "search", "kernel": "kmeans"}`` and the same spec
        with ``"seed": 0`` spelled out are one job.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True)
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return f"job-{digest[:16]}"

    # -- resolution ----------------------------------------------------------
    def scenario(self):
        """The app scenario this spec targets, checked against it.

        :raises UnknownNameError: unknown scenario name.
        :raises ConfigError: ``point`` out of range, or a sweep /
            robust tune on a scenario without an input sweep.
        """
        from repro.search.orchestrator import app_scenario

        scen = app_scenario(self.kernel)
        if self.kind in ("estimate", "tune") and not self.robust:
            if self.point >= len(scen.points):
                raise ConfigError(
                    f"point {self.point} out of range (scenario "
                    f"{self.kernel!r} has {len(scen.points)} "
                    f"validation points)"
                )
        if (self.kind == "sweep" or self.robust) and scen.samples is None:
            raise ConfigError(
                f"scenario {self.kernel!r} has no input sweep"
            )
        return scen

    def search_overrides(self) -> Dict[str, object]:
        """The :meth:`~repro.session.Session.search` keywords this
        spec sets — shared by the run, its run id and fleet entries."""
        overrides: Dict[str, object] = {"seed": self.seed}
        for name in ("threshold", "budget", "strategies"):
            if getattr(self, name) is not None:
                overrides[name] = getattr(self, name)
        return overrides


def execute(
    spec: JobSpec,
    session,
    *,
    resume: bool = True,
    on_batch: Optional[Callable[[int], None]] = None,
    on_result: Optional[Callable[[object], None]] = None,
) -> Dict[str, object]:
    """Run ``spec`` on ``session`` and return the kind's JSON payload.

    :param resume: searches resume a matching run from the session's
        run store (no effect without one); ``False`` recomputes it.
    :param on_batch: search hook, called with the computed-evaluation
        count after every computed batch (serve's cancel / deadline
        check).
    :param on_result: called with the live Session result (the object
        the payload serializes) — the CLI renders its text from it.
    :raises ConfigError: invalid for the target scenario, or a sharded
        search (those run on the serve worker fleet).
    """
    import numpy as np

    from repro.sweep.aggregate import resolve_aggregator

    if spec.shards or spec.fleet_workers:
        raise ConfigError(
            "sharded searches run on the serve worker fleet"
        )
    scen = spec.scenario()
    model = None
    if spec.model == "adapt":
        from repro.core.models import AdaptModel

        model = AdaptModel()
    threshold = (
        spec.threshold if spec.threshold is not None else scen.threshold
    )
    payload: Dict[str, object] = {"kernel": scen.kernel.ir.name}
    if spec.kind == "estimate":
        result = session.estimate_at(
            scen.kernel, scen.points[spec.point], model=model
        )
        payload.update(
            point=spec.point,
            value=result.value,
            total_error=result.total_error,
            per_variable=dict(result.per_variable),
        )
    elif spec.kind == "sweep":
        agg_name, agg = resolve_aggregator(spec.aggregate or "max")
        result = session.sweep(
            scen.kernel, scen.samples, fixed=scen.fixed, model=model
        )
        payload.update(
            n=result.n,
            backend=result.backend,
            from_cache=result.from_cache,
            aggregate=agg_name,
            total_error=float(agg(np.asarray(result.total_error))),
            per_variable={
                v: float(agg(np.asarray(a)))
                for v, a in result.per_variable.items()
            },
        )
    elif spec.kind == "tune":
        if spec.robust:
            aggregate = spec.aggregate or "max"
            result = session.tune(
                scen.kernel,
                threshold,
                samples=scen.samples,
                fixed=scen.fixed,
                aggregate=aggregate,
            )
            mode = f"robust [{aggregate}]"
        else:
            result = session.tune(
                scen.kernel, threshold, args=scen.points[spec.point]
            )
            mode = f"point {spec.point}"
        payload.update(
            threshold=threshold,
            mode=mode,
            configuration=result.config.describe(),
            demoted=list(result.demoted),
            estimated_error=result.estimated_error,
            ranking=[[v, e] for v, e in result.ranking],
        )
    elif spec.kind == "analyze":
        kwargs: Dict[str, object] = {}
        if spec.demote_to is not None:
            from repro.ir.types import DType

            kwargs["demote_to"] = DType(spec.demote_to)
        result = session.analyze(scen, threshold=threshold, **kwargs)
        payload.update(result.to_dict())
    else:
        result = session.search(
            spec.kernel,
            resume=resume and session.store is not None,
            on_batch=on_batch,
            **spec.search_overrides(),
        )
        payload.update(result.to_dict())
    if on_result is not None:
        on_result(result)
    return payload

"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can ``except ReproError`` to distinguish
library-level failures from genuine bugs.

User-facing validation errors additionally derive from the builtin
exception they historically were, so existing ``except ValueError`` /
``except TypeError`` / ``except KeyError`` callers keep working:

=========================  ===================  =========================
class                      also a               raised for
=========================  ===================  =========================
:class:`InputError`        ``TypeError``        undigestible/malformed
                                                user data (``digest_inputs``,
                                                validation-point shapes)
:class:`ConfigError`       ``ValueError``       invalid options or
                                                configuration (search knobs,
                                                plan validation, aggregator
                                                and sampler specs, prune
                                                criteria, ``SessionConfig``)
:class:`UnknownNameError`  ``ConfigError`` +    unknown registered names
                           ``KeyError``         (strategies, app scenarios,
                                                stored run ids)
:class:`StoreError`        ``RuntimeError``     run-store misuse (restore
                                                onto a warm evaluator,
                                                diffing incomplete runs)
:class:`InvalidRecordError` ``StoreError`` +    structurally invalid
                           ``ValueError``       stored records (history
                                                not a contiguous prefix)
=========================  ===================  =========================
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class FrontendError(ReproError):
    """The Python-subset frontend rejected the input program.

    Raised when a ``@kernel`` function uses a construct outside the
    supported DSL (e.g. nested function definitions, unsupported operators,
    early returns inside control flow).
    """


class TypeCheckError(ReproError):
    """Static type inference/checking of an IR function failed."""


class DifferentiationError(ReproError):
    """The AD transformation could not differentiate a construct."""


class ValidationError(ReproError):
    """Structural validation of an IR function failed.

    Indicates a malformed IR tree — usually a bug in a transformation pass
    rather than a user error.  User-facing surfaces report definite
    input mistakes (duplicate parameters, use before definition) as
    :class:`IRConfigError`, which is also a :class:`ConfigError`.
    """


class ExecutionError(ReproError):
    """Executing generated or interpreted code failed."""


class ExpectedFallback(ReproError):
    """A fast path cannot express this work; a slower path will.

    Signals a structural limitation, not a bug: callers catch it and
    take an equivalent path that produces the same numbers.  A traced
    span this exception leaves closes with ``status: "fallback"``
    rather than an error status (see :mod:`repro.obs.trace`).
    """


class InputError(ReproError, TypeError):
    """User-supplied data could not be interpreted.

    Raised for undigestible argument tuples (ragged nesting, ``None``
    or non-numeric elements, unsupported types) and malformed
    validation-point sequences.  Also a :class:`TypeError` for
    backwards compatibility.
    """


class ConfigError(ReproError, ValueError):
    """An option or configuration value is invalid.

    Covers search/tune knobs (error metrics, aggregator and sampler
    specs), plan validation, and :class:`repro.session.SessionConfig`
    construction.  Also a :class:`ValueError` for backwards
    compatibility.
    """


class IRConfigError(ValidationError, ConfigError):
    """An IR validation failure that is a user input mistake.

    Duplicate parameters and use-before-definition are errors in the
    *authored* kernel, not transformation bugs: deriving from both
    :class:`ValidationError` and :class:`ConfigError` keeps existing
    ``except ValidationError`` callers working while user-facing
    surfaces (CLI exit codes, serve HTTP status) treat them as
    invalid configuration.
    """


class UnknownNameError(ConfigError, KeyError):
    """A name was not found in a registry.

    Unknown search strategies, app scenarios, or stored run ids.  Also
    a :class:`KeyError` (and, via :class:`ConfigError`, a
    :class:`ValueError`) for backwards compatibility.
    """

    def __str__(self) -> str:  # KeyError quotes its repr; keep prose
        return Exception.__str__(self)


class StoreError(ReproError, RuntimeError):
    """A persistent run store was misused or is inconsistent.

    Restoring history onto a non-fresh evaluator, diffing runs that
    never completed.  (Invalid *option* values — a prune call without
    a criterion, a negative ``max_runs`` — are :class:`ConfigError`.)
    Also a :class:`RuntimeError` for backwards compatibility.
    """


class InvalidRecordError(StoreError, ValueError):
    """Stored evaluation records are structurally invalid.

    E.g. a restored history that is not a contiguous prefix of the
    deterministic evaluation order.  Also a :class:`ValueError` (this
    site historically raised one) on top of :class:`StoreError`.
    """


class AnalysisOutOfMemory(ReproError):
    """An analysis exceeded its configured memory budget.

    Used by the ADAPT baseline to emulate the paper's cluster OOM at large
    problem sizes without actually exhausting host memory.
    """

    def __init__(self, used_bytes: int, budget_bytes: int) -> None:
        super().__init__(
            f"analysis exceeded memory budget: used ~{used_bytes} bytes "
            f"of a {budget_bytes} byte budget"
        )
        self.used_bytes = used_bytes
        self.budget_bytes = budget_bytes

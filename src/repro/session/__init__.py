"""Session facade: shared resources + the whole workflow as methods.

* :class:`Session` — owns the estimator memo, sweep cache, run store,
  and default models; exposes ``estimate`` / ``sweep`` / ``tune`` /
  ``search`` / ``plan`` / ``runs`` (see :mod:`repro.session.session`);
* :class:`SessionConfig` — the frozen, JSON-serializable defaults with
  a stable content fingerprint (see :mod:`repro.session.config`);
* :class:`RunsView` — run-store list/compare/prune/diff, the object
  behind ``session.runs()`` and ``python -m repro runs`` (see
  :mod:`repro.session.runs`);
* :class:`JobSpec` + :func:`execute` — the one validated request type
  and its executor, shared by the CLI and the job server (see
  :mod:`repro.session.request`).

The legacy free functions (``repro.estimate_error``,
``repro.sweep_error``, ``repro.greedy_tune``, ``repro.robust_tune``,
``repro.search.search``) are deprecated thin wrappers constructing a
default session; they warn once per callsite and disappear in 2.0.
"""

from repro.session.config import SessionConfig
from repro.session.request import JobSpec, execute
from repro.session.runs import RunsView
from repro.session.session import Session

__all__ = ["JobSpec", "RunsView", "Session", "SessionConfig", "execute"]

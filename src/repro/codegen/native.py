"""Native bit-exact libm loops for lane execution.

Lane code (sweep batches, config lanes) calls transcendentals on whole
arrays.  NumPy's own ufuncs are not an option there: ``np.exp``,
``np.tanh``, ``np.arctan`` and ``np.log`` differ from ``math.*`` by an
ulp on some inputs, and error models of the form ``x - (float)x``
amplify a one-ulp difference.  The pure-Python alternative,
:func:`repro.codegen.runtime.exactwise`, is exact but pays one Python
call per element.

This module compiles one fixed C source — one tight loop per libm
intrinsic — with cffi (API mode) and the system C compiler, linked
against the same libm CPython's :mod:`math` calls, with
``-O2 -fno-fast-math -ffp-contract=off -fno-builtin`` so the compiler
neither fuses, reorders nor replaces a call.  Each loop returns how
many of its outputs are non-finite; only those elements are recomputed
through the scalar implementation, in flat order, because they are the
only ones where ``math.*`` raises (``ValueError``/``OverflowError``)
or may return a different NaN/inf — so results and exceptions stay bit
for bit what ``exactwise`` gives.

The library is built lazily on first use (never at import), cached
under ``$XDG_CACHE_HOME/repro-cheffp/native`` (default
``~/.cache/...``) keyed by the C source hash, the Python ABI and the
platform, and published with
:func:`repro.util.atomio.publish_exclusive`, so racing processes
publish it once and later processes only load it.  At load time every
loop is checked against ``math.*`` on a fixed probe vector.  When no
compiler is available, the build fails or the probe disagrees, the
``codegen.native_build`` span closes as an expected fallback and lane
code keeps the ``exactwise`` path: the fallback is observed (see
:func:`stats`), not configured.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import math
import os
import shutil
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.util import atomio
from repro.util.errors import ExpectedFallback

__all__ = ["NativeUnavailable", "available", "loops", "stats"]

#: unary intrinsics with a native loop, and the C expression of each
#: (``exp2`` is ``2.0 ** p`` in Python, i.e. ``pow(2.0, p)``)
_UNARY: Dict[str, str] = {
    name: f"{name}(x[i])"
    for name in ("sin", "cos", "tan", "asin", "acos", "atan", "sinh",
                 "cosh", "tanh", "erf", "erfc", "exp", "log", "log2")
}
_UNARY["exp2"] = "pow(2.0, x[i])"

_MODULE = "_repro_libm_loops"

_C_SOURCE = r"""
#include <math.h>
#include <stddef.h>

/* every loop returns the number of its non-finite outputs */
#define REPRO_UNARY(NAME, EXPR)                                         \
    static size_t loop_##NAME(const double *x, double *out, size_t n)  \
    {                                                                   \
        size_t bad = 0;                                                 \
        for (size_t i = 0; i < n; i++) {                                \
            double r = EXPR;                                            \
            out[i] = r;                                                 \
            bad += !isfinite(r);                                        \
        }                                                               \
        return bad;                                                     \
    }

%s

/* sx/sy are 1 for an array operand, 0 for a broadcast scalar */
static size_t loop_pow(const double *x, size_t sx, const double *y,
                       size_t sy, double *out, size_t n)
{
    size_t bad = 0;
    for (size_t i = 0; i < n; i++) {
        double r = pow(x[i * sx], y[i * sy]);
        out[i] = r;
        bad += !isfinite(r);
    }
    return bad;
}
""" % "\n".join(
    f"REPRO_UNARY({name}, {expr})" for name, expr in _UNARY.items()
)

_CDEF = "\n".join(
    [f"size_t loop_{name}(const double *, double *, size_t);"
     for name in _UNARY]
    + ["size_t loop_pow(const double *, size_t, const double *, size_t, "
       "double *, size_t);"]
)

#: no fast-math, no FMA contraction, no builtin folding/substitution:
#: every element is one call into the system libm, like ``math.*``
_CFLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-fno-builtin",
           "-fPIC")

_NATIVE_INTRINSICS = obs_metrics.REGISTRY.gauge(
    "repro_native_intrinsics",
    "1 when lane transcendentals run as native libm loops",
)
_RECOMPUTES = obs_metrics.REGISTRY.counter(
    "repro_native_scalar_recomputes_total",
    "non-finite native loop outputs recomputed through math.*",
)


class NativeUnavailable(ExpectedFallback):
    """The native loops cannot be built, loaded, or failed the probe;
    lane code keeps the per-element ``exactwise`` path."""


class _State(NamedTuple):
    """Outcome of the one load attempt of this process."""

    loops: Dict[str, Callable]
    build_s: float
    reason: Optional[str]


_LOCK = threading.Lock()
_STATE: Optional[_State] = None


def loops() -> Dict[str, Callable]:
    """Array implementations of the natively looped intrinsics.

    Maps intrinsic name (``sin`` ... ``log2``, ``exp2``, ``pow``) to a
    callable with :func:`~repro.codegen.runtime.exactwise` semantics.
    Empty when the native library is unavailable.  The first call
    builds or loads the library (thread-safe, once per process).
    """
    state = _STATE
    if state is None:
        state = _load()
    return state.loops


def available() -> bool:
    """Whether lane transcendentals run natively (loads on first use)."""
    return bool(loops())


def stats() -> Dict[str, object]:
    """Which path lane transcendentals take, without loading anything.

    ``state`` is ``"native"``, ``"fallback"`` (with ``reason``) or
    ``"not loaded"`` (no lane code has run yet); ``build_s`` is the
    time the build (or the load of the cached library) took;
    ``recomputes`` is the process-cumulative count of non-finite
    outputs recomputed through ``math.*``.
    """
    state = _STATE
    if state is None:
        state, name = _State({}, 0.0, None), "not loaded"
    else:
        name = "native" if state.loops else "fallback"
    return {
        "state": name,
        "available": bool(state.loops),
        "build_s": state.build_s,
        "recomputes": _RECOMPUTES.value,
        "reason": state.reason,
    }


# -- build and load ----------------------------------------------------------
def _load() -> _State:
    global _STATE
    with _LOCK:
        if _STATE is not None:
            return _STATE
        t0 = time.perf_counter()
        table: Dict[str, Callable] = {}
        reason: Optional[str] = None
        try:
            with obs_trace.span("codegen.native_build") as sp:
                try:
                    module, compiled = _open_library()
                    table = _lift_all(module)
                except NativeUnavailable:
                    raise
                except Exception as exc:
                    # compiler, loader or cffi failure: lanes must keep
                    # running, on the per-element path; the reason is
                    # reported through stats() and the span
                    raise NativeUnavailable(
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
                sp.set(compiled=compiled)
        except NativeUnavailable as exc:
            table, reason = {}, str(exc)
        _NATIVE_INTRINSICS.set(1 if table else 0)
        _STATE = _State(table, time.perf_counter() - t0, reason)
        return _STATE


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "repro-cheffp" / "native"


def _library_path() -> Path:
    """Cache path keyed by the C source, flags, ABI and platform."""
    import _cffi_backend

    # the extension suffix carries the interpreter's ABI tag (and, on
    # Linux, the architecture)
    ext = importlib.machinery.EXTENSION_SUFFIXES[0]
    key = hashlib.sha256(
        "\0".join(
            [_C_SOURCE, _CDEF, " ".join(_CFLAGS), ext, sys.platform,
             sys.implementation.cache_tag or "",
             str(_cffi_backend.__version__)]
        ).encode()
    ).hexdigest()[:16]
    return _cache_dir() / f"libm_loops-{key}{ext}"


def _open_library() -> Tuple[object, bool]:
    """Load the cached library, compiling it first when absent.

    A cached file that fails to load is quarantined and rebuilt once.
    Returns the extension module and whether this call ran the
    compiler.
    """
    path = _library_path()
    compiled = False
    if not path.is_file():
        _compile(path)
        compiled = True
    try:
        return _import(path), compiled
    except ImportError:
        if compiled:
            raise
        atomio.quarantine(path, reason="native library failed to load")
        _compile(path)
        return _import(path), True


def _compiler() -> List[str]:
    import shlex
    import sysconfig

    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if cc and shutil.which(cc[0]):
        return cc
    for name in ("cc", "gcc", "clang"):
        if shutil.which(name):
            return [name]
    raise NativeUnavailable("no C compiler found")


def _link_flags() -> List[str]:
    if sys.platform.startswith("linux"):
        return ["-shared"]
    if sys.platform == "darwin":
        return ["-bundle", "-undefined", "dynamic_lookup"]
    raise NativeUnavailable(f"unsupported platform {sys.platform}")


def _compile(target: Path) -> None:
    """Compile the loops and publish the library at ``target``.

    The compiler writes into a private work directory; the finished
    library is published with ``publish_exclusive``, so a process that
    loses the race keeps the winner's identical file.
    """
    import sysconfig

    import cffi

    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    ffi.set_source(_MODULE, _C_SOURCE, compiler_verbose=False)
    cmd = _compiler()
    link = _link_flags()
    target.parent.mkdir(parents=True, exist_ok=True)
    work = target.parent / f".build-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    work.mkdir()
    try:
        source = work / f"{_MODULE}.c"
        ffi.emit_c_code(str(source))
        built = work / f"{_MODULE}.so"
        proc = subprocess.run(
            [*cmd, *_CFLAGS, f"-I{sysconfig.get_paths()['include']}",
             str(source), "-o", str(built), *link, "-lm"],
            capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            raise NativeUnavailable(
                f"compiler exited {proc.returncode}: "
                f"{proc.stderr.strip()[-400:]}"
            )
        atomio.publish_exclusive(target, built.read_bytes())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _import(path: Path):
    loader = importlib.machinery.ExtensionFileLoader(_MODULE, str(path))
    spec = importlib.util.spec_from_file_location(
        _MODULE, str(path), loader=loader
    )
    if spec is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


# -- array wrappers ----------------------------------------------------------
_F64 = np.dtype(np.float64)


def _recompute(impl: Callable, out: np.ndarray, *cols) -> None:
    """Redo the non-finite outputs through the scalar ``impl``, in flat
    order, so ``math.*`` raises (or picks the NaN/inf) exactly as the
    per-element path does.  ``cols`` are flat inputs; a 1-element
    column is a broadcast scalar."""
    flat = out.reshape(-1)
    bad = np.flatnonzero(~np.isfinite(flat))
    _RECOMPUTES.inc(len(bad))
    for i in bad.tolist():
        flat[i] = impl(*[float(c[i if c.size > 1 else 0]) for c in cols])


def _lift_unary(loop: Callable, buf: Callable, impl: Callable) -> Callable:
    from repro.codegen.runtime import exactwise

    slow = exactwise(impl)

    def wrapped(x):
        if not isinstance(x, np.ndarray):
            return impl(x)
        if x.ndim == 0:
            return impl(x.item())
        if x.dtype is not _F64 or x.size == 0:
            return slow(x)
        x = np.ascontiguousarray(x)
        out = np.empty(x.shape)
        if loop(buf(x), buf(out), x.size):
            _recompute(impl, out, x.reshape(-1))
        return out

    wrapped.__name__ = getattr(impl, "__name__", "native")
    return wrapped


def _operand(a) -> Optional[np.ndarray]:
    """A float64 array view of one ``pow`` operand, or ``None`` when
    the operand is outside the native path (non-float64 arrays)."""
    if isinstance(a, np.ndarray):
        return a if a.dtype is _F64 else None
    if isinstance(a, (float, int)):
        return np.array(float(a))
    return None


def _lift_pow(loop: Callable, buf: Callable, impl: Callable) -> Callable:
    from repro.codegen.runtime import exactwise

    slow = exactwise(impl)

    def wrapped(x, y):
        if not (isinstance(x, np.ndarray) or isinstance(y, np.ndarray)):
            return impl(x, y)
        xa, ya = _operand(x), _operand(y)
        if xa is None or ya is None:
            return slow(x, y)
        if xa.ndim == 0 and ya.ndim == 0:
            return impl(xa.item(), ya.item())
        if xa.shape != ya.shape and xa.ndim and ya.ndim:
            xa, ya = np.broadcast_arrays(xa, ya)
        shape = xa.shape if xa.ndim else ya.shape
        if 0 in shape:
            return slow(x, y)
        xa = np.ascontiguousarray(xa).reshape(-1)
        ya = np.ascontiguousarray(ya).reshape(-1)
        out = np.empty(shape)
        n = out.size
        if loop(buf(xa), int(xa.size > 1), buf(ya), int(ya.size > 1),
                buf(out), n):
            _recompute(impl, out, xa, ya)
        return out

    wrapped.__name__ = getattr(impl, "__name__", "native")
    return wrapped


def _lift_all(module) -> Dict[str, Callable]:
    """Probe the loaded module, then wrap every loop with exactwise
    semantics."""
    from repro.frontend.intrinsics import INTRINSICS

    ffi, lib = module.ffi, module.lib
    dbl = ffi.typeof("double[]")
    from_buffer = ffi.from_buffer

    def buf(a):
        return from_buffer(dbl, a)

    _probe(lib, buf)

    table: Dict[str, Callable] = {
        name: _lift_unary(getattr(lib, f"loop_{name}"), buf,
                          INTRINSICS[name].impl)
        for name in _UNARY
    }
    table["pow"] = _lift_pow(lib.loop_pow, buf, INTRINSICS["pow"].impl)
    return table


# -- load-time probe ---------------------------------------------------------
def _scatter(n: int, salt: float) -> np.ndarray:
    """``n`` fixed, well-spread values in ``[-1, 1]`` (a sine hash: no
    random generator needed for a probe that must never change)."""
    return np.sin(np.arange(1, n + 1) * salt)


def _probe_inputs(name: str) -> np.ndarray:
    """Fixed probe vector per intrinsic: the special values, wide
    magnitudes of both signs, and dense samples of its domain."""
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0,
               -1.0, 0.5, -0.5, 1e300, -1e300, 709.7, 710.0, -745.0,
               1024.0, -1074.5, math.inf, -math.inf, math.nan]
    wide = np.sign(_scatter(128, 12.9898)) * 10.0 ** (
        300.0 * _scatter(128, 78.233))
    domain = {"asin": 1.0, "acos": 1.0, "erf": 6.0, "erfc": 27.0,
              "exp": 745.0, "exp2": 1075.0, "sinh": 711.0, "cosh": 711.0,
              "tanh": 20.0, "log": 1e3, "log2": 1e3}.get(name, 10.0)
    return np.concatenate([special, wide, domain * _scatter(384, 37.719)])


def _probe(lib, buf: Callable) -> None:
    """Check every raw loop against its scalar ``math.*`` implementation.

    Wherever a loop's output is finite, the scalar implementation must
    return the same bits without raising — the invariant the wrappers
    rely on to recompute only non-finite outputs.

    :raises NativeUnavailable: on the first disagreement.
    """
    from repro.frontend.intrinsics import INTRINSICS

    cases: List[Tuple[str, Tuple[np.ndarray, ...]]] = [
        (name, (_probe_inputs(name),)) for name in _UNARY
    ]
    base = _probe_inputs("pow")
    base = np.concatenate([np.sign(base) * np.abs(base) ** 0.25,
                           [-8.0, -8.0, 0.0, 0.0, 2.0]])
    expo = 40.0 * _scatter(base.size, 53.129)
    expo[-5:] = [1.0 / 3.0, 3.0, -1.0, 0.5, 1023.5]
    cases.append(("pow", (base, expo)))
    for name, args in cases:
        impl = INTRINSICS[name].impl
        out = np.empty(args[0].size)
        if name == "pow":
            lib.loop_pow(buf(args[0]), 1, buf(args[1]), 1, buf(out),
                         out.size)
        else:
            getattr(lib, f"loop_{name}")(buf(args[0]), buf(out), out.size)
        bits = out.view(np.int64)
        for i in np.flatnonzero(np.isfinite(out)).tolist():
            vals = tuple(float(a[i]) for a in args)
            try:
                ref = impl(*vals)
            except (ValueError, OverflowError) as exc:
                raise NativeUnavailable(
                    f"probe: {name}{vals} is finite natively, "
                    f"math raises {type(exc).__name__}"
                ) from None
            if np.float64(ref).view(np.int64) != bits[i]:
                raise NativeUnavailable(
                    f"probe: {name}{vals} = {out[i]!r} natively, "
                    f"{ref!r} via math"
                )

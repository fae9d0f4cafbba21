"""Runtime bindings for generated code.

Generated source refers to intrinsic implementations through ``_i_<name>``
globals and to precision rounding through ``_c32``/``_c16``.  Two binding
modes exist:

* **direct** — ``_i_sin`` is ``math.sin`` etc.; fastest, used by CHEF-FP
  analysis code and plain application runs (with optional FastApprox
  substitutions).
* **dispatch** — shims that accept either native floats or the ADAPT
  baseline's taping ``AdFloat``; this is what lets the ADAPT baseline run
  the *same* generated primal code through operator overloading, exactly
  like CoDiPack types flowing through templated C++ in the paper.

Lane code (sweep batches and config lanes, :func:`batch_bindings` /
:func:`config_lane_bindings`) binds exact IEEE operations to their
ufuncs and libm transcendentals to the native loops of
:mod:`repro.codegen.native`, which are bitwise identical to ``math.*``.
:func:`exactwise` lifts everything else elementwise: FastApprox
variants, user-bound callables, and — where the native library cannot
be built or fails its load-time probe — the transcendentals too.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

import numpy as np

from repro.codegen import native
from repro.fp.precision import round_f16, round_f32
from repro.frontend.intrinsics import INTRINSICS


def direct_bindings(approx: Optional[Set[str]] = None) -> Dict[str, object]:
    """Globals for direct (native-float) execution.

    :param approx: intrinsic names to replace with FastApprox variants.
    """
    g: Dict[str, object] = {"__builtins__": {"range": range, "int": int,
                                             "float": float, "abs": abs,
                                             "len": len, "bool": bool}}
    approx = approx or set()
    for name, info in INTRINSICS.items():
        impl = info.impl
        if name in approx and info.approx_impl is not None:
            impl = info.approx_impl
        g[f"_i_{name}"] = impl
    g["_c32"] = round_f32
    g["_c16"] = round_f16
    return g


def _batch_fmax(x, y):
    """Elementwise mirror of the scalar ``max(x, y)``.

    NOT ``np.fmax``: that ignores NaNs, while Python's ``max`` — the
    scalar-path implementation — propagates a NaN first argument
    (``max(nan, b)`` returns ``b if b > nan else nan`` → nan).  The
    comparison+select reproduces the scalar selection exactly.
    """
    return np.where(np.asarray(y) > np.asarray(x), y, x)


def _batch_fmin(x, y):
    """Elementwise mirror of the scalar ``min(x, y)`` (see _batch_fmax)."""
    return np.where(np.asarray(y) < np.asarray(x), y, x)


#: intrinsics whose numpy equivalent is *exact* (IEEE-defined
#: operations / pure selections, bitwise-identical to the scalar
#: implementations — NaN cases included)
_NP_EXACT_INTRINSICS: Dict[str, Callable] = {
    "sqrt": np.sqrt,
    "fabs": np.fabs,
    "fmax": _batch_fmax,
    "fmin": _batch_fmin,
    "floor": np.floor,
    "ceil": np.ceil,
    "copysign": np.copysign,
}


def exactwise(impl: Callable) -> Callable:
    """Lift a scalar function to arrays by calling it per element.

    Slower than a ufunc, but **bitwise identical** to the scalar path —
    numpy's SIMD transcendentals (``np.exp`` etc.) may differ from
    ``math.exp`` by an ulp, and error models of the form
    ``x - (float)x`` amplify a one-ulp input difference catastrophically.
    It defines the semantics the native loops reproduce, and it runs
    where they do not: FastApprox variants and user-bound callables,
    the native loops' recompute of non-finite outputs, and every
    transcendental on machines without the native library.

    Works for any broadcast shape: the input-sweep engine feeds 1-D
    batches, the config-batched engine ``(K, N)`` lane grids.
    """

    def wrapped(*args):
        if not any(isinstance(a, np.ndarray) for a in args):
            return impl(*args)
        bargs = np.broadcast_arrays(*[np.asarray(a) for a in args])
        if bargs[0].ndim == 0:
            return impl(*[a.item() for a in bargs])
        shape = bargs[0].shape
        flat = [a.ravel().tolist() for a in bargs]
        out = [impl(*vals) for vals in zip(*flat)]
        return np.asarray(out, dtype=np.float64).reshape(shape)

    wrapped.__name__ = getattr(impl, "__name__", "exactwise")
    return wrapped


def _batch_c32(x):
    """Round to binary32 storage, elementwise, kept in f64."""
    if isinstance(x, np.ndarray):
        return x.astype(np.float32).astype(np.float64)
    return round_f32(float(x))


def _batch_c16(x):
    if isinstance(x, np.ndarray):
        return x.astype(np.float16).astype(np.float64)
    return round_f16(float(x))


def _batch_ci64(x):
    """C-style truncating int cast, elementwise (both ``int()`` and
    ``astype(int64)`` truncate toward zero)."""
    if isinstance(x, np.ndarray):
        return x.astype(np.int64)
    return int(x)


def _batch_step_ge(x, y):
    return np.where(np.greater_equal(x, y), 1.0, 0.0)


def batch_bindings() -> Dict[str, object]:
    """Globals for NumPy-vectorized (batch) execution.

    Exact IEEE operations bind to their ufuncs; libm transcendentals to
    the native loops (:func:`repro.codegen.native.loops`, built on
    first use), everything else — and the transcendentals when the
    native library is unavailable — goes through :func:`exactwise`, so
    every lane reproduces the scalar path bit-for-bit.  The arithmetic
    between calls — the bulk of an adjoint — is plain vectorized numpy.
    """
    g: Dict[str, object] = {"__builtins__": {"range": range, "int": int,
                                             "float": float, "abs": abs,
                                             "len": len, "bool": bool}}
    native_loops = native.loops()
    for name, info in INTRINSICS.items():
        impl = _NP_EXACT_INTRINSICS.get(name)
        if name == "step_ge":
            impl = _batch_step_ge
        if impl is None:
            impl = native_loops.get(name) or exactwise(info.impl)
        g[f"_i_{name}"] = impl
    g["_c32"] = _batch_c32
    g["_c16"] = _batch_c16
    g["_ci64"] = _batch_ci64
    g["_where"] = np.where
    g["_land"] = np.logical_and
    g["_lor"] = np.logical_or
    g["_lnot"] = np.logical_not
    return g


class LaneSelector:
    """Per-lane rounding decision of one rounding site.

    Holds the per-lane rounding codes (0 = keep, 1 = binary32, 2 =
    binary16) as a ``(K, 1)`` column — so lane parameters broadcast
    against the batched-input axis — plus boolean masks per precision.
    ``None`` is used instead of a selector when no lane rounds at all —
    the fast path the generated code's ``_rnd`` binding short-circuits
    on.
    """

    __slots__ = ("codes", "m32", "m16", "any32", "any16")

    def __init__(self, codes: np.ndarray) -> None:
        self.codes = codes.reshape(-1, 1)
        self.m32 = self.codes == 1
        self.m16 = self.codes == 2
        self.any32 = bool(self.m32.any())
        self.any16 = bool(self.m16.any())

    @classmethod
    def from_codes(cls, codes: np.ndarray) -> Optional["LaneSelector"]:
        """Build from per-lane codes (0 = keep, 1 = f32, 2 = f16)."""
        if not codes.any():
            return None
        return cls(np.asarray(codes))


def lane_round(sel: Optional[LaneSelector], x):
    """Round ``x`` per config lane according to ``sel``.

    ``x`` is a scalar or an array broadcastable against ``(K, 1)`` lane
    masks; lanes whose selector code is 0 pass through bit-unchanged,
    the others round exactly like the scalar path's ``_c32``/``_c16``:
    the astype narrowings are IEEE round-to-nearest-even — the same
    rounding ``round_f32``/``round_f16`` perform — and the widening
    back to f64 (implicit in ``np.where``'s type promotion) is exact.
    """
    if sel is None:
        return x
    if isinstance(x, (float, int)):
        # lane-uniform value: three rounded candidates, gathered by code
        xv = float(x)
        return np.array([xv, round_f32(xv), round_f16(xv)])[sel.codes]
    xa = np.asarray(x, dtype=np.float64)
    if xa.ndim == 0:
        xv = float(xa)
        return np.array([xv, round_f32(xv), round_f16(xv)])[sel.codes]
    out = x
    if sel.any32:
        out = np.where(sel.m32, xa.astype(np.float32), out)
    if sel.any16:
        out = np.where(sel.m16, xa.astype(np.float16), out)
    return out


def config_lane_bindings(
    approx: Optional[Set[str]] = None,
) -> Dict[str, object]:
    """Globals for config-batched (precision-parameterized) execution.

    :func:`batch_bindings` plus the per-lane rounding primitive the
    config-lane code generator emits at every potential demotion site.

    :param approx: intrinsic names to run as their FastApprox variants —
        lifted through :func:`exactwise` so every lane reproduces the
        scalar approximate implementation bit for bit (mirrors
        ``direct_bindings(approx=...)``).
    """
    g = batch_bindings()
    for name in approx or ():
        info = INTRINSICS[name]
        if info.approx_impl is not None:
            g[f"_i_{name}"] = exactwise(info.approx_impl)
    g["_rnd"] = lane_round
    return g


def dispatch_bindings() -> Dict[str, object]:
    """Globals for value-type-generic execution (floats or AdFloats).

    The shims are built lazily to avoid a circular import with
    :mod:`repro.adapt`.
    """
    from repro.adapt.advalues import AdFloat

    g: Dict[str, object] = {"__builtins__": {"range": range, "int": int,
                                             "float": float, "abs": abs,
                                             "len": len, "bool": bool}}

    def make_shim(name: str, impl: Callable) -> Callable:
        def shim(*args):
            if any(isinstance(a, AdFloat) for a in args):
                return AdFloat.apply_intrinsic(name, args)
            return impl(*args)

        shim.__name__ = f"_i_{name}"
        return shim

    for name, info in INTRINSICS.items():
        g[f"_i_{name}"] = make_shim(name, info.impl)

    def c32(x):
        if isinstance(x, AdFloat):
            return x.round32()
        return round_f32(x)

    def c16(x):
        if isinstance(x, AdFloat):
            return x.round16()
        return round_f16(x)

    g["_c32"] = c32
    g["_c16"] = c16
    return g

"""Native libm loops for lane execution, and the structural IR clone.

The contract under test is the one :func:`repro.codegen.runtime.exactwise`
defines: for every natively looped intrinsic, the array result is
bitwise identical to calling ``math.*`` per element — and where
``math.*`` raises for some element, the native path raises the same
exception type.  Plus the machinery around it: the unavailable-library
fallback (same search results), the once-per-process build, the
quarantine of a corrupt cached library, and the observability hooks.
"""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest

from repro.codegen import native, runtime
from repro.codegen.compile import clear_config_kernel_cache
from repro.core.api import clear_estimator_memo
from repro.frontend.intrinsics import INTRINSICS
from repro.ir import builder as b
from repro.ir import nodes as N
from repro.ir.fingerprint import ir_fingerprint
from repro.ir.types import ArrayType, DType
from repro.obs import metrics as obs_metrics
from repro.obs import trace

pytestmark = pytest.mark.skipif(
    not native.available(),
    reason=f"native loops unavailable: {native.stats()['reason']}",
)

UNARY = sorted(name for name in native.loops() if name != "pow")

SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    -2.2250738585072014e-308, 1.0, -1.0, 1.0000000000000002,
    -1.0000000000000002, 0.5, 1e300, -1e300, 709.78, 710.0, -745.2,
    1024.0, -1074.5, 1e-300, math.inf, -math.inf, math.nan,
]


def _outcome(fn, *args):
    """Result bits (and shape), or the exception type raised."""
    try:
        out = fn(*args)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return ("raises", type(exc))
    if isinstance(out, np.ndarray):
        assert out.dtype == np.float64
        return ("array", out.shape, out.view(np.int64).tolist())
    return ("scalar", type(out), np.float64(out).view(np.int64).item())


def _assert_same(name, *args):
    ref = runtime.exactwise(INTRINSICS[name].impl)
    assert _outcome(native.loops()[name], *args) == _outcome(ref, *args)


def _random(name, shape, rng):
    scale = {"asin": 1.0, "acos": 1.0, "erfc": 27.0, "exp": 700.0,
             "exp2": 1000.0, "sinh": 700.0, "cosh": 700.0}.get(name, 20.0)
    x = rng.uniform(-scale, scale, shape)
    if name in ("log", "log2"):
        x = np.abs(x) * 10.0 ** rng.uniform(-300, 300, shape)
    return x


class TestBitwiseAgreement:
    @pytest.mark.parametrize("name", UNARY)
    def test_unary_random_arrays(self, name, rng):
        for shape in ((257,), (4, 63), (3, 1), (1, 5)):
            x = _random(name, shape, rng)
            _assert_same(name, x)
            ref = runtime.exactwise(INTRINSICS[name].impl)(x)
            assert ref.shape == shape

    @pytest.mark.parametrize("name", UNARY)
    def test_unary_special_values(self, name):
        for v in SPECIAL:  # one element: the exception of that element
            _assert_same(name, np.array([v]))
        # the whole grid: the first raising element in flat order
        _assert_same(name, np.array(SPECIAL))
        finite = [v for v in SPECIAL if math.isfinite(v)]
        _assert_same(name, np.array(finite).reshape(1, -1))

    @pytest.mark.parametrize("name", UNARY)
    def test_unary_scalar_zero_d_and_odd_layouts(self, name, rng):
        for v in (0.25, np.float64(0.25), np.array(0.25), 1):
            _assert_same(name, v)
        x = _random(name, (6, 8), rng)
        _assert_same(name, x.T)  # non-contiguous
        _assert_same(name, x[:, ::3])  # strided
        _assert_same(name, np.zeros((0, 3)))  # empty
        _assert_same(name, np.arange(-3, 4))  # integer dtype

    def test_pow_random_and_broadcast_shapes(self, rng):
        x = np.abs(rng.normal(0.0, 3.0, (4, 50)))
        y = rng.uniform(-30.0, 30.0, (4, 50))
        _assert_same("pow", x, y)  # (K, N) x (K, N)
        _assert_same("pow", x[:, :1], y[:1, :])  # (K, 1) x (1, N)
        _assert_same("pow", x, 2.0)  # array x python float
        _assert_same("pow", x, 3)  # array x python int
        _assert_same("pow", 2.0, y)  # python float x array
        _assert_same("pow", np.array(1.5), y)  # 0-d x array
        _assert_same("pow", x[0], np.float64(0.5))
        _assert_same("pow", np.array(2.0), np.array(0.5))  # 0-d x 0-d
        _assert_same("pow", 2.0, 0.5)  # plain scalars
        _assert_same("pow", -x, rng.integers(-4, 5, (4, 50)).astype(float))
        _assert_same("pow", x.T, y.T)

    def test_pow_special_grid(self):
        xs = SPECIAL + [-8.0, 2.0, -2.0]
        ys = SPECIAL + [1.0 / 3.0, -1.0, 3.0, 2.0, -2.0]
        for x in xs:
            for y in ys:
                _assert_same("pow", np.array([x]), np.array([y]))
        gx, gy = np.meshgrid(np.array(xs), np.array(ys))
        _assert_same("pow", gx, gy)
        # domain and overflow edges raise exactly like math.pow
        for x, y in ((0.0, -1.0), (-8.0, 1.0 / 3.0), (10.0, 400.0)):
            _assert_same("pow", np.array([1.0, x]), np.array([1.0, y]))

    def test_named_edges_raise_like_math(self):
        for name, v, exc in (("exp", 710.0, OverflowError),
                             ("log", 0.0, ValueError),
                             ("log", -1.0, ValueError),
                             ("exp2", 1024.0, OverflowError)):
            with pytest.raises(exc):
                native.loops()[name](np.array([0.5, v]))

    def test_lane_bindings_use_native_loops(self):
        g = runtime.batch_bindings()
        for name, fn in native.loops().items():
            assert g[f"_i_{name}"] is fn
        # exact ufuncs and approximations keep their own bindings
        assert g["_i_sqrt"] is np.sqrt
        approx = runtime.config_lane_bindings(approx={"exp"})
        assert approx["_i_exp"] is not native.loops()["exp"]


class TestObservability:
    def test_gauge_stats_and_recompute_counter(self):
        gauge = obs_metrics.REGISTRY.gauge("repro_native_intrinsics")
        assert gauge.value == 1
        before = native.stats()["recomputes"]
        out = native.loops()["exp"](np.array([0.0, math.inf, 1.0, math.nan]))
        assert out[1] == math.inf and math.isnan(out[3])
        assert native.stats()["recomputes"] == before + 2
        st = native.stats()
        assert st["state"] == "native" and st["available"] is True
        assert st["reason"] is None

    def test_session_stats_report_native_runtime(self):
        from repro.session import Session

        nat = Session().stats()["native_runtime"]
        assert nat["state"] == "native" and nat["build_s"] >= 0.0


@pytest.fixture
def unloaded(monkeypatch):
    """The native module as before its first use; restored afterwards."""
    monkeypatch.setattr(native, "_STATE", None)
    yield monkeypatch
    monkeypatch.undo()
    native._NATIVE_INTRINSICS.set(1 if native.available() else 0)


@pytest.fixture
def fresh_native(unloaded, tmp_path):
    """An unloaded native module over an empty cache directory."""
    unloaded.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path / "repro-cheffp" / "native"


def _assert_clean(cache_dir):
    files = sorted(p.name for p in cache_dir.iterdir())
    assert len(files) == 1 and files[0].startswith("libm_loops-"), files


class TestBuild:
    def test_racing_threads_build_once(self, fresh_native, monkeypatch):
        compiles = []
        real = native._compile

        def counting(target):
            compiles.append(threading.get_ident())
            real(target)

        monkeypatch.setattr(native, "_compile", counting)
        n = 4  # more threads than cores
        barrier = threading.Barrier(n)
        results = []

        def first_use():
            barrier.wait(timeout=60)
            results.append(native.loops())

        threads = [threading.Thread(target=first_use) for _ in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(compiles) == 1
        assert len(results) == n and results[0]
        assert all(r is results[0] for r in results)
        _assert_clean(fresh_native)
        # a later process only loads the published library
        monkeypatch.setattr(native, "_STATE", None)
        assert native.available() and len(compiles) == 1

    def test_lost_publish_race_keeps_winner(self, fresh_native):
        path = native._library_path()
        native._compile(path)
        first = path.read_bytes()
        native._compile(path)  # the loser: publish_exclusive refuses
        assert path.read_bytes() == first
        _assert_clean(fresh_native)

    def test_corrupt_cached_library_is_quarantined_and_rebuilt(
        self, fresh_native
    ):
        path = native._library_path()
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a shared object")
        assert native.available()
        assert path.read_bytes() != b"not a shared object"
        assert (path.parent / "_quarantine" / path.name).is_file()

    def test_probe_disagreement_falls_back(self, unloaded):
        # a loop one ulp off math.* must never be bound
        unloaded.setattr(INTRINSICS["tan"], "impl",
                         lambda x: math.nextafter(math.tan(x), math.inf))
        assert native.loops() == {}
        assert native.stats()["reason"].startswith("probe: tan")

    def test_unavailable_closes_span_as_fallback(
        self, fresh_native, monkeypatch
    ):
        def no_compiler():
            raise native.NativeUnavailable("no C compiler found")

        monkeypatch.setattr(native, "_compiler", no_compiler)
        trace.enable(None)
        try:
            with trace.collect() as records:
                assert native.loops() == {}
        finally:
            trace.disable()
        (rec,) = [r for r in records if r["name"] == "codegen.native_build"]
        assert rec["status"] == "fallback"
        st = native.stats()
        assert st["state"] == "fallback" and "no C compiler" in st["reason"]
        assert obs_metrics.REGISTRY.gauge("repro_native_intrinsics").value == 0
        g = runtime.batch_bindings()
        assert g["_i_sin"].__name__ == "sin"  # exactwise(math.sin)
        assert g["_i_sin"](np.array([0.5]))[0] == math.sin(0.5)


def _run_searches():
    from repro.apps import arclength as arc
    from repro.apps import blackscholes as bs

    clear_config_kernel_cache()
    clear_estimator_memo()
    out = []
    for scen in (bs.search_scenario(n_points=2, n_samples=8),
                 arc.search_scenario(size=12, n_samples=8)):
        res = scen.run(seed=1, budget=8)
        assert res.stats["evaluator"]["estimate_lane_runs"] >= 1
        out.append((
            [(c.key, c.error, c.actual_error, c.estimated_error, c.cycles)
             for c in res.evaluations],
            [(p.key, p.error, p.cycles) for p in res.front.points],
            res.stats["native_runtime"]["state"],
        ))
    return out


def test_unavailable_library_gives_same_search_results(monkeypatch):
    native_run = _run_searches()
    assert {state for *_, state in native_run} == {"native"}

    def unavailable():
        raise native.NativeUnavailable("loader disabled")

    monkeypatch.setattr(native, "_STATE", None)
    monkeypatch.setattr(native, "_open_library", unavailable)
    try:
        fallback_run = _run_searches()
    finally:
        monkeypatch.undo()
        native._NATIVE_INTRINSICS.set(1 if native.available() else 0)
        clear_config_kernel_cache()
        clear_estimator_memo()
    assert {state for *_, state in fallback_run} == {"fallback"}
    assert [r[:2] for r in fallback_run] == [r[:2] for r in native_run]


# -- structural IR clone -------------------------------------------------------
def _mutables(x, acc):
    """ids of every node, list and dict reachable from ``x``."""
    if isinstance(x, (N.Expr, N.Stmt, N.Param, N.Function)):
        acc.add(id(x))
        for v in x.__dict__.values():
            _mutables(v, acc)
    elif isinstance(x, (list, dict)):
        acc.add(id(x))
        for v in (x.values() if isinstance(x, dict) else x):
            _mutables(v, acc)
    return acc


def test_clone_is_equal_and_shares_no_mutable_node():
    from repro.apps import arclength as arc
    from repro.core.api import ErrorEstimator

    fn = ErrorEstimator(arc.arclength).adjoint_ir
    copy = b.clone(fn)
    assert copy == fn
    assert ir_fingerprint(copy) == ir_fingerprint(fn)
    assert copy.meta == fn.meta and copy.locals == fn.locals
    assert not _mutables(copy, set()) & _mutables(fn, set())
    # fields outside dataclass equality (dtype, loc) survive too
    pairs = [(fn.body, copy.body)]
    while pairs:
        a, c = pairs.pop()
        if isinstance(a, list):
            pairs.extend(zip(a, c))
        elif isinstance(a, (N.Expr, N.Stmt)):
            assert type(a) is type(c) and a.__dict__.keys() == c.__dict__.keys()
            assert a.loc == c.loc
            assert getattr(a, "dtype", None) == getattr(c, "dtype", None)
            pairs.extend((v, c.__dict__[k]) for k, v in a.__dict__.items())
    copy.meta["adjoint"]["ret_names"].append("x")
    assert "x" not in fn.meta["adjoint"]["ret_names"]


def test_clone_copies_subclass_fields_and_shares_types():
    eps = N.EpsConst(2.0 ** -24, "t")
    eps.loc = 7
    c = b.clone(eps)
    assert type(c) is N.EpsConst and c.var == "t" and c.loc == 7
    assert c is not eps and c == eps
    p = N.Param("a", ArrayType(DType.F32))
    cp = b.clone(p)
    assert cp == p and cp is not p and cp.type is p.type

"""Shared helpers of the end-to-end benchmark: checkout paths, order
statistics, the machine-context block, process memory and GC time.

Nothing here imports ``repro``: the runner must be able to fail cleanly
(non-zero exit, no result line) in a directory that holds only the
benchmark files.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

#: the benchmark's own directory and the checkout root it runs from
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: scratch space for run stores and job journals (git-ignored)
WORK_DIR = ROOT / ".bench_work"


def use_checkout_sources() -> None:
    """Import ``repro`` from the checkout's ``src`` tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"e2e_bench: no repro sources under {SRC} — run from the "
            "root of a repository checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- order statistics --------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """Inclusive linear-interpolation quantile (0 for no samples)."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


# -- machine context ---------------------------------------------------------
def calibration_s(repeats: int = 3) -> float:
    """Median wall-clock of a fixed pure-Python loop.

    Reports taken on machines (or sessions) of different speed compare
    as multiples of this number; it is context, not a metric."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return median(times)


def machine_context() -> Dict[str, object]:
    import numpy

    try:
        load = list(os.getloadavg())
    except OSError:
        load = []
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg": load,
        "calibration_s": calibration_s(),
    }


# -- process resources -------------------------------------------------------
def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set size (``VmHWM``) of a live process."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


class GcMeter:
    """Time spent in, and number of, garbage collections (all threads)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._starts: Dict[int, float] = {}
        self._lock = threading.Lock()

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        now = time.perf_counter()
        tid = threading.get_ident()
        with self._lock:
            if phase == "start":
                self._starts[tid] = now
            else:
                t0 = self._starts.pop(tid, None)
                if t0 is not None:
                    self.seconds += now - t0
                    self.collections += 1

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._callback)

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return {"s": self.seconds, "collections": self.collections}


# -- result line -------------------------------------------------------------
def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def print_result(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Dict[str, object]],
) -> None:
    """The result object, as the last line of standard output."""
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            },
            sort_keys=True,
        ),
        flush=True,
    )


def load_spec() -> Dict[str, object]:
    """``BENCHMARK.json`` of the checkout (metric names and units)."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)

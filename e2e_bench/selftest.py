"""Tiny-size self-test of the benchmark.

Run from the root of a checkout (takes a few minutes)::

    python3 e2e_bench/selftest.py

Checks that ``BENCHMARK.json`` and ``layer_map.json`` agree; that every
workload, traced and untraced, emits exactly the metrics
``BENCHMARK.json`` names, each with its unit; that the traced runs
count one transform per computed evaluation plus one per search on
``search-estimate`` and one per search on ``search-validate``; that one
seed gives the same fronts in two runs; and that a perturbed front
value makes every workload exit non-zero.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from typing import Dict, List, Tuple

from common import BENCH_DIR, ROOT, load_spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*extra: str) -> Tuple[int, Dict[str, object], Dict[str, object]]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--tiny",
           "--seconds", "1", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    report = json.loads(lines[-2])["report"] if len(lines) > 1 else {}
    return proc.returncode, result, report


def check_spec(spec: Dict[str, object]) -> List[str]:
    problems = []
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    names = list(e2e) + [m["name"] for m in spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    if len(set(names)) != len(names):
        problems.append("metric/workload names are not unique")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
            problems.append(f"bad name or unit: {m}")
    bounds = {n: m["bound"] for n, m in e2e.items()}
    if max(bounds.values()) > 0.25:
        problems.append("a bound exceeds 0.25")
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must carry the largest bound")
    with open(BENCH_DIR / "layer_map.json", encoding="utf-8") as fh:
        layer_map = json.load(fh)
    mapped = [n for entry in layer_map["layers"] for n in entry["metrics"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    if sorted(mapped) != sorted(layer_names):
        problems.append(
            "layer_map.json and BENCHMARK.json disagree: "
            f"{sorted(set(mapped) ^ set(layer_names))}")
    workloads = {w["name"] for w in spec["workloads"]}
    for entry in layer_map["layers"]:
        if not set(entry["moves"]) <= set(e2e):
            problems.append(f"unknown end-to-end metric in {entry}")
        if not set(entry["workloads"]) <= workloads:
            problems.append(f"unknown workload in {entry}")
    if set(layer_map["supersedes"]) != workloads:
        problems.append("supersedes must name every workload")
    return problems


def check_metrics(workload: str, trace: int, result: Dict[str, object],
                  spec: Dict[str, object]) -> List[str]:
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload}/{trace}: result keys {sorted(result)}")
    if set(got) != set(wanted):
        problems.append(
            f"{workload}/{trace}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(got) ^ set(wanted))}")
    for name, m in got.items():
        value = m.get("value")
        if m.get("unit") != wanted.get(name) or not isinstance(
                value, (int, float)) or not math.isfinite(value):
            problems.append(f"{workload}/{trace}: {name} = {m}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"{workload}/{trace}: run not correct")
    return problems


def main() -> int:
    spec = load_spec()
    problems = check_spec(spec)
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            rc, result, report = run_bench(
                "--workload", name, "--seed", "3", "--trace", str(trace))
            if rc != 0:
                problems.append(f"{name}/{trace}: exit code {rc}")
            problems += check_metrics(name, trace, result, spec)
            if trace and name.startswith("search-"):
                # one transform per computed evaluation plus one per
                # search where a sweep exists; one per search otherwise
                got = result["metrics"]["core.transform.calls"]["value"]
                want = (report["searches_per_cycle"]
                        if name == "search-validate"
                        else report["transform_calls_expected"])
                if got != want:
                    problems.append(
                        f"{name}: core.transform.calls {got}, want {want}")
            if report.get("absent"):
                problems.append(f"{name}: absent layers {report['absent']}")
        rc, _, _ = run_bench("--workload", name, "--seed", "3",
                             "--inject-front-error")
        if rc == 0:
            problems.append(f"{name}: a perturbed front value passed")
    digests = [
        run_bench("--workload", "search-validate", "--seed", "5")[2]
        .get("front_digests")
        for _ in range(2)
    ]
    if not digests[0] or digests[0] != digests[1]:
        problems.append(f"front digests differ across runs: {digests}")
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end precision-search benchmark with a per-layer ledger.

Run from the root of a checkout::

    python3 e2e_bench/run.py --workload search-estimate --seed 1 \\
        --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` and ``e2e_bench/NOTES.md``):

* ``search-estimate`` — cold default searches on blackscholes,
  arclength and simpsons (apps with an input sweep);
* ``search-validate`` — cold default searches on enlarged kmeans and
  hpccg (no sweep: candidate execution dominates);
* ``serve-mix`` — one ``python -m repro serve`` driven by 2 closed-loop
  client threads over a seeded job mix.

Inputs come from ``--seed``.  Every output is checked (see
:mod:`checks` and :mod:`serve_mix`).  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics, measured
by a separate traced pass.  A line ``{"report": ...}`` before it holds
the context: machine, sample counts, per-app and per-class medians,
front digests and absent layers.  The exit code is 1 when any output
check failed, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from common import (
    WORK_DIR,
    load_spec,
    machine_context,
    median,
    metric,
    print_result,
    ratio,
    use_checkout_sources,
)

WORKLOADS = ("search-estimate", "search-validate", "serve-mix")
#: set-up is repeated this many times per run; its median is reported
SEARCH_SETUPS = 5
SERVE_SETUPS = 3


def parse_args(argv: List[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs (the benchmark's self-test)")
    ap.add_argument("--inject-front-error", action="store_true",
                    help="perturb one front value before the output "
                         "check (must make the run fail)")
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be > 0 and --seed >= 0")
    return args


# -- search workloads --------------------------------------------------------
def _search_setup(args: argparse.Namespace):
    """Import plus input generation — the set-up a CLI search pays."""
    t0 = time.perf_counter()
    use_checkout_sources()
    from searches import SearchRun

    run = SearchRun(args.workload, args.seed, args.tiny,
                    perturb=args.inject_front_error)
    return run, time.perf_counter() - t0


def _probe_setup_subprocess(args: argparse.Namespace) -> float:
    cmd = [sys.executable, __file__, "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1"] + (["--tiny"] if args.tiny else [])
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def run_search_workload(args) -> Tuple[int, int, Dict[str, float], Dict]:
    run, setup_main = _search_setup(args)
    report: Dict[str, object] = {}
    values: Dict[str, float] = {}
    if args.trace:
        from layers import LayerLedger
        from searches import cycle_offsets

        ledger = LayerLedger()
        run.run_window(args.seconds, ledger=ledger)
        run.check()
        values, context = run.per_layer()
        values.update(_not_applicable("serve."))
        for app, offset in cycle_offsets().items():
            values[f"codegen.cycle_offset.{app}"] = offset
        report.update(context, absent=ledger.absent)
    else:
        setups = [setup_main] + [
            _probe_setup_subprocess(args) for _ in range(SEARCH_SETUPS - 1)]
        run.run_window(args.seconds)
        run.check()
        e2e = run.end_to_end()
        values = {k: e2e[k] for k in (
            "evals_per_s", "ops_per_s", "peak_rss_mb")}
        values["setup_s"] = median(setups)
        report.update(
            setup_samples_s=setups, n_ops=e2e["n_ops"],
            per_app_median_s=e2e["per_app_s"], per_app_n=e2e["per_app_n"])
    report["front_digests"] = run.digests
    report["cycles"] = len(run.cycles)
    return run.attempted, run.failed(), values, {
        **report, "failures": run.failures[:20]}


# -- serve workload ----------------------------------------------------------
def run_serve_workload(args) -> Tuple[int, int, Dict[str, float], Dict]:
    use_checkout_sources()
    import serve_mix
    from serve_mix import Server, ServeRun, fresh_workdir

    root = WORK_DIR / f"serve-{args.seed}"
    report: Dict[str, object] = {}
    values: Dict[str, float] = {}
    runs: List[ServeRun] = []
    try:
        if args.trace:
            from searches import cycle_offsets, ledger_metrics

            plain = ServeRun(args.seed, args.tiny)
            server = Server(fresh_workdir(root, "plain"))
            try:
                wall_plain = plain.run_window(server, args.seconds / 2)
            finally:
                server.stop()
            traced = ServeRun(args.seed, args.tiny)
            ledger_out = root / "ledger.json"
            server = Server(fresh_workdir(root, "traced"), ledger_out)
            try:
                wall_traced = traced.run_window(
                    server, math.inf, limit=len(plain.records))
                _, snapshot = server.client.request("GET", "/v1/metrics")
                store = server.store_usage()
            finally:
                server.stop()
            with open(ledger_out, encoding="utf-8") as fh:
                boot = json.load(fh)
            runs = [plain, traced]
            expected: Dict[str, object] = {}
            for r in runs:
                r.check(args.inject_front_error, expected)
            values = ledger_metrics(boot["ledger"], boot["gc"])
            values.update(traced.per_layer(snapshot))
            values["search.store.bytes"] = float(store[0])
            values["search.store.files"] = float(store[1])
            values["trace.overhead_s"] = wall_traced - wall_plain
            for app, offset in cycle_offsets().items():
                values[f"codegen.cycle_offset.{app}"] = offset
            report.update(
                absent=boot["absent"], jobs=len(traced.records),
                untraced_s=wall_plain, traced_s=wall_traced,
                ledger=boot["ledger"])
        else:
            setups = []
            for i in range(SERVE_SETUPS - 1):
                probe = Server(fresh_workdir(root, f"probe{i}"))
                setups.append(probe.setup_s)
                probe.stop()
            run = ServeRun(args.seed, args.tiny)
            server = Server(fresh_workdir(root, "main"))
            setups.append(server.setup_s)
            try:
                wall = run.run_window(server, args.seconds)
                rss = server.peak_rss_mb()
            finally:
                server.stop()
            runs = [run]
            run.check(args.inject_front_error, {})
            e2e = run.end_to_end(wall)
            values = {k: e2e[k] for k in (
                "evals_per_s", "ops_per_s")}
            values["peak_rss_mb"] = float(rss or 0.0)
            values["setup_s"] = median(setups)
            report.update(
                setup_samples_s=setups, window_s=wall, n_ops=e2e["n_ops"],
                job_s_p50=e2e["job_s_p50"], job_s_p90=e2e["job_s_p90"],
                per_class_median_s=e2e["per_class_s"],
                per_class_n=e2e["per_class_n"],
                simpsons_budget=serve_mix.SIMPSONS_BUDGET)
    finally:
        import shutil

        shutil.rmtree(root, ignore_errors=True)
    attempted = sum(len(r.records) for r in runs)
    failed = sum(1 for r in runs for rec in r.records if not rec["ok"])
    failures = [f for r in runs for f in r.failures]
    return attempted, failed, values, {**report, "failures": failures[:20]}


def _not_applicable(prefix: str) -> Dict[str, float]:
    """Zero for the per-layer metrics a workload does not exercise."""
    return {m["name"]: 0.0 for m in load_spec()["per_layer"]
            if m["name"].startswith(prefix)}


# -- main --------------------------------------------------------------------
def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        _, setup = _search_setup(args)
        print(json.dumps({"setup_s": setup}))
        return 0
    spec = load_spec()
    machine = machine_context()
    if args.workload == "serve-mix":
        attempted, failed, values, report = run_serve_workload(args)
    else:
        attempted, failed, values, report = run_search_workload(args)
    values["ok_ratio"] = 1.0 - ratio(failed, attempted)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    metrics = {m["name"]: metric(values[m["name"]], m["unit"])
               for m in wanted}
    report.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, machine=machine)
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    correct = failed == 0
    print_result(correct, max(attempted, 1), failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The warm, long-lived workload: ``serve-mix``.

One ``python -m repro serve`` subprocess (2 workers, fresh run store)
is driven by a closed loop of 2 client threads: each thread submits its
next job only once the previous one's result is readable.  The jobs
come from a seeded schedule, in blocks of ten:

* 4 new searches (kmeans, hpccg, kmeans or hpccg, simpsons) with fresh
  strategy seeds — writes: run-store checkpoints and the job journal;
* 2 resubmitted search specs — content-hash dedupe reads;
* 1 earlier search spec with a varied threshold — a new run served by
  the warm estimator memo and config-kernel cache;
* 3 estimate / sweep / tune / analyze jobs across all five apps (a
  per-job ``timeout_s`` makes each a distinct job that executes warm).

Every search result is checked against the same spec's in-process
:meth:`repro.Session.search` front, and every dedupe answer against the
original job's result.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from common import (
    BENCH_DIR,
    SRC,
    median,
    pid_peak_rss_mb,
    quantile,
    ratio,
)

APPS = ("arclength", "simpsons", "kmeans", "hpccg", "blackscholes")
SWEEP_APPS = ("arclength", "simpsons", "blackscholes")
#: every (kind, app) of the estimate/sweep/tune/analyze jobs, in the
#: fixed rotation the schedule takes them from
MISC_JOBS = tuple(
    (kind, app)
    for kind in ("estimate", "sweep", "tune", "analyze")
    for app in (SWEEP_APPS if kind == "sweep" else APPS)
)
#: serve-side simpsons searches are capped so one block stays short
SIMPSONS_BUDGET = 8
MIN_JOBS = 100


# -- the job schedule --------------------------------------------------------
def job_schedule(seed: int, thresholds: Dict[str, float],
                 n_points: Dict[str, int], tiny: bool = False
                 ) -> Iterator[Tuple[str, Dict[str, object]]]:
    """Endless seeded ``(class, spec)`` sequence, in blocks of ten.

    Each block holds the same kinds of work — new searches on kmeans,
    hpccg, kmeans or hpccg, and simpsons; two dedupes and one
    threshold-varied search over the previous block's searches; three
    estimate/sweep/tune/analyze jobs from a fixed rotation — so the
    seed only moves strategy seeds, thresholds, points and the order
    within a block, not how much work a block holds.
    """
    rng = random.Random(seed)
    fresh = 1000 * seed
    misc = 0
    #: search specs of every block so far
    blocks: List[List[Dict[str, object]]] = []
    while True:
        block: List[Tuple[str, Dict[str, object]]] = []
        news = []
        for app in ("kmeans", "hpccg", ("kmeans", "hpccg")[len(blocks) % 2],
                    "simpsons"):
            fresh += 1
            if tiny:
                app = "kmeans"
            spec: Dict[str, object] = {
                "kind": "search", "kernel": app, "seed": fresh}
            if tiny:
                spec["budget"] = 4
            elif app == "simpsons":
                spec["budget"] = SIMPSONS_BUDGET
            news.append(spec)
            block.append(("search-new", spec))
        # threshold variations take the previous block's searches in
        # turn; dedupes resubmit searches at least two blocks old, which
        # have finished (2 clients keep at most 2 jobs in flight).
        # Block 0 refers to its own searches and submits them first.
        earlier = blocks[-1] if blocks else news
        base = earlier[len(blocks) % len(news)]
        varied = dict(base, threshold=float(
            f"{thresholds[base['kernel']] * 10 ** rng.uniform(-1, 1):.3g}"))
        block.append(("search-threshold", varied))
        finished = [s for b in blocks[:-1] for s in b] or earlier
        for _ in range(2):
            block.append(("search-dedupe", dict(rng.choice(finished))))
        for _ in range(3):
            kind, app = MISC_JOBS[misc % len(MISC_JOBS)]
            misc += 1
            spec = {"kind": kind, "kernel": app,
                    "timeout_s": 3600.0 + misc}
            if kind == "estimate":
                spec["point"] = rng.randrange(n_points[app])
            if kind in ("tune", "analyze"):
                spec["threshold"] = float(
                    f"{thresholds[app] * 10 ** rng.uniform(-1, 1):.3g}")
            block.append((kind, spec))
        if blocks:
            rng.shuffle(block)
        blocks.append(news + [varied])
        yield from block


# -- HTTP --------------------------------------------------------------------
class Client:
    def __init__(self, port: int) -> None:
        self.base = f"http://127.0.0.1:{port}"

    def request(self, method: str, path: str,
                body: Optional[dict] = None) -> Tuple[int, object]:
        req = urllib.request.Request(
            self.base + path,
            data=None if body is None else json.dumps(body).encode(),
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=120) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            try:
                return exc.code, json.loads(exc.read())
            except ValueError:
                return exc.code, {}


class Server:
    """One server life: spawn until healthy, stop, read its numbers."""

    def __init__(self, workdir: Path, ledger_out: Optional[Path] = None):
        self.store = workdir / "store"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        serve = ["serve", "--store", str(self.store), "--port", "0",
                 "--workers", "2"]
        if ledger_out is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "serve_boot.py"),
                   str(ledger_out), *serve]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env, cwd=str(workdir),
        )
        try:
            banner = self.proc.stdout.readline()
            match = re.search(r"listening on http://[^:]+:(\d+)", banner)
            if match is None:
                raise RuntimeError(f"serve: no banner ({banner!r})")
            self.client = Client(int(match.group(1)))
            deadline = time.monotonic() + 60
            while True:
                try:
                    status, body = self.client.request("GET", "/v1/healthz")
                except OSError:
                    status, body = 0, {}
                if status == 200 and body.get("status") == "ok":
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError("serve: never became healthy")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def peak_rss_mb(self) -> Optional[float]:
        return pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=90)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def store_usage(self) -> Tuple[int, int]:
        files = size = 0
        for path in self.store.rglob("*"):
            if path.is_file():
                files += 1
                size += path.stat().st_size
        return size, files


# -- the closed loop ---------------------------------------------------------
class ServeRun:
    def __init__(self, seed: int, tiny: bool) -> None:
        from repro.search.orchestrator import app_scenarios

        scen = {name: mod.search_scenario()
                for name, mod in app_scenarios().items()}
        self.schedule = job_schedule(
            seed,
            {a: s.threshold for a, s in scen.items()},
            {a: len(s.points) for a, s in scen.items()},
            tiny=tiny,
        )
        self.min_jobs = 12 if tiny else MIN_JOBS
        self._lock = threading.Lock()
        self.records: List[Dict[str, object]] = []
        self.failures: List[str] = []

    def _next(self, deadline: float, limit: Optional[int]):
        with self._lock:
            taken = len(self.records) + self._in_flight
            if limit is not None:
                if taken >= limit:
                    return None
            elif time.perf_counter() >= deadline and taken >= self.min_jobs:
                return None
            self._in_flight += 1
            return next(self.schedule)

    def _client_loop(self, client: Client, deadline: float,
                     limit: Optional[int]) -> None:
        while True:
            item = self._next(deadline, limit)
            if item is None:
                return
            cls, spec = item
            rec = self._one_job(client, cls, spec)
            with self._lock:
                self._in_flight -= 1
                self.records.append(rec)

    def _one_job(self, client: Client, cls: str,
                 spec: Dict[str, object]) -> Dict[str, object]:
        rec: Dict[str, object] = {"class": cls, "spec": spec, "ok": False}
        t0 = time.perf_counter()
        try:
            status, body = client.request("POST", "/v1/jobs", spec)
            if status not in (200, 201, 202):
                rec["error"] = f"submit {status}: {body}"
                return rec
            job_id, polls, pause = body["id"], 0, 0.002
            while True:
                status, body = client.request(
                    "GET", f"/v1/jobs/{job_id}/result")
                polls += 1
                if status != 202:
                    break
                time.sleep(pause)
                pause = min(pause * 1.5, 0.025)
            rec["latency_s"] = time.perf_counter() - t0
            rec["polls"] = polls
            if status != 200:
                rec["error"] = f"result {status}: {body}"
                return rec
            rec["id"] = job_id
            rec["result"] = body.get("result")
            _, wire = client.request("GET", f"/v1/jobs/{job_id}")
            rec["wire"] = wire
            rec["ok"] = True
        except (OSError, ValueError, KeyError) as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec

    def run_window(self, server: Server, seconds: float,
                   limit: Optional[int] = None) -> float:
        """Drive the server with 2 client threads; returns wall-clock."""
        self._in_flight = 0
        start = time.perf_counter()
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(server.client, start + seconds, limit),
                daemon=True,
            )
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - start

    # -- checks --------------------------------------------------------------
    def check(self, perturb: bool, expected_fronts: Dict[str, object]) -> None:
        """Serve fronts against the same spec's in-process front (one
        in-process search per distinct spec, cached in
        ``expected_fronts``); dedupe answers are checked the same way.
        ``perturb`` shifts one serve front value first (must fail)."""
        import repro

        sess = repro.Session()
        first = expected_fronts
        checked_perturb = False
        for rec in self.records:
            if not rec["ok"]:
                self.failures.append(
                    f"{rec['class']} {rec['spec']}: {rec.get('error')}")
                continue
            result = rec["result"] or {}
            if rec["spec"]["kind"] != "search":
                if not result or "error" in result:
                    rec["ok"] = False
                    self.failures.append(f"{rec['spec']}: empty result")
                continue
            front = json.loads(json.dumps(result.get("front")))
            if perturb and not checked_perturb and front:
                front[0]["actual_error"] = float(
                    front[0]["actual_error"]) * (1 + 2 ** -40) + 1e-300
                checked_perturb = True
            key = json.dumps(rec["spec"], sort_keys=True)
            if key in first:
                expected = first[key]
            else:
                spec = rec["spec"]
                overrides = {k: spec[k] for k in ("threshold", "budget")
                             if k in spec}
                res = sess.search(spec["kernel"], seed=spec["seed"],
                                  **overrides)
                expected = json.loads(json.dumps(res.to_dict()["front"]))
                first[key] = expected
            if front != expected:
                rec["ok"] = False
                self.failures.append(
                    f"{rec['class']} {rec['spec']}: serve front differs "
                    "from the in-process Session.search front")

    # -- numbers -------------------------------------------------------------
    def end_to_end(self, wall: float) -> Dict[str, object]:
        done = [r for r in self.records if r["ok"]]
        lat = [r["latency_s"] for r in done]
        classes = sorted({r["class"] for r in done})
        per_class = {
            c: median([r["latency_s"] for r in done if r["class"] == c])
            for c in classes
        }
        computed = sum(
            int(((r["result"] or {}).get("stats") or {})
                .get("evaluator", {}).get("computed", 0))
            for r in done
            if r["spec"]["kind"] == "search" and r["class"] != "search-dedupe"
        )
        return {
            "evals_per_s": ratio(computed, wall),
            "ops_per_s": ratio(len(done), wall),
            "job_s_p50": median(lat),
            "job_s_p90": quantile(lat, 0.9),
            "n_ops": len(done),
            "per_class_s": per_class,
            "per_class_n": {
                c: sum(1 for r in done if r["class"] == c) for c in classes
            },
        }

    def per_layer(self, metrics: Dict[str, object]) -> Dict[str, float]:
        done = [r for r in self.records if r["ok"]]
        created = [r for r in done if r["class"] != "search-dedupe"
                   and r.get("wire", {}).get("started") is not None]
        out: Dict[str, float] = {}
        out["serve.queue_wait_s_p50"] = median([
            r["wire"]["started"] - r["wire"]["submitted"] for r in created])
        for kind in ("estimate", "sweep", "tune", "analyze", "search"):
            out[f"serve.exec_s_p50.{kind}"] = median([
                r["wire"]["finished"] - r["wire"]["started"]
                for r in created if r["spec"]["kind"] == kind])
        counters = metrics.get("jobs", {}).get("counters", {})
        out["serve.dedupe_ratio"] = ratio(
            counters.get("deduped", 0),
            counters.get("deduped", 0) + counters.get("submitted", 0))
        out["serve.rejected"] = float(counters.get("rejected", 0))
        out["serve.polls_per_job"] = ratio(
            sum(r.get("polls", 0) for r in done), len(done))
        out["serve.job_s_p50"] = median([r["latency_s"] for r in done])
        out["serve.job_s_p90"] = quantile(
            [r["latency_s"] for r in done], 0.9)
        memo = metrics.get("session", {}).get("estimator_memo", {})
        lookups = memo.get("hits", 0) + memo.get("misses", 0)
        out["core.estimator.lookups"] = float(lookups)
        out["core.estimator.builds"] = float(memo.get("misses", 0))
        out["core.estimator.hit_ratio"] = ratio(memo.get("hits", 0), lookups)
        stats = [((r["result"] or {}).get("stats") or {}).get("evaluator", {})
                 for r in created if r["spec"]["kind"] == "search"]
        computed = sum(s.get("computed", 0) for s in stats)
        proposed = computed + sum(s.get("memo_hits", 0) for s in stats)
        runs = sum(s.get("pool_runs", 0) for s in stats)
        fallbacks = sum(s.get("pool_fallbacks", 0) for s in stats)
        out["search.proposed"] = float(proposed)
        out["search.computed"] = float(computed)
        out["search.memo_hit_ratio"] = ratio(proposed - computed, proposed)
        out["codegen.lane_pool_ratio"] = ratio(runs, runs + fallbacks)
        out["search.evals_to_front"] = float(sum(
            1 + max((p["index"] for p in (r["result"] or {}).get("front", [])),
                    default=-1)
            for r in created if r["spec"]["kind"] == "search"))
        return out


def fresh_workdir(root: Path, name: str) -> Path:
    path = root / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path

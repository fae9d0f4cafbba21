"""Job-server tests: spec validation and content-hash identity, the
registry lifecycle (dedupe, backpressure, cancel, deadline, journal
recovery), the pure route table, the wire protocol, and full-process
server exercises — including SIGKILL mid-search → restart → resumed
front bit-identical to an uninterrupted run."""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.serve import (
    JobJournal,
    JobRegistry,
    JobSpec,
    QueueFullError,
    ServeApp,
    ServiceMetrics,
)
from repro.serve.http import (
    HttpError,
    HttpRequest,
    read_request,
    render,
)
from repro.session import Session
from repro.util.errors import ConfigError, UnknownNameError

_SRC = Path(__file__).resolve().parents[1] / "src"

# small but real search work: enough evaluations to checkpoint and to
# crash in the middle of
_SEARCH_SPEC = {
    "kind": "search",
    "kernel": "kmeans",
    "budget": 12,
    "strategies": ["greedy", "delta", "anneal"],
}


def _wait(fn, timeout=60.0, period=0.05):
    deadline = time.monotonic() + timeout
    while True:
        value = fn()
        if value:
            return value
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(period)


def _finished(reg, job_id):
    return lambda: (
        reg.get(job_id)
        if reg.get(job_id).state in ("completed", "failed", "cancelled")
        else None
    )


# -- specs --------------------------------------------------------------------


class TestJobSpec:
    def test_normalization_gives_one_identity(self):
        short = JobSpec.from_dict({"kind": "search", "kernel": "kmeans"})
        spelled = JobSpec.from_dict(
            {
                "kind": "search",
                "kernel": "kmeans",
                "seed": 0,
                "point": 0,
                "robust": False,
                "threshold": None,
            }
        )
        assert short == spelled
        assert short.job_id == spelled.job_id

    def test_any_knob_changes_the_id(self):
        base = JobSpec.from_dict(_SEARCH_SPEC)
        for delta in (
            {"budget": 13},
            {"seed": 1},
            {"strategies": ["greedy"]},
            {"threshold": 1e-3},
            {"kernel": "simpsons"},
        ):
            other = JobSpec.from_dict({**_SEARCH_SPEC, **delta})
            assert other.job_id != base.job_id, delta

    def test_default_model_spelled_out_is_one_job(self):
        spelled = JobSpec.from_dict(
            {"kind": "estimate", "kernel": "kmeans", "model": "taylor"}
        )
        short = JobSpec.from_dict({"kind": "estimate", "kernel": "kmeans"})
        assert spelled == short and spelled.job_id == short.job_id

    def test_roundtrip(self):
        spec = JobSpec.from_dict(_SEARCH_SPEC)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "raw",
        [
            {"kind": "zap", "kernel": "kmeans"},
            {"kind": "search", "kernel": ""},
            {"kind": "search", "kernel": 7},
            {"kind": "estimate", "kernel": "kmeans", "budget": 4},
            {"kind": "sweep", "kernel": "kmeans", "threshold": 1e-6},
            {"kind": "estimate", "kernel": "kmeans", "aggregate": "max"},
            {"kind": "search", "kernel": "kmeans", "robust": True},
            {"kind": "search", "kernel": "kmeans", "budget": 0},
            {"kind": "search", "kernel": "kmeans", "threshold": 0.0},
            {"kind": "search", "kernel": "kmeans", "strategies": "greedy"},
            {"kind": "search", "kernel": "kmeans", "point": -1},
            {"kind": "search", "kernel": "kmeans", "timeout_s": 0},
            {"kind": "search", "kernel": "kmeans", "bogus": 1},
            ["kind", "search"],
            # knobs the kind would ignore
            {"kind": "tune", "kernel": "blackscholes", "aggregate": "p95"},
            {"kind": "tune", "kernel": "kmeans", "robust": True, "point": 1},
            {"kind": "sweep", "kernel": "blackscholes", "point": 1},
            {"kind": "analyze", "kernel": "kmeans", "point": 1},
            {"kind": "search", "kernel": "kmeans", "point": 1},
            {"kind": "tune", "kernel": "kmeans", "model": "adapt"},
            {"kind": "estimate", "kernel": "kmeans", "model": "cena"},
            {"kind": "analyze", "kernel": "kmeans", "demote_to": "f64"},
        ],
    )
    def test_invalid_specs_rejected(self, raw):
        with pytest.raises(ConfigError):
            JobSpec.from_dict(raw)


# -- registry -----------------------------------------------------------------


@pytest.fixture
def sess(tmp_path):
    return Session(store=tmp_path / "runs")


@pytest.fixture
def registry(sess, tmp_path):
    reg = JobRegistry(
        sess, workers=2, journal=JobJournal(tmp_path / "jobs")
    )
    yield reg
    reg.close()


class TestRegistry:
    def test_search_job_end_to_end(self, registry, sess):
        job, created = registry.submit(JobSpec.from_dict(_SEARCH_SPEC))
        assert created
        # the run id is resolved at submission through the same
        # pipeline the execution uses
        assert job.run_id == sess.search_run_id(
            "kmeans",
            budget=12,
            strategies=("greedy", "delta", "anneal"),
            seed=0,
        )
        done = _wait(_finished(registry, job.id))
        assert done.state == "completed", done.error
        assert done.result["front"]
        assert done.result["run_id"] == job.run_id
        progress = registry.progress(done)
        assert progress["exists"] and progress["completed"]
        assert progress["front_size"] == len(done.result["front"])

    def test_identical_submission_dedupes(self, registry):
        a, created_a = registry.submit(JobSpec.from_dict(_SEARCH_SPEC))
        b, created_b = registry.submit(
            JobSpec.from_dict({**_SEARCH_SPEC, "seed": 0, "point": 0})
        )
        assert created_a and not created_b
        assert a is b
        assert registry.counters["deduped"] == 1
        _wait(_finished(registry, a.id))

    def test_resubmit_after_completion_reuses_store(self, sess, tmp_path):
        # two registry lives over one session: the second run of the
        # same job is answered entirely from the run store — zero new
        # candidate evaluations
        reg1 = JobRegistry(sess)
        first = _wait(
            _finished(
                reg1, reg1.submit(JobSpec.from_dict(_SEARCH_SPEC))[0].id
            )
        )
        reg1.close()
        assert first.state == "completed"
        n_stored = len(sess.store.load_records(first.result["run_id"]))

        reg2 = JobRegistry(sess)
        again = _wait(
            _finished(
                reg2, reg2.submit(JobSpec.from_dict(_SEARCH_SPEC))[0].id
            )
        )
        reg2.close()
        assert again.state == "completed"
        assert again.result["resumed"]
        assert again.result["n_restored"] == again.result["n_evaluated"]
        assert again.result["stats"]["run_store"]["computed"] == 0
        assert again.result["front"] == first.result["front"]
        assert (
            len(sess.store.load_records(first.result["run_id"]))
            == n_stored
        )

    def test_unknown_scenario_rejected_at_submit(self, registry):
        with pytest.raises(UnknownNameError):
            registry.submit(
                JobSpec.from_dict({"kind": "search", "kernel": "nope"})
            )

    def test_point_out_of_range_rejected_at_submit(self, registry):
        with pytest.raises(ConfigError):
            registry.submit(
                JobSpec.from_dict(
                    {"kind": "estimate", "kernel": "simpsons", "point": 99}
                )
            )

    def test_budget_cap(self, sess):
        reg = JobRegistry(sess, max_budget=8)
        try:
            with pytest.raises(ConfigError):
                reg.submit(
                    JobSpec.from_dict(
                        {"kind": "search", "kernel": "kmeans", "budget": 9}
                    )
                )
            # the scenario default budget is checked too
            with pytest.raises(ConfigError):
                reg.submit(
                    JobSpec.from_dict({"kind": "search", "kernel": "kmeans"})
                )
        finally:
            reg.close()

    def test_queue_backpressure(self, sess):
        reg = JobRegistry(sess, workers=1, max_queue=1)
        gate = threading.Event()
        reg._pre_run_hook = lambda job: gate.wait(30)
        try:
            first, _ = reg.submit(
                JobSpec.from_dict({"kind": "estimate", "kernel": "simpsons"})
            )
            _wait(lambda: reg.get(first.id).state == "running")
            reg.submit(
                JobSpec.from_dict({"kind": "estimate", "kernel": "arclength"})
            )
            with pytest.raises(QueueFullError):
                reg.submit(
                    JobSpec.from_dict({"kind": "estimate", "kernel": "hpccg"})
                )
            assert reg.counters["rejected"] == 1
        finally:
            gate.set()
            reg.drain(30)
            reg.close()

    def test_cancel_queued_and_finished(self, sess):
        reg = JobRegistry(sess, workers=1)
        gate = threading.Event()
        reg._pre_run_hook = lambda job: gate.wait(30)
        try:
            a, _ = reg.submit(
                JobSpec.from_dict({"kind": "estimate", "kernel": "simpsons"})
            )
            b, _ = reg.submit(
                JobSpec.from_dict({"kind": "estimate", "kernel": "arclength"})
            )
            _wait(lambda: reg.get(a.id).state == "running")
            cancelled, accepted = reg.cancel(b.id)
            assert accepted and cancelled.state == "cancelled"
            gate.set()
            done = _wait(_finished(reg, a.id))
            assert done.state == "completed"
            _, accepted = reg.cancel(a.id)
            assert not accepted  # finished jobs stay finished
        finally:
            gate.set()
            reg.close()

    def test_cancel_running_search_mid_flight(self, sess):
        reg = JobRegistry(sess, workers=1)
        started = threading.Event()
        reg._pre_run_hook = lambda job: started.set()
        try:
            spec = JobSpec.from_dict(
                {**_SEARCH_SPEC, "budget": 48, "strategies": ["anneal"]}
            )
            job, _ = reg.submit(spec)
            assert started.wait(30)
            reg.cancel(job.id)
            done = _wait(_finished(reg, job.id))
            assert done.state == "cancelled"
        finally:
            reg.close()

    def test_deadline_fails_the_job(self, sess):
        reg = JobRegistry(sess, workers=1)
        try:
            spec = JobSpec.from_dict(
                {**_SEARCH_SPEC, "budget": 48, "timeout_s": 1e-4}
            )
            job, _ = reg.submit(spec)
            done = _wait(_finished(reg, job.id))
            assert done.state == "failed"
            assert "deadline" in done.error
            assert reg.counters["timeouts"] == 1
        finally:
            reg.close()

    def test_journal_recovery_requeues_unfinished(self, sess, tmp_path):
        journal_dir = tmp_path / "jobs"
        reg1 = JobRegistry(sess, journal=JobJournal(journal_dir))
        gate = threading.Event()
        reg1._pre_run_hook = lambda job: gate.wait(30)
        job, _ = reg1.submit(JobSpec.from_dict(_SEARCH_SPEC))
        _wait(lambda: reg1.get(job.id).state == "running")
        # abandon the registry with the job still RUNNING in the
        # journal — the moral equivalent of a SIGKILL
        reg1.close()
        gate.set()

        reg2 = JobRegistry(sess, journal=JobJournal(journal_dir))
        try:
            assert reg2.recover() == 1
            recovered = reg2.get(job.id)
            assert recovered.recovered
            done = _wait(_finished(reg2, job.id))
            assert done.state == "completed", done.error
            assert done.result["front"]
        finally:
            reg2.close()

        # a third life rehydrates the finished record without rerunning
        reg3 = JobRegistry(sess, journal=JobJournal(journal_dir))
        try:
            assert reg3.recover() == 0
            kept = reg3.get(job.id)
            assert kept.state == "completed"
            assert kept.result is not None
            assert reg3.counters["submitted"] == 0
        finally:
            reg3.close()

    def test_journal_tolerates_garbage(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs")
        (tmp_path / "jobs" / "job-zzz.json").write_text("{not json")
        (tmp_path / "jobs" / "job-yyy.json").write_text("[1, 2]")
        assert journal.load() == []


# -- route table --------------------------------------------------------------


def _req(method, path, body=None):
    raw = b"" if body is None else json.dumps(body).encode()
    return HttpRequest(method, path, {}, raw)


@pytest.fixture
def app(registry):
    return ServeApp(registry, ServiceMetrics(registry))


class TestServeApp:
    def test_healthz(self, app):
        status, payload, _ = app.handle(_req("GET", "/v1/healthz"))
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["version"]

    def test_draining_healthz_and_submit(self, registry):
        app = ServeApp(
            registry, ServiceMetrics(registry), is_draining=lambda: True
        )
        assert app.handle(_req("GET", "/v1/healthz"))[0] == 503
        status, _, headers = app.handle(
            _req("POST", "/v1/jobs", _SEARCH_SPEC)
        )
        assert status == 503
        assert "Retry-After" in headers

    def test_submit_poll_result(self, app):
        status, payload, _ = app.handle(
            _req("POST", "/v1/jobs", _SEARCH_SPEC)
        )
        assert status == 201 and payload["created"]
        jid = payload["id"]
        # identical resubmission answers 200 from the dedup
        status, payload, _ = app.handle(
            _req("POST", "/v1/jobs", _SEARCH_SPEC)
        )
        assert status == 200 and not payload["created"]

        def result():
            s, p, _ = app.handle(_req("GET", f"/v1/jobs/{jid}/result"))
            return (s, p) if s != 202 else None

        status, payload = _wait(result)
        assert status == 200
        assert payload["result"]["front"]
        status, payload, _ = app.handle(_req("GET", f"/v1/jobs/{jid}"))
        assert status == 200
        assert payload["progress"]["completed"]
        status, payload, _ = app.handle(_req("GET", "/v1/jobs"))
        assert status == 200 and payload["count"] == 1

    def test_submit_errors(self, app):
        bad = HttpRequest("POST", "/v1/jobs", {}, b"{not json")
        assert app.handle(bad)[0] == 400
        assert (
            app.handle(
                _req("POST", "/v1/jobs", {"kind": "zap", "kernel": "x"})
            )[0]
            == 400
        )
        assert (
            app.handle(
                _req(
                    "POST",
                    "/v1/jobs",
                    {"kind": "search", "kernel": "nope"},
                )
            )[0]
            == 404
        )

    def test_queue_full_is_429(self, sess):
        reg = JobRegistry(sess, workers=1, max_queue=0)
        try:
            app = ServeApp(reg, ServiceMetrics(reg))
            status, payload, headers = app.handle(
                _req("POST", "/v1/jobs", _SEARCH_SPEC)
            )
            assert status == 429
            assert headers["Retry-After"]
            assert payload["retry_after_s"]
        finally:
            reg.close()

    def test_unknown_routes_and_methods(self, app):
        assert app.handle(_req("GET", "/v1/nope"))[0] == 404
        assert app.handle(_req("GET", "/v1/jobs/job-missing"))[0] == 404
        assert app.handle(_req("PUT", "/v1/jobs"))[0] == 405
        assert app.handle(_req("POST", "/v1/metrics"))[0] == 405
        assert app.handle(_req("GET", "/v1/jobs/a/b/c"))[0] == 404

    def test_cancel_route(self, sess):
        reg = JobRegistry(sess, workers=1)
        gate = threading.Event()
        reg._pre_run_hook = lambda job: gate.wait(30)
        try:
            app = ServeApp(reg, ServiceMetrics(reg))
            _, submitted, _ = app.handle(
                _req("POST", "/v1/jobs", _SEARCH_SPEC)
            )
            _, queued, _ = app.handle(
                _req(
                    "POST",
                    "/v1/jobs",
                    {"kind": "estimate", "kernel": "simpsons"},
                )
            )
            status, payload, _ = app.handle(
                _req("DELETE", f"/v1/jobs/{queued['id']}")
            )
            assert status == 200
            gate.set()
            _wait(_finished(reg, submitted["id"]))
            status, _, _ = app.handle(
                _req("DELETE", f"/v1/jobs/{submitted['id']}")
            )
            assert status == 409  # already finished
        finally:
            gate.set()
            reg.close()

    def test_metrics_snapshot(self, app, registry):
        job, _ = registry.submit(JobSpec.from_dict(_SEARCH_SPEC))
        _wait(_finished(registry, job.id))
        status, m, _ = app.handle(_req("GET", "/v1/metrics"))
        assert status == 200
        assert m["jobs"]["counters"]["completed"] == 1
        assert m["service"]["version"]
        assert "estimator_memo" in m["session"]
        assert "config_kernel_cache" in m["session"]
        assert m["store"]["runs"] == 1
        assert m["store"]["in_flight"] == 0

    def test_metrics_prom_exposition(self, app):
        from repro.serve.http import PlainText

        status, payload, _ = app.handle(
            _req("GET", "/v1/metrics?format=prom")
        )
        assert status == 200
        assert isinstance(payload, PlainText)
        assert payload.content_type.startswith("text/plain")
        lines = payload.text.splitlines()
        assert any(ln.startswith("# TYPE repro_") for ln in lines)
        for line in lines:
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            assert name.startswith("repro_")
            float(value)  # every sample value parses

    def test_metrics_unknown_format_rejected(self, app):
        status, payload, _ = app.handle(
            _req("GET", "/v1/metrics?format=xml")
        )
        assert status == 400
        assert "xml" in payload["error"]

    def test_submit_echoes_request_id(self, app, registry):
        status, payload, headers = app.handle(
            _req("POST", "/v1/jobs", _SEARCH_SPEC)
        )
        assert status == 201
        rid = headers["X-Request-Id"]
        assert rid.startswith("req-")
        assert payload["request_id"] == rid
        assert registry.get(payload["id"]).request_id == rid

    def test_submit_honors_client_request_id(self, app):
        req = HttpRequest(
            "POST",
            "/v1/jobs",
            {"x-request-id": "req-client-0001"},
            json.dumps(_SEARCH_SPEC).encode(),
        )
        status, payload, headers = app.handle(req)
        assert status == 201
        assert headers["X-Request-Id"] == "req-client-0001"
        assert payload["request_id"] == "req-client-0001"


# -- wire protocol ------------------------------------------------------------


def _parse(data: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class TestHttpProtocol:
    def test_request_with_body(self):
        body = b'{"a": 1}'
        raw = (
            b"POST /v1/jobs?x=1&y=%20z HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n" + body
        )
        req = _parse(raw)
        assert req.method == "POST"
        assert req.path == "/v1/jobs"
        assert req.query == {"x": "1", "y": " z"}
        assert req.json() == {"a": 1}
        assert req.keep_alive

    def test_connection_close(self):
        req = _parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not req.keep_alive

    def test_clean_eof_is_none(self):
        assert _parse(b"") is None

    @pytest.mark.parametrize(
        "raw",
        [
            b"GARBAGE\r\n\r\n",
            b"GET /\r\n\r\n",
            b"GET / SPDY/3\r\n\r\n",
            b"GET / HTTP/1.1\r\nbadheader\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
            b"GET / HTT",
        ],
    )
    def test_malformed_requests_raise(self, raw):
        with pytest.raises(HttpError):
            _parse(raw)

    def test_empty_body_json_raises(self):
        req = _parse(b"POST / HTTP/1.1\r\n\r\n")
        with pytest.raises(HttpError):
            req.json()

    def test_render(self):
        out = render(
            429, {"error": "x"}, keep_alive=False,
            headers={"Retry-After": "2"},
        )
        head, _, body = out.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 429 Too Many Requests\r\n")
        assert b"Retry-After: 2" in head
        assert b"Connection: close" in head
        assert json.loads(body) == {"error": "x"}
        assert f"Content-Length: {len(body)}".encode() in head


# -- full-process server ------------------------------------------------------


class _Client:
    """Tiny urllib front over one spawned server process."""

    def __init__(self, port):
        self.base = f"http://127.0.0.1:{port}"

    def request(self, method, path, body=None):
        import urllib.error
        import urllib.request

        req = urllib.request.Request(
            self.base + path,
            data=None if body is None else json.dumps(body).encode(),
            method=method,
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def wait_result(self, job_id, timeout=120.0):
        deadline = time.monotonic() + timeout
        while True:
            status, payload = self.request(
                "GET", f"/v1/jobs/{job_id}/result"
            )
            if status != 202:
                return status, payload
            if time.monotonic() > deadline:
                raise AssertionError("job did not finish in time")
            time.sleep(0.2)


def _spawn_server(store, crash_after=None):
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    if crash_after is not None:
        env["REPRO_SEARCH_CRASH_AFTER"] = str(crash_after)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--store",
            str(store),
            "--port",
            "0",
            "--workers",
            "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    banner = proc.stdout.readline()
    match = re.search(r"listening on http://[^:]+:(\d+)", banner)
    if match is None:
        proc.kill()
        raise AssertionError(
            f"no banner: {banner!r}\n{proc.stderr.read()}"
        )
    return proc, _Client(int(match.group(1)))


class TestServerProcess:
    def test_sigterm_drains_cleanly(self, tmp_path):
        proc, client = _spawn_server(tmp_path / "runs")
        try:
            status, payload = client.request("GET", "/v1/healthz")
            assert status == 200 and payload["status"] == "ok"
            status, payload = client.request(
                "POST",
                "/v1/jobs",
                {"kind": "estimate", "kernel": "simpsons"},
            )
            assert status == 201
            status, payload = client.wait_result(payload["id"])
            assert status == 200
            # the estimate payload (kind lives on the job record)
            assert set(payload["result"]) == {
                "kernel", "point", "value", "total_error", "per_variable",
            }
        finally:
            proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0

    def test_sigkill_restart_resumes_bit_identical(self, tmp_path):
        # the uninterrupted reference: same session shape the server
        # builds, driven in-process (content addressing guarantees the
        # server's run and this one are the same run)
        ref_sess = Session(store=tmp_path / "ref-runs")
        reference = ref_sess.search(
            "kmeans",
            budget=12,
            strategies=("greedy", "delta", "anneal"),
            seed=0,
        )
        ref_front = reference.to_dict()["front"]
        assert reference.n_evaluated > 4  # the crash point is mid-run

        store = tmp_path / "runs"
        # life 1: the search SIGKILLs the whole server after 4
        # computed evaluations (post-checkpoint — a strict prefix of
        # the run is on disk when the process dies)
        proc, client = _spawn_server(store, crash_after=4)
        status, payload = client.request("POST", "/v1/jobs", _SEARCH_SPEC)
        assert status == 201
        job_id = payload["id"]
        run_id = payload["run_id"]
        assert run_id == reference.run_id
        assert proc.wait(timeout=120) == -signal.SIGKILL

        # the store holds a strict, checkpointed prefix
        from repro.search import RunStore

        killed = RunStore(store)
        assert 0 < len(killed.load_records(run_id)) < len(
            reference.evaluations
        )
        manifest = killed.load_manifest(run_id)
        assert manifest is not None and not manifest["completed"]

        # life 2: recovery requeues the journaled job and resumes the
        # search from the checkpointed prefix
        proc2, client2 = _spawn_server(store)
        try:
            status, payload = client2.request("GET", f"/v1/jobs/{job_id}")
            assert status == 200
            assert payload["recovered"]
            status, payload = client2.wait_result(job_id)
            assert status == 200
            result = payload["result"]
            assert result["resumed"]
            assert result["n_restored"] > 0
            assert result["front"] == ref_front
            # resubmitting the identical job dedupes onto the
            # completed one: zero further evaluations
            status, payload = client2.request(
                "POST", "/v1/jobs", _SEARCH_SPEC
            )
            assert status == 200 and not payload["created"]
            status, metrics = client2.request("GET", "/v1/metrics")
            assert metrics["jobs"]["counters"]["deduped"] >= 1
            assert metrics["jobs"]["counters"]["recovered"] == 1
        finally:
            proc2.send_signal(signal.SIGTERM)
        assert proc2.wait(timeout=60) == 0

        # stored records match the reference's byte-for-byte
        assert len(killed.load_records(run_id)) == len(
            reference.evaluations
        )
        ref_store = RunStore(tmp_path / "ref-runs")
        assert killed.load_records(run_id) == ref_store.load_records(
            run_id
        )


# -- shared caches under server concurrency -----------------------------------

from repro.frontend import kernel as _kernel  # noqa: E402


@_kernel
def serve_cache_kernel(x: "f64", y: "f64") -> float:
    z: "f32" = x * y + 0.5
    w: "f32" = z * z - x
    return w


class TestSharedCacheThreadSafety:
    """Regression tests for the process-wide memo locks: the server
    runs jobs on worker threads over one session, so concurrent
    same-key requests must build exactly one cached object and the
    hit/miss counters must stay exact."""

    N_THREADS = 8
    CALLS = 25

    def _hammer(self, fn):
        barrier = threading.Barrier(self.N_THREADS)
        results = [None] * self.N_THREADS
        errors = []

        def worker(i):
            try:
                barrier.wait(timeout=30)
                for _ in range(self.CALLS):
                    results[i] = fn()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not errors
        return results

    def test_estimator_memo_counters_exact_under_threads(self):
        from repro.core.api import (
            cached_error_estimator,
            clear_estimator_memo,
            estimator_memo_stats,
        )

        clear_estimator_memo()
        results = self._hammer(
            lambda: cached_error_estimator(serve_cache_kernel)
        )
        stats = estimator_memo_stats()
        # every call is accounted for, and the miss-build happened
        # exactly once: concurrent same-key requests waited on the
        # lock instead of compiling duplicate estimators
        assert (
            stats["hits"] + stats["misses"]
            == self.N_THREADS * self.CALLS
        )
        assert stats["misses"] == 1
        assert all(r is results[0] for r in results)
        clear_estimator_memo()

    def test_config_kernel_cache_counters_exact_under_threads(self):
        from repro.codegen.compile import (
            clear_config_kernel_cache,
            config_kernel_cache_stats,
            config_lane_kernel,
        )

        clear_config_kernel_cache()
        results = self._hammer(
            lambda: config_lane_kernel(serve_cache_kernel.ir)
        )
        stats = config_kernel_cache_stats()
        assert (
            stats["hits"] + stats["misses"]
            == self.N_THREADS * self.CALLS
        )
        assert stats["misses"] == 1
        assert stats["unvectorizable"] == 0
        assert all(r is results[0] for r in results)
        clear_config_kernel_cache()

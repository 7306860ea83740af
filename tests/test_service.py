"""The simulation service, unit to end-to-end.

Three layers of coverage, mirroring docs/service.md:

* **Unit** — request normalisation and identity, token buckets and
  quotas on an injected clock, the metrics/span plumbing the service
  surfaces (``MetricsRegistry.flatten``, ``SpanRecorder.subscribe``,
  ``ResultCache.stats``).
* **End-to-end over a real socket** — a :class:`BackgroundServer` on an
  ephemeral port, driven with stdlib ``urllib``/``http.client``: the
  acceptance claims that an HTTP-submitted sweep ledgers bit-identically
  to a direct :class:`SweepExecutor` run, and that a thousand identical
  concurrent submits coalesce to exactly one simulation and one ledger
  entry.
* **Process-level** — ``repro-sim serve`` under real SIGTERM: drain
  announced on ``/healthz``, submits rejected 503, exit code 0.

Workloads stay tiny (scale 0.05, one benchmark) so the whole module
runs in seconds.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.core.executor import ResultCache
from repro.errors import ServiceError
from repro.service import (
    BackgroundServer,
    ServiceServer,
    SimulationService,
    SweepRequest,
    TenantLimiter,
    TokenBucket,
    normalize_request,
)
from repro.telemetry.ledger import RunLedger, deterministic_view
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Span, SpanRecorder

REQUEST = {"sweep": "hit-rates", "names": ["li"], "scale": 0.05, "seed": 1}


# -- unit: request normalisation and identity ---------------------------


class TestNormalizeRequest:
    def test_defaults_fill_in(self):
        request = normalize_request({"sweep": "speedup"})
        assert request.sweep == "speedup"
        assert len(request.names) > 0
        assert request.scale > 0

    def test_unknown_sweep_rejected(self):
        with pytest.raises(ServiceError, match="unknown sweep"):
            normalize_request({"sweep": "table99"})

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ServiceError, match="unknown benchmark"):
            normalize_request({"sweep": "speedup", "names": ["quake3"]})

    def test_scale_range_enforced(self):
        with pytest.raises(ServiceError, match="out of range"):
            normalize_request({"sweep": "speedup", "scale": 64})
        with pytest.raises(ServiceError, match="out of range"):
            normalize_request({"sweep": "speedup", "scale": 0})

    def test_bad_sizes_and_mechanism_rejected(self):
        with pytest.raises(ServiceError, match="sizes"):
            normalize_request({"sweep": "stack-depth", "sizes": ["big"]})
        with pytest.raises(ServiceError, match="mechanism"):
            normalize_request({"sweep": "stack-depth", "mechanism": "magic"})

    def test_non_mapping_rejected(self):
        with pytest.raises(ServiceError, match="JSON object"):
            normalize_request(["sweep", "speedup"])


class TestRequestKey:
    def test_key_ignores_scheduling_irrelevant_fields(self):
        # table1 is parameter-free: names/seed/scale must not split it.
        service = SimulationService(cache=None)
        a = service.request_key(normalize_request(
            {"sweep": "table1", "names": ["li"], "seed": 7}))
        b = service.request_key(normalize_request(
            {"sweep": "table1", "names": ["go"], "seed": 9}))
        assert a == b

    def test_key_tracks_result_determining_fields(self):
        service = SimulationService(cache=None)
        base = normalize_request(dict(REQUEST))
        other = normalize_request(dict(REQUEST, seed=2))
        assert service.request_key(base) != service.request_key(other)
        assert service.request_key(base) == service.request_key(
            normalize_request(dict(REQUEST)))

    def test_key_is_scheduler_independent(self):
        # jobs/backend/cache live on the service, not in the key.
        request = normalize_request(dict(REQUEST))
        serial = SimulationService(cache=None, jobs=1)
        parallel = SimulationService(cache=None, jobs=8)
        assert serial.request_key(request) == parallel.request_key(request)


# -- unit: admission control --------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTokenBucket:
    def test_burst_then_reject_with_retry_after(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=1.0, burst=2, clock=clock)
        assert bucket.try_take() == (True, 0.0)
        assert bucket.try_take() == (True, 0.0)
        allowed, retry_after = bucket.try_take()
        assert not allowed
        assert retry_after == pytest.approx(1.0)

    def test_refill_restores_tokens(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=2.0, burst=1, clock=clock)
        assert bucket.try_take()[0]
        assert not bucket.try_take()[0]
        clock.now += 0.5  # 2 tokens/s * 0.5s = exactly one token
        assert bucket.try_take()[0]

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=100.0, burst=2, clock=clock)
        clock.now += 60
        assert bucket.try_take()[0]
        assert bucket.try_take()[0]
        assert not bucket.try_take()[0]


class TestTenantLimiter:
    def test_default_open(self):
        limiter = TenantLimiter()
        for _ in range(1000):
            assert limiter.admit("anonymous")[0]

    def test_rate_limit_is_per_tenant(self):
        clock = FakeClock()
        limiter = TenantLimiter(rate_per_s=0.5, burst=1, clock=clock)
        assert limiter.admit("alpha")[0]
        allowed, reason, retry_after = limiter.admit("alpha")
        assert (allowed, reason) == (False, "rate")
        assert retry_after == pytest.approx(2.0)
        assert limiter.admit("beta")[0]  # fresh tenant, fresh bucket
        assert limiter.rejected["rate"] == 1

    def test_quota_counts_outstanding_jobs(self):
        limiter = TenantLimiter(quota=2)
        for _ in range(2):
            assert limiter.admit("alpha")[0]
            limiter.job_started("alpha")
        allowed, reason, _ = limiter.admit("alpha")
        assert (allowed, reason) == (False, "quota")
        limiter.job_finished("alpha")
        assert limiter.admit("alpha")[0]


# -- unit: the telemetry plumbing the service rides on ------------------


class TestMetricsFlatten:
    def test_flat_keys_cover_all_sections(self):
        registry = MetricsRegistry()
        registry.counter("jobs", state="done").increment(3)
        registry.gauge("depth").set(7)
        registry.rate("hits").record_many(1, 4)
        registry.histogram("wall").record(2, 5)
        flat = registry.flatten()
        assert flat["counters.jobs{state=done}"] == 3
        assert flat["gauges.depth"] == 7.0
        assert flat["rates.hits"] == pytest.approx(0.25)
        assert flat["histograms.wall"] == 5
        # deterministic order: fixed section sequence, sorted within
        sections = [key.split(".", 1)[0] for key in flat]
        assert sections == sorted(
            sections, key=["counters", "gauges", "rates",
                           "histograms"].index)


class TestSpanSubscribe:
    def test_subscriber_sees_spans_and_unsubscribes(self):
        recorder = SpanRecorder()
        seen = []
        token = recorder.subscribe(seen.append)
        recorder.record(Span("sweep/job", {"n": 1}))
        recorder.unsubscribe(token)
        recorder.record(Span("sweep/job", {"n": 2}))
        assert [span.attrs["n"] for span in seen] == [1]

    def test_raising_subscriber_is_dropped_not_fatal(self):
        recorder = SpanRecorder()

        def explode(span):
            raise RuntimeError("boom")

        recorder.subscribe(explode)
        recorder.record(Span("sweep/job", {}))  # must not raise
        recorder.record(Span("sweep/job", {}))
        assert len(recorder.records()) == 2


class TestCacheStats:
    def test_stats_and_ledger_path(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats["root"] == str(tmp_path / "cache")
        assert cache.ledger_path.parent == tmp_path / "cache"

    def test_default_ledger_path_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert ResultCache.default_ledger_path().parent == tmp_path / "alt"


# -- end-to-end over a real socket --------------------------------------


def _server(tmp_path, name="cache", **kwargs):
    service = SimulationService(cache=ResultCache(tmp_path / name), jobs=1)
    return ServiceServer(service, port=0, **kwargs)


def _post(url, payload, headers=None):
    """POST JSON; returns ``(status, decoded body, response headers)``."""
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST",
        headers=headers or {})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.load(response), dict(
                response.headers)
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.load(error), dict(error.headers)


def _get(url):
    with urllib.request.urlopen(url) as response:
        return json.load(response)


def _wait_done(base, job, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        descriptor = _get(f"{base}/v1/sweeps/{job}")
        if descriptor["state"] in ("done", "failed"):
            return descriptor
        time.sleep(0.1)
    raise AssertionError(f"job {job} did not finish in {timeout_s}s")


class TestServiceEndToEnd:
    def test_http_run_ledgers_bit_identical_to_direct_run(self, tmp_path):
        # Two *cold* cache roots: the ledger's deterministic view
        # includes cache hit/miss counts, so both sides must start
        # equally cold for bit-identity to be a meaningful claim.
        with BackgroundServer(_server(tmp_path, "http-cache")) as bg:
            status, submitted, _ = _post(bg.url + "/v1/sweeps", REQUEST)
            assert status == 202
            descriptor = _wait_done(bg.url, submitted["job"])
            assert descriptor["state"] == "done"
            http_rows = descriptor["result"]["rows"]

        direct = SimulationService(
            cache=ResultCache(tmp_path / "direct-cache"), jobs=1)
        outcome = direct.run_sweep(normalize_request(REQUEST))
        assert outcome.rows == http_rows

        http_entries = RunLedger(
            ResultCache(tmp_path / "http-cache").ledger_path).entries()
        direct_entries = RunLedger(
            ResultCache(tmp_path / "direct-cache").ledger_path).entries()
        assert len(http_entries) == len(direct_entries) == 1
        assert deterministic_view(http_entries[0]) == deterministic_view(
            direct_entries[0])

    def test_thousand_identical_submits_one_simulation(self, tmp_path):
        # slow_s keeps the job in flight while the burst lands, so
        # coalescing is exercised against a *running* job, not a
        # finished one.
        with BackgroundServer(_server(tmp_path, slow_s=0.5)) as bg:
            url = bg.url + "/v1/sweeps"
            with ThreadPoolExecutor(max_workers=32) as pool:
                results = list(pool.map(
                    lambda _: _post(url, REQUEST), range(1000)))
            job_ids = {body["job"] for _status, body, _headers in results}
            assert len(job_ids) == 1
            assert all(status in (200, 202)
                       for status, _body, _headers in results)
            _wait_done(bg.url, job_ids.pop())

            metricz = _get(bg.url + "/metricz")
            queue = metricz["service"]["queue"]
            assert queue["requests"] == 1000
            assert queue["coalesced"] == 999
            assert queue["executed"] == 1
            ledger = RunLedger(
                ResultCache(tmp_path / "cache").ledger_path)
            assert len(ledger.entries()) == 1

    def test_submits_after_completion_reuse_result_and_engine_idles(
            self, tmp_path):
        with BackgroundServer(_server(tmp_path)) as bg:
            _status, first, _headers = _post(bg.url + "/v1/sweeps", REQUEST)
            _wait_done(bg.url, first["job"])
            simulations = _get(
                bg.url + "/metricz")["service"]["queue"]["simulations"]

            status, again, _headers = _post(bg.url + "/v1/sweeps", REQUEST)
            assert status == 200  # finished job: result inline
            assert again["job"] == first["job"]
            assert again["coalesced"] is True
            assert again["result"]["rows"]
            after = _get(bg.url + "/metricz")["service"]["queue"]
            assert after["simulations"] == simulations  # zero new work

    def test_rate_limited_submit_gets_429_with_retry_after(self, tmp_path):
        limiter = TenantLimiter(rate_per_s=0.01, burst=1)
        with BackgroundServer(_server(tmp_path, limiter=limiter)) as bg:
            status, _body, _headers = _post(
                bg.url + "/v1/sweeps", dict(REQUEST, seed=11))
            assert status == 202
            # A *different* request: identical ones coalesce and bypass
            # admission by design.
            status, body, headers = _post(
                bg.url + "/v1/sweeps", dict(REQUEST, seed=12))
            assert status == 429
            assert "rate" in body["error"]
            assert int(headers["Retry-After"]) >= 1
            # Another tenant has its own bucket.
            status, _body, _headers = _post(
                bg.url + "/v1/sweeps", dict(REQUEST, seed=12),
                headers={"X-Api-Key": "team-b"})
            assert status == 202

    def test_quota_limits_outstanding_jobs_per_tenant(self, tmp_path):
        limiter = TenantLimiter(quota=1)
        with BackgroundServer(
                _server(tmp_path, limiter=limiter, slow_s=2.0)) as bg:
            status, _body, _headers = _post(
                bg.url + "/v1/sweeps", dict(REQUEST, seed=21))
            assert status == 202
            status, body, _headers = _post(
                bg.url + "/v1/sweeps", dict(REQUEST, seed=22))
            assert status == 429
            assert "quota" in body["error"]

    def test_sse_stream_replays_and_terminates(self, tmp_path):
        with BackgroundServer(_server(tmp_path)) as bg:
            _status, submitted, _headers = _post(
                bg.url + "/v1/sweeps", REQUEST)
            job = submitted["job"]
            # Reading the stream to EOF proves it closes on the
            # terminal event rather than idling forever.
            with urllib.request.urlopen(
                    f"{bg.url}/v1/sweeps/{job}/events") as stream:
                text = stream.read().decode()
        kinds = [line.split(": ", 1)[1] for line in text.splitlines()
                 if line.startswith("event: ")]
        assert kinds[0] == "state"  # queued, replayed from the buffer
        assert "progress" in kinds  # span-fed progress events
        assert kinds[-1] == "done"
        payloads = [json.loads(line.split(": ", 1)[1])
                    for line in text.splitlines()
                    if line.startswith("data: ")]
        assert all(event["job"] == job for event in payloads)

    def test_runs_read_api_matches_service_core(self, tmp_path):
        with BackgroundServer(_server(tmp_path)) as bg:
            for seed in (31, 32):
                _status, submitted, _headers = _post(
                    bg.url + "/v1/sweeps", dict(REQUEST, seed=seed))
                _wait_done(bg.url, submitted["job"])
            runs = _get(bg.url + "/v1/runs")
            assert len(runs["rows"]) == 2
            run_id = runs["entries"][-1]["run_id"]
            shown = _get(f"{bg.url}/v1/runs/{run_id}")
            assert shown["entry"]["run_id"] == run_id
            assert shown["integrity_ok"] is True
            diff = _get(f"{bg.url}/v1/runs/compare?a=-2&b=-1")
            assert "seeds" in diff["fields"] or diff["metrics"]

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{bg.url}/v1/runs/ffffffffffff")
            excinfo.value.close()
            assert excinfo.value.code == 404

    def test_unknown_route_404_wrong_method_405(self, tmp_path):
        with BackgroundServer(_server(tmp_path)) as bg:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(bg.url + "/v2/nope")
            excinfo.value.close()
            assert excinfo.value.code == 404
            status, _body, _headers = _post(bg.url + "/healthz", {})
            assert status == 405

    def test_dashboard_served_at_root(self, tmp_path):
        with BackgroundServer(_server(tmp_path)) as bg:
            with urllib.request.urlopen(bg.url + "/") as response:
                assert "text/html" in response.headers["Content-Type"]
                page = response.read().decode()
            assert "/v1/events" in page  # it drives the SSE feed
            assert "/metricz" in page

    def test_drain_finishes_inflight_rejects_new_exits(self, tmp_path):
        bg = BackgroundServer(_server(tmp_path, slow_s=1.0)).start()
        try:
            _status, submitted, _headers = _post(
                bg.url + "/v1/sweeps", REQUEST)
            bg.drain()
            health = _get(bg.url + "/healthz")
            assert health["draining"] is True
            status, body, headers = _post(
                bg.url + "/v1/sweeps", dict(REQUEST, seed=41))
            assert status == 503
            assert "draining" in body["error"]
            assert int(headers["Retry-After"]) >= 1
            bg.join(timeout=120)
            # the in-flight job completed before exit: its ledger entry
            # exists
            ledger = RunLedger(ResultCache(tmp_path / "cache").ledger_path)
            assert len(ledger.entries()) == 1
        finally:
            bg.stop()

    def test_stop_reaps_inflight_job_task(self, tmp_path):
        import asyncio

        bg = BackgroundServer(_server(tmp_path, slow_s=2.0)).start()
        status, _body, _headers = _post(bg.url + "/v1/sweeps", REQUEST)
        assert status == 202
        bg.stop()  # a hard stop, mid-job: no drain
        pending = [task for task in asyncio.all_tasks(bg._loop)
                   if task.get_coro().__qualname__ == "JobQueue._run"]
        assert pending == []
        assert not bg.server.queue._tasks


# -- process-level: repro-sim serve under SIGTERM -----------------------


@pytest.mark.skipif(sys.platform == "win32", reason="SIGTERM needs POSIX")
class TestServeProcess:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        env = dict(os.environ)
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        env["REPRO_SERVICE_SLOW_S"] = "1.5"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--bind", "127.0.0.1:0", "--jobs", "1"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        try:
            line = process.stderr.readline()
            assert "service listening at http://" in line
            base = line.strip().rsplit(" ", 1)[-1]
            status, submitted, _headers = _post(
                base + "/v1/sweeps", REQUEST)
            assert status == 202
            process.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if _get(base + "/healthz")["draining"]:
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("drain never announced on /healthz")
            status, _body, _headers = _post(
                base + "/v1/sweeps", dict(REQUEST, seed=51))
            assert status == 503
            assert process.wait(timeout=120) == 0
            ledger = RunLedger(ResultCache(tmp_path / "cache").ledger_path)
            entries = ledger.entries()
            assert len(entries) == 1  # the in-flight sweep finished
            assert submitted["state"] in ("queued", "running")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stderr.close()


# -- the CLI rides the same service core --------------------------------


class TestCliServiceIntegration:
    def test_runs_show_json(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["hit-rates", "--names", "li", "--scale", "0.05"]) == 0
        out = tmp_path / "entry.json"
        assert main(["runs", "show", "-1", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["integrity_ok"] is True
        assert payload["entry"]["run_id"]

    def test_cli_table_matches_http_rows(self, tmp_path, monkeypatch,
                                         capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
        out = tmp_path / "table.json"
        assert main(["hit-rates", "--names", "li", "--scale", "0.05",
                     "--json", str(out)]) == 0
        cli_rows = json.loads(out.read_text())["rows"]

        with BackgroundServer(_server(tmp_path, "svc-cache")) as bg:
            _status, submitted, _headers = _post(
                bg.url + "/v1/sweeps", REQUEST)
            descriptor = _wait_done(bg.url, submitted["job"])
        assert descriptor["result"]["rows"] == cli_rows

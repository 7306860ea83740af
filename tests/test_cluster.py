"""Tests for the distributed sweep backend (repro.cluster).

Transport-free units first (retry policy, wire format, lease table),
then in-process integration: a real coordinator (the service's
``/api/*`` routes) over HTTP with thread workers, proving cluster rows
and ledger views bit-identical to serial execution. Hard-failure chaos (SIGKILL, restarts) lives in
test_cluster_chaos.py.
"""

import concurrent.futures
import json
import time
import urllib.error
import urllib.request
import uuid

import pytest

from repro import telemetry
from repro.cluster import (
    ClusterClient,
    LeaseTable,
    RetryPolicy,
    decode_job,
    encode_job,
)
from repro.config.defaults import baseline_config
from repro.core import ExperimentJob, JobResult, ResultCache, SweepExecutor
from repro.core import executor as executor_module
from repro.core.experiment import WorkloadSpec, build_program
from repro.errors import ClusterError, ClusterUnavailable, ConfigError
from repro.service import SimulationService
from repro.telemetry import RunLedger
from repro.telemetry.ledger import deterministic_view
from tests.fleet import coordinator_server, thread_worker

SPEC = WorkloadSpec("li", seed=1, scale=0.05)


def _jobs(sizes=(1, 8, 32)):
    base = baseline_config()
    return [ExperimentJob(SPEC, base.with_ras_entries(size), "fast")
            for size in sizes]


def _result(wall=0.25):
    return {"engine": "fast", "instructions": 10, "cycles": 20.0,
            "ipc": 0.5, "counters": {}, "rates": {}, "wall_time_s": wall}


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestRetryPolicy:
    def test_deterministic_jitter(self):
        policy = RetryPolicy()
        assert policy.delay_s(2, "k") == policy.delay_s(2, "k")
        assert policy.delay_s(2, "k") != policy.delay_s(2, "other")
        assert policy.delay_s(2, "k") != policy.delay_s(3, "k")

    def test_exponential_and_capped(self):
        policy = RetryPolicy(base_delay_s=1.0, max_delay_s=4.0, jitter=0.0)
        assert policy.schedule() == [1.0, 2.0, 4.0]
        assert policy.delay_s(10) == 4.0  # capped, not 512

    def test_jitter_bounded(self):
        policy = RetryPolicy(base_delay_s=1.0, max_delay_s=1.0, jitter=0.25)
        for attempt in range(1, 6):
            delay = policy.delay_s(attempt, "any-key")
            assert 0.75 <= delay <= 1.25

    def test_budget_counts_executions(self):
        policy = RetryPolicy(max_attempts=3)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)
        assert policy.exhausted(4)


class TestPutIfAbsent:
    KEY = "ab" + "0" * 62

    def _make(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = JobResult(engine="fast", instructions=1, cycles=2.0,
                           ipc=0.5, counters={}, rates={})
        return cache, result

    def test_first_writer_wins(self, tmp_path):
        cache, result = self._make(tmp_path)
        assert cache.put_if_absent(self.KEY, result) is True
        loser = JobResult(engine="fast", instructions=999, cycles=2.0,
                          ipc=0.5, counters={}, rates={})
        assert cache.put_if_absent(self.KEY, loser) is False
        assert cache.get(self.KEY).instructions == 1  # not overwritten

    def test_corrupt_entry_is_repaired(self, tmp_path):
        cache, result = self._make(tmp_path)
        assert cache.put_if_absent(self.KEY, result) is True
        path, = list(cache.root.rglob("*.json"))
        path.write_text("{ not json !!")
        assert cache.get(self.KEY) is None
        assert cache.put_if_absent(self.KEY, result) is True  # repair wins
        assert cache.get(self.KEY) == result

    def test_duplicate_completion_counts_put_once(self, tmp_path):
        cache, result = self._make(tmp_path)
        registry = telemetry.metrics()
        before = registry.counter("cache.put").value
        cache.put_if_absent(self.KEY, result)
        cache.put_if_absent(self.KEY, result)
        assert registry.counter("cache.put").value == before + 1


class TestWireFormat:
    def test_job_roundtrip_preserves_cache_key(self):
        job = _jobs(sizes=(8,))[0]
        clone = decode_job(json.loads(json.dumps(encode_job(job))))
        assert clone.cache_key() == job.cache_key()
        assert clone.config.fingerprint() == job.config.fingerprint()
        assert clone.engine == job.engine

    def test_config_json_roundtrip(self):
        config = baseline_config().with_ras_entries(12)
        from repro.config.machine import MachineConfig
        clone = MachineConfig.from_json_dict(config.to_json_dict())
        assert clone.fingerprint() == config.fingerprint()
        with pytest.raises(ConfigError):
            MachineConfig.from_json_dict({"core": "nope"})

    def test_raw_program_refused(self):
        job = ExperimentJob(build_program(SPEC), baseline_config(), "fast")
        with pytest.raises(ClusterError):
            encode_job(job)

    def test_version_mismatch_refused(self):
        payload = encode_job(_jobs(sizes=(8,))[0])
        payload["version"] = 99
        with pytest.raises(ClusterError):
            decode_job(payload)


class TestLeaseTable:
    def _table(self, clock, **kwargs):
        kwargs.setdefault("lease_timeout_s", 10.0)
        kwargs.setdefault("policy", RetryPolicy(max_attempts=3, jitter=0.0,
                                                base_delay_s=1.0))
        return LeaseTable(clock=clock, **kwargs)

    def test_lease_complete_batch_order(self):
        clock = FakeClock()
        table = self._table(clock)
        worker = table.register("w")
        batch_id, stats = table.submit(
            [{"n": 1}, {"n": 2}], ["k1", "k2"], {})
        assert stats == {"enqueued": 2, "coalesced": 0, "cache_resolved": 0}
        for expected in ("k1", "k2"):
            grant = table.lease(worker)
            assert grant["key"] == expected
            table.complete(worker, grant["lease_id"], expected,
                           _result(wall=0.5))
        status = table.batch_status(batch_id)
        assert status["done"] and status["pending"] == 0
        assert [r["wall_time_s"] for r in status["results"]] == [0.5, 0.5]
        workers = table.stats()["workers"]
        assert workers["w"]["jobs"] == 2
        assert workers["w"]["wall_time_s"] == pytest.approx(1.0)

    def test_duplicate_keys_coalesce_within_and_across_batches(self):
        clock = FakeClock()
        table = self._table(clock)
        batch_a, stats_a = table.submit(
            [{"n": 1}, {"n": 1}], ["k", "k"], {})
        batch_b, stats_b = table.submit([{"n": 1}], ["k"], {})
        assert stats_a["coalesced"] == 1 and stats_b["coalesced"] == 1
        worker = table.register("w")
        grant = table.lease(worker)
        assert table.lease(worker) is None  # exactly one execution
        table.complete(worker, grant["lease_id"], "k", _result())
        for batch_id in (batch_a, batch_b):
            status = table.batch_status(batch_id)
            assert status["done"]
            assert all(r is not None for r in status["results"])

    def test_cached_jobs_born_done(self):
        table = self._table(FakeClock())
        batch_id, stats = table.submit(
            [{"n": 1}], ["k"], {"k": _result()})
        assert stats["cache_resolved"] == 1
        assert table.batch_status(batch_id)["done"]
        assert table.queue_depth() == 0

    def test_expired_lease_is_stolen(self):
        clock = FakeClock()
        table = self._table(clock)
        dead, alive = table.register("dead"), table.register("alive")
        table.submit([{"n": 1}], ["k"], {})
        grant = table.lease(dead)
        assert table.lease(alive) is None  # leased, not expired yet
        clock.advance(11.0)
        stolen = table.lease(alive)
        assert stolen is not None and stolen["key"] == "k"
        assert stolen["lease_id"] != grant["lease_id"]
        assert table.counts["steals"] == 1

    def test_heartbeat_extends_lease(self):
        clock = FakeClock()
        table = self._table(clock)
        worker = table.register("w")
        table.submit([{"n": 1}], ["k"], {})
        grant = table.lease(worker)
        for _ in range(3):
            clock.advance(8.0)
            assert table.heartbeat(worker, [grant["lease_id"]]) == []
        assert table.stats()["active_leases"] == 1  # never expired

    def test_late_result_discarded_idempotently(self):
        clock = FakeClock()
        table = self._table(clock)
        slow, fast = table.register("slow"), table.register("fast")
        table.submit([{"n": 1}], ["k"], {})
        slow_grant = table.lease(slow)
        clock.advance(11.0)  # slow worker exceeds the lease timeout
        fast_grant = table.lease(fast)
        first = table.complete(fast, fast_grant["lease_id"], "k",
                               _result(wall=1.0))
        late = table.complete(slow, slow_grant["lease_id"], "k",
                              _result(wall=9.0))
        assert first["accepted"] and not late["accepted"]
        assert late["duplicate"] and table.counts["duplicates"] == 1
        assert table.counts["completed"] == 1
        # the winner's attribution, not the late worker's
        assert table.stats()["workers"]["fast"]["jobs"] == 1
        assert table.stats()["workers"]["slow"]["jobs"] == 0

    def test_failure_backoff_then_terminal(self):
        clock = FakeClock()
        table = self._table(clock)
        worker = table.register("w")
        batch_id, _ = table.submit([{"n": 1}], ["k"], {})
        grant = table.lease(worker)
        verdict = table.fail(worker, grant["lease_id"], "k", "flaky")
        assert verdict["requeued"] and verdict["attempts"] == 1
        assert table.lease(worker) is None  # inside the backoff window
        clock.advance(1.5)  # base_delay 1.0s, jitter 0
        grant = table.lease(worker)
        assert grant["attempt"] == 2
        table.fail(worker, grant["lease_id"], "k", "flaky")
        clock.advance(2.5)
        grant = table.lease(worker)
        assert grant["attempt"] == 3
        verdict = table.fail(worker, grant["lease_id"], "k", "flaky")
        assert verdict["terminal"]  # max_attempts=3 exhausted
        status = table.batch_status(batch_id)
        assert status["done"] and status["failed"] == 1
        assert status["results"] == [None]
        assert "flaky" in status["errors"]["k"]

    def test_steals_count_against_retry_budget(self):
        clock = FakeClock()
        table = self._table(clock)
        worker = table.register("w")
        batch_id, _ = table.submit([{"n": 1}], ["k"], {})
        for _ in range(3):  # poison job: every execution dies silently
            assert table.lease(worker)["key"] == "k"
            clock.advance(11.0)
        status = table.batch_status(batch_id)
        assert status["done"] and status["failed"] == 1  # no infinite loop

    def test_unknown_worker_rejected(self):
        table = self._table(FakeClock())
        with pytest.raises(ClusterError):
            table.lease("never-registered")


@pytest.fixture()
def fleet(tmp_path):
    """A live coordinator + one thread worker over real HTTP:
    yields ``(url, coordinator, cache)``."""
    cache = ResultCache(tmp_path / "shared-cache")
    with coordinator_server(cache, lease_timeout_s=10.0,
                            poll_interval_s=0.02) as (url, coordinator):
        with thread_worker(url, "t1", cache):
            yield url, coordinator, cache


class TestCoordinatorTrace:
    def test_batch_spans_survive_ring_eviction(self, tmp_path):
        """A batch's coordinator spans are collected per batch, so
        unrelated spans that overrun the in-memory ring lose none."""
        from repro.cluster import Coordinator
        from repro.cluster.protocol import encode_result
        from repro.core.executor import run_job
        from repro.telemetry import span

        coordinator = Coordinator(cache=ResultCache(tmp_path / "cache"))
        worker_id = coordinator.handle_register({"worker": "w"})["worker_id"]
        job = _jobs(sizes=(4,))[0]
        trace_id = uuid.uuid4().hex
        batch_id = coordinator.handle_submit({
            "jobs": [encode_job(job)],
            "trace": {"trace_id": trace_id, "parent_id": "ab" * 8},
        })["batch_id"]
        for _ in range(5000):
            with span("test/noise"):
                pass
        grant = coordinator.handle_lease({"worker_id": worker_id})
        assert grant["status"] == "job"
        coordinator.handle_complete({
            "worker_id": worker_id, "lease_id": grant["lease_id"],
            "key": grant["key"], "result": encode_result(run_job(job))})
        spans = coordinator.batch_status(batch_id)["spans"]
        names = {item["name"] for item in spans}
        assert {"cluster/submit", "cache/get", "cluster/lease",
                "cluster/complete"} <= names
        assert {item["trace_id"] for item in spans} == {trace_id}
        # reported once, then dropped
        assert coordinator.batch_status(batch_id)["spans"] == []


class TestClusterExecutor:
    def _serial_entry(self, tmp_path):
        executor = SweepExecutor(
            jobs=1, cache=ResultCache(tmp_path / "serial-cache"),
            ledger=RunLedger(tmp_path / "serial-ledger.jsonl"))
        return executor.run(_jobs()), executor.last_entry

    def test_rows_and_ledger_match_serial(self, fleet, tmp_path):
        url, _coordinator, cache = fleet
        executor = SweepExecutor(
            jobs=1, cache=cache, backend="cluster", coordinator_url=url,
            ledger=RunLedger(tmp_path / "cluster-ledger.jsonl"))
        results = executor.run(_jobs())
        serial_results, serial_entry = self._serial_entry(tmp_path)
        assert [r.as_dict() for r in results] \
            == [r.as_dict() for r in serial_results]
        assert deterministic_view(executor.last_entry) \
            == deterministic_view(serial_entry)
        cluster = executor.last_entry["cluster"]
        assert cluster["counts"]["completed"] == len(_jobs())
        assert cluster["workers"]["t1"]["jobs"] == len(_jobs())
        assert cluster["unfinished"] == 0

    def test_remote_results_fill_shared_cache(self, fleet, tmp_path):
        url, coordinator, cache = fleet
        executor = SweepExecutor(jobs=1, cache=cache, backend="cluster",
                                 coordinator_url=url, ledger=None)
        executor.run(_jobs())
        assert executor.cache_misses == len(_jobs())
        # second sweep: resolved from the cache at submit time, so the
        # coordinator enqueues nothing and no simulator runs anywhere
        before = executor_module.simulation_calls()
        rerun = SweepExecutor(jobs=1, cache=cache, backend="cluster",
                              coordinator_url=url, ledger=None)
        rerun.run(_jobs())
        assert rerun.cache_hits == len(_jobs())
        assert executor_module.simulation_calls() == before
        assert coordinator.table.queue_depth() == 0

    def test_uncacheable_jobs_run_locally(self, fleet, tmp_path):
        url, coordinator, cache = fleet
        executor = SweepExecutor(jobs=1, cache=cache, backend="cluster",
                                 coordinator_url=url, ledger=None)
        raw = ExperimentJob(build_program(SPEC), baseline_config(), "fast")
        mixed = _jobs() + [raw]
        results = executor.run(mixed)
        assert len(results) == len(mixed)
        assert all(r.instructions > 0 for r in results)
        cluster = executor.last_entry["cluster"]
        assert cluster["local_jobs"] == 1  # the raw job never shipped
        assert coordinator.table.counts["submitted"] == len(_jobs())

    def test_no_workers_degrades_to_local(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CLUSTER_GRACE_S", "0.2")
        with coordinator_server(None) as (url, _coordinator):
            executor = SweepExecutor(
                jobs=1, cache=ResultCache(tmp_path / "cache"),
                backend="cluster", coordinator_url=url, ledger=None)
            results = executor.run(_jobs())
            assert [r.instructions > 0 for r in results]
            assert executor.last_cluster is None  # the sweep ran locally

    def test_unreachable_coordinator_degrades_to_local(self, tmp_path):
        executor = SweepExecutor(
            jobs=1, cache=ResultCache(tmp_path / "cache"), backend="cluster",
            coordinator_url="http://127.0.0.1:9", ledger=None)  # discard port
        results = executor.run(_jobs(sizes=(8,)))
        assert results[0].instructions > 0

    def test_transient_worker_failures_are_retried(self, tmp_path):
        from repro.cluster import ChaosHooks
        cache = ResultCache(tmp_path / "cache")
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.01,
                             max_delay_s=0.05)
        with coordinator_server(cache, poll_interval_s=0.02,
                                policy=policy) as (url, coordinator), \
                thread_worker(url, "flaky", cache,
                              chaos=ChaosHooks(fail_first=2)):
            executor = SweepExecutor(jobs=1, cache=cache, backend="cluster",
                                     coordinator_url=url, ledger=None)
            results = executor.run(_jobs())
            assert all(r.instructions > 0 for r in results)
            assert coordinator.table.counts["retries"] == 2
            assert coordinator.table.counts["completed"] == len(_jobs())

    def test_no_coordinator_url_degrades_at_once(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.delenv("REPRO_COORDINATOR", raising=False)
        monkeypatch.setenv("REPRO_CLUSTER_GRACE_S", "30")
        executor = SweepExecutor(
            jobs=1, cache=ResultCache(tmp_path / "cache"), backend="cluster",
            ledger=None)
        started = time.monotonic()
        results = executor.run(_jobs(sizes=(8,)))
        assert results[0].instructions > 0
        assert executor.last_cluster is None
        assert time.monotonic() - started < 30  # never waited out a grace

    def test_invalid_backend_rejected(self):
        with pytest.raises(ConfigError):
            SweepExecutor(backend="warp-drive")


class _FlakyPool:
    """Stand-in process pool: scripted per-instance breakage."""

    def __init__(self, plan, log):
        self.plan = plan  # instance index -> indices that break
        self.log = log
        self.instance = -1

    def __call__(self, max_workers=None, **kwargs):
        self.instance += 1
        self.log.append([])
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, job, *args):
        index = len(self.log[-1])
        self.log[-1].append(job)
        future = concurrent.futures.Future()
        if index in self.plan.get(self.instance, ()):
            future.set_exception(
                concurrent.futures.process.BrokenProcessPool("chaos"))
        else:
            future.set_result(fn(job, *args))
        return future


class TestBrokenPoolRetry:
    """Satellite: BrokenProcessPool retries the failed jobs only."""

    def _executor(self, plan, log):
        executor = SweepExecutor(
            jobs=2, cache=None, ledger=None,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.001,
                                     max_delay_s=0.002))
        executor._pool_factory = _FlakyPool(plan, log)
        return executor

    def test_only_failed_jobs_retried(self):
        log = []
        # first pool breaks the futures of jobs 1 and 2; second is clean
        executor = self._executor({0: (1, 2)}, log)
        before = telemetry.metrics().counter("executor.retries").value
        results = executor.run(_jobs())
        assert all(r.instructions > 0 for r in results)
        assert len(log) == 2
        assert len(log[0]) == 3 and len(log[1]) == 2  # failed subset only
        assert log[1] == log[0][1:]  # and exactly the broken ones, in order
        assert telemetry.metrics().counter("executor.retries").value \
            == before + 2

    def test_rows_identical_to_clean_run(self):
        broken = self._executor({0: (0, 1, 2), 1: (0,)}, [])
        clean = SweepExecutor(jobs=1, cache=None, ledger=None)
        assert [r.as_dict() for r in broken.run(_jobs())] \
            == [r.as_dict() for r in clean.run(_jobs())]

    def test_exhausted_budget_finishes_serially(self):
        log = []
        # every pool instance breaks everything: the retry budget runs
        # out and the stragglers complete in-process
        plan = {i: (0, 1, 2) for i in range(10)}
        executor = self._executor(plan, log)
        results = executor.run(_jobs())
        assert all(r.instructions > 0 for r in results)
        assert len(log) == executor.retry_policy.max_attempts


class TestClusterCli:
    def test_status_against_live_coordinator(self, fleet, capsys):
        url, _coordinator, _cache = fleet
        from repro.cli import main as cli_main
        assert cli_main(["cluster", "status", "--coordinator", url]) == 0
        out = capsys.readouterr().out
        assert "workers alive" in out
        assert url in out

    def test_status_prom_carries_cluster_samples(self, fleet, capsys):
        url, _coordinator, _cache = fleet
        from repro.cli import main as cli_main
        from repro.obs import prom
        assert cli_main(["cluster", "status", "--coordinator", url,
                         "--prom"]) == 0
        text = capsys.readouterr().out
        assert prom.validate(text) > 0
        assert "\nrepro_cluster_" in text

    def test_submit_through_external_coordinator(self, fleet, tmp_path,
                                                 monkeypatch, capsys):
        url, coordinator, _cache = fleet
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
        monkeypatch.setenv("REPRO_COORDINATOR", url)
        from repro.cli import main as cli_main
        out = tmp_path / "submit.json"
        assert cli_main([
            "stack-depth", "--backend", "cluster",
            "--names", "li", "--scale", "0.05", "--json", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["rows"][0][0] == "li"
        misses = payload["cache"]["misses"]
        assert misses > 0
        assert coordinator.table.counts["completed"] == misses
        entry = RunLedger(tmp_path / "cli-cache" / "ledger.jsonl").entries()[-1]
        assert entry["cluster"]["coordinator"] == url
        assert entry["cluster"]["workers"]["t1"]["jobs"] == misses

    def test_backend_flag_falls_back_without_fleet(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_CLUSTER_GRACE_S", "0.2")
        from repro.cli import main as cli_main
        assert cli_main(["stack-depth", "--names", "li", "--scale", "0.05",
                         "--backend", "cluster"]) == 0


# -- one server: the service is the coordinator -------------------------

STACK_DEPTH = {"sweep": "stack-depth", "names": ["li"], "scale": 0.05,
               "sizes": [1, 8]}


def _post(url, payload):
    """POST JSON; returns ``(status, decoded body)``."""
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST")
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.load(error)


def _get(url):
    with urllib.request.urlopen(url) as response:
        return json.load(response)


def _until(call, accept, timeout_s=60.0):
    """Repeat ``call()`` until ``accept(reply)``; returns the reply."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        reply = call()
        if accept(reply):
            return reply
        time.sleep(0.02)
    raise AssertionError(f"no accepted reply within {timeout_s}s")


def _wait_done(url, job):
    return _until(lambda: _get(f"{url}/v1/sweeps/{job}"),
                  lambda d: d["state"] in ("done", "failed"))


class TestOneServer:
    def test_one_port_serves_sweeps_and_leases(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with coordinator_server(cache, poll_interval_s=0.02) as (url, _):
            status, submitted = _post(url + "/v1/sweeps", STACK_DEPTH)
            assert status == 202
            client = ClusterClient(url)
            worker_id = str(client.register("probe")["worker_id"])
            assert client.lease(worker_id)["status"] == "idle"
            assert _wait_done(url, submitted["job"])["state"] == "done"
            health = _get(url + "/healthz")
            assert health["workers_alive"] == 1
            assert health["queue_depth"] == 0
            metricz = _get(url + "/metricz")
            assert metricz["cluster"]["counts"]["registrations"] == 1
            assert metricz["service"]["queue"]["executed"] == 1

    def test_self_coordinated_sweep_runs_on_attached_worker(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        service = SimulationService(cache=cache, jobs=1, backend="cluster")
        with coordinator_server(cache, service=service,
                                poll_interval_s=0.02) as (url, coordinator), \
                thread_worker(url, "attached", cache) as worker:
            _status, submitted = _post(url + "/v1/sweeps", STACK_DEPTH)
            descriptor = _wait_done(url, submitted["job"])
        assert descriptor["state"] == "done"
        assert service.coordinator_url == url
        assert worker.stats["jobs"] > 0
        assert coordinator.table.counts["completed"] == worker.stats["jobs"]
        entry = RunLedger(cache.ledger_path).entries()[-1]
        assert entry["cluster"]["coordinator"] == url
        assert entry["cluster"]["unfinished"] == 0
        serial = SimulationService(cache=ResultCache(tmp_path / "serial"),
                                   jobs=1)
        from repro.service import normalize_request
        outcome = serial.run_sweep(normalize_request(STACK_DEPTH))
        assert descriptor["result"]["rows"] == outcome.rows

    def test_api_shutdown_drains_but_keeps_leasing(self, tmp_path):
        from repro.cluster import Coordinator
        from repro.service import BackgroundServer, ServiceServer

        cache = ResultCache(tmp_path / "cache")
        service = SimulationService(cache=cache, jobs=1, backend="cluster")
        server = ServiceServer(service, port=0, coordinator=Coordinator(
            cache=cache, poll_interval_s=0.02))
        background = BackgroundServer(server).start()
        try:
            url = background.url
            client = ClusterClient(url)
            worker_id = str(client.register("manual")["worker_id"])
            status, submitted = _post(url + "/v1/sweeps", STACK_DEPTH)
            assert status == 202
            grant = _until(lambda: client.lease(worker_id),
                           lambda reply: reply["status"] == "job")
            assert client.shutdown() == {"ok": True}
            # drain: no new sweeps and no new batches ...
            status, body = _post(url + "/v1/sweeps",
                                 dict(STACK_DEPTH, seed=2))
            assert status == 503 and "draining" in body["error"]
            status, _body = _post(url + "/api/submit", {"jobs": []})
            assert status == 503
            with pytest.raises(ClusterUnavailable):
                client.submit(_jobs(sizes=(4,)))
            # ... but leasing goes on while the queue still has work
            completed = 0
            reply = grant
            while reply["status"] != "shutdown":
                if reply["status"] == "job":
                    result = executor_module.run_job(
                        decode_job(reply["job"]))
                    verdict = client.complete(
                        worker_id, str(reply["lease_id"]),
                        str(reply["key"]), result)
                    assert verdict["accepted"]
                    completed += 1
                else:
                    time.sleep(0.02)
                reply = client.lease(worker_id)
            assert completed >= 1
            background.join(timeout=30)
        finally:
            background.stop()
        job = server.queue.get(submitted["job"])
        assert job is not None and job.state == "done"
        entry = RunLedger(cache.ledger_path).entries()[-1]
        assert entry["cluster"]["unfinished"] == 0
        assert entry["cluster"]["workers"]["manual"]["jobs"] == completed

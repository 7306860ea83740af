"""Chaos tests: the cluster's failure matrix exercised for real.

Unlike test_cluster.py these tests kill actual worker *processes*
(SIGKILL, no cleanup), restart coordinators (service processes'
``/api/*`` routes), and let leases expire on
the wall clock — the robustness claims of docs/distributed.md §4
verified end to end. Timings are chosen so each test stays under a few
seconds: tiny workloads (scale 0.05), sub-second lease timeouts.
"""

import os
import pathlib
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.cluster import ClusterClient, ClusterWorker, decode_result
from repro.config.defaults import baseline_config
from repro.core import ExperimentJob, ResultCache, SweepExecutor
from repro.core import executor as executor_module
from repro.core.experiment import WorkloadSpec
from repro.telemetry import RunLedger
from repro.telemetry.ledger import deterministic_view
from tests.fleet import coordinator_server, thread_worker

pytestmark = pytest.mark.skipif(sys.platform == "win32",
                                reason="SIGKILL chaos needs POSIX")

SPEC = WorkloadSpec("li", seed=1, scale=0.05)


def _jobs(sizes=(1, 2, 4, 8, 16, 32)):
    base = baseline_config()
    return [ExperimentJob(SPEC, base.with_ras_entries(size), "fast")
            for size in sizes]


def _spawn_worker(url, cache_dir, name, extra_env=None):
    """A real repro-sim worker process, killable for real."""
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.update(extra_env or {})
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "cluster", "worker",
         "--coordinator", url, "--name", name],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _wait(predicate, timeout_s=20.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


class TestWorkerKilledMidJob:
    def test_jobs_requeued_and_rows_identical_to_serial(self, tmp_path):
        cache_dir = tmp_path / "shared-cache"
        cache = ResultCache(cache_dir)
        with coordinator_server(cache, lease_timeout_s=0.8,
                                poll_interval_s=0.02) as (url, coordinator):
            # the doomed worker registers first and SIGKILLs itself inside
            # its first leased job: its lease must expire and be stolen
            doomed = _spawn_worker(url, cache_dir, "doomed",
                                   {"REPRO_CHAOS_KILL_MIDJOB": "1"})
            assert _wait(lambda: coordinator.table.counts["registrations"] >= 1)
            # the rescuer joins shortly after the sweep starts, once the
            # doomed worker has certainly leased (poll interval 0.02s)
            rescuer = ClusterWorker(url, name="rescuer", cache=cache)
            rescue_thread = threading.Timer(
                0.4, lambda: threading.Thread(target=rescuer.run,
                                              daemon=True).start())
            rescue_thread.start()
            try:
                executor = SweepExecutor(
                    jobs=1, cache=cache, backend="cluster", coordinator_url=url,
                    ledger=RunLedger(tmp_path / "cluster-ledger.jsonl"))
                results = executor.run(_jobs())
                assert doomed.wait(timeout=10) == -9  # SIGKILLed itself
                serial = SweepExecutor(
                    jobs=1, cache=ResultCache(tmp_path / "serial-cache"),
                    ledger=RunLedger(tmp_path / "serial-ledger.jsonl"))
                serial_results = serial.run(_jobs())
                assert [r.as_dict() for r in results] \
                    == [r.as_dict() for r in serial_results]
                assert deterministic_view(executor.last_entry) \
                    == deterministic_view(serial.last_entry)
                cluster = executor.last_entry["cluster"]
                assert cluster["counts"]["steals"] >= 1  # observably re-queued
                assert cluster["counts"]["completed"] == len(_jobs())
                assert cluster["unfinished"] == 0
            finally:
                rescue_thread.cancel()
                rescuer.stop()
                if doomed.poll() is None:
                    doomed.kill()
                    doomed.wait()


class TestCoordinatorRestart:
    def test_finished_work_rebuilt_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        # leaving the block is the "crash": all lease state is gone
        with coordinator_server(cache, poll_interval_s=0.02) as (url, _), \
                thread_worker(url, "w", cache):
            executor = SweepExecutor(jobs=1, cache=cache, backend="cluster",
                                     coordinator_url=url, ledger=None)
            before_results = executor.run(_jobs())
        with coordinator_server(cache, poll_interval_s=0.02) as (url, second):
            client = ClusterClient(url)
            before = executor_module.simulation_calls()
            submitted = client.submit(_jobs())
            # every key resolves from the shared cache at submit time:
            # nothing queues, the batch is born done, no worker needed
            assert submitted["cache_resolved"] == len(_jobs())
            status = client.batch(str(submitted["batch_id"]))
            assert status["done"] and status["pending"] == 0
            rebuilt = [decode_result(payload)
                       for payload in status["results"]]
            assert [r.as_dict() for r in rebuilt] \
                == [r.as_dict() for r in before_results]
            assert executor_module.simulation_calls() == before
            assert second.table.counts.get("leases", 0) == 0


class TestSlowWorkerSteal:
    def test_job_stolen_and_late_result_discarded(self, tmp_path):
        """Protocol-level slow worker: leases, goes silent past the
        lease timeout (no heartbeat), then completes late."""
        cache = ResultCache(tmp_path / "cache")
        with coordinator_server(cache, lease_timeout_s=0.2,
                                poll_interval_s=0.02) as (url, coordinator):
            client = ClusterClient(url)
            slow = str(client.register("slow")["worker_id"])
            fast = str(client.register("fast")["worker_id"])
            client.submit(_jobs(sizes=(8,)))
            slow_grant = client.lease(slow)
            assert slow_grant["status"] == "job"
            time.sleep(0.3)  # the lease expires un-heartbeated
            fast_grant = client.lease(fast)
            assert fast_grant["status"] == "job"
            assert fast_grant["key"] == slow_grant["key"]  # stolen
            assert coordinator.table.counts["steals"] == 1
            result = executor_module.run_job(_jobs(sizes=(8,))[0])
            accepted = client.complete(fast, str(fast_grant["lease_id"]),
                                       str(fast_grant["key"]), result)
            assert accepted["accepted"]
            late = client.complete(slow, str(slow_grant["lease_id"]),
                                   str(slow_grant["key"]), result)
            assert not late["accepted"] and late["duplicate"]
            assert coordinator.table.counts["completed"] == 1
            assert coordinator.table.counts["duplicates"] == 1


class TestWorkerHeartbeatKeepsSlowJobs:
    def test_heartbeating_worker_is_not_stolen_from(self, tmp_path):
        """The converse guarantee: a *live* worker that is merely slow
        (chaos sleep > lease timeout) keeps its lease via heartbeats
        and its result is accepted, not discarded."""
        from repro.cluster import ChaosHooks
        cache = ResultCache(tmp_path / "cache")
        # the sleep is several lease timeouts long, and the heartbeat
        # renews at a third of the timeout: generous margins so a busy
        # CI machine cannot turn a live worker into a stolen lease
        with coordinator_server(cache, lease_timeout_s=1.5,
                                poll_interval_s=0.02) as (url, coordinator), \
                thread_worker(url, "slowpoke", cache,
                              chaos=ChaosHooks(slow_s=3.5)) as worker:
            executor = SweepExecutor(jobs=1, cache=cache, backend="cluster",
                                     coordinator_url=url, ledger=None)
            results = executor.run(_jobs(sizes=(8,)))
            assert results[0].instructions > 0
            assert coordinator.table.counts["steals"] == 0
            assert coordinator.table.counts["completed"] == 1
            assert worker.stats["lost_leases"] == 0

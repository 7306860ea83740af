"""The remote worker: lease, check-then-compute, stream results back.

A worker is a plain process (``repro-sim cluster worker``) pointed at a
coordinator URL. Its loop is deliberately boring:

1. **register** (retrying with backoff until the coordinator exists —
   so a fleet can be started before, after, or during its coordinator);
2. **lease** a job; when idle, sleep the coordinator-advertised poll
   interval and try again;
3. **check-then-compute**: probe the shared
   :class:`~repro.core.executor.ResultCache` under the leased key and
   complete instantly on a hit; otherwise execute through the ordinary
   :func:`~repro.core.executor.run_job` engine dispatch;
4. **complete** (or **fail**, for exceptions the coordinator should
   retry elsewhere) and loop.

A daemon heartbeat thread renews the active lease at a third of the
lease timeout, so only a worker that truly stopped — crashed, hung, or
SIGKILLed — lets its lease expire and its job be stolen.

Fault injection (the chaos tests and the CI chaos job drive these; see
docs/distributed.md):

* ``REPRO_CHAOS_KILL_MIDJOB=N`` — SIGKILL *this worker's own process*
  while executing its N-th leased job: the hard-crash path (lease
  expiry -> steal -> re-queue) exercised for real.
* ``REPRO_CHAOS_SLOW_S=X`` — sleep ``X`` seconds mid-execution: the
  slow-worker path (job stolen, late completion discarded).
* ``REPRO_CHAOS_FAIL_FIRST=N`` — report the first N leases as failed
  without executing: the transient-failure retry/backoff path.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import socket
import threading
import time
from typing import Dict, Optional, Union

from repro.cluster.protocol import ClusterClient, decode_job
from repro.cluster.retry import RetryPolicy
from repro.core.executor import ResultCache, run_job
from repro.errors import ClusterError, ClusterUnavailable
from repro.telemetry import span
from repro.telemetry import spans as tracing


@dataclasses.dataclass(frozen=True)
class ChaosHooks:
    """Fault-injection switches, normally read from the environment."""

    kill_midjob: Optional[int] = None
    slow_s: float = 0.0
    fail_first: int = 0

    @classmethod
    def from_env(cls) -> "ChaosHooks":
        def _int(name: str) -> Optional[int]:
            raw = os.environ.get(name)
            return int(raw) if raw else None

        return cls(
            kill_midjob=_int("REPRO_CHAOS_KILL_MIDJOB"),
            slow_s=float(os.environ.get("REPRO_CHAOS_SLOW_S", "0") or 0),
            fail_first=_int("REPRO_CHAOS_FAIL_FIRST") or 0,
        )


class ClusterWorker:
    """One lease-execute-complete loop against a coordinator."""

    def __init__(
        self,
        coordinator_url: str,
        name: Optional[str] = None,
        cache: Union[ResultCache, None, str] = "default",
        max_jobs: Optional[int] = None,
        transport_policy: Optional[RetryPolicy] = None,
        chaos: Optional[ChaosHooks] = None,
        connect_timeout_s: float = 30.0,
    ) -> None:
        self.client = ClusterClient(coordinator_url)
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        if cache == "default":
            self.cache: Optional[ResultCache] = ResultCache.default()
        else:
            self.cache = cache  # type: ignore[assignment]
        self.max_jobs = max_jobs
        #: Governs how long transport errors are tolerated before the
        #: worker gives up on the coordinator and exits cleanly.
        self.transport_policy = transport_policy or RetryPolicy(
            max_attempts=6, base_delay_s=0.2, max_delay_s=2.0)
        self.chaos = chaos if chaos is not None else ChaosHooks.from_env()
        self.connect_timeout_s = connect_timeout_s
        self.worker_id: Optional[str] = None
        self.poll_interval_s = 0.25
        self.lease_timeout_s = 30.0
        self.stats: Dict[str, int] = {
            "jobs": 0, "cache_hits": 0, "failures": 0, "lost_leases": 0}
        self._stop = threading.Event()
        self._active_lease: Optional[str] = None
        self._lease_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------

    def stop(self) -> None:
        self._stop.set()

    def _register(self) -> None:
        """Register, waiting (bounded) for the coordinator to appear."""
        deadline = time.monotonic() + self.connect_timeout_s
        attempt = 0
        while True:
            try:
                hello = self.client.register(self.name)
                break
            except ClusterUnavailable:
                attempt += 1
                if time.monotonic() >= deadline or self._stop.is_set():
                    raise
                time.sleep(self.transport_policy.delay_s(attempt, self.name))
        self.worker_id = str(hello["worker_id"])
        self.poll_interval_s = float(
            hello.get("poll_interval_s", self.poll_interval_s))
        self.lease_timeout_s = float(
            hello.get("lease_timeout_s", self.lease_timeout_s))

    def _heartbeat_loop(self) -> None:
        interval = max(0.05, self.lease_timeout_s / 3.0)
        while not self._stop.wait(interval):
            with self._lease_lock:
                lease_id = self._active_lease
            if lease_id is None or self.worker_id is None:
                continue
            try:
                reply = self.client.heartbeat(self.worker_id, [lease_id])
                if lease_id in (reply.get("lost") or []):
                    self.stats["lost_leases"] += 1
            except (ClusterError, ClusterUnavailable):
                pass  # the main loop owns the give-up decision

    # -- the loop ------------------------------------------------------

    def run(self) -> Dict[str, int]:
        """Work until shutdown/drain, coordinator loss, or ``max_jobs``.

        Returns the worker's own counters (jobs, cache hits, failures,
        lost leases) — the CLI prints them on exit.
        """
        self._register()
        heartbeat = threading.Thread(target=self._heartbeat_loop,
                                     name="repro-worker-heartbeat",
                                     daemon=True)
        heartbeat.start()
        transport_failures = 0
        try:
            while not self._stop.is_set():
                if self.max_jobs is not None \
                        and self.stats["jobs"] >= self.max_jobs:
                    break
                try:
                    reply = self.client.lease(self.worker_id or "")
                    transport_failures = 0
                except (ClusterUnavailable, ClusterError):
                    transport_failures += 1
                    if self.transport_policy.exhausted(transport_failures):
                        break  # coordinator is gone; exit cleanly
                    time.sleep(self.transport_policy.delay_s(
                        transport_failures, self.name))
                    continue
                status = reply.get("status")
                if status == "shutdown":
                    break
                if status != "job":
                    self._stop.wait(float(
                        reply.get("retry_after_s", self.poll_interval_s)))
                    continue
                self._run_lease(reply)
        finally:
            self._stop.set()
            heartbeat.join(timeout=1.0)
        return dict(self.stats)

    def _run_lease(self, grant: Dict[str, object]) -> None:
        lease_id = str(grant["lease_id"])
        key = str(grant["key"])
        leased_so_far = (self.stats["jobs"] + self.stats["failures"]) + 1
        if self.chaos.fail_first and leased_so_far <= self.chaos.fail_first:
            self.stats["failures"] += 1
            self._call_safely(lambda: self.client.fail(
                self.worker_id or "", lease_id, key,
                "chaos: injected transient failure"))
            return
        with self._lease_lock:
            self._active_lease = lease_id
        # rebuild the submitter's trace context from the lease grant and
        # collect every span this job records, so the batch can ride the
        # complete payload home; a SIGKILLed worker simply never sends
        # its batch — partial spans die with the process, the merged
        # trace stays clean
        ctx = tracing.from_wire(grant.get("trace"))
        collector = (tracing.Collector(ctx.trace_id) if ctx is not None
                     else None)
        try:
            with tracing.activate(ctx):
                with span("cluster/job", key=key[:12], worker=self.name):
                    cached = self.cache.get(key) if self.cache is not None \
                        else None
                    if cached is not None:
                        result = dataclasses.replace(cached, from_cache=True)
                        self.stats["cache_hits"] += 1
                    else:
                        job = decode_job(grant["job"])  # type: ignore[arg-type]
                        if self.chaos.kill_midjob is not None \
                                and leased_so_far >= self.chaos.kill_midjob:
                            # die the hard way: no cleanup, no goodbye — the
                            # lease must expire and the job must be stolen
                            os.kill(os.getpid(), signal.SIGKILL)
                        result = run_job(job)
                        if self.chaos.slow_s > 0.0:
                            time.sleep(self.chaos.slow_s)
        except ClusterError as error:
            self.stats["failures"] += 1
            self._call_safely(lambda: self.client.fail(
                self.worker_id or "", lease_id, key, str(error)))
            return
        except Exception as error:  # engine failure -> coordinator retries
            self.stats["failures"] += 1
            self._call_safely(lambda: self.client.fail(
                self.worker_id or "", lease_id, key,
                f"{type(error).__name__}: {error}"))
            return
        finally:
            collected = collector.close() if collector is not None else []
            with self._lease_lock:
                self._active_lease = None
        self._call_safely(lambda: self.client.complete(
            self.worker_id or "", lease_id, key, result,
            spans=collected or None))
        self.stats["jobs"] += 1

    def _call_safely(self, call) -> None:
        """Fire an RPC whose failure must not kill the loop (the lease
        table will steal the job back if the message was lost)."""
        try:
            call()
        except (ClusterError, ClusterUnavailable):
            pass


def run_worker(coordinator_url: str, **kwargs: object) -> Dict[str, int]:
    """Convenience wrapper: build a worker and run it to completion."""
    return ClusterWorker(coordinator_url, **kwargs).run()  # type: ignore[arg-type]

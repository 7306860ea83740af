"""The cluster coordinator: request handlers over a lease table.

:class:`Coordinator` turns decoded ``/api/*`` JSON payloads into
:class:`~repro.cluster.leases.LeaseTable` calls and JSON replies. It
owns no socket and no thread: the simulation service
(:class:`~repro.service.http.ServiceServer`, ``repro-sim serve``)
routes ``/api/*`` to it, so one server is both the sweep API and the
fleet's coordinator.

Responsibilities beyond the lease table:

* **Key derivation.** Submitted job payloads are decoded and keyed by
  ``ExperimentJob.cache_key()`` *on the coordinator*, so the queue's
  dedupe/coalescing identity is exactly the executor cache identity
  and a client can never poison the table with a mismatched key.
  (Submitter, coordinator, and workers must run the same ``repro``
  tree — the code fingerprint is part of every key.)
* **Cache integration.** At submit time each key is probed against the
  shared :class:`~repro.core.executor.ResultCache`; hits are born
  finished and never queued (a restarted coordinator thus rebuilds
  "already done" from the cache). Accepted completions are written
  back with ``put_if_absent`` — first writer wins, duplicates never
  double-count cache statistics. These two handlers touch the disk, so
  the server runs them off its event loop.
* **Telemetry.** Queue depth / active leases / worker peaks are kept
  as gauges, robustness events (steals, retries, duplicates,
  failures) as counters, and per-worker attribution as labelled
  counters, all exported as a
  :class:`~repro.telemetry.MetricsRegistry` snapshot in
  ``GET /api/status`` and on the service's ``/metricz`` (metric names
  in docs/observability.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.cluster.leases import LeaseTable
from repro.obs import context as tracectx
from repro.cluster.protocol import (
    DEFAULT_LEASE_TIMEOUT_S,
    DEFAULT_POLL_INTERVAL_S,
    PROTOCOL_VERSION,
    decode_job,
    decode_result,
)
from repro.cluster.retry import RetryPolicy
from repro.core.executor import ResultCache
from repro.errors import ClusterError
from repro.telemetry import MetricsRegistry, span
from repro.telemetry.spans import recorder


class Coordinator:
    """The work-stealing job queue's endpoint handlers."""

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        poll_interval_s: float = DEFAULT_POLL_INTERVAL_S,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.cache = cache
        self.poll_interval_s = poll_interval_s
        self.table = LeaseTable(lease_timeout_s=lease_timeout_s,
                                policy=policy)
        #: Set by the owning server once its drain is done: from then
        #: on every lease poll answers ``shutdown``.
        self.shutting_down = False
        #: Worker ids that have been told to shut down.
        self.told: Set[str] = set()
        self._peaks = {"queue_depth": 0, "active_leases": 0, "workers": 0}

    def fleet_told(self) -> bool:
        """Whether every live worker has heard ``shutdown``."""
        return len(self.told) >= self.table.workers_alive()

    # -- peak tracking -------------------------------------------------

    def _track_peaks(self) -> None:
        stats = self.table.stats()
        for gauge, value in (("queue_depth", stats["queue_depth"]),
                             ("active_leases", stats["active_leases"]),
                             ("workers", len(stats["workers"]))):
            if value > self._peaks[gauge]:  # type: ignore[operator]
                self._peaks[gauge] = value  # type: ignore[assignment]

    # -- endpoint handlers ---------------------------------------------

    def handle_register(self, payload: Dict[str, object]) -> Dict[str, object]:
        worker_id = self.table.register(str(payload.get("worker", "")))
        self._track_peaks()
        return {
            "worker_id": worker_id,
            "version": PROTOCOL_VERSION,
            "lease_timeout_s": self.table.lease_timeout_s,
            "poll_interval_s": self.poll_interval_s,
        }

    @staticmethod
    def _tag_span(sp, trace: object) -> None:
        """Attach the submitter's trace identity to an open span.

        Coordinator request spans open *before* the lease table tells
        us which trace the touched job belongs to, so the identity is
        stamped after the fact — the span has not been recorded yet.
        """
        if sp is None or not isinstance(trace, dict):
            return
        ctx = tracectx.from_wire(trace)
        if ctx is None:
            return
        sp.trace_id = ctx.trace_id
        sp.span_id = tracectx.new_span_id()
        sp.parent_id = ctx.span_id or None

    def handle_lease(self, payload: Dict[str, object]) -> Dict[str, object]:
        worker_id = str(payload.get("worker_id", ""))
        if self.shutting_down:
            self.told.add(worker_id)
            return {"status": "shutdown"}
        with span("cluster/lease") as sp:
            grant = self.table.lease(worker_id)
            if grant is not None:
                self._tag_span(sp, grant.get("trace"))
        self._track_peaks()
        if grant is None:
            return {"status": "idle",
                    "retry_after_s": self.poll_interval_s}
        grant["status"] = "job"
        return grant

    def handle_heartbeat(self, payload: Dict[str, object]) -> Dict[str, object]:
        lost = self.table.heartbeat(
            str(payload.get("worker_id", "")),
            [str(x) for x in payload.get("lease_ids", [])])  # type: ignore[union-attr]
        return {"ok": True, "lost": lost}

    def handle_complete(self, payload: Dict[str, object]) -> Dict[str, object]:
        result_payload = payload.get("result")
        if not isinstance(result_payload, dict):
            raise ClusterError("complete: missing result object")
        decode_result(result_payload)  # validate before accepting
        key = str(payload.get("key", ""))
        spans_payload = payload.get("spans")
        span_batch: Optional[List[Dict[str, object]]] = None
        if isinstance(spans_payload, list):
            span_batch = [item for item in spans_payload
                          if isinstance(item, dict)]
        with span("cluster/complete", key=key[:12]) as sp:
            verdict = self.table.complete(
                str(payload.get("worker_id", "")),
                str(payload.get("lease_id", "")), key, result_payload,
                spans=span_batch)
            self._tag_span(sp, verdict.pop("trace", None))
        if verdict.get("accepted") and self.cache is not None:
            # first-writer-wins on disk too: a duplicate completion
            # that lost the race above never rewrites the cache entry,
            # so ledger cache statistics count each result once
            self.cache.put_if_absent(
                key, decode_result(result_payload))
        return verdict

    def handle_fail(self, payload: Dict[str, object]) -> Dict[str, object]:
        return self.table.fail(
            str(payload.get("worker_id", "")),
            str(payload.get("lease_id", "")),
            str(payload.get("key", "")),
            str(payload.get("error", "unspecified worker error")))

    def handle_submit(self, payload: Dict[str, object]) -> Dict[str, object]:
        jobs = payload.get("jobs")
        if not isinstance(jobs, list):
            raise ClusterError("submit: missing jobs list")
        trace_wire = payload.get("trace")
        trace_ctx = (tracectx.from_wire(trace_wire)
                     if isinstance(trace_wire, dict) else None)
        keys = []
        # the submitter's context makes the coordinator's own spans
        # (submit, and the cache probes inside) part of the sweep trace
        with tracectx.activate(trace_ctx):
            with span("cluster/submit", jobs=len(jobs)):
                for encoded in jobs:
                    job = decode_job(encoded)
                    key = job.cache_key()
                    if key is None:
                        raise ClusterError(
                            "submit: job has no cache key (raw programs and "
                            "checksum-less shards run on the local backend)")
                    keys.append(key)
                cached: Dict[str, Dict[str, object]] = {}
                if self.cache is not None:
                    for key in keys:
                        hit = self.cache.get(key)
                        if hit is not None:
                            cached[key] = hit.to_json_dict()
                batch_id, stats = self.table.submit(
                    jobs, keys, cached,
                    trace=trace_wire if trace_ctx is not None else None)
        self._track_peaks()
        return {"batch_id": batch_id, "submitted": len(jobs), **stats}

    # -- introspection -------------------------------------------------

    def batch_status(self, batch_id: str) -> Dict[str, object]:
        status = self.table.batch_status(batch_id)
        status["workers_alive"] = self.table.workers_alive()
        if status.get("done") and isinstance(status.get("trace"), dict):
            # piggyback the coordinator's own spans for this trace on
            # the final poll, so the submitter's merged trace covers
            # submit/lease/complete scheduling time too
            ctx = tracectx.from_wire(status["trace"])
            if ctx is not None:
                own = [item.to_json_dict() for item in recorder.records()
                       if item.trace_id == ctx.trace_id]
                merged = status.get("spans")
                status["spans"] = (merged if isinstance(merged, list)
                                   else []) + own
        return status

    def metrics_snapshot(self) -> Dict[str, object]:
        """Cluster state as a mergeable metrics snapshot.

        Gauges carry peaks (the one order-independent aggregate), so
        merging snapshots from repeated polls never undercounts a
        fleet's high-water utilisation.
        """
        registry = MetricsRegistry()
        stats = self.table.stats()
        for name, value in sorted(stats["counts"].items()):  # type: ignore[union-attr]
            registry.counter(f"cluster.{name}").increment(int(value))
        for gauge, peak in sorted(self._peaks.items()):
            registry.gauge(f"cluster.{gauge}").set(float(peak))
        for name, info in sorted(stats["workers"].items()):  # type: ignore[union-attr]
            registry.counter("cluster.worker.jobs",
                             worker=name).increment(int(info["jobs"]))
            registry.counter("cluster.worker.wall_ms", worker=name).increment(
                int(round(1000.0 * float(info["wall_time_s"]))))
        return registry.snapshot()

    def status(self) -> Dict[str, object]:
        stats = self.table.stats()
        stats["version"] = PROTOCOL_VERSION
        stats["workers_alive"] = self.table.workers_alive()
        stats["peaks"] = dict(self._peaks)
        stats["metrics"] = self.metrics_snapshot()
        return stats

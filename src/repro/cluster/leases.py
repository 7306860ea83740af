"""The coordinator's state machine: queue, leases, retries, batches.

:class:`LeaseTable` is deliberately transport-free — plain method calls
under one lock, with an injectable clock — so every robustness rule the
cluster promises is unit-testable without sockets:

* **Work stealing.** Workers *pull*: a ``lease`` hands out the oldest
  runnable job. A lease expires ``lease_timeout_s`` after its last
  heartbeat; expired leases are reaped on every table operation and
  their jobs re-queued at the front, which is precisely a steal from a
  dead (or too-slow) worker.
* **Capped retry with backoff.** A reported failure re-queues the job
  with ``not_before = now + policy.delay_s(attempts, key)`` — capped
  exponential backoff with deterministic jitter
  (:mod:`repro.cluster.retry`). A job that exhausts
  ``policy.max_attempts`` executions (failures and steals both count;
  a poison job cannot loop a fleet forever) is terminally FAILED and
  surfaces as an error in its batch, never as a hang.
* **Idempotent completion.** The first completion for a job *key* wins,
  whoever holds the lease; every later completion — a slow worker
  finishing after its job was stolen and recomputed — is discarded and
  counted, never double-applied.
* **Coalescing.** Jobs are keyed by their executor cache key; a key
  submitted twice (same batch or a second concurrent batch) executes
  once, and every submitting batch receives the one result.

State lives only in memory plus the shared
:class:`~repro.core.executor.ResultCache`: the coordinator probes the
cache at submit time and writes accepted results back through
``put_if_absent``, so a restarted coordinator rebuilds "what is already
done" from the cache and re-queues only genuinely unfinished work.
"""

from __future__ import annotations

import collections
import threading
import time
import uuid
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.cluster.retry import RetryPolicy
from repro.cluster.protocol import DEFAULT_LEASE_TIMEOUT_S
from repro.errors import ClusterError, ConfigError
from repro.telemetry.spans import MAX_SPANS_PER_JOB

#: Job lifecycle states.
PENDING, LEASED, DONE, FAILED = "pending", "leased", "done", "failed"


class JobRecord:
    """One keyed job and everything the coordinator knows about it."""

    __slots__ = ("key", "payload", "status", "attempts", "steals",
                 "not_before", "lease_id", "worker", "deadline",
                 "result", "error", "from_cache", "trace", "spans")

    def __init__(self, key: str, payload: Dict[str, object]) -> None:
        self.key = key
        self.payload = payload
        self.status = PENDING
        self.attempts = 0          # executions granted so far
        self.steals = 0            # expired-lease requeues
        self.not_before = 0.0      # earliest next lease (backoff)
        self.lease_id: Optional[str] = None
        self.worker: Optional[str] = None
        self.deadline = 0.0
        self.result: Optional[Dict[str, object]] = None
        self.error: Optional[str] = None
        self.from_cache = False    # resolved by the coordinator's cache
        #: Wire-form trace context the submitter attached, handed to
        #: workers with the lease grant.
        self.trace: Optional[Dict[str, object]] = None
        #: Span batch the completing worker shipped back.
        self.spans: Optional[List[Dict[str, object]]] = None


class WorkerInfo:
    """Registration record and per-worker attribution counters."""

    __slots__ = ("worker_id", "name", "registered_at", "last_seen",
                 "jobs_done", "wall_time_s", "leases", "failures")

    def __init__(self, worker_id: str, name: str, now: float) -> None:
        self.worker_id = worker_id
        self.name = name
        self.registered_at = now
        self.last_seen = now
        self.jobs_done = 0
        self.wall_time_s = 0.0
        self.leases = 0
        self.failures = 0


class LeaseTable:
    """Thread-safe job queue with leases, retries, and batches."""

    def __init__(
        self,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        policy: Optional[RetryPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_timeout_s <= 0:
            raise ConfigError(
                f"lease timeout must be > 0 seconds, got {lease_timeout_s}")
        self.lease_timeout_s = lease_timeout_s
        self.policy = policy or RetryPolicy()
        self.clock = clock
        self._lock = threading.Lock()
        self._records: Dict[str, JobRecord] = {}
        self._queue: Deque[str] = collections.deque()
        self._batches: Dict[str, List[str]] = {}
        self._batch_traces: Dict[str, Dict[str, object]] = {}
        self._workers: Dict[str, WorkerInfo] = {}
        #: Robustness counters, exported through the coordinator's
        #: metrics snapshot (docs/observability.md).
        self.counts: Dict[str, int] = collections.Counter()

    # -- workers -------------------------------------------------------

    def register(self, name: str) -> str:
        with self._lock:
            worker_id = uuid.uuid4().hex[:12]
            self._workers[worker_id] = WorkerInfo(
                worker_id, name or f"worker-{worker_id[:6]}", self.clock())
            self.counts["registrations"] += 1
            return worker_id

    def _touch(self, worker_id: str) -> Optional[WorkerInfo]:
        info = self._workers.get(worker_id)
        if info is not None:
            info.last_seen = self.clock()
        return info

    def workers_alive(self, ttl_s: Optional[float] = None) -> int:
        """Workers seen within ``ttl_s`` (default: twice the lease
        timeout) — the liveness signal batch pollers use to detect a
        dead fleet."""
        ttl = (2.0 * self.lease_timeout_s) if ttl_s is None else ttl_s
        now = self.clock()
        with self._lock:
            return sum(1 for info in self._workers.values()
                       if now - info.last_seen <= ttl)

    # -- submission ----------------------------------------------------

    def submit(
        self,
        payloads: Sequence[Dict[str, object]],
        keys: Sequence[str],
        cached: Optional[Dict[str, Dict[str, object]]] = None,
        trace: Optional[Dict[str, object]] = None,
    ) -> Tuple[str, Dict[str, int]]:
        """Enqueue one batch of keyed job payloads.

        ``cached`` maps keys the submitter (coordinator) already
        resolved from the result cache to their result payloads; those
        records are born DONE and never reach the queue. Keys already
        known to the table — in flight or finished — are coalesced, not
        re-queued. ``trace`` is the submitter's wire-form trace context;
        it rides on new records (a coalesced record keeps the trace of
        whoever submitted it first) and names the batch's trace for
        span merging in :meth:`batch_status`. Returns
        ``(batch_id, stats)``.
        """
        if len(payloads) != len(keys):
            raise ClusterError("submit: payloads and keys length mismatch")
        if any(not key for key in keys):
            raise ClusterError("submit: every clustered job needs a cache "
                               "key (uncacheable jobs run locally)")
        cached = cached or {}
        stats = {"enqueued": 0, "coalesced": 0, "cache_resolved": 0}
        with self._lock:
            batch_id = uuid.uuid4().hex[:12]
            order: List[str] = []
            for payload, key in zip(payloads, keys):
                order.append(key)
                record = self._records.get(key)
                if record is not None:
                    stats["coalesced"] += 1
                    continue
                record = JobRecord(key, payload)
                record.trace = trace
                self._records[key] = record
                hit = cached.get(key)
                if hit is not None:
                    record.status = DONE
                    record.result = hit
                    record.from_cache = True
                    stats["cache_resolved"] += 1
                else:
                    self._queue.append(key)
                    stats["enqueued"] += 1
            self._batches[batch_id] = order
            if trace is not None:
                self._batch_traces[batch_id] = trace
            self.counts["submitted"] += len(order)
            self.counts["coalesced"] += stats["coalesced"]
            self.counts["cache_resolved"] += stats["cache_resolved"]
            return batch_id, stats

    # -- lease lifecycle -----------------------------------------------

    def _reap_expired(self, now: float) -> None:
        """Re-queue (steal back) every lease past its deadline.

        Called under the lock from every mutating operation, so a dead
        worker's jobs return to the queue the next time *anything*
        touches the table — no background reaper thread to test or to
        crash. Stolen jobs go to the queue *front*: they have waited
        longest and block batch completion.
        """
        for record in self._records.values():
            if record.status is not LEASED or record.deadline > now:
                continue
            record.status = PENDING
            record.lease_id = None
            record.worker = None
            record.steals += 1
            self.counts["steals"] += 1
            if self.policy.exhausted(record.attempts) \
                    and record.attempts >= 1:
                self._fail_terminally(
                    record, "lease expired after "
                    f"{record.attempts} execution(s); retry budget "
                    f"of {self.policy.max_attempts} exhausted")
            else:
                self._queue.appendleft(record.key)

    def _fail_terminally(self, record: JobRecord, error: str) -> None:
        record.status = FAILED
        record.error = error
        self.counts["failures"] += 1

    def lease(self, worker_id: str) -> Optional[Dict[str, object]]:
        """Hand the oldest runnable job to ``worker_id``, or ``None``.

        Jobs still inside their backoff window are skipped (and kept);
        ``None`` means "nothing runnable right now — poll again".
        """
        now = self.clock()
        with self._lock:
            info = self._touch(worker_id)
            if info is None:
                raise ClusterError(f"unknown worker {worker_id!r}; "
                                   "register first")
            self._reap_expired(now)
            deferred: List[str] = []
            granted: Optional[JobRecord] = None
            while self._queue:
                key = self._queue.popleft()
                record = self._records.get(key)
                if record is None or record.status is not PENDING:
                    continue  # completed or failed while queued
                if record.not_before > now:
                    deferred.append(key)
                    continue
                granted = record
                break
            for key in reversed(deferred):
                self._queue.appendleft(key)
            if granted is None:
                return None
            granted.status = LEASED
            granted.lease_id = uuid.uuid4().hex[:12]
            granted.worker = worker_id
            granted.deadline = now + self.lease_timeout_s
            granted.attempts += 1
            info.leases += 1
            self.counts["leases"] += 1
            grant: Dict[str, object] = {
                "lease_id": granted.lease_id,
                "key": granted.key,
                "job": granted.payload,
                "deadline_s": round(self.lease_timeout_s, 3),
                "attempt": granted.attempts,
            }
            if granted.trace is not None:
                grant["trace"] = granted.trace
            return grant

    def heartbeat(self, worker_id: str,
                  lease_ids: Sequence[str]) -> List[str]:
        """Renew the given leases; returns the ids that are *lost*
        (already stolen or completed by someone else)."""
        now = self.clock()
        with self._lock:
            self._touch(worker_id)
            self._reap_expired(now)
            held = {record.lease_id: record
                    for record in self._records.values()
                    if record.status is LEASED}
            lost: List[str] = []
            for lease_id in lease_ids:
                record = held.get(lease_id)
                if record is None:
                    lost.append(lease_id)
                else:
                    record.deadline = now + self.lease_timeout_s
            return lost

    def complete(self, worker_id: str, lease_id: str, key: str,
                 result: Dict[str, object],
                 spans: Optional[List[Dict[str, object]]] = None,
                 ) -> Dict[str, object]:
        """First-writer-wins result acceptance, idempotent on ``key``.

        A completion for an unknown key is rejected; a completion for a
        DONE key is a counted duplicate (the late-result path of the
        chaos tests); anything else is accepted — even when the lease
        was stolen meanwhile, because an identical deterministic result
        arriving early is a win, not a conflict. ``spans`` is the
        worker's span batch for the job: it rides on the accepted
        record, capped at :data:`MAX_SPANS_PER_JOB` (a runaway worker
        cannot balloon coordinator memory; overflow is counted), and is
        dropped with a duplicate/rejected completion so a late or
        stolen-lease worker can never pollute a merged trace.
        """
        now = self.clock()
        with self._lock:
            info = self._touch(worker_id)
            self._reap_expired(now)
            record = self._records.get(key)
            if record is None:
                return {"accepted": False, "duplicate": False,
                        "error": f"unknown job key {key!r}"}
            if record.status is DONE:
                self.counts["duplicates"] += 1
                return {"accepted": False, "duplicate": True}
            stale = record.status is LEASED and record.lease_id != lease_id
            if stale:
                self.counts["stale_accepts"] += 1
            record.status = DONE
            record.result = result
            record.lease_id = None
            record.worker = worker_id
            if spans:
                if len(spans) > MAX_SPANS_PER_JOB:
                    self.counts["spans_dropped"] += \
                        len(spans) - MAX_SPANS_PER_JOB
                    spans = spans[:MAX_SPANS_PER_JOB]
                record.spans = spans
            self.counts["completed"] += 1
            if info is not None:
                info.jobs_done += 1
                try:
                    info.wall_time_s += float(
                        result.get("wall_time_s", 0.0) or 0.0)
                except (TypeError, ValueError):
                    pass
            verdict: Dict[str, object] = {"accepted": True,
                                          "duplicate": False}
            if record.trace is not None:
                verdict["trace"] = record.trace
            return verdict

    def fail(self, worker_id: str, lease_id: str, key: str,
             error: str) -> Dict[str, object]:
        """Report a transient failure: backoff-requeue or terminal."""
        now = self.clock()
        with self._lock:
            info = self._touch(worker_id)
            if info is not None:
                info.failures += 1
            self._reap_expired(now)
            record = self._records.get(key)
            if record is None:
                return {"requeued": False, "error": f"unknown key {key!r}"}
            if record.status is DONE:
                self.counts["duplicates"] += 1
                return {"requeued": False, "duplicate": True}
            if record.status is LEASED and record.lease_id != lease_id:
                # the job was stolen already; the stealer owns its fate
                return {"requeued": False, "stale": True}
            record.lease_id = None
            record.worker = None
            self.counts["retries"] += 1
            if self.policy.exhausted(record.attempts):
                self._fail_terminally(
                    record, f"failed {record.attempts} time(s), "
                    f"last error: {error}")
                return {"requeued": False, "terminal": True,
                        "attempts": record.attempts}
            record.status = PENDING
            record.not_before = now + self.policy.delay_s(
                record.attempts, record.key)
            self._queue.append(record.key)
            return {"requeued": True, "attempts": record.attempts,
                    "retry_in_s": round(record.not_before - now, 3)}

    # -- batches and introspection -------------------------------------

    def batch_status(self, batch_id: str) -> Dict[str, object]:
        """Progress of one batch; includes ordered results when done.

        ``results`` holds one entry per submitted job in submission
        order: the result payload for DONE jobs, ``None`` for FAILED
        ones (with the message collected under ``errors``) — the
        partial view the executor's local fallback completes from.
        """
        with self._lock:
            order = self._batches.get(batch_id)
            if order is None:
                raise ClusterError(f"unknown batch {batch_id!r}")
            self._reap_expired(self.clock())
            records = [self._records[key] for key in order]
            pending = sum(1 for r in records
                          if r.status in (PENDING, LEASED))
            failed = {r.key: r.error for r in records
                      if r.status is FAILED}
            done = pending == 0
            status: Dict[str, object] = {
                "batch_id": batch_id,
                "submitted": len(order),
                "pending": pending,
                "failed": len(failed),
                "done": done,
            }
            if done:
                status["results"] = [r.result if r.status is DONE else None
                                     for r in records]
                status["errors"] = failed
                trace = self._batch_traces.get(batch_id)
                if trace is not None:
                    status["trace"] = trace
                    merged: List[Dict[str, object]] = []
                    for record in records:
                        if record.spans:
                            merged.extend(record.spans)
                    status["spans"] = merged
            return status

    def queue_depth(self) -> int:
        with self._lock:
            return sum(1 for key in self._queue
                       if self._records[key].status is PENDING)

    def stats(self) -> Dict[str, object]:
        """One coherent snapshot of queue, leases, workers, counters."""
        now = self.clock()
        with self._lock:
            leased = [r for r in self._records.values()
                      if r.status is LEASED]
            return {
                "queue_depth": sum(
                    1 for key in self._queue
                    if self._records[key].status is PENDING),
                "active_leases": len(leased),
                "jobs": {
                    "total": len(self._records),
                    "done": sum(1 for r in self._records.values()
                                if r.status is DONE),
                    "failed": sum(1 for r in self._records.values()
                                  if r.status is FAILED),
                },
                "counts": dict(self.counts),
                "workers": {
                    info.name: {
                        "worker_id": info.worker_id,
                        "jobs": info.jobs_done,
                        "wall_time_s": round(info.wall_time_s, 6),
                        "leases": info.leases,
                        "failures": info.failures,
                        "idle_s": round(now - info.last_seen, 3),
                    }
                    for info in self._workers.values()
                },
            }

"""The in-process job queue: coalescing, bounded concurrency, events.

One :class:`JobQueue` owns every sweep the HTTP layer has accepted.
Its three jobs:

* **Coalescing.** Jobs are keyed by
  :meth:`SimulationService.request_key` — the sweep-level lift of the
  executor cache key. A submit whose key matches a queued, running, *or
  finished* job attaches to it instead of creating work: a thousand
  identical requests cost one simulation, and every subscriber gets the
  same job id (and therefore the same result and the same ledger
  entry). This mirrors the cluster coordinator's key-coalescing lease
  table, one level up — and stays a separate table: this one owns
  sweep requests and their events, the lease table owns executor jobs
  and their lease/steal/retry state.
* **Bounded execution.** Sweeps are synchronous engine work, so they
  run on a dedicated thread pool of ``max_concurrency`` workers while
  the asyncio loop keeps serving reads. Jobs beyond the bound wait in
  ``queued`` state.
* **Progress events.** Each job carries an append-only event list
  (state transitions plus ``sweep/*`` / ``cache/*`` telemetry spans
  recorded by its worker thread), replayed to late subscribers and
  fanned out live to per-job and global subscriber queues — the feed
  behind ``GET /v1/sweeps/{id}/events`` and the dashboard.

Loop discipline: every public method is loop-thread-only; worker
threads re-enter through ``call_soon_threadsafe``. The
``REPRO_SERVICE_SLOW_S`` environment knob (or the ``slow_s``
constructor argument) injects a pre-execution sleep per job — a chaos/
test hook in the spirit of ``REPRO_CHAOS_KILL_MIDJOB``, used by the
drain tests and the CI smoke job to hold a job in flight.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.obs import context as tracectx
from repro.obs.store import TraceStore
from repro.service.core import SimulationService, SweepOutcome, SweepRequest
from repro.telemetry import state as telemetry_state
from repro.telemetry.spans import Span, recorder

#: Span names translated into progress events (the rest are noise at
#: service granularity).
PROGRESS_SPANS = ("sweep/run", "sweep/job", "cache/get", "cache/put",
                  "sweep/mechanisms")

#: Per-job replay buffer bound; the terminal event is always kept.
EVENT_BUFFER = 256

JOB_ID_LEN = 12


def slow_s_from_env() -> float:
    try:
        return float(os.environ.get("REPRO_SERVICE_SLOW_S", "0") or 0.0)
    except ValueError:
        return 0.0


class SweepJob:
    """One coalesced unit of sweep work and its event history."""

    def __init__(self, job_id: str, key: str, request: SweepRequest,
                 tenant: str,
                 trace: Optional[tracectx.TraceContext] = None) -> None:
        self.id = job_id
        self.key = key
        self.request = request
        self.tenant = tenant
        self.state = "queued"
        #: How many submits this job absorbed (1 = never coalesced).
        self.submits = 1
        #: Trace identity for the whole HTTP job (repro.obs): the
        #: context the submitter propagated via ``traceparent``, or a
        #: fresh root. ``span_id`` is reserved up front so the submit
        #: response can emit a ``traceparent`` before execution starts.
        self.trace = trace
        self.span_id = tracectx.new_span_id() if trace is not None else None
        self.created_ts = time.time()
        self.started_ts: Optional[float] = None
        self.finished_ts: Optional[float] = None
        self.outcome: Optional[SweepOutcome] = None
        self.error: Optional[str] = None
        self.events: List[Dict[str, object]] = []

    @property
    def trace_id(self) -> Optional[str]:
        return self.trace.trace_id if self.trace is not None else None

    def traceparent(self) -> Optional[str]:
        if self.trace is None or self.span_id is None:
            return None
        return tracectx.format_traceparent(
            tracectx.TraceContext(self.trace.trace_id, self.span_id))

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def descriptor(self, include_result: bool = False) -> Dict[str, object]:
        """The JSON shape of ``GET /v1/sweeps/{id}``."""
        payload: Dict[str, object] = {
            "job": self.id,
            "state": self.state,
            "sweep": self.request.sweep,
            "request": self.request.canonical(),
            "tenant": self.tenant,
            "submits": self.submits,
            "created_ts": round(self.created_ts, 3),
            "started_ts": (None if self.started_ts is None
                           else round(self.started_ts, 3)),
            "finished_ts": (None if self.finished_ts is None
                            else round(self.finished_ts, 3)),
            "events": len(self.events),
        }
        if self.trace is not None:
            payload["trace_id"] = self.trace.trace_id
        if self.error is not None:
            payload["error"] = self.error
        if include_result and self.outcome is not None:
            payload["result"] = self.outcome.to_json_dict()
        elif self.outcome is not None:
            payload["run_ids"] = list(self.outcome.run_ids)
        return payload


class JobQueue:
    """Coalescing scheduler over a :class:`SimulationService`."""

    def __init__(self, service: SimulationService, max_concurrency: int = 2,
                 slow_s: Optional[float] = None) -> None:
        self.service = service
        self.max_concurrency = max(1, int(max_concurrency))
        self.slow_s = slow_s_from_env() if slow_s is None else slow_s
        self.jobs: Dict[str, SweepJob] = {}  # request key -> job
        self.by_id: Dict[str, SweepJob] = {}
        self.order: List[SweepJob] = []  # submission order, oldest first
        self.counters: Dict[str, int] = {
            "requests": 0, "coalesced": 0, "executed": 0, "failed": 0,
            "simulations": 0, "cache_hits": 0, "cache_misses": 0,
        }
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[object] = None  # ThreadPoolExecutor, lazy
        self._active = 0
        self._idle = threading.Event()
        self._idle.set()
        self._idle_async: Optional[asyncio.Event] = None
        #: Strong references to the running ``_run`` tasks (the loop
        #: keeps only weak ones); a hard stop cancels and reaps them.
        self._tasks: Set[asyncio.Task] = set()
        self._subscribers: Dict[SweepJob, Set[asyncio.Queue]] = {}
        self._global_subscribers: Set[asyncio.Queue] = set()
        #: Loop-thread callback fired once per job on completion; the
        #: HTTP layer hangs tenant-quota release here.
        self.on_finished: Optional[Callable[[SweepJob], None]] = None

    # -- lifecycle ------------------------------------------------------

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Attach to the serving loop (must run before any submit)."""
        from concurrent.futures import ThreadPoolExecutor
        self._loop = loop
        self._idle_async = asyncio.Event()
        self._idle_async.set()
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_concurrency,
            thread_name_prefix="repro-service-sweep")

    async def shutdown(self) -> None:
        """Cancel and reap unfinished job tasks, then release the pool
        (a hard stop: drain first to let jobs finish)."""
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=False)  # type: ignore[attr-defined]

    async def wait_idle(self) -> None:
        """Block until no job is queued or running (the drain wait)."""
        assert self._idle_async is not None
        await self._idle_async.wait()

    @property
    def active(self) -> int:
        return self._active

    # -- submission -----------------------------------------------------

    def submit(self, request: SweepRequest,
               tenant: str = "anonymous",
               trace: Optional[tracectx.TraceContext] = None,
               ) -> Tuple[SweepJob, bool]:
        """Admit one request; returns ``(job, created)``.

        ``created=False`` means the submit coalesced onto an existing
        job (in any state — a finished job is a warm hit served without
        touching the engine at all). ``trace`` is the submitter's
        propagated context (from a ``traceparent`` header); with none
        given a fresh trace root is minted when tracing is on. A
        coalesced submit keeps the first submitter's trace — one job,
        one trace, however many submits it absorbed.
        """
        assert self._loop is not None, "JobQueue.bind() must run first"
        self.counters["requests"] += 1
        key = self.service.request_key(request)
        job = self.jobs.get(key)
        if job is not None:
            job.submits += 1
            self.counters["coalesced"] += 1
            return job, False
        if (trace is None and telemetry_state.enabled()
                and tracectx.tracing_enabled()):
            trace = tracectx.TraceContext(tracectx.new_trace_id(), "")
        job = SweepJob(key[:JOB_ID_LEN], key, request, tenant, trace=trace)
        self.jobs[key] = job
        self.by_id[job.id] = job
        self.order.append(job)
        self._active += 1
        self._idle.clear()
        if self._idle_async is not None:
            self._idle_async.clear()
        self.publish(job, {"event": "state", "state": "queued"})
        task = self._loop.create_task(self._run(job))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return job, True

    def get(self, job_id: str) -> Optional[SweepJob]:
        return self.by_id.get(job_id)

    def snapshot(self, limit: int = 50) -> List[Dict[str, object]]:
        """Newest-first job descriptors for ``GET /v1/sweeps``."""
        return [job.descriptor() for job in reversed(self.order[-limit:])]

    # -- execution ------------------------------------------------------

    async def _run(self, job: SweepJob) -> None:
        assert self._loop is not None and self._pool is not None
        try:
            outcome = await self._loop.run_in_executor(
                self._pool, self._execute, job)  # type: ignore[arg-type]
            job.outcome = outcome
            job.state = "done"
            self.counters["executed"] += 1
            self.counters["simulations"] += outcome.simulations
            self.counters["cache_hits"] += int(outcome.cache.get("hits") or 0)
            self.counters["cache_misses"] += int(
                outcome.cache.get("misses") or 0)
            terminal: Dict[str, object] = {
                "event": "done",
                "rows": len(outcome.rows),
                "run_ids": list(outcome.run_ids),
                "cache": dict(outcome.cache),
                "wall_time_s": round(outcome.wall_time_s, 6),
            }
        except Exception as error:  # noqa: BLE001 - jobs must not kill the loop
            job.error = f"{type(error).__name__}: {error}"
            job.state = "failed"
            self.counters["failed"] += 1
            terminal = {"event": "failed", "error": job.error}
        job.finished_ts = time.time()
        self.publish(job, terminal)
        if self.on_finished is not None:
            self.on_finished(job)
        self._active -= 1
        if self._active == 0:
            self._idle.set()
            if self._idle_async is not None:
                self._idle_async.set()

    def _execute(self, job: SweepJob) -> SweepOutcome:
        """Worker-thread body: chaos delay, span tap, engine call."""
        if self.slow_s > 0:
            time.sleep(self.slow_s)
        assert self._loop is not None
        loop = self._loop
        worker_tid = threading.get_ident()

        def on_span(span: Span) -> None:
            # Only this job's thread: concurrent sweeps share the
            # process-global recorder. (Pool-worker spans live in child
            # processes and never reach this recorder — with --jobs > 1
            # progress granularity degrades to sweep-level spans.)
            if threading.get_ident() != worker_tid:
                return
            if span.name not in PROGRESS_SPANS:
                return
            event = {"event": "progress", "span": span.name,
                     "ms": round(span.duration_ms, 3),
                     "attrs": dict(span.attrs)}
            loop.call_soon_threadsafe(self.publish, job, event)

        job.started_ts = time.time()
        loop.call_soon_threadsafe(
            self.publish, job, {"event": "state", "state": "running"})
        job.state = "running"
        # owner binding: if this worker thread dies without reaching the
        # finally (pool torn down mid-job), the recorder reaps the
        # subscription instead of leaking it forever
        token = recorder.subscribe(on_span, owner=threading.current_thread())
        ctx: Optional[tracectx.TraceContext] = None
        root: Optional[Span] = None
        started = time.perf_counter()
        if (job.trace is not None and job.span_id is not None
                and telemetry_state.enabled()):
            # the job's reserved span becomes the parent of everything
            # the sweep records (the executor's capture joins this
            # trace instead of minting its own)
            ctx = tracectx.TraceContext(job.trace.trace_id, job.span_id)
            root = Span("service/job", {"sweep": job.request.sweep,
                                        "job": job.id})
            root.trace_id = job.trace.trace_id
            root.span_id = job.span_id
            root.parent_id = job.trace.span_id or None
        try:
            with tracectx.activate(ctx):
                return self.service.run_sweep(job.request)
        finally:
            recorder.unsubscribe(token)
            if root is not None:
                # recorded after the sweep's own capture closed, so the
                # root span is appended to the trace store directly
                root.start_s = started - recorder.epoch
                root.duration_ms = (time.perf_counter() - started) * 1000.0
                recorder.record(root)
                cache = self.service.cache
                if cache is not None:
                    TraceStore.at_cache_root(cache.base_root).append(
                        root.trace_id, [root.to_json_dict()])

    # -- events ---------------------------------------------------------

    def publish(self, job: SweepJob, event: Dict[str, object]) -> None:
        """Stamp, buffer, and fan out one job event (loop thread only)."""
        event = {"job": job.id, "ts": round(time.time(), 3), **event}
        job.events.append(event)
        if len(job.events) > EVENT_BUFFER:
            # drop the oldest non-terminal events; keep the first
            # (queued) for context
            del job.events[1:2]
        for queue in list(self._subscribers.get(job, ())):
            queue.put_nowait(event)
        for queue in list(self._global_subscribers):
            queue.put_nowait(event)

    def subscribe(self, job: Optional[SweepJob] = None) -> asyncio.Queue:
        """A live event feed: one job's, or every job's (``None``)."""
        queue: asyncio.Queue = asyncio.Queue()
        if job is None:
            self._global_subscribers.add(queue)
        else:
            self._subscribers.setdefault(job, set()).add(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue,
                    job: Optional[SweepJob] = None) -> None:
        if job is None:
            self._global_subscribers.discard(queue)
        else:
            listeners = self._subscribers.get(job)
            if listeners is not None:
                listeners.discard(queue)
                if not listeners:
                    self._subscribers.pop(job, None)

    # -- introspection --------------------------------------------------

    def stats(self) -> Dict[str, object]:
        states: Dict[str, int] = {}
        for job in self.order:
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "max_concurrency": self.max_concurrency,
            "active": self._active,
            "jobs": len(self.order),
            "states": states,
            **self.counters,
        }

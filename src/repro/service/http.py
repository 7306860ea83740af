"""The asyncio HTTP frontend: REST + SSE over the service core, and
the cluster coordinator's ``/api/*`` routes.

Stdlib only: one ``asyncio.start_server`` loop, hand-rolled HTTP/1.1
framing (``Connection: close`` per request — every response carries an
explicit length or streams until close, so framing stays trivial),
JSON bodies. The defining workload is *many idle readers* (SSE
dashboards, pollers, lease-polling workers) around a few long engine
runs — exactly the shape an event loop serves cheaply. This is the
repo's only HTTP server: the same port serves sweeps and coordinates
the worker fleet (:class:`~repro.cluster.coordinator.Coordinator`).

Surface (see docs/service.md for the contract):

====================================  =====================================
``POST /v1/sweeps``                   submit (202) or coalesce (200/202)
``GET /v1/sweeps``                    job table + queue stats
``GET /v1/sweeps/{id}``               one job, result rows when done
``GET /v1/sweeps/{id}/events``        SSE: replay + live progress
``GET /v1/events``                    SSE: global feed (the dashboard's)
``GET /v1/runs``                      run-ledger list (``?limit=``)
``GET /v1/runs/compare``              ``?a=&b=`` config/metric diff
``GET /v1/runs/{id}``                 one ledger entry + integrity verdict
``GET /healthz``                      liveness + drain + fleet state
``GET /metricz``                      queue/cache/ledger/limiter/fleet
``GET /``                             the live-runs dashboard (HTML)
``POST /api/{register,lease,...}``    the coordinator (docs/distributed.md)
``GET /api/status``, ``/api/batch/*``  fleet and batch state
====================================  =====================================

Admission: tenant = ``X-Api-Key`` header (absent → ``anonymous``);
rate/quota rejections are 429 with ``Retry-After``; submits during
drain are 503 with ``Retry-After``. Coalesced submits bypass admission
— they attach to paid-for work.

Shutdown: SIGTERM/SIGINT or ``POST /api/shutdown`` triggers *graceful
drain* — in-flight and queued jobs finish (workers keep leasing and
completing for them), reads keep working, new submits get 503; once
the queue is idle, lease polls answer ``shutdown`` and the process
exits 0 as soon as every live worker has heard it. The startup line
``service listening at http://host:port`` goes to stderr so scripts
(and the CI smoke job) can bind port 0 and discover the real port.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from typing import Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro import telemetry
from repro.cluster.coordinator import Coordinator
from repro.errors import ReproError, ServiceError, TelemetryError
from repro.obs import prom
from repro.obs.log import logger
from repro.service.core import SimulationService, normalize_request
from repro.service.dashboard import dashboard_html
from repro.service.queue import JobQueue, SweepJob
from repro.service.ratelimit import TenantLimiter
from repro.telemetry.spans import parse_traceparent

log = logger("service")

#: Hard request-framing limits (this is an ops endpoint, not a proxy).
MAX_BODY_BYTES = 1 << 20
MAX_HEADER_LINES = 64
REQUEST_TIMEOUT_S = 30.0

#: Seconds between SSE keepalive comments when no events flow.
SSE_KEEPALIVE_S = 15.0

#: ``Retry-After`` hint for submits rejected because of drain.
DRAIN_RETRY_AFTER_S = 5

STATUS_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


def parse_bind(bind: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (port 0 = ephemeral)."""
    host, _, port = bind.rpartition(":")
    if not host:
        raise ServiceError(f"bad bind address {bind!r}; want host:port")
    try:
        return host, int(port)
    except ValueError:
        raise ServiceError(f"bad bind port in {bind!r}")


class HttpError(Exception):
    """An error with a wire status; the handler renders it as JSON."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Mapping[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = dict(headers or {})


class ServiceServer:
    """One service instance: engine facade + queue + admission +
    fleet coordinator + HTTP.

    ``JobQueue`` coalesces sweep requests; the coordinator's
    ``LeaseTable`` coalesces executor jobs. They stay separate: a
    sweep through ``--backend cluster`` is one queue job that submits a
    lease-table batch.
    """

    def __init__(
        self,
        service: Optional[SimulationService] = None,
        host: str = "127.0.0.1",
        port: int = 8642,
        max_concurrency: int = 2,
        limiter: Optional[TenantLimiter] = None,
        slow_s: Optional[float] = None,
        coordinator: Optional[Coordinator] = None,
    ) -> None:
        self.service = service if service is not None else SimulationService()
        self.host = host
        self.port = port
        self.queue = JobQueue(self.service, max_concurrency=max_concurrency,
                              slow_s=slow_s)
        self.limiter = limiter if limiter is not None else TenantLimiter()
        self.coordinator = (coordinator if coordinator is not None
                            else Coordinator(cache=self.service.cache))
        self.draining = False
        self.started_ts = time.time()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._drain_task: Optional[asyncio.Task] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and the queue; resolves ``self.port``."""
        loop = asyncio.get_event_loop()
        self.queue.bind(loop)
        self.queue.on_finished = lambda job: self.limiter.job_finished(
            job.tenant)
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.port = sock.getsockname()[1]
            break
        if (self.service.backend == "cluster"
                and self.service.coordinator_url is None):
            # self-coordinated: this server's sweeps lease their cache
            # misses to the workers attached to its own /api routes
            self.service.coordinator_url = self.url

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.queue.shutdown()

    def request_drain(self) -> None:
        """Begin graceful drain (idempotent; the SIGTERM handler)."""
        if self._drain_task is None:
            self.draining = True
            self._drain_task = asyncio.get_event_loop().create_task(
                self._drain())

    async def _drain(self) -> None:
        await self.queue.wait_idle()
        # only now do lease polls answer "shutdown"; the socket stays
        # open until every live worker has heard it (at most one lease
        # timeout: a worker silent that long is dead anyway)
        coordinator = self.coordinator
        coordinator.shutting_down = True
        deadline = time.monotonic() + coordinator.table.lease_timeout_s
        while not coordinator.fleet_told() and time.monotonic() < deadline:
            await asyncio.sleep(coordinator.poll_interval_s)
        assert self._stop_event is not None
        self._stop_event.set()

    async def serve_forever(self) -> None:
        """Start, announce, serve until stopped (drain or ``stop()``)."""
        await self.start()
        # the URL stays inside the event string: scripts (and the CI
        # smoke job) discover ephemeral ports by parsing this exact line
        log.info(f"listening at {self.url}")
        loop = asyncio.get_event_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, self.request_drain)
            loop.add_signal_handler(signal.SIGINT, self.request_drain)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or platform without signal support
        assert self._stop_event is not None
        await self._stop_event.wait()
        await self.stop()

    # -- request framing ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, target, headers, body = await asyncio.wait_for(
                    _read_request(reader), REQUEST_TIMEOUT_S)
            except HttpError as error:
                await _send_json(writer, error.status,
                                 {"error": str(error)}, error.headers)
                return
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ConnectionError, ValueError):
                return
            try:
                await self._route(method, target, headers, body, writer)
            except HttpError as error:
                await _send_json(writer, error.status,
                                 {"error": str(error)}, error.headers)
            except TelemetryError as error:
                await _send_json(writer, 404, {"error": str(error)})
            except ReproError as error:  # ServiceError, ClusterError
                await _send_json(writer, 400, {"error": str(error)})
            except Exception as error:  # noqa: BLE001 - keep the loop alive
                await _send_json(
                    writer, 500,
                    {"error": f"{type(error).__name__}: {error}"})
        except (ConnectionError, asyncio.TimeoutError):
            pass  # client went away mid-response
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- routing --------------------------------------------------------

    async def _route(self, method: str, target: str,
                     headers: Dict[str, str], body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        parts = urlsplit(target)
        path = unquote(parts.path)
        query = parse_qs(parts.query)
        if path == "/" and method == "GET":
            await _send_response(writer, 200, dashboard_html().encode(),
                                 "text/html; charset=utf-8")
        elif path == "/healthz" and method == "GET":
            await _send_json(writer, 200, self._healthz())
        elif path == "/metricz" and method == "GET":
            # JSON stays the default shape (scripts assert on its
            # fields); Prometheus text is opt-in via ?format=prom or an
            # Accept header that prefers text/plain
            accept = headers.get("accept", "")
            if (query.get("format", [""])[0] == "prom"
                    or ("text/plain" in accept
                        and "application/json" not in accept)):
                await _send_response(writer, 200,
                                     self._metricz_prom().encode(),
                                     prom.CONTENT_TYPE)
            else:
                await _send_json(writer, 200, self._metricz())
        elif path == "/v1/sweeps" and method == "POST":
            await self._submit(headers, body, writer)
        elif path == "/v1/sweeps" and method == "GET":
            await _send_json(writer, 200, {
                "jobs": self.queue.snapshot(),
                "queue": self.queue.stats(),
            })
        elif path == "/v1/events" and method == "GET":
            await self._stream_global(writer)
        elif path.startswith("/v1/sweeps/") and method == "GET":
            rest = path[len("/v1/sweeps/"):]
            if rest.endswith("/events"):
                await self._stream_job(self._job(rest[:-len("/events")]),
                                       writer)
            else:
                await _send_json(
                    writer, 200,
                    self._job(rest).descriptor(include_result=True))
        elif path == "/v1/runs" and method == "GET":
            await self._runs_list(query, writer)
        elif path == "/v1/runs/compare" and method == "GET":
            refs = (query.get("a", [None])[0], query.get("b", [None])[0])
            if not refs[0] or not refs[1]:
                raise HttpError(400, "compare needs ?a=<run>&b=<run>")
            await _send_json(writer, 200,
                             self.service.compare_runs(refs[0], refs[1]))
        elif path.startswith("/v1/runs/") and method == "GET":
            await _send_json(writer, 200,
                             self.service.run_entry(path[len("/v1/runs/"):]))
        elif path.startswith("/api/"):
            await _send_json(writer, 200,
                             await self._coordinate(method, path, body))
        elif path in ("/", "/healthz", "/metricz", "/v1/sweeps",
                      "/v1/events", "/v1/runs") or path.startswith("/v1/"):
            raise HttpError(405, f"{method} not allowed on {path}",
                            {"Allow": "GET, POST"})
        else:
            raise HttpError(404, f"no route for {path}")

    def _job(self, job_id: str) -> SweepJob:
        job = self.queue.get(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        return job

    # -- handlers -------------------------------------------------------

    async def _coordinate(self, method: str, path: str,
                          body: bytes) -> Dict[str, object]:
        """One ``/api/*`` request, answered by the coordinator."""
        coordinator = self.coordinator
        if method == "GET" and path == "/api/status":
            return {**coordinator.status(), "url": self.url,
                    "draining": self.draining}
        if method == "GET" and path.startswith("/api/batch/"):
            return coordinator.batch_status(path[len("/api/batch/"):])
        handler = {
            "/api/register": coordinator.handle_register,
            "/api/lease": coordinator.handle_lease,
            "/api/heartbeat": coordinator.handle_heartbeat,
            "/api/fail": coordinator.handle_fail,
            "/api/submit": coordinator.handle_submit,
            "/api/complete": coordinator.handle_complete,
            "/api/shutdown": self._shutdown,
        }.get(path)
        if handler is None:
            raise HttpError(404, f"no route for {path}")
        if method != "POST":
            raise HttpError(405, f"{method} not allowed on {path}",
                            {"Allow": "POST"})
        payload = _json_object(body)
        if path == "/api/submit":
            self._refuse_if_draining()
        if path in ("/api/submit", "/api/complete"):
            # cache probe / cache write: disk I/O stays off the loop,
            # and off the sweep pool too — a self-coordinated sweep
            # holds a pool thread while it waits on its own batch
            return await asyncio.to_thread(handler, payload)
        return handler(payload)

    def _shutdown(self, payload: Dict[str, object]) -> Dict[str, object]:
        self.request_drain()
        return {"ok": True}

    def _refuse_if_draining(self) -> None:
        if self.draining:
            raise HttpError(503, "service is draining; resubmit later",
                            {"Retry-After": str(DRAIN_RETRY_AFTER_S)})

    def _healthz(self) -> Dict[str, object]:
        return {
            "ok": True,
            "draining": self.draining,
            "uptime_s": round(time.time() - self.started_ts, 3),
            "active_jobs": self.queue.active,
            "workers_alive": self.coordinator.table.workers_alive(),
            "queue_depth": self.coordinator.table.queue_depth(),
        }

    def _metricz(self) -> Dict[str, object]:
        payload = {
            "service": {
                "uptime_s": round(time.time() - self.started_ts, 3),
                "draining": self.draining,
                "queue": self.queue.stats(),
                "limits": self.limiter.snapshot(),
            },
            "cluster": self.coordinator.status(),
            "metrics": telemetry.metrics().flatten(),
        }
        payload.update(self.service.overview())
        return payload

    def _metricz_prom(self) -> str:
        """The same numbers as ``_metricz``, as Prometheus text."""
        stats = self.queue.stats()
        fleet = self.coordinator.status()
        extra: Dict[str, float] = {
            "service.uptime_s": time.time() - self.started_ts,
            "service.draining": float(self.draining),
            "cluster.workers_alive": float(fleet["workers_alive"]),  # type: ignore[arg-type]
            "cluster.jobs_total": float(fleet["jobs"]["total"]),  # type: ignore[index]
        }
        for key, value in stats.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                extra[f"service.queue.{key}"] = float(value)
        # the live coordinator is authoritative for cluster.*: cluster
        # sweeps also fold its snapshots into the global registry
        snapshot = telemetry.metrics().snapshot()
        for section, values in fleet["metrics"].items():  # type: ignore[union-attr]
            merged = {key: value for key, value
                      in (snapshot.get(section) or {}).items()
                      if not key.startswith("cluster.")}
            merged.update(values)
            snapshot[section] = merged
        return prom.render_prometheus(snapshot, extra_gauges=extra)

    async def _submit(self, headers: Dict[str, str], body: bytes,
                      writer: asyncio.StreamWriter) -> None:
        self._refuse_if_draining()
        request = normalize_request(_json_object(body))
        tenant = headers.get("x-api-key", "").strip() or "anonymous"
        # Coalescing precedes admission: attaching to an existing job
        # consumes neither rate tokens nor quota.
        existing = self.queue.jobs.get(self.service.request_key(request))
        if existing is None:
            allowed, reason, retry_after = self.limiter.admit(tenant)
            if not allowed:
                raise HttpError(
                    429, f"tenant {tenant!r} over {reason} limit",
                    {"Retry-After": str(max(1, int(retry_after + 0.999)))})
        # W3C-style trace propagation: a submitter carrying a
        # ``traceparent`` joins the job to its trace; otherwise the
        # queue mints a fresh root. Coalesced submits keep the first
        # submitter's trace, so the echoed traceparent may differ.
        trace = parse_traceparent(headers.get("traceparent"))
        job, created = self.queue.submit(request, tenant=tenant, trace=trace)
        if created:
            self.limiter.job_started(tenant)
        descriptor = job.descriptor(include_result=job.finished)
        descriptor["coalesced"] = not created
        extra: Dict[str, str] = {}
        traceparent = job.traceparent()
        if traceparent is not None:
            extra["traceparent"] = traceparent
        await _send_json(writer, 200 if job.finished else 202, descriptor,
                         extra or None)

    async def _runs_list(self, query: Dict[str, list],
                         writer: asyncio.StreamWriter) -> None:
        raw = query.get("limit", ["20"])[0]
        try:
            limit: Optional[int] = None if raw in ("0", "all") else int(raw)
        except ValueError:
            raise HttpError(400, f"bad limit {raw!r}")
        (title, headers, rows), entries = self.service.runs_table(limit=limit)
        await _send_json(writer, 200, {
            "title": title, "headers": headers, "rows": rows,
            "entries": entries,
        })

    # -- SSE ------------------------------------------------------------

    async def _stream_job(self, job: SweepJob,
                          writer: asyncio.StreamWriter) -> None:
        """Replay a job's history, then stream live until it finishes."""
        await _send_sse_headers(writer)
        for event in list(job.events):
            await _send_sse_event(writer, event)
        if job.finished:
            return
        queue = self.queue.subscribe(job)
        try:
            while True:
                event = await self._next_event(queue)
                if event is None:
                    if job.finished or self._stopping():
                        return
                    await _send_sse_comment(writer, "keepalive")
                    continue
                await _send_sse_event(writer, event)
                if event.get("event") in ("done", "failed"):
                    return
        finally:
            self.queue.unsubscribe(queue, job)

    async def _stream_global(self, writer: asyncio.StreamWriter) -> None:
        """The dashboard feed: a snapshot, then every job's events."""
        await _send_sse_headers(writer)
        await _send_sse_event(writer, {
            "event": "snapshot",
            "jobs": self.queue.snapshot(),
            "health": self._healthz(),
        })
        queue = self.queue.subscribe(None)
        try:
            while not self._stopping():
                event = await self._next_event(queue)
                if event is None:
                    await _send_sse_comment(writer, "keepalive")
                    continue
                await _send_sse_event(writer, event)
        finally:
            self.queue.unsubscribe(queue, None)

    async def _next_event(self,
                          queue: asyncio.Queue) -> Optional[Dict[str, object]]:
        try:
            return await asyncio.wait_for(queue.get(), SSE_KEEPALIVE_S)
        except asyncio.TimeoutError:
            return None

    def _stopping(self) -> bool:
        return self._stop_event is not None and self._stop_event.is_set()


# -- wire helpers -------------------------------------------------------


def _json_object(body: bytes) -> Dict[str, object]:
    try:
        payload = json.loads(body.decode() or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise HttpError(400, f"request body is not JSON: {error}")
    if not isinstance(payload, dict):
        raise HttpError(400, "request body must be a JSON object")
    return payload


async def _read_request(reader: asyncio.StreamReader,
                        ) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one request: ``(method, target, lowercase headers, body)``."""
    request_line = (await reader.readline()).decode("latin-1").strip()
    if not request_line:
        raise ConnectionError("empty request")
    try:
        method, target, _version = request_line.split(" ", 2)
    except ValueError:
        raise HttpError(400, f"malformed request line {request_line!r}")
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES):
        line = (await reader.readline()).decode("latin-1")
        if line in ("\r\n", "\n", ""):
            break
        name, _sep, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(400, "too many headers")
    length = int(headers.get("content-length", "0") or 0)
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"body over {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, headers, body


async def _send_response(writer: asyncio.StreamWriter, status: int,
                         body: bytes, content_type: str,
                         extra: Optional[Mapping[str, str]] = None) -> None:
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(body)}",
             "Connection: close"]
    for name, value in (extra or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
    await writer.drain()


async def _send_json(writer: asyncio.StreamWriter, status: int,
                     payload: Mapping[str, object],
                     extra: Optional[Mapping[str, str]] = None) -> None:
    body = json.dumps(payload, indent=2, default=str).encode()
    await _send_response(writer, status, body, "application/json", extra)


async def _send_sse_headers(writer: asyncio.StreamWriter) -> None:
    writer.write(b"HTTP/1.1 200 OK\r\n"
                 b"Content-Type: text/event-stream\r\n"
                 b"Cache-Control: no-cache\r\n"
                 b"Connection: close\r\n\r\n")
    await writer.drain()


async def _send_sse_event(writer: asyncio.StreamWriter,
                          event: Mapping[str, object]) -> None:
    kind = str(event.get("event", "message"))
    data = json.dumps(event, default=str)
    writer.write(f"event: {kind}\ndata: {data}\n\n".encode())
    await writer.drain()


async def _send_sse_comment(writer: asyncio.StreamWriter,
                            comment: str) -> None:
    writer.write(f": {comment}\n\n".encode())
    await writer.drain()


def serve(server: ServiceServer) -> None:
    """Run ``server`` on a fresh loop until drained (the CLI entrypoint)."""
    asyncio.run(server.serve_forever())


class BackgroundServer:
    """A :class:`ServiceServer` on a daemon thread, for tests and benches.

    Usage::

        with BackgroundServer(ServiceServer(port=0)) as background:
            url = background.url          # real ephemeral port
            ...
        # exiting the block stops the loop and joins the thread
    """

    def __init__(self, server: ServiceServer) -> None:
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._failure: Optional[BaseException] = None

    @property
    def url(self) -> str:
        return self.server.url

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-service-http")
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("service did not start within 30s")
        if self._failure is not None:
            raise RuntimeError(
                f"service failed to start: {self._failure}")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            loop.close()

    async def _main(self) -> None:
        try:
            await self.server.start()
        except BaseException as error:  # noqa: BLE001 - surfaced to start()
            self._failure = error
            self._started.set()
            return
        self._started.set()
        assert self.server._stop_event is not None
        await self.server._stop_event.wait()
        await self.server.stop()

    def drain(self) -> None:
        """Trigger graceful drain from the caller's thread."""
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self.server.request_drain)

    def join(self, timeout: float = 60.0) -> None:
        """Wait for the serve loop to exit (drain completion)."""
        assert self._thread is not None
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("service did not drain in time")

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None \
                and self._thread.is_alive():
            stop_event = self.server._stop_event

            def _set() -> None:
                if stop_event is not None:
                    stop_event.set()

            self._loop.call_soon_threadsafe(_set)
            self._thread.join(timeout=30)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

"""Spans and trace identity: timing, trace context, collection.

A *span* covers one timed operation — a sweep, one job, a cache probe,
a corpus ingest. Usage::

    with span("sweep/job", engine="cycle", workload="li") as sp:
        ...
        if sp is not None:
            sp.set(outcome="hit")      # attach attrs mid-flight

When telemetry is off (:mod:`repro.telemetry.state`) ``span`` yields
``None`` and costs one function call; when on, it costs two
``perf_counter`` reads and one deque append. Spans land in the
process-global :data:`recorder` — a bounded in-memory ring of
:data:`DEFAULT_CAPACITY` spans, mirrored line-by-line to a JSONL file
when ``REPRO_SPAN_LOG=<path>`` is set (or a sink is configured
programmatically). Span names form a small ``area/operation`` taxonomy
documented in docs/observability.md.

Timing is monotonic (``time.perf_counter``); span ``start_s`` is the
offset from the recorder's epoch, so spans from one process order
correctly even across wall-clock adjustments. For cross-process trace
merging the recorder also pins a wall-clock epoch captured at the same
instant, so ``to_json_dict`` can emit an absolute ``ts`` comparable
across machines (to NTP accuracy).

This module also owns trace identity. A :class:`TraceContext` names
the trace a piece of work belongs to (``trace_id``) and the span that
work is nested under (``span_id``). Contexts live on a per-thread
stack: while a span is open under a context, :meth:`Span.adopt` gives
it its ``trace_id``/``span_id``/``parent_id`` and ``span()`` pushes a
child context, so nested spans — on this thread or in any process the
context is propagated to — form one tree. Crossing a process or HTTP
boundary serialises the current context with :func:`to_wire` /
:func:`format_traceparent` and rebuilds it on the far side with
:func:`from_wire` / :func:`parse_traceparent`. A :class:`Collector`
gathers one trace's spans as they are recorded, up to a bound.
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import re
import threading
import time
import uuid
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Callable, Deque, Dict, Iterator, List, Mapping, Optional,
                    TextIO, Tuple)

from repro.telemetry import state

ENV_SINK = "REPRO_SPAN_LOG"

#: In-memory ring capacity; old spans fall off, the JSONL sink keeps all.
DEFAULT_CAPACITY = 4096

#: Cap on the spans one job ships home (a pool result, a cluster
#: ``complete`` payload) or the coordinator keeps per batched job.
MAX_SPANS_PER_JOB = 512

#: Cap on the local spans one sweep's trace capture keeps.
MAX_SPANS_PER_TRACE = 65536

TRACE_ID_LEN = 32
SPAN_ID_LEN = 16

_HEX_RE = re.compile(r"[0-9a-f]+")


# -- trace identity ----------------------------------------------------


@dataclass(frozen=True)
class TraceContext:
    """The ambient trace identity for work happening on this thread.

    ``span_id`` is the id of the *enclosing* span — the parent any new
    span should attach to. An empty ``span_id`` marks a trace root:
    spans opened under it become roots of the span tree.
    """

    trace_id: str
    span_id: str = ""


class _Stack(threading.local):
    def __init__(self) -> None:
        self.items: list = []


_stack = _Stack()


def new_trace_id() -> str:
    return uuid.uuid4().hex


def new_span_id() -> str:
    return uuid.uuid4().hex[:SPAN_ID_LEN]


def current() -> Optional[TraceContext]:
    """The innermost active context on this thread, or None."""
    items = _stack.items
    return items[-1] if items else None


def push(ctx: TraceContext) -> int:
    """Push ``ctx``; returns a token for :func:`pop`."""
    _stack.items.append(ctx)
    return len(_stack.items) - 1


def pop(token: int) -> None:
    """Pop back to the depth recorded by :func:`push`.

    Truncating (rather than popping one element) keeps the stack sane
    even if a nested frame leaked a push.
    """
    del _stack.items[token:]


@contextmanager
def activate(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Run a block with ``ctx`` as the ambient trace context."""
    if ctx is None:
        yield None
        return
    token = push(ctx)
    try:
        yield ctx
    finally:
        pop(token)


def _valid_id(value: object, length: int) -> bool:
    return (isinstance(value, str) and len(value) == length
            and bool(_HEX_RE.fullmatch(value)) and set(value) != {"0"})


def valid_trace_id(value: object) -> bool:
    """Exactly 32 lowercase hex digits, not all zero."""
    return _valid_id(value, TRACE_ID_LEN)


def format_traceparent(ctx: TraceContext) -> str:
    """W3C-style ``traceparent``: ``00-<trace_id>-<span_id>-01``."""
    span_id = ctx.span_id if _valid_id(ctx.span_id, SPAN_ID_LEN) else new_span_id()
    return f"00-{ctx.trace_id}-{span_id}-01"


def parse_traceparent(header: object) -> Optional[TraceContext]:
    """Parse a ``traceparent`` header; None on any malformation.

    Only the version-00 shape is accepted, with its two-hex-digit flags
    field; the parent span id becomes the context's ``span_id`` so
    spans opened under it attach to the caller's span.
    """
    if not isinstance(header, str):
        return None
    parts = header.strip().lower().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, flags = parts
    if version != "00" or len(flags) != 2 or not _HEX_RE.fullmatch(flags):
        return None
    if not valid_trace_id(trace_id) or not _valid_id(span_id, SPAN_ID_LEN):
        return None
    return TraceContext(trace_id=trace_id, span_id=span_id)


def to_wire(ctx: TraceContext) -> dict:
    """JSON-safe form for job payloads and lease grants."""
    wire = {"trace_id": ctx.trace_id}
    if ctx.span_id:
        wire["parent_id"] = ctx.span_id
    return wire


def from_wire(payload: object) -> Optional[TraceContext]:
    """Rebuild a context from :func:`to_wire` output; None if invalid."""
    if not isinstance(payload, Mapping):
        return None
    trace_id = payload.get("trace_id")
    if not valid_trace_id(trace_id):
        return None
    parent = payload.get("parent_id")
    span_id = parent if _valid_id(parent, SPAN_ID_LEN) else ""
    return TraceContext(trace_id=trace_id, span_id=span_id)


# -- spans and the recorder --------------------------------------------


class Span:
    """One finished (or in-flight) timed operation."""

    __slots__ = ("name", "attrs", "start_s", "duration_ms",
                 "trace_id", "span_id", "parent_id", "tid")

    def __init__(self, name: str, attrs: Dict[str, object]) -> None:
        self.name = name
        self.attrs = attrs
        self.start_s: float = 0.0
        self.duration_ms: float = 0.0
        self.trace_id: Optional[str] = None
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self.tid: int = threading.get_ident()

    def set(self, **attrs: object) -> None:
        """Attach attributes while the span is open."""
        self.attrs.update(attrs)

    def adopt(self, ctx: TraceContext,
              span_id: Optional[str] = None) -> TraceContext:
        """Join ``ctx``'s trace as a child of its span.

        Stamps ``trace_id``, ``span_id`` (``span_id`` if given, e.g. one
        reserved before the span opened, else a fresh one) and
        ``parent_id``, and returns the context spans nested under this
        one should run in. Safe until the span is recorded.
        """
        self.trace_id = ctx.trace_id
        self.span_id = span_id or new_span_id()
        self.parent_id = ctx.span_id or None
        return TraceContext(ctx.trace_id, self.span_id)

    def to_json_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "ms": round(self.duration_ms, 3),
            "pid": os.getpid(),
            "attrs": self.attrs,
        }
        if self.trace_id:
            payload["trace_id"] = self.trace_id
            payload["span_id"] = self.span_id
            if self.parent_id:
                payload["parent_id"] = self.parent_id
            payload["tid"] = self.tid
            # Absolute wall-clock start: lets traces merged from many
            # processes share one timeline (perf_counter epochs don't).
            payload["ts"] = round(recorder.epoch_wall + self.start_s, 6)
        return payload

    def __repr__(self) -> str:
        return f"Span({self.name}, {self.duration_ms:.3f}ms, {self.attrs})"


class SpanRecorder:
    """Bounded in-memory span ring with an optional JSONL mirror."""

    def __init__(self) -> None:
        self._ring: Deque[Span] = collections.deque(maxlen=DEFAULT_CAPACITY)
        # Captured back to back: epoch_wall + (perf_counter() - epoch)
        # approximates wall time for any span this process records.
        self._epoch = time.perf_counter()
        self._epoch_wall = time.time()
        self._sink_path: Optional[str] = None
        self._sink: Optional[TextIO] = None
        self._subscribers: Dict[int, Tuple[Callable[[Span], None],
                                           Optional[object]]] = {}
        self._tokens = itertools.count(1)

    @property
    def epoch(self) -> float:
        return self._epoch

    @property
    def epoch_wall(self) -> float:
        return self._epoch_wall

    def configure_sink(self, path: Optional[str]) -> None:
        """Mirror spans to ``path`` as JSONL; ``None`` restores the
        environment default (``REPRO_SPAN_LOG``)."""
        if self._sink is not None:
            try:
                self._sink.close()
            except OSError:  # pragma: no cover - close of a dead handle
                pass
        self._sink = None
        self._sink_path = path

    def _sink_handle(self) -> Optional[TextIO]:
        if self._sink is not None:
            return self._sink
        path = self._sink_path or os.environ.get(ENV_SINK)
        if not path:
            return None
        try:
            self._sink = open(path, "a")
        except OSError:
            return None  # an unwritable sink degrades to in-memory only
        return self._sink

    def subscribe(self, callback: Callable[[Span], None],
                  owner: Optional[threading.Thread] = None) -> int:
        """Call ``callback`` with every span as it is recorded.

        The callback runs synchronously in the recording thread, so
        subscribers that feed another thread (the service layer's
        server-sent progress events) must hand off rather than block.
        Returns a token for :meth:`unsubscribe`. A callback that raises
        is dropped silently — live progress must never fail a sweep.

        ``owner`` optionally binds the subscription to a thread's
        lifetime: once that thread is no longer alive the subscription
        is reaped on the next ``record()``, so a job thread that dies
        mid-stream (or forgets to unsubscribe on an unexpected exit
        path) cannot leak a dead subscriber that grows the registry and
        keeps its closure alive forever.
        """
        token = next(self._tokens)   # atomic: subscribers come from many threads
        ref = weakref.ref(owner) if owner is not None else None
        self._subscribers[token] = (callback, ref)
        return token

    def unsubscribe(self, token: int) -> None:
        self._subscribers.pop(token, None)

    def record(self, span: Span) -> None:
        self._ring.append(span)
        if self._subscribers:
            for token, (callback, owner_ref) in list(self._subscribers.items()):
                if owner_ref is not None:
                    owner = owner_ref()
                    if owner is None or not owner.is_alive():
                        self._subscribers.pop(token, None)
                        continue
                try:
                    callback(span)
                except Exception:
                    self._subscribers.pop(token, None)
        sink = self._sink_handle()
        if sink is not None:
            try:
                # One write call per line: concurrent appenders (pool
                # workers inherit the sink path) never interleave bytes
                # mid-line on POSIX append-mode files.
                sink.write(json.dumps(span.to_json_dict(),
                                      default=str) + "\n")
                sink.flush()
            except (OSError, ValueError):
                pass

    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def records(self, name: Optional[str] = None) -> List[Span]:
        """Spans recorded so far (newest last), optionally by name."""
        if name is None:
            return list(self._ring)
        return [span for span in self._ring if span.name == name]

    def clear(self) -> None:
        self._ring.clear()


#: The process-global recorder every ``span()`` lands in.
recorder = SpanRecorder()


@contextmanager
def span(name: str, **attrs: object) -> Iterator[Optional[Span]]:
    """Time a named operation; yields the :class:`Span` or ``None``.

    The span is recorded when the block exits — including on exceptions,
    so failed operations still show their duration. Under an active
    trace context the span adopts its identity up front and opens a
    child context, so anything started inside (nested spans, jobs
    shipped to another process with the serialised context) parents
    correctly.
    """
    if not state.enabled():
        yield None
        return
    record = Span(name, dict(attrs))
    ctx = current()
    token = push(record.adopt(ctx)) if ctx is not None else None
    started = time.perf_counter()
    try:
        yield record
    finally:
        ended = time.perf_counter()
        if token is not None:
            pop(token)
        record.start_s = started - recorder.epoch
        record.duration_ms = (ended - started) * 1000.0
        recorder.record(record)


class Collector:
    """Subscribes to :data:`recorder` and keeps, as JSON dicts, the first
    ``limit`` spans carrying ``trace_id`` until :meth:`close`. As a
    context manager it yields the (growing) list of spans."""

    def __init__(self, trace_id: str, limit: int = MAX_SPANS_PER_JOB) -> None:
        self.trace_id = trace_id
        self.limit = limit
        self.spans: List[Dict[str, object]] = []
        self._token: Optional[int] = recorder.subscribe(self._on_span)

    def _on_span(self, item: Span) -> None:
        if item.trace_id == self.trace_id and len(self.spans) < self.limit:
            self.spans.append(item.to_json_dict())

    def close(self) -> List[Dict[str, object]]:
        """Stop collecting (idempotent); returns the spans so far."""
        if self._token is not None:
            recorder.unsubscribe(self._token)
            self._token = None
        return self.spans

    def __enter__(self) -> List[Dict[str, object]]:
        return self.spans

    def __exit__(self, *exc_info: object) -> None:
        self.close()

"""Per-sweep trace capture: collect local + remote spans, persist them.

``SweepExecutor.run`` opens a :class:`TraceCapture` around each sweep.
The capture:

1. establishes a root trace context on the submitting thread (unless
   one is already active — e.g. the service layer opened a trace for
   the whole HTTP job, in which case the sweep joins that trace);
2. collects every span this process records for the trace (serial
   jobs, cache probes, the ``sweep/run`` root itself) through a
   :class:`~repro.telemetry.spans.Collector`;
3. accepts remote span batches — pool workers return them with their
   results, cluster workers ship them on ``complete`` payloads and the
   coordinator piggybacks its own on ``batch_status``;
4. optionally runs the sampling profiler (``REPRO_PROFILE=1``); and
5. on close, writes the merged trace to the :class:`TraceStore` next
   to the ledger.

``begin`` returns ``None`` when telemetry is off, so the executor's hot
path stays a single ``is not None`` check.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs import profile as profiling
from repro.obs.store import TraceStore
from repro.telemetry import spans as tracing
from repro.telemetry import state


class TraceCapture:
    def __init__(self, store: Optional[TraceStore],
                 trace_id: str, ctx_token: Optional[int]) -> None:
        self.store = store
        self.trace_id = trace_id
        self._ctx_token = ctx_token
        self._local = tracing.Collector(
            trace_id, limit=tracing.MAX_SPANS_PER_TRACE)
        self._remote: List[Dict[str, object]] = []
        # span_ids already merged: when the sweep runs inside the
        # service that coordinates it, the coordinator's spans arrive
        # twice (recorded in-process AND shipped back on batch_status),
        # and dedup keeps the trace single-copy
        self._seen: set = set()
        self._closed = False
        self._profiler: Optional[profiling.SamplingProfiler] = None
        if profiling.profiling_enabled():
            self._profiler = profiling.SamplingProfiler().start()

    @classmethod
    def begin(cls, store: Optional[TraceStore]) -> Optional["TraceCapture"]:
        """Start capturing for the current sweep, or None if telemetry
        is off. Joins the ambient trace when one exists; otherwise mints
        a fresh ``trace_id`` and pushes a root context."""
        if not state.enabled():
            return None
        ctx = tracing.current()
        token: Optional[int] = None
        if ctx is None:
            ctx = tracing.TraceContext(tracing.new_trace_id(), "")
            token = tracing.push(ctx)
        return cls(store, ctx.trace_id, token)

    def add_spans(self, spans: object) -> int:
        """Merge a remote span batch (list of dicts); returns accepted.

        Anything that is not a dict carrying *this* trace's id is
        dropped — a crashed worker's garbage cannot pollute the trace.
        """
        if not isinstance(spans, list):
            return 0
        accepted = 0
        for item in spans:
            if (isinstance(item, dict) and item.get("trace_id") == self.trace_id
                    and item.get("span_id") not in self._seen):
                self._seen.add(item.get("span_id"))
                self._remote.append(item)
                accepted += 1
        return accepted

    def seal(self) -> None:
        """Stop collecting (subscriber + profiler); idempotent.

        Called before the ledger entry is built so the profile summary
        can ride on it; ``close`` still runs later for persistence.
        """
        self._local.close()
        if self._profiler is not None:
            self._profiler.stop()

    def profile_summary(self) -> Optional[Dict[str, object]]:
        if self._profiler is None:
            return None
        return self._profiler.summary()

    def close(self) -> None:
        """Seal, pop the root context, persist the merged trace."""
        if self._closed:
            return
        self._closed = True
        self.seal()
        if self._ctx_token is not None:
            tracing.pop(self._ctx_token)
            self._ctx_token = None
        spans = self._remote + [item for item in self._local.spans
                                if item.get("span_id") not in self._seen]
        if self.store is not None and spans:
            self.store.append(self.trace_id, spans)
        if (self.store is not None and self._profiler is not None
                and self._profiler.samples):
            self.store.write_profile(
                self.trace_id, "\n".join(self._profiler.collapsed()) + "\n")

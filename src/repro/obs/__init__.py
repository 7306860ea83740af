"""Distributed observability on top of ``repro.telemetry``.

The telemetry layer owns spans, trace identity and span collection
(``repro.telemetry.spans``: the per-thread trace context, W3C-style
``traceparent`` and wire forms, and the per-trace ``Collector``). This
package turns collected spans into fleet-wide traces and reports:

- ``repro.obs.capture`` — per-sweep span collection into a trace store.
- ``repro.obs.store`` — JSONL trace store next to the result cache.
- ``repro.obs.analysis`` — waterfall / critical-path / Chrome-trace
  rendering of merged traces.
- ``repro.obs.profile`` — opt-in sampling profiler (``REPRO_PROFILE=1``).
- ``repro.obs.prom`` — Prometheus text rendering of metrics snapshots.
- ``repro.obs.log`` — structured stderr logging (``REPRO_LOG_FORMAT=json``).
"""

__all__ = [
    "analysis",
    "capture",
    "log",
    "profile",
    "prom",
    "store",
]

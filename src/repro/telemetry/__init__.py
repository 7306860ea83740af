"""First-class observability for the experiment harness.

Three layers, all stdlib-only, default-on, and cheap enough to leave
on (<3% overhead on the smoke bench, asserted in the tests — spans and
metrics fire per *sweep* and per *job*, never per simulated
instruction):

* **metrics** — :class:`MetricsRegistry`: labelled
  Counter/Gauge/Rate/Histogram with deterministic snapshot/merge
  semantics, so per-worker metrics aggregate identically at every
  ``--jobs`` setting;
* **spans** — ``with span("sweep/job", engine="cycle"): ...``:
  monotonic timing into a process-global ring, mirrored to JSONL via
  ``REPRO_SPAN_LOG``; :mod:`repro.telemetry.spans` also owns trace
  identity (context, ``traceparent``, wire forms) and per-trace span
  collection, so tracing follows the same switch;
* **run ledger** — :class:`RunLedger`: append-only JSONL under the
  cache root recording every sweep (configs, cache hits, wall time,
  headline rates, metrics), with content-hash run ids and a
  ``repro-sim runs list/show/compare`` CLI.

Kill switches: ``REPRO_TELEMETRY=0`` in the environment, the CLI's
``--no-telemetry``, or :func:`set_enabled`/:func:`disabled` in code.
See docs/observability.md for the full metric/span/ledger reference.
"""

from repro.telemetry.ledger import (
    LEDGER_FILENAME,
    LEDGER_SCHEMA,
    NONDETERMINISTIC_KEYS,
    RunLedger,
    compare_entries,
    deterministic_view,
    entry_digest,
    numeric_leaves,
)
from repro.telemetry.metrics import MetricsRegistry, metric_key
from repro.telemetry.spans import Span, SpanRecorder, recorder, span
from repro.telemetry.state import disabled, enabled, set_enabled

#: Process-global registry: long-lived instrumentation (cache probes,
#: corpus ingests) records here; per-sweep registries merge in too.
_GLOBAL_METRICS = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _GLOBAL_METRICS


def reset_metrics() -> None:
    """Fresh process-global registry (test isolation)."""
    global _GLOBAL_METRICS
    _GLOBAL_METRICS = MetricsRegistry()


__all__ = [
    "LEDGER_FILENAME",
    "LEDGER_SCHEMA",
    "MetricsRegistry",
    "NONDETERMINISTIC_KEYS",
    "RunLedger",
    "Span",
    "SpanRecorder",
    "compare_entries",
    "deterministic_view",
    "disabled",
    "enabled",
    "entry_digest",
    "metric_key",
    "metrics",
    "numeric_leaves",
    "recorder",
    "reset_metrics",
    "set_enabled",
    "span",
]

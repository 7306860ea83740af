"""Structured stderr logging with trace correlation.

Every fleet process (service/coordinator, worker) logs through
:func:`logger`. The default rendering is the plain text the CLI has
always printed — existing line shapes are preserved exactly, because
CI and shell pipelines parse them (``sed -n 's/.*listening at //p'``).
Setting ``REPRO_LOG_FORMAT=json`` switches every line to one JSON
object with ``ts``/``level``/``component``/``event`` plus any fields,
and automatic ``trace_id`` (and ``run_id``) correlation pulled from
the ambient trace context / explicit fields — ready for ingestion.

Usage::

    from repro.obs.log import logger
    log = logger("service")
    log.info(f"listening at {url}")
    log.info("batch done", run_id=run_id, jobs=12)

In text mode extra fields append as ``key=value`` pairs *after* the
event, so events that end in a parsed value (URLs) must carry it in
the event string itself, not as a field.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Optional, TextIO

from repro.telemetry import spans as tracing

ENV_FORMAT = "REPRO_LOG_FORMAT"

_LEVELS = ("debug", "info", "warning", "error")


def json_mode() -> bool:
    return os.environ.get(ENV_FORMAT, "").strip().lower() == "json"


class StructLogger:
    """One component's logger; stateless beyond the component name."""

    def __init__(self, component: str,
                 stream: Optional[TextIO] = None) -> None:
        self.component = component
        self._stream = stream

    @property
    def stream(self) -> TextIO:
        return self._stream if self._stream is not None else sys.stderr

    def _emit(self, level: str, event: str, fields: dict) -> None:
        try:
            if json_mode():
                payload = {
                    "ts": round(time.time(), 3),
                    "level": level,
                    "component": self.component,
                    "event": event,
                }
                ctx = tracing.current()
                if ctx is not None:
                    payload.setdefault("trace_id", ctx.trace_id)
                for key, value in fields.items():
                    if value is not None:
                        payload[key] = value
                line = json.dumps(payload, default=str)
            else:
                parts = [f"{self.component} {event}"]
                parts.extend(f"{key}={value}" for key, value in fields.items()
                             if value is not None)
                line = " ".join(parts)
            print(line, file=self.stream, flush=True)
        except (OSError, ValueError):
            pass  # a dead stderr must never take the fleet down

    def debug(self, event: str, **fields: object) -> None:
        self._emit("debug", event, fields)

    def info(self, event: str, **fields: object) -> None:
        self._emit("info", event, fields)

    def warning(self, event: str, **fields: object) -> None:
        self._emit("warning", event, fields)

    def error(self, event: str, **fields: object) -> None:
        self._emit("error", event, fields)


def logger(component: str, stream: Optional[TextIO] = None) -> StructLogger:
    return StructLogger(component, stream)

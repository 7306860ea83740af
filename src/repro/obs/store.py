"""On-disk trace store: one JSONL file of span dicts per trace.

Traces live next to the result cache and ledger, under
``<cache root>/traces/<trace_id>.jsonl``. The submitter that owns a
trace is the only writer (workers ship their spans home on ``complete``
payloads, the coordinator piggybacks its own on ``batch_status``), so
appends from one sweep never race; appends are one ``write`` call per
line, so even a concurrent writer cannot tear a line on POSIX.

Reads are defensive: torn or non-JSON lines are skipped, and any span
whose ``trace_id`` does not match the file it sits in is dropped — a
SIGKILLed worker or a corrupted payload can produce garbage, never a
corrupted merged trace.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.telemetry.spans import valid_trace_id

TRACES_DIRNAME = "traces"
PROFILE_SUFFIX = ".prof"


class TraceStore:
    """Append/load span batches for traces under one directory."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    @classmethod
    def at_cache_root(cls, base_root) -> "TraceStore":
        """The store co-located with a ``ResultCache``/ledger root."""
        return cls(Path(base_root) / TRACES_DIRNAME)

    def path(self, trace_id: str) -> Path:
        if not valid_trace_id(trace_id):
            raise ValueError(f"invalid trace id: {trace_id!r}")
        return self.root / f"{trace_id}.jsonl"

    def profile_path(self, trace_id: str) -> Path:
        return self.path(trace_id).with_suffix(PROFILE_SUFFIX)

    def append(self, trace_id: str, spans: Iterable[Dict[str, object]]) -> int:
        """Append span dicts to a trace; returns how many were written.

        Spans that are not dicts, or that claim a different trace_id,
        are silently dropped — the store is the single choke point that
        keeps foreign or garbage spans out of a merged trace. Storage
        errors degrade to writing nothing (observability must never
        fail a sweep).
        """
        lines = []
        for item in spans:
            if not isinstance(item, dict):
                continue
            if item.get("trace_id") != trace_id:
                continue
            try:
                lines.append(json.dumps(item, default=str))
            except (TypeError, ValueError):
                continue
        if not lines:
            return 0
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(self.path(trace_id), "a") as handle:
                # The leading newline isolates any torn tail a crashed
                # writer left behind: the torn fragment stays on its own
                # (skipped) line instead of swallowing our first span.
                # Blank lines are ignored on load.
                handle.write("\n" + lines[0] + "\n")
                for line in lines[1:]:
                    handle.write(line + "\n")
        except OSError:
            return 0
        return len(lines)

    def load(self, trace_id: str) -> List[Dict[str, object]]:
        """All well-formed spans of a trace, ordered by wall start."""
        path = self.path(trace_id)
        spans: List[Dict[str, object]] = []
        try:
            text = path.read_text()
        except OSError:
            return spans
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                item = json.loads(line)
            except ValueError:
                continue  # torn/partial line from a crashed writer
            if not isinstance(item, dict):
                continue
            if item.get("trace_id") != trace_id:
                continue
            spans.append(item)
        spans.sort(key=lambda s: (_num(s.get("ts")), _num(s.get("start_s"))))
        return spans

    def trace_ids(self) -> List[str]:
        """Known trace ids, newest file first."""
        try:
            files = sorted(self.root.glob("*.jsonl"),
                           key=lambda p: p.stat().st_mtime, reverse=True)
        except OSError:
            return []
        return [path.stem for path in files if valid_trace_id(path.stem)]

    def write_profile(self, trace_id: str, collapsed: str) -> bool:
        """Persist a collapsed-stack profile alongside the trace."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self.profile_path(trace_id).write_text(collapsed)
        except OSError:
            return False
        return True

    def load_profile(self, trace_id: str) -> Optional[str]:
        try:
            return self.profile_path(trace_id).read_text()
        except OSError:
            return None


def _num(value: object) -> float:
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return 0.0

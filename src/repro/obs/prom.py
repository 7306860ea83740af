"""Prometheus text-format rendering of MetricsRegistry snapshots.

One function, :func:`render_prometheus`, turns any snapshot produced by
``MetricsRegistry.snapshot()`` (sections ``counters`` / ``gauges`` /
``rates`` / ``histograms``, keys shaped ``name{k=v,...}`` by
``metric_key``) into the Prometheus text exposition format, version
0.0.4. It backs the service ``/metricz`` (``?format=prom``, fleet
samples included) and ``repro-sim cluster status --prom``.

Mapping:

- counters     → ``<prefix>_<name>_total``            (TYPE counter)
- gauges       → ``<prefix>_<name>``                  (TYPE gauge)
- rates        → ``..._hits_total`` + ``..._events_total``
- histograms   → ``..._bucket_total{bucket="v"}`` + ``..._count_total``
  (our histograms count discrete recorded values, not cumulative
  ``le`` buckets, so they export as labelled counters)

:func:`validate` is a strict parser used by tests and CI to prove the
output actually *is* well-formed exposition text.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, Optional, Tuple

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_OK = re.compile(r"[^a-zA-Z0-9_]")
_LINE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"                 # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\")*\})?"
    r" -?[0-9.eE+-]+(?: [0-9]+)?$")


def _metric_name(prefix: str, raw: str, suffix: str = "") -> str:
    name = _NAME_OK.sub("_", raw.strip().replace(".", "_").replace("/", "_"))
    name = re.sub(r"_+", "_", name).strip("_") or "metric"
    if name[0].isdigit():
        name = "_" + name
    return f"{prefix}_{name}{suffix}" if prefix else f"{name}{suffix}"


def _split_key(key: str) -> Tuple[str, List[Tuple[str, str]]]:
    """``name{a=1,b=x}`` → (name, [(a, "1"), (b, "x")])."""
    if "{" not in key:
        return key, []
    name, _, rest = key.partition("{")
    rest = rest.rstrip("}")
    labels: List[Tuple[str, str]] = []
    for part in rest.split(","):
        if not part:
            continue
        label, _, value = part.partition("=")
        labels.append((label, value))
    return name, labels


def _escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _render_labels(labels: List[Tuple[str, str]]) -> str:
    if not labels:
        return ""
    parts = []
    for label, value in sorted(labels):
        label = _LABEL_OK.sub("_", label) or "label"
        if label[0].isdigit():
            label = "_" + label
        parts.append(f'{label}="{_escape(str(value))}"')
    return "{" + ",".join(parts) + "}"


def _fmt(value: object) -> str:
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return "0"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_prometheus(snapshot: Mapping[str, Mapping[str, object]],
                      prefix: str = "repro",
                      extra_gauges: Optional[Mapping[str, object]] = None,
                      ) -> str:
    """Render a metrics snapshot as Prometheus exposition text."""
    families: Dict[str, Tuple[str, List[str]]] = {}

    def sample(family: str, kind: str, labels: List[Tuple[str, str]],
               value: object) -> None:
        entry = families.setdefault(family, (kind, []))
        entry[1].append(f"{family}{_render_labels(labels)} {_fmt(value)}")

    for key, value in (snapshot.get("counters") or {}).items():
        name, labels = _split_key(str(key))
        sample(_metric_name(prefix, name, "_total"), "counter", labels, value)
    for key, value in (snapshot.get("gauges") or {}).items():
        name, labels = _split_key(str(key))
        sample(_metric_name(prefix, name), "gauge", labels, value)
    for key, value in (snapshot.get("rates") or {}).items():
        name, labels = _split_key(str(key))
        hits = events = 0
        if isinstance(value, Mapping):
            hits = value.get("hits", 0)
            events = value.get("events", 0)
        sample(_metric_name(prefix, name, "_hits_total"), "counter",
               labels, hits)
        sample(_metric_name(prefix, name, "_events_total"), "counter",
               labels, events)
    for key, value in (snapshot.get("histograms") or {}).items():
        name, labels = _split_key(str(key))
        total = 0
        if isinstance(value, Mapping):
            for bucket, count in value.items():
                sample(_metric_name(prefix, name, "_bucket_total"), "counter",
                       labels + [("bucket", str(bucket))], count)
                try:
                    total += int(count)  # type: ignore[arg-type]
                except (TypeError, ValueError):
                    pass
        sample(_metric_name(prefix, name, "_count_total"), "counter",
               labels, total)
    for key, value in (extra_gauges or {}).items():
        sample(_metric_name(prefix, str(key)), "gauge", [], value)

    lines: List[str] = []
    for family in sorted(families):
        kind, samples = families[family]
        lines.append(f"# TYPE {family} {kind}")
        lines.extend(sorted(samples))
    return "\n".join(lines) + ("\n" if lines else "")


def validate(text: str) -> int:
    """Strictly validate exposition text; returns the sample count.

    Raises ``ValueError`` naming the first malformed line. Used by
    tests and the CI smoke jobs to assert ``/metricz`` output parses.
    """
    samples = 0
    seen_types: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                if parts[2] in seen_types:
                    raise ValueError(
                        f"line {lineno}: duplicate TYPE for {parts[2]}")
                if parts[3] not in ("counter", "gauge", "histogram",
                                    "summary", "untyped"):
                    raise ValueError(
                        f"line {lineno}: bad TYPE kind {parts[3]!r}")
                seen_types[parts[2]] = parts[3]
            continue
        if not _LINE_RE.match(line):
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        samples += 1
    return samples

"""Benchmark-side instrumentation around the program's public entry points.

Two pieces, both installed by patching module attributes from outside
``src/`` and both removable:

* :class:`EngineTap` sits on every run of every benchmark. It passes
  each simulator engine call straight through and adds the engine's
  exact modelled totals (instructions, cycles, mispredictions,
  squashed, returns, return hits, RAS overflows) to a tally. Those
  ``sim.*`` totals are part of the output check, and a simulator-speed
  change must leave them identical.
* :class:`LayerTrace` exists only in traced runs. It subscribes to the
  program's span recorder (``sweep/run``, ``sweep/job``, ``cache/get``,
  ``cache/put``), times public entry points that record no span of
  their own (program build, ledger append, shard replay, diffcheck,
  corpus build), and samples the main thread with
  :class:`repro.obs.profile.SamplingProfiler` to split time by
  ``repro.<package>``.

Nothing here imports ``repro`` at module import time, so a worker can
check that it starts cold before the first import.
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute, engine label) for every simulator entry point the
#: executor dispatches to. The fast twins are imported lazily by the
#: executor, so patching their defining module is what it will call.
ENGINE_ENTRY_POINTS = (
    ("repro.core.executor", "run_cycle", "cycle"),
    ("repro.core.executor", "run_multipath", "multipath"),
    ("repro.core.executor", "run_fast", "fast"),
    ("repro.fastsim.cycle", "run_cycle_fast", "cycle-fast"),
    ("repro.fastsim.multipath", "run_multipath_fast", "multipath-fast"),
)

ENGINE_LABELS = tuple(label for _, _, label in ENGINE_ENTRY_POINTS)

SIM_COUNTS = ("instructions", "cycles", "mispredictions", "squashed",
              "returns", "return_hits", "ras_overflows")

#: Packages the sampled shares are bucketed into; anything else
#: (executor, service, telemetry, stdlib, numpy) is ``other``.
SHARE_PACKAGES = ("pipeline", "multipath", "fastsim", "bpred", "caches",
                  "emu", "trace", "corpus")


class Patches:
    """Module-attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner: object, name: str,
             make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _counter(group, name: str) -> int:
    return group[name].value if name in group else 0


class EngineTap:
    """Exact modelled totals of every engine call, per engine label."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {name: 0 for name in SIM_COUNTS}
        self.calls: Dict[str, int] = {label: 0 for label in ENGINE_LABELS}
        self.instructions: Dict[str, int] = {
            label: 0 for label in ENGINE_LABELS}
        self._patches = Patches()

    def install(self) -> "EngineTap":
        for module_name, attr, label in ENGINE_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            self._patches.wrap(module, attr,
                               lambda run, label=label: self._tapped(run, label))
        return self

    def uninstall(self) -> None:
        self._patches.undo()

    def _tapped(self, run: Callable, label: str) -> Callable:
        def tapped(*args, **kwargs):
            out = run(*args, **kwargs)
            result = out[0] if isinstance(out, tuple) else out
            self._add(label, result)
            return out
        return tapped

    def _add(self, label: str, result) -> None:
        group = result.group
        cycles = getattr(result, "cycles", None)
        if cycles is None:  # the prediction-only model estimates cycles
            cycles = result.estimated_cycles
        returns = group["return_accuracy"]
        self.calls[label] += 1
        self.instructions[label] += result.instructions
        self.totals["instructions"] += result.instructions
        self.totals["cycles"] += cycles
        self.totals["mispredictions"] += _counter(group, "mispredictions")
        self.totals["squashed"] += _counter(group, "squashed")
        self.totals["returns"] += returns.events
        self.totals["return_hits"] += returns.hits
        self.totals["ras_overflows"] += _counter(group, "ras_overflows")

    def sim_counts(self) -> Dict[str, float]:
        counts = dict(self.totals)
        counts["cycles"] = round(counts["cycles"], 3)
        return {f"sim.{name}": value for name, value in counts.items()}

    @property
    def engine_calls(self) -> int:
        return sum(self.calls.values())


def _bucket(stack: str) -> str:
    """The innermost ``repro.<package>`` frame of a collapsed stack."""
    for label in reversed(stack.split(";")):
        if label.startswith("repro."):
            package = label.split(".")[1]
            return package if package in SHARE_PACKAGES else "other"
    return "other"


class LayerTrace:
    """The traced run's per-layer collection."""

    SPANS = ("sweep/run", "sweep/job", "cache/get", "cache/put")

    def __init__(self, tap: EngineTap) -> None:
        self.tap = tap
        self.spans: List[object] = []
        #: (name, start, end, detail) for every wrapped call, with times
        #: on the span recorder's clock (seconds since its epoch).
        self.calls: List[Tuple[str, float, float, object]] = []
        self._patches = Patches()
        self._token: Optional[int] = None
        self._profiler = None
        self._epoch = 0.0
        self._lock = threading.Lock()

    # -- installation ----------------------------------------------------

    def install(self) -> "LayerTrace":
        from repro.telemetry.spans import recorder

        # by module path: ``repro.workloads.characterize`` is shadowed by
        # a function of that name on its package
        executor, diffcheck, store, ledger, characterize = (
            importlib.import_module(f"repro.{name}") for name in (
                "core.executor", "corpus.diffcheck", "corpus.store",
                "telemetry.ledger", "workloads.characterize"))

        self._epoch = recorder.epoch
        self._token = recorder.subscribe(self._on_span)
        timed = self._timed
        patches = self._patches
        patches.wrap(executor, "build_program",
                     lambda f: timed("build", f, None))
        patches.wrap(store, "build_program",
                     lambda f: timed("build", f, None))
        patches.wrap(characterize, "build_workload",
                     lambda f: timed("build", f, None))
        patches.wrap(ledger.RunLedger, "append",
                     lambda f: timed("ledger_append", f, None))
        patches.wrap(executor, "replay_shard",
                     lambda f: timed("replay.trace", f, _shard_events))
        patches.wrap(executor, "replay_shard_batched",
                     lambda f: timed("replay.batch", f, _shard_events))
        patches.wrap(diffcheck, "diff_shard",
                     lambda f: timed("replay.diffcheck", f, _shard_events))
        patches.wrap(store.CorpusStore, "build_from_specs",
                     lambda f: timed("corpus.build", f, None))
        return self

    def uninstall(self) -> None:
        self.stop_profiler()
        self._patches.undo()
        if self._token is not None:
            from repro.telemetry.spans import recorder
            recorder.unsubscribe(self._token)
            self._token = None

    @property
    def epoch(self) -> float:
        """The span recorder's clock origin (``perf_counter`` seconds)."""
        return self._epoch

    def reset(self) -> None:
        """Forget set-up spans and calls; the timed phase starts now."""
        with self._lock:
            self.spans.clear()
            self.calls.clear()

    def start_profiler(self) -> None:
        from repro.obs.profile import SamplingProfiler
        self._profiler = SamplingProfiler().start()

    def stop_profiler(self) -> None:
        if self._profiler is not None:
            self._profiler.stop()

    # -- recording -------------------------------------------------------

    def _on_span(self, span) -> None:
        if span.name in self.SPANS:
            with self._lock:
                self.spans.append(span)

    def _timed(self, name: str, function: Callable,
               detail: Optional[Callable]) -> Callable:
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                extra = detail(args, kwargs) if detail is not None else None
                with self._lock:
                    self.calls.append((name, started - self._epoch,
                                       ended - self._epoch, extra))
        return timed

    def _calls(self, name: str,
               within: Optional[List[Tuple[float, float]]]):
        """(seconds, detail) of each wrapped call named ``name``, only
        those that started inside one of ``within`` when it is given."""
        for call_name, start, end, detail in self.calls:
            if call_name == name and (within is None or any(
                    low <= start <= high for low, high in within)):
                yield end - start, detail

    def call_seconds(self, name: str,
                     within: Optional[List[Tuple[float, float]]] = None
                     ) -> float:
        return sum(seconds for seconds, _ in self._calls(name, within))

    def call_detail(self, name: str,
                    within: Optional[List[Tuple[float, float]]] = None
                    ) -> int:
        """Sum of the calls' details (events replayed, for shard calls)."""
        return sum(detail or 0 for _, detail in self._calls(name, within))

    # -- derived metrics -------------------------------------------------

    def executor_metrics(self) -> Dict[str, float]:
        runs = [s for s in self.spans if s.name == "sweep/run"]
        jobs = [s for s in self.spans if s.name == "sweep/job"]
        by_parent: Dict[str, float] = {}
        for s in self.spans:
            if s.parent_id:
                by_parent[s.parent_id] = (by_parent.get(s.parent_id, 0.0)
                                          + s.duration_ms)
        hits = sum(int(s.attrs.get("cache_hits", 0)) for s in runs)
        misses = sum(int(s.attrs.get("cache_misses", 0)) for s in runs)
        self_ms = sum(s.duration_ms - by_parent.get(s.span_id, 0.0)
                      for s in runs)
        metrics: Dict[str, float] = {
            "executor.jobs": sum(int(s.attrs.get("submitted", 0))
                                 for s in runs),
            "executor.cache_hits": hits,
            "executor.cache_misses": misses,
            "executor.hit_ratio": hits / (hits + misses)
            if hits + misses else 0.0,
            "executor.cache_get_s": _span_seconds(self.spans, "cache/get"),
            "executor.cache_put_s": _span_seconds(self.spans, "cache/put"),
            "executor.ledger_append_s": self.call_seconds("ledger_append"),
            "executor.self_s": self_ms / 1000.0,
        }
        engine_total = 0.0
        for label in ENGINE_LABELS:
            windows = [(s.start_s, s.start_s + s.duration_ms / 1000.0)
                       for s in jobs if s.attrs.get("engine") == label]
            seconds = sum(high - low for low, high in windows)
            # program build happens inside the job span; it is its own layer
            seconds -= self.call_seconds("build", windows) if windows else 0.0
            engine_total += seconds
            metrics[f"engine.{label}.s"] = seconds
            metrics[f"engine.{label}.kips"] = (
                self.tap.instructions[label] / seconds / 1000.0
                if seconds > 0 else 0.0)
        metrics["engine.total_s"] = engine_total
        return metrics

    def shares(self) -> Dict[str, float]:
        buckets = {name: 0 for name in SHARE_PACKAGES + ("other",)}
        samples = 0
        if self._profiler is not None:
            for stack, count in self._profiler.counts.items():
                buckets[_bucket(stack)] += count
                samples += count
        metrics = {f"share.{name}": (count / samples if samples else 0.0)
                   for name, count in buckets.items()}
        metrics["share.samples"] = samples
        return metrics


def _span_seconds(spans, name: str) -> float:
    return sum(s.duration_ms for s in spans if s.name == name) / 1000.0


def _shard_events(args, kwargs) -> int:
    shard = args[0] if args else kwargs.get("shard")
    return int(getattr(shard, "events", 0) or 0)

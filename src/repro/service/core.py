"""The service core: one engine facade behind two thin frontends.

``SimulationService`` is the layer the ROADMAP's simulation-as-a-service
item asked to extract: everything the CLI's table commands and ``runs``
subcommands used to wire together inline — catalog lookup, executor
construction, ledger reads — lives here once, so ``repro-sim`` (argparse
frontend) and ``repro.service.http`` (asyncio HTTP frontend) are both
thin renderers over the same calls:

* **Sweep catalog** (:data:`SWEEPS`): every table/figure command the CLI
  exposes, keyed by its public name, with one normalised parameter
  schema (``names``/``seed``/``scale`` everywhere, ``sizes`` +
  ``mechanism`` where the builder takes them). :func:`normalize_request`
  turns an untrusted payload (HTTP JSON body or argparse namespace) into
  a validated :class:`SweepRequest`.
* **Request identity** (:meth:`SimulationService.request_key`): the
  coalescing key of the job queue. It hashes exactly the fields that
  determine results — the canonical request plus the installed-code
  fingerprint — i.e. the same identity
  :meth:`~repro.core.executor.ExperimentJob.cache_key` derives per job,
  lifted to sweep granularity. Scheduling options (jobs, backend,
  caching) are deliberately excluded: they change where a sweep runs,
  never what it returns.
* **Execution** (:meth:`SimulationService.run_sweep`): builds the rows
  through :mod:`repro.core.tables` with a per-request
  :class:`~repro.core.executor.SweepExecutor`, and returns a
  :class:`SweepOutcome` carrying rows plus the provenance the frontends
  print (cache stats, run ids, wall time, simulations performed).
* **Read API** (:meth:`runs_table` / :meth:`run_entry` /
  :meth:`compare_runs`): the run-ledger views behind both
  ``repro-sim runs list/show/compare`` and ``GET /v1/runs``.

See docs/service.md for the HTTP surface built on top.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.config.options import RepairMechanism
from repro.core import tables as table_builders
from repro.core.executor import (
    BACKENDS,
    ResultCache,
    SweepExecutor,
    code_fingerprint,
    default_backend,
    default_jobs,
)
from repro.core.experiment import default_scale, default_seed
from repro.errors import ServiceError, TelemetryError
from repro.telemetry import RunLedger, compare_entries
from repro.workloads.profiles import BENCHMARK_NAMES

#: Bump when the request/outcome JSON shapes change.
SERVICE_SCHEMA = 1

TableData = Tuple[str, List[str], List[List[object]]]
Builder = Callable[["SweepRequest", SweepExecutor], TableData]


def _common(request: "SweepRequest", executor: SweepExecutor,
            builder) -> TableData:
    return builder(names=list(request.names), seed=request.seed,
                   scale=request.scale, executor=executor)


def _stack_depth(request: "SweepRequest",
                 executor: SweepExecutor) -> TableData:
    return table_builders.fig_stack_depth(
        names=list(request.names), sizes=list(request.sizes),
        mechanism=RepairMechanism(request.mechanism),
        seed=request.seed, scale=request.scale, executor=executor)


#: The sweep catalog: public name -> row builder. One entry per CLI
#: table command, so anything the CLI can print a client can submit.
SWEEPS: Dict[str, Builder] = {
    "table1": lambda request, executor: table_builders.table1(),
    "table3": lambda request, executor: _common(
        request, executor, table_builders.table3_baseline),
    "table4": lambda request, executor: _common(
        request, executor, table_builders.table4_btb_only),
    "hit-rates": lambda request, executor: _common(
        request, executor, table_builders.fig_hit_rates),
    "speedup": lambda request, executor: _common(
        request, executor, table_builders.fig_speedup),
    "stack-depth": _stack_depth,
    "multipath": lambda request, executor: _common(
        request, executor, table_builders.fig_multipath),
    "ablation-mechanisms": lambda request, executor: _common(
        request, executor, table_builders.ablation_mechanisms),
    "ablation-shadow": lambda request, executor: _common(
        request, executor, table_builders.ablation_shadow_slots),
    "ablation-fastsim": lambda request, executor: _common(
        request, executor, table_builders.ablation_fastsim_crosscheck),
}

#: Default stack sizes for the ``stack-depth`` sweep (the figure grid).
DEFAULT_SIZES = (1, 2, 4, 8, 12, 16, 32, 64)


@dataclasses.dataclass(frozen=True)
class SweepRequest:
    """One validated, canonical sweep request.

    Only result-determining fields live here; scheduling knobs travel
    separately (see :meth:`SimulationService.run_sweep`), so two clients
    asking for the same rows coalesce regardless of how each wanted the
    sweep scheduled.
    """

    sweep: str
    names: Tuple[str, ...]
    seed: int
    scale: float
    sizes: Tuple[int, ...] = DEFAULT_SIZES
    mechanism: str = RepairMechanism.TOS_POINTER_AND_CONTENTS.value

    def canonical(self) -> Dict[str, object]:
        """The JSON identity the request key hashes (sweep-specific:
        parameters a sweep ignores are excluded from its identity)."""
        payload: Dict[str, object] = {"sweep": self.sweep}
        if self.sweep != "table1":
            payload["names"] = list(self.names)
            payload["seed"] = self.seed
            payload["scale"] = self.scale
        if self.sweep == "stack-depth":
            payload["sizes"] = list(self.sizes)
            payload["mechanism"] = self.mechanism
        return payload


def normalize_request(payload: Mapping[str, object]) -> SweepRequest:
    """Validate an untrusted request payload into a :class:`SweepRequest`.

    Raises :class:`~repro.errors.ServiceError` with a client-printable
    message on anything malformed; both frontends surface it verbatim
    (the HTTP layer as a 400).
    """
    if not isinstance(payload, Mapping):
        raise ServiceError("request must be a JSON object")
    sweep = str(payload.get("sweep", ""))
    if sweep not in SWEEPS:
        raise ServiceError(
            f"unknown sweep {sweep!r}; expected one of {sorted(SWEEPS)}")
    names = payload.get("names")
    if names in (None, []):
        names = list(BENCHMARK_NAMES)
    if not isinstance(names, (list, tuple)) or not all(
            isinstance(name, str) for name in names):
        raise ServiceError("names must be a list of benchmark names")
    unknown = sorted(set(names) - set(BENCHMARK_NAMES))
    if unknown:
        raise ServiceError(
            f"unknown benchmark names {unknown}; "
            f"expected a subset of {list(BENCHMARK_NAMES)}")
    try:
        seed = int(payload.get("seed", default_seed()))
        scale = float(payload.get("scale", default_scale()))
    except (TypeError, ValueError) as error:
        raise ServiceError(f"bad seed/scale: {error}")
    if not 0.0 < scale <= 4.0:
        raise ServiceError(f"scale {scale} out of range (0, 4]")
    sizes = payload.get("sizes")
    if sizes in (None, []):
        sizes = DEFAULT_SIZES
    try:
        sizes = tuple(int(size) for size in sizes)  # type: ignore[union-attr]
    except (TypeError, ValueError):
        raise ServiceError("sizes must be a list of integers")
    if any(size < 1 for size in sizes):
        raise ServiceError("sizes must be >= 1")
    mechanism = str(payload.get(
        "mechanism", RepairMechanism.TOS_POINTER_AND_CONTENTS.value))
    try:
        RepairMechanism(mechanism)
    except ValueError:
        raise ServiceError(
            f"unknown mechanism {mechanism!r}; expected one of "
            f"{[m.value for m in RepairMechanism]}")
    return SweepRequest(sweep=sweep, names=tuple(names), seed=seed,
                        scale=scale, sizes=sizes, mechanism=mechanism)


@dataclasses.dataclass
class SweepOutcome:
    """Everything a frontend needs to render one finished sweep."""

    request: SweepRequest
    request_key: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    cache: Dict[str, object]
    wall_time_s: float
    #: Ledger ids this request appended (empty without cache/telemetry).
    run_ids: List[str]
    #: Jobs that missed the result cache and were actually simulated —
    #: the number ``/metricz`` exposes so CI can prove a warm request
    #: performed zero new simulations.
    simulations: int
    summary_line: Optional[str] = None

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "schema": SERVICE_SCHEMA,
            "sweep": self.request.sweep,
            "request": self.request.canonical(),
            "request_key": self.request_key,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "cache": dict(self.cache),
            "wall_time_s": round(self.wall_time_s, 6),
            "run_ids": list(self.run_ids),
            "simulations": self.simulations,
        }


class SimulationService:
    """The one engine facade the CLI and the HTTP layer both call.

    Owns the default scheduling configuration (worker count, backend,
    result cache) a frontend may override per call, and the ledger the
    read API serves. Stateless between calls apart from those defaults:
    every :meth:`run_sweep` builds a fresh executor so cache statistics,
    run ids, and wall time are attributable to exactly one request.
    """

    def __init__(
        self,
        cache: Union[ResultCache, None, str] = "default",
        jobs: Optional[int] = None,
        backend: Optional[str] = None,
        coordinator_url: Optional[str] = None,
    ) -> None:
        if cache == "default":
            self.cache: Optional[ResultCache] = ResultCache.default()
        else:
            self.cache = cache  # type: ignore[assignment]
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self.backend = default_backend() if backend is None else backend
        if self.backend not in BACKENDS:
            raise ServiceError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {BACKENDS}")
        self.coordinator_url = coordinator_url

    # -- identity -------------------------------------------------------

    def request_key(self, request: SweepRequest) -> str:
        """The coalescing identity of a request.

        Hashes the canonical request plus the installed-code
        fingerprint — the sweep-level analogue of the executor's
        per-job cache key, so "same key" means "bit-identical rows".
        """
        payload = json.dumps(
            {"schema": SERVICE_SCHEMA, "request": request.canonical(),
             "code": code_fingerprint()},
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    # -- execution ------------------------------------------------------

    def make_executor(self, jobs: Optional[int] = None,
                      backend: Optional[str] = None,
                      cache: Union[ResultCache, None, str] = "service",
                      ) -> SweepExecutor:
        """A fresh executor under this service's scheduling defaults."""
        if cache == "service":
            resolved: Optional[ResultCache] = self.cache
        elif cache == "default":
            resolved = ResultCache.default()
        else:
            resolved = cache  # type: ignore[assignment]
        return SweepExecutor(
            jobs=self.jobs if jobs is None else jobs,
            cache=resolved,
            backend=self.backend if backend is None else backend,
            coordinator_url=self.coordinator_url)

    def run_sweep(self, request: SweepRequest,
                  executor: Optional[SweepExecutor] = None) -> SweepOutcome:
        """Run one sweep to completion and package the outcome.

        Synchronous and thread-safe: the job queue calls it from worker
        threads, the CLI from the main thread. A caller-provided
        executor (the CLI path, which builds one from ``--jobs``/
        ``--backend``/``--no-cache``) is used as-is; otherwise the
        service's defaults apply.
        """
        builder = SWEEPS.get(request.sweep)
        if builder is None:
            raise ServiceError(f"unknown sweep {request.sweep!r}")
        if executor is None:
            executor = self.make_executor()
        title, headers, rows = builder(request, executor)
        return SweepOutcome(
            request=request,
            request_key=self.request_key(request),
            title=title,
            headers=list(headers),
            rows=[list(row) for row in rows],
            cache=executor.cache_stats(),
            wall_time_s=executor.wall_time_s,
            run_ids=list(executor.run_ids),
            simulations=executor.cache_misses,
            summary_line=executor.summary_line(),
        )

    # -- the run-ledger read API ---------------------------------------

    def default_ledger_path(self) -> pathlib.Path:
        """This service's ledger file (falls back to the process
        default when the service runs uncached)."""
        if self.cache is not None:
            return self.cache.ledger_path
        return ResultCache.default_ledger_path()

    def ledger(self, path: Union[str, os.PathLike, None] = None) -> RunLedger:
        return RunLedger(path if path is not None
                         else self.default_ledger_path())

    def runs_table(self, limit: Optional[int] = 20,
                   path: Union[str, os.PathLike, None] = None,
                   ) -> Tuple[TableData, List[Dict[str, object]]]:
        """``runs list`` as data: ``(title, headers, rows)`` plus the
        raw entries (newest last) for JSON frontends."""
        ledger = self.ledger(path)
        entries = ledger.entries(limit=limit)
        rows: List[List[object]] = []
        for entry in entries:
            cache = entry.get("cache") or {}
            hit_rate = cache.get("hit_rate")
            headline = entry.get("headline") or {}
            accuracy = headline.get("return_accuracy")
            rows.append([
                entry.get("run_id"),
                entry.get("utc"),
                ",".join(entry.get("engines") or []),
                entry.get("submitted"),
                entry.get("jobs"),
                None if hit_rate is None else round(100 * hit_rate, 1),
                entry.get("wall_time_s"),
                None if accuracy is None else round(100 * accuracy, 2),
            ])
        title = f"Run ledger {ledger.path} ({len(entries)} shown)"
        headers = ["run id", "utc", "engines", "jobs", "workers",
                   "cache hit %", "wall s", "return acc %"]
        return (title, headers, rows), entries

    def run_entry(self, ref: str,
                  path: Union[str, os.PathLike, None] = None,
                  ) -> Dict[str, object]:
        """``runs show`` as data: the entry plus its integrity verdict.

        Raises :class:`~repro.errors.TelemetryError` for unknown or
        ambiguous refs (the HTTP layer maps it to 404).
        """
        ledger = self.ledger(path)
        entry = ledger.get(ref)
        return {"entry": entry, "integrity_ok": ledger.verify(entry)}

    def compare_runs(self, a: str, b: str,
                     path: Union[str, os.PathLike, None] = None,
                     ) -> Dict[str, object]:
        """``runs compare`` as data: the full config + metric diff."""
        ledger = self.ledger(path)
        return compare_entries(ledger.get(a), ledger.get(b))

    def overview(self) -> Dict[str, object]:
        """Cache + ledger occupancy for ``/metricz`` and dashboards."""
        ledger_path = self.default_ledger_path()
        try:
            entry_count = len(self.ledger().entries())
        except TelemetryError:  # pragma: no cover - entries() never raises
            entry_count = 0
        return {
            "cache": (self.cache.stats() if self.cache is not None
                      else {"entries": 0, "bytes": 0, "root": None,
                            "schema": None}),
            "ledger": {"path": str(ledger_path), "entries": entry_count},
            "backend": self.backend,
            "jobs": self.jobs,
        }

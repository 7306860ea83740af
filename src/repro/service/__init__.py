"""Simulation-as-a-service: one engine facade, two thin frontends.

The package the ROADMAP's service item asked for, in four layers:

* :mod:`repro.service.core` — :class:`SimulationService`, the facade
  over :class:`~repro.core.executor.SweepExecutor`, the sweep catalog,
  and the run-ledger read API. The CLI calls it directly.
* :mod:`repro.service.queue` — :class:`JobQueue`: request coalescing on
  result identity, bounded concurrency, live progress events.
* :mod:`repro.service.ratelimit` — :class:`TenantLimiter`: per-API-key
  token buckets and outstanding-job quotas (default open).
* :mod:`repro.service.http` — the asyncio HTTP/SSE frontend and the
  ``repro-sim serve`` entrypoint, plus the ``/`` dashboard
  (:mod:`repro.service.dashboard`) and the cluster coordinator's
  ``/api/*`` routes.
"""

from repro.service.core import (
    SERVICE_SCHEMA,
    SWEEPS,
    SimulationService,
    SweepOutcome,
    SweepRequest,
    normalize_request,
)
from repro.service.http import BackgroundServer, ServiceServer, parse_bind, serve
from repro.service.queue import JobQueue, SweepJob
from repro.service.ratelimit import TenantLimiter, TokenBucket

__all__ = [
    "SERVICE_SCHEMA",
    "SWEEPS",
    "SimulationService",
    "SweepOutcome",
    "SweepRequest",
    "normalize_request",
    "BackgroundServer",
    "ServiceServer",
    "parse_bind",
    "serve",
    "JobQueue",
    "SweepJob",
    "TenantLimiter",
    "TokenBucket",
]

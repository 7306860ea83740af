"""Distributed sweep backend: fan jobs across machines, not just cores.

The cluster layer turns the embarrassingly parallel experiment harness
into a fleet: a **coordinator** (the ``/api/*`` routes of
``repro-sim serve``) owns a work-stealing job queue with leases,
heartbeats, capped retry-with-backoff, and idempotent
first-writer-wins results; plain
**workers** (``repro-sim cluster worker``) lease jobs, run them through
the ordinary engine registry with the content-addressed result cache as
the shared dedupe layer, and stream ``JobResult`` payloads back over
JSON/HTTP. ``SweepExecutor(backend="cluster")`` — or ``--backend
cluster`` / ``REPRO_BACKEND=cluster`` on any sweep command — routes
cache misses through the fleet at ``REPRO_COORDINATOR`` and degrades
to the local process pool when no coordinator is configured or no
worker registers.

Module map: :mod:`~repro.cluster.protocol` (wire format + HTTP
client), :mod:`~repro.cluster.leases` (the queue/lease/retry state
machine), :mod:`~repro.cluster.coordinator` (the endpoint handlers the
service routes ``/api/*`` to),
:mod:`~repro.cluster.worker` (the lease-execute-complete loop, with
chaos fault-injection hooks), :mod:`~repro.cluster.retry` (shared
backoff policy), :mod:`~repro.cluster.backend` (executor-side
orchestration). Full protocol and failure-matrix reference:
docs/distributed.md.
"""

from repro.cluster.backend import (
    configured_coordinator,
    default_grace_s,
    merge_cluster_metrics,
    run_jobs_on_cluster,
)
from repro.cluster.coordinator import Coordinator
from repro.cluster.leases import LeaseTable
from repro.cluster.protocol import (
    DEFAULT_LEASE_TIMEOUT_S,
    PROTOCOL_VERSION,
    ClusterClient,
    decode_job,
    decode_result,
    encode_job,
    encode_result,
)
from repro.cluster.retry import RetryPolicy
from repro.cluster.worker import ChaosHooks, ClusterWorker, run_worker

__all__ = [
    "ChaosHooks",
    "ClusterClient",
    "ClusterWorker",
    "Coordinator",
    "DEFAULT_LEASE_TIMEOUT_S",
    "LeaseTable",
    "PROTOCOL_VERSION",
    "RetryPolicy",
    "configured_coordinator",
    "decode_job",
    "decode_result",
    "default_grace_s",
    "encode_job",
    "encode_result",
    "merge_cluster_metrics",
    "run_jobs_on_cluster",
    "run_worker",
]

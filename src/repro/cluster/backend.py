"""Executor-side orchestration of a distributed sweep.

:func:`run_jobs_on_cluster` is what ``SweepExecutor`` calls when its
backend is ``"cluster"``. The sweep is submitted to the coordinator at
``REPRO_COORDINATOR`` (or an explicit URL): a ``repro-sim serve``
process, whose ``/api/*`` routes are the fleet's coordinator. A
service running ``--backend cluster`` with no ``--coordinator`` points
its own sweeps at itself, so they lease to the workers attached to it.
With no URL at all the sweep degrades to the local pool at once.

The contract: wait up to the grace window for at least one live
worker, else raise :class:`~repro.errors.ClusterUnavailable` so the
executor degrades to its local process pool; then submit, poll the
batch, and return results *in submission order*. Jobs the cluster could
not finish (terminal retry-budget failures, or a fleet that died
mid-batch) come back as ``None`` — the executor completes exactly those
in-process, so a sweep through a flaky fleet still terminates with
full, deterministic rows.

Environment knobs (docs/distributed.md §3):

* ``REPRO_COORDINATOR`` — coordinator URL.
* ``REPRO_CLUSTER_GRACE_S`` — worker-registration grace (default 5).
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro.cluster.protocol import ClusterClient, decode_result
from repro.core.executor import ExperimentJob, JobResult, ResultCache
from repro.errors import ClusterUnavailable
from repro.obs import context as tracectx
from repro.telemetry import span

DEFAULT_GRACE_S = 5.0

#: How often the submitter polls its batch.
BATCH_POLL_S = 0.1


def default_grace_s() -> float:
    return float(os.environ.get("REPRO_CLUSTER_GRACE_S", DEFAULT_GRACE_S))


def configured_coordinator() -> Optional[str]:
    return os.environ.get("REPRO_COORDINATOR") or None


def merge_cluster_metrics(snapshot: Dict[str, object]) -> None:
    """Fold a coordinator metrics snapshot into the process-global
    registry (no-op when telemetry is off)."""
    if telemetry.enabled():
        telemetry.metrics().merge(snapshot)


def _wait_for_workers(client: ClusterClient, grace_s: float) -> None:
    """Block until the coordinator reports a live worker, else raise."""
    deadline = time.monotonic() + grace_s
    while True:
        status = client.status()
        if int(status.get("workers_alive", 0)) > 0:
            return
        if time.monotonic() >= deadline:
            raise ClusterUnavailable(
                f"no worker registered with {client.base_url} within "
                f"{grace_s:.1f}s grace; degrading to the local backend")
        time.sleep(min(0.05, grace_s / 10.0 or 0.05))


def _poll_batch(client: ClusterClient, batch_id: str,
                grace_s: float) -> Dict[str, object]:
    """Poll until the batch finishes or the fleet dies.

    "Fleet died" means: unfinished jobs, zero live workers, and no
    progress for a full grace window — then the partial batch view is
    returned and the caller completes the remainder locally.
    """
    last_pending: Optional[int] = None
    stalled_since = time.monotonic()
    while True:
        status = client.batch(batch_id)
        if status.get("done"):
            return status
        pending = int(status.get("pending", 0))
        alive = int(status.get("workers_alive", 0))
        now = time.monotonic()
        if pending != last_pending or alive > 0:
            last_pending = pending
            stalled_since = now
        if alive == 0 and now - stalled_since >= grace_s:
            return status  # dead fleet: hand back the partial view
        time.sleep(BATCH_POLL_S)


def run_jobs_on_cluster(
    jobs: Sequence[ExperimentJob],
    cache: Union[ResultCache, None],
    coordinator_url: Optional[str] = None,
    grace_s: Optional[float] = None,
) -> Tuple[List[Optional[JobResult]], Dict[str, object]]:
    """Run ``jobs`` across the fleet; returns ``(results, summary)``.

    ``results`` aligns with ``jobs``; ``None`` marks a job the cluster
    did not finish (unkeyed, terminally failed, or orphaned by a dead
    fleet) that the caller must run locally. ``summary`` is the ledger
    attribution block: coordinator counters, per-worker jobs and wall
    time, and the coordinator's mergeable metrics snapshot (already
    folded into the process-global registry here).

    Raises :class:`ClusterUnavailable` — *before any job runs
    anywhere* — when there is no coordinator or no worker; the caller
    keeps its normal local path as the fallback.
    """
    jobs = list(jobs)
    grace = default_grace_s() if grace_s is None else grace_s
    url = coordinator_url or configured_coordinator()
    if url is None:
        raise ClusterUnavailable(
            "no coordinator configured (set REPRO_COORDINATOR or "
            "--coordinator); degrading to the local backend")
    client = ClusterClient(url)
    with span("cluster/batch", jobs=len(jobs)) as batch_span:
        _wait_for_workers(client, grace)
        # Unkeyed jobs (raw programs, checksum-less shards) cannot
        # be deduped or cached remotely; they stay local.
        keyed = [i for i, job in enumerate(jobs)
                 if job.cache_key() is not None]
        results: List[Optional[JobResult]] = [None] * len(jobs)
        summary: Dict[str, object] = {"coordinator": url,
                                      "submitted": len(keyed),
                                      "local_jobs": len(jobs) - len(keyed)}
        if keyed:
            # the ambient context (pushed by the executor's trace
            # capture, around the cluster/batch span above) rides
            # the submit payload so coordinator and worker spans
            # join this sweep's trace
            ctx = tracectx.current()
            submitted = client.submit(
                [jobs[i] for i in keyed],
                trace=tracectx.to_wire(ctx) if ctx is not None else None)
            batch_id = str(submitted["batch_id"])
            status = _poll_batch(client, batch_id, grace)
            raw_results = status.get("results") or [None] * len(keyed)
            unfinished = 0
            for index, payload in zip(keyed, raw_results):
                if payload is None:
                    unfinished += 1
                else:
                    results[index] = decode_result(payload)
            summary["unfinished"] = unfinished
            summary["errors"] = status.get("errors") or {}
            spans = status.get("spans")
            if ctx is not None and isinstance(spans, list):
                # worker + coordinator span batches; the capture
                # filters them to this trace before persisting
                summary["spans"] = [item for item in spans
                                    if isinstance(item, dict)]
        cluster_status = client.status()
        summary["workers"] = cluster_status.get("workers", {})
        summary["counts"] = cluster_status.get("counts", {})
        summary["peaks"] = cluster_status.get("peaks", {})
        metrics = cluster_status.get("metrics")
        if isinstance(metrics, dict):
            merge_cluster_metrics(metrics)
            summary["metrics"] = metrics
        if batch_span is not None:
            batch_span.set(unfinished=summary.get("unfinished", 0),
                           workers=len(summary["workers"]))  # type: ignore[arg-type]
        return results, summary

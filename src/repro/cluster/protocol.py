"""Wire protocol of the distributed sweep backend.

Everything is JSON over plain HTTP/1.1 — the asyncio service
(``repro-sim serve``) on the coordinator side, ``urllib.request`` on
the client side — so a fleet needs nothing beyond the Python standard
library. The full endpoint reference lives in docs/distributed.md; in
short:

========================  =============================================
``POST /api/register``    worker announces itself, learns lease/poll
                          parameters
``POST /api/lease``       worker pulls (steals) the next runnable job
``POST /api/heartbeat``   worker renews its active leases
``POST /api/complete``    worker submits a ``JobResult`` for a lease
``POST /api/fail``        worker reports a transient job failure
``POST /api/submit``      client enqueues a batch of encoded jobs
``GET  /api/batch/<id>``  client polls a batch (results when done)
``GET  /api/status``      queue/lease/worker stats + metrics snapshot
``POST /api/shutdown``    drain the server, then tell workers to stop
========================  =============================================

Jobs cross the wire as plain dicts (:func:`encode_job` /
:func:`decode_job`): the workload identity (``WorkloadSpec`` triple or
``TraceShardSpec``), the full ``MachineConfig`` field dict, the engine,
and the instruction cap. A raw ``Program`` workload has no stable
identity and never travels — the executor runs such jobs locally.
Results travel as ``JobResult.to_json_dict()`` payloads; both ends
validate on decode, so a malformed message fails loudly as
:class:`~repro.errors.ClusterError` instead of corrupting a sweep.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Dict, Optional

from repro.config.machine import MachineConfig
from repro.core.executor import ExperimentJob, JobResult
from repro.core.experiment import WorkloadSpec
from repro.errors import ClusterError, ClusterUnavailable, ConfigError
from repro.trace.replay import TraceShardSpec

#: Bump when the wire format changes shape; both ends check it.
PROTOCOL_VERSION = 1

#: Seconds a worker may hold a lease without heartbeat before the
#: coordinator declares it dead and re-queues (steals back) the job.
DEFAULT_LEASE_TIMEOUT_S = 30.0

#: Seconds an idle worker waits between lease polls.
DEFAULT_POLL_INTERVAL_S = 0.25

#: Per-request socket timeout of the HTTP client.
DEFAULT_HTTP_TIMEOUT_S = 10.0


def encode_job(job: ExperimentJob) -> Dict[str, object]:
    """The JSON-safe wire form of one experiment job."""
    workload = job.workload
    if isinstance(workload, WorkloadSpec):
        encoded: Dict[str, object] = {
            "kind": "workload", "name": workload.name,
            "seed": workload.seed, "scale": workload.scale,
        }
    elif isinstance(workload, TraceShardSpec):
        encoded = {
            "kind": "shard", "name": workload.name, "path": workload.path,
            "checksum": workload.checksum, "events": workload.events,
            "calls": workload.calls, "returns": workload.returns,
        }
    else:
        raise ClusterError(
            "raw Program workloads have no stable identity and cannot be "
            "shipped to a cluster; run them through the local backend")
    return {
        "version": PROTOCOL_VERSION,
        "workload": encoded,
        "config": job.config.to_json_dict(),
        "engine": job.engine,
        "max_instructions": job.max_instructions,
    }


def decode_job(payload: Dict[str, object]) -> ExperimentJob:
    """Rebuild an :class:`ExperimentJob` from :func:`encode_job` output."""
    try:
        version = payload.get("version")
        if version != PROTOCOL_VERSION:
            raise ClusterError(
                f"protocol version mismatch: got {version!r}, "
                f"expected {PROTOCOL_VERSION}")
        workload_data = dict(payload["workload"])  # type: ignore[arg-type]
        kind = workload_data.pop("kind")
        if kind == "workload":
            workload = WorkloadSpec(
                name=str(workload_data["name"]),
                seed=int(workload_data["seed"]),  # type: ignore[arg-type]
                scale=float(workload_data["scale"]),  # type: ignore[arg-type]
            )
        elif kind == "shard":
            workload = TraceShardSpec(**workload_data)
        else:
            raise ClusterError(f"unknown workload kind {kind!r}")
        config = MachineConfig.from_json_dict(payload["config"])  # type: ignore[arg-type]
        max_instructions = payload.get("max_instructions")
        return ExperimentJob(
            workload, config, str(payload["engine"]),
            max_instructions=(None if max_instructions is None
                              else int(max_instructions)))  # type: ignore[arg-type]
    except ClusterError:
        raise
    except (KeyError, TypeError, ValueError, ConfigError) as error:
        raise ClusterError(f"malformed job payload: {error}")


def encode_result(result: JobResult) -> Dict[str, object]:
    return result.to_json_dict()


def decode_result(payload: Dict[str, object]) -> JobResult:
    try:
        return JobResult.from_json_dict(payload)
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise ClusterError(f"malformed result payload: {error}")


class ClusterClient:
    """Tiny JSON-over-HTTP client used by workers and submitters.

    One instance per coordinator URL. Every call raises
    :class:`ClusterUnavailable` when the coordinator cannot be reached
    (connection refused, timeout) and :class:`ClusterError` when it
    answers with garbage or an HTTP error — callers pick their own
    retry policy around that distinction.
    """

    def __init__(self, base_url: str,
                 timeout_s: float = DEFAULT_HTTP_TIMEOUT_S) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    def call(self, path: str,
             payload: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """POST ``payload`` (or GET when ``None``) to ``path``."""
        url = f"{self.base_url}{path}"
        data = (None if payload is None
                else json.dumps(payload).encode("utf-8"))
        request = urllib.request.Request(
            url, data=data,
            headers={"Content-Type": "application/json"} if data else {},
            method="POST" if data is not None else "GET")
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as response:
                body = response.read()
        except urllib.error.HTTPError as error:
            detail = ""
            with error:
                try:
                    detail = json.loads(error.read().decode("utf-8")).get(
                        "error", "")
                except (ValueError, OSError, AttributeError):
                    pass
            message = (f"coordinator rejected {path}: HTTP {error.code}"
                       + (f" ({detail})" if detail else ""))
            if error.code == 503:  # draining: same as unreachable
                raise ClusterUnavailable(message)
            raise ClusterError(message)
        except (urllib.error.URLError, OSError, TimeoutError) as error:
            raise ClusterUnavailable(
                f"coordinator unreachable at {self.base_url}: {error}")
        try:
            decoded = json.loads(body.decode("utf-8"))
        except ValueError as error:
            raise ClusterError(f"non-JSON response from {path}: {error}")
        if not isinstance(decoded, dict):
            raise ClusterError(f"non-object response from {path}")
        return decoded

    # -- convenience wrappers (one per endpoint) -----------------------

    def register(self, name: str) -> Dict[str, object]:
        return self.call("/api/register", {"worker": name})

    def lease(self, worker_id: str) -> Dict[str, object]:
        return self.call("/api/lease", {"worker_id": worker_id})

    def heartbeat(self, worker_id: str, lease_ids) -> Dict[str, object]:
        return self.call("/api/heartbeat",
                         {"worker_id": worker_id,
                          "lease_ids": list(lease_ids)})

    def complete(self, worker_id: str, lease_id: str, key: str,
                 result: JobResult,
                 spans: Optional[list] = None) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "worker_id": worker_id, "lease_id": lease_id,
            "key": key, "result": encode_result(result)}
        if spans:
            # additive field: a version-1 coordinator that predates
            # tracing simply ignores it
            payload["spans"] = spans
        return self.call("/api/complete", payload)

    def fail(self, worker_id: str, lease_id: str, key: str,
             error: str) -> Dict[str, object]:
        return self.call("/api/fail",
                         {"worker_id": worker_id, "lease_id": lease_id,
                          "key": key, "error": error})

    def submit(self, jobs,
               trace: Optional[Dict[str, object]] = None,
               ) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "version": PROTOCOL_VERSION,
            "jobs": [encode_job(job) for job in jobs]}
        if trace:
            payload["trace"] = trace  # additive, see complete()
        return self.call("/api/submit", payload)

    def batch(self, batch_id: str) -> Dict[str, object]:
        return self.call(f"/api/batch/{batch_id}")

    def status(self) -> Dict[str, object]:
        return self.call("/api/status")

    def shutdown(self) -> Dict[str, object]:
        return self.call("/api/shutdown", {})

    def metricz(self) -> str:
        """Fetch ``/metricz?format=prom`` raw — Prometheus text, not
        JSON, so it bypasses :meth:`call`'s JSON decoding."""
        url = f"{self.base_url}/metricz?format=prom"
        try:
            with urllib.request.urlopen(
                    urllib.request.Request(url, method="GET"),
                    timeout=self.timeout_s) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            error.close()
            raise ClusterError(f"coordinator rejected /metricz: "
                               f"HTTP {error.code}")
        except (urllib.error.URLError, OSError, TimeoutError) as error:
            raise ClusterUnavailable(
                f"coordinator unreachable at {self.base_url}: {error}")

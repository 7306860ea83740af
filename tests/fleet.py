"""Live-fleet helpers for the cluster tests.

The coordinator is the service's ``/api/*`` routes, so a fleet under
test is a :class:`BackgroundServer` on an ephemeral port plus thread
(or process) workers pointed at its URL.
"""

import contextlib
import threading

from repro.cluster import ClusterWorker, Coordinator
from repro.service import BackgroundServer, ServiceServer, SimulationService


@contextlib.contextmanager
def coordinator_server(cache, service=None, **coordinator_kwargs):
    """Serve a coordinator over ``cache``; yields ``(url, coordinator)``."""
    coordinator = Coordinator(cache=cache, **coordinator_kwargs)
    if service is None:
        service = SimulationService(cache=cache, jobs=1)
    server = ServiceServer(service, port=0, coordinator=coordinator)
    with BackgroundServer(server) as background:
        yield background.url, coordinator


@contextlib.contextmanager
def thread_worker(url, name, cache, **kwargs):
    """Run a :class:`ClusterWorker` on a daemon thread; yields it."""
    worker = ClusterWorker(url, name=name, cache=cache, **kwargs)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    try:
        yield worker
    finally:
        worker.stop()
        thread.join(timeout=5.0)

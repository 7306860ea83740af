"""One benchmark worker: a fresh process that sets up and runs a workload.

``run.py`` starts one worker at a time and reads the single JSON line it
prints. A worker:

1. checks that it starts cold (no ``repro`` module imported yet) and that
   its environment names the scratch cache root it was given;
2. sets up its workload (imports, corpus build, cache fill, server boot);
3. runs the timed phase until its time budget is spent;
4. checks its own outputs (the differential checks below) and returns
   digests of the canonical rows and the exact ``sim.*``/``replay.*``
   counts, which ``run.py`` compares with the pinned ones.

Usage (normally only through ``run.py``)::

    PYTHONPATH=src python3 perfbench/worker.py --workload paper-cold \
        --seed 1 --workload-seed 1 --seconds 4 --trace 0 \
        --tmp .perfbench/w1 --spawn-ts "$(date +%s.%N)"
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import inspect
import json
import os
import pathlib
import random
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

# Checked before anything can import the package under test.
STARTED_COLD = "repro" not in sys.modules

from layers import EngineTap, LayerTrace  # noqa: E402

#: Program scale per workload: every row of the workload is built at it.
#: paper-cold runs at 0.05, a fifth of the CLI default (0.25): one cold
#: regenerate at 0.25 takes about 21 s on a 2-vCPU host, twice a whole
#: 10-second run, so a median over three would stretch each run past a
#: minute. Engines cover 0.93-0.95 of the wall
#: at 0.05 and 0.96-0.97 at 0.25, so the layer balance is much the same.
SCALES = {"paper-cold": 0.05, "corpus-replay": 4.0, "service-warm": 0.02}

#: Catalog sweeps the service-warm client asks for; each has one row per
#: benchmark name, so any ``names`` subset is answerable from the cache.
SERVICE_SWEEPS = ("table3", "table4", "hit-rates", "speedup", "stack-depth")

#: Service-warm request mix: one fresh request key per this many
#: requests; the rest re-submit a key that already finished. The ratio
#: is a choice, not a measured traffic mix: nothing in the repo gives
#: one (the CI smoke test submits once and re-submits once;
#: bench_service_throughput does 1 cold and 100 warm). Fresh requests
#: are the slower kind, so at 1 in 4 the median falls inside the
#: coalesced latencies and the 99th percentile inside the fresh ones,
#: and each is steady. At 1 in 2 the median would sit in the gap
#: between the two kinds and swing with a single sample.
FRESH_EVERY = 4

#: Requests per timed service-warm batch (one ``wall_s`` sample).
SERVICE_BATCH = 40

def digest(value: object) -> str:
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def canonical_table(table) -> list:
    """Rows sorted, so the digest does not depend on the name order the
    seed chose."""
    title, headers, rows = table
    return [title, list(headers),
            sorted(([*row] for row in rows), key=json.dumps)]


class Run:
    """What one worker reports back to ``run.py``."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.reps: List[Dict[str, object]] = []
        self.sections: Dict[str, str] = {}
        self.counts: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.layers: Dict[str, float] = {}

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def require(self, ok: bool, problem: str) -> None:
        """A precondition: when it fails the run is reported failed,
        never as a timing."""
        if not ok:
            self.problems.append(f"precondition: {problem}")
            self.failed += 1
            self.attempted += 1

    def to_json(self) -> Dict[str, object]:
        return {
            "setup_s": self.setup_s,
            "reps": self.reps,
            "sections": self.sections,
            "counts": self.counts,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "layers": self.layers,
        }


def shuffled(items, rng: random.Random) -> List:
    items = list(items)
    rng.shuffle(items)
    return items


def more_reps(args, run: Run, deadline: float) -> bool:
    """Exactly ``--reps`` timed repetitions when it is set; otherwise at
    least one, and more until the ``--seconds`` budget is spent."""
    if args.reps:
        return len(run.reps) < args.reps
    return not run.reps or time.perf_counter() < deadline


def _rep(wall: float, ops_ms: List[float]) -> Dict[str, object]:
    return {"wall_s": wall, "ops_ms": ops_ms}


# ----------------------------------------------------------------------
# paper-cold


def paper_cold(args, run: Run, tap: EngineTap,
               trace: Optional[LayerTrace]) -> None:
    from repro.core import tables
    from repro.core.executor import ResultCache, SweepExecutor, simulation_calls
    from repro.workloads.characterize import table2
    from repro.workloads.profiles import BENCHMARK_NAMES

    seed, scale = args.workload_seed, SCALES["paper-cold"]
    root = pathlib.Path(args.tmp) / "cache"
    run.require(not root.exists(), f"cache root {root} is not fresh")
    cache = ResultCache(root)
    executor = SweepExecutor(jobs=1, cache=cache)
    run.require(cache.stats()["entries"] == 0, "result cache is not empty")
    rng = random.Random(args.seed)
    names = shuffled(BENCHMARK_NAMES, rng)
    # F3 and F4 keep their builders' curated benchmark subsets
    f3_names = shuffled(_default(tables.fig_stack_depth, "names"), rng)
    f4_names = shuffled(_default(tables.fig_multipath, "names"), rng)
    common = {"seed": seed, "scale": scale, "executor": executor}
    sections = (
        ("T1", lambda: tables.table1()),
        ("T2", lambda: table2(names, seed=seed, scale=scale)),
        ("T3", lambda: tables.table3_baseline(names=names, **common)),
        ("T4", lambda: tables.table4_btb_only(names=names, **common)),
        ("F1", lambda: tables.fig_hit_rates(names=names, **common)),
        ("F2", lambda: tables.fig_speedup(names=names, **common)),
        ("F3", lambda: tables.fig_stack_depth(names=f3_names, **common)),
        ("F4", lambda: tables.fig_multipath(names=f4_names, **common)),
    )
    run.setup_s = time.time() - args.spawn_ts
    if trace is not None:
        trace.start_profiler()
    ops: List[float] = []
    outputs: Dict[str, object] = {}
    started = time.perf_counter()
    for name, build in sections:
        began = time.perf_counter()
        outputs[name] = build()
        ops.append((time.perf_counter() - began) * 1000.0)
    wall = time.perf_counter() - started
    if trace is not None:
        trace.stop_profiler()
    run.reps.append(_rep(wall, ops))
    for name, output in outputs.items():
        if isinstance(output, str):  # T2 comes back rendered
            canonical: object = sorted(output.splitlines())
        else:
            canonical = canonical_table(output)
        run.sections[name] = digest(canonical)
    distinct = cache.stats()["entries"]
    run.require(
        executor.cache_misses == distinct == simulation_calls()
        == tap.engine_calls,
        f"cold cache: {executor.cache_misses} misses, {distinct} distinct "
        f"jobs, {simulation_calls()} simulator calls, "
        f"{tap.engine_calls} engine calls")
    run.counts = {**tap.sim_counts(),
                  "executor.cache_misses": executor.cache_misses,
                  "executor.cache_hits": executor.cache_hits}
    if trace is not None:
        layers = trace.executor_metrics()
        layers["workloads.build_s"] = trace.call_seconds("build")
        layers["engine.coverage_frac"] = layers["engine.total_s"] / wall
        run.layers = {**layers, **trace.shares()}


def _default(function, parameter: str):
    return inspect.signature(function).parameters[parameter].default


# ----------------------------------------------------------------------
# corpus-replay


def corpus_replay(args, run: Run, tap: EngineTap,
                  trace: Optional[LayerTrace]) -> None:
    from repro.core.executor import SweepExecutor
    from repro.core.experiment import WorkloadSpec
    from repro.corpus import (
        DEFAULT_SIZES,
        CorpusStore,
        corpus_depth_results,
        corpus_report,
        diffcheck,
    )
    from repro.workloads.profiles import BENCHMARK_NAMES

    rng = random.Random(args.seed)
    specs = [WorkloadSpec(name, args.workload_seed, SCALES["corpus-replay"])
             for name in shuffled(BENCHMARK_NAMES, rng)]
    store = CorpusStore.create(pathlib.Path(args.tmp) / "corpus")
    built = store.build_from_specs(specs)
    built_events = sum(record.events for record in built)
    run.setup_s = time.time() - args.spawn_ts
    if trace is not None:
        build_s = trace.call_seconds("corpus.build")
        run.layers.update({
            "workloads.build_s": trace.call_seconds("build"),
            "corpus.build_s": build_s,
            "corpus.build.kevents_per_s": built_events / build_s / 1000.0,
        })
        trace.reset()
    order = [record.name for record in built]
    deadline = time.perf_counter() + args.seconds
    while more_reps(args, run, deadline):
        # the result cache is off: every replay really runs
        executor = SweepExecutor(jobs=1, cache=None)
        run.require(executor.cache is None and executor.ledger is None,
                    "corpus-replay executor has a cache or ledger")
        if trace is not None:
            trace.start_profiler()
        ops: List[float] = []
        windows: Dict[str, List[Tuple[float, float]]] = {}

        def timed(name: str, call):
            began = time.perf_counter()
            value = call()
            ended = time.perf_counter()
            ops.append((ended - began) * 1000.0)
            if trace is not None:
                epoch = trace.epoch
                windows.setdefault(name.split(":")[0], []).append(
                    (began - epoch, ended - epoch))
            return value

        started = time.perf_counter()
        streamed = timed("trace-sweep", lambda: corpus_depth_results(
            store, DEFAULT_SIZES, executor=executor, names=order,
            engine="trace"))
        batched = timed("batch-sweep", lambda: corpus_depth_results(
            store, DEFAULT_SIZES, executor=executor, names=order,
            engine="batch"))
        report = timed("report", lambda: corpus_report(
            store, executor=executor, names=order))
        diffs = [timed(f"diff:{spec.name}",
                       lambda spec=spec: diffcheck.diff_shard(spec))
                 for spec in store.specs(names=order)]
        wall = time.perf_counter() - started
        if trace is not None:
            trace.stop_profiler()
        run.reps.append(_rep(wall, ops))
        run.require(executor.cache_hits == executor.cache_misses == 0,
                    "corpus-replay touched a result cache")
        depth = {name: {size: _replay_counts(result)
                        for size, result in by_size.items()}
                 for name, by_size in streamed.items()}
        depth_batched = {name: {size: _replay_counts(result)
                                for size, result in by_size.items()}
                         for name, by_size in batched.items()}
        run.check(depth == depth_batched,
                  "trace and batch replay disagree on the capacity sweep")
        for report_diff in diffs:
            run.check(report_diff.divergences == 0,
                      f"diffcheck: {report_diff.divergences} divergences on "
                      f"{report_diff.shard}")
        diff_rows = sorted([d.shard, d.events, d.returns, d.ours_hits,
                            d.reference_hits, d.divergences] for d in diffs)
        sections = {"depth": digest(depth), "report": digest(
            canonical_table(report)), "diffcheck": digest(diff_rows)}
        sweeps = list(streamed.values()) + list(batched.values())
        counts = {
            "replay.events": sum(r.instructions for s in sweeps
                                 for r in s.values())
            + sum(d.events for d in diffs),
            "replay.returns": sum(r.counter("returns") for s in sweeps
                                  for r in s.values())
            + sum(d.returns for d in diffs),
            "replay.return_hits": sum(r.counter("return_hits") for s in sweeps
                                      for r in s.values())
            + sum(d.ours_hits for d in diffs),
            "replay.divergences": sum(d.divergences for d in diffs),
            "corpus.events": built_events,
        }
        if not run.sections:
            run.sections, run.counts = sections, counts
        else:
            run.check(sections == run.sections and counts == run.counts,
                      "a repeated replay gave different rows or counts")
    if trace is not None:
        # a traced worker runs one repetition (``--reps 1``)
        trace_s = trace.call_seconds("replay.trace", windows["trace-sweep"])
        batch_s = trace.call_seconds("replay.batch", windows["batch-sweep"])
        diff_s = trace.call_seconds("replay.diffcheck", windows["diff"])
        report_s = sum(high - low for low, high in windows["report"])
        run.layers.update(trace.executor_metrics())
        run.layers.update({
            "replay.trace.s": trace_s,
            "replay.trace.kevents_per_s": trace.call_detail(
                "replay.trace", windows["trace-sweep"]) / trace_s / 1000.0,
            "replay.batch.s": batch_s,
            "replay.batch.kevents_per_s": trace.call_detail(
                "replay.batch", windows["batch-sweep"]) / batch_s / 1000.0,
            "replay.diffcheck.s": diff_s,
            "replay.report.s": report_s,
            "replay.coverage_frac": (trace_s + batch_s + diff_s + report_s)
            / wall,
        })
        run.layers.update(trace.shares())
        run.layers.update(counts)


def _replay_counts(result) -> list:
    return [result.counter("returns"), result.counter("return_hits"),
            result.counter("ras_overflows"), result.counter("ras_underflows"),
            result.return_accuracy]


# ----------------------------------------------------------------------
# service-warm


async def _http(port: int, method: str, path: str,
                body: Optional[dict] = None) -> Tuple[int, bytes]:
    """One request on its own connection; reads until the server closes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = json.dumps(body).encode() if body is not None else b""
        head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n").encode()
        writer.write(head + payload)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, content = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head else 0
    return status, content


class ServiceClient:
    """The closed-loop client: one request in flight, one connection."""

    def __init__(self, port: int, run: Run, workload_seed: int,
                 scale: float, expected: Dict[str, Dict[str, object]],
                 names: List[str], rng: random.Random) -> None:
        self.port = port
        self.run = run
        self.seed = workload_seed
        self.scale = scale
        self.expected = expected
        self.names = names
        self.rng = rng
        self.done: List[dict] = []
        self.used = set()
        self.fresh_ms: List[float] = []
        self.coalesced_ms: List[float] = []
        self.count = 0

    def _fresh_request(self) -> dict:
        while True:
            sweep = self.rng.choice(SERVICE_SWEEPS)
            size = self.rng.randint(1, len(self.names))
            names = self.rng.sample(self.names, size)
            key = (sweep, tuple(names))
            if key not in self.used:
                self.used.add(key)
                return {"sweep": sweep, "names": names, "seed": self.seed,
                        "scale": self.scale}

    def _rows_ok(self, request: dict, result: Optional[dict]) -> bool:
        if not isinstance(result, dict):
            return False
        expected = self.expected[request["sweep"]]
        rows = [expected["rows"][name] for name in request["names"]]
        return (result.get("headers") == expected["headers"]
                and result.get("rows") == rows)

    async def one(self) -> float:
        fresh = not self.done or self.count % FRESH_EVERY == 0
        self.count += 1
        request = (self._fresh_request() if fresh
                   else self.rng.choice(self.done))
        began = time.perf_counter()
        ok = False
        status, body = await _http(self.port, "POST", "/v1/sweeps", request)
        if fresh and status == 202:
            job = json.loads(body)["job"]
            status, stream = await _http(self.port, "GET",
                                         f"/v1/sweeps/{job}/events")
            if status == 200 and b"event: done" in stream:
                status, body = await _http(self.port, "GET",
                                           f"/v1/sweeps/{job}")
                ok = status == 200 and self._rows_ok(
                    request, json.loads(body).get("result"))
        elif not fresh and status == 200:
            descriptor = json.loads(body)
            ok = descriptor.get("coalesced") is True and self._rows_ok(
                request, descriptor.get("result"))
        elapsed_ms = (time.perf_counter() - began) * 1000.0
        self.run.check(ok, f"{'fresh' if fresh else 'coalesced'} request "
                           f"{request['sweep']} {request['names']} failed "
                           f"(last status {status})")
        if fresh:
            self.fresh_ms.append(elapsed_ms)
            if ok:
                self.done.append(request)
        else:
            self.coalesced_ms.append(elapsed_ms)
        return elapsed_ms


def service_warm(args, run: Run, tap: EngineTap,
                 trace: Optional[LayerTrace]) -> None:
    from repro.core.executor import ResultCache, simulation_calls
    from repro.service.core import SimulationService, normalize_request
    from repro.workloads.profiles import BENCHMARK_NAMES

    scale = SCALES["service-warm"]
    cache = ResultCache(pathlib.Path(args.tmp) / "cache")
    service = SimulationService(cache=cache, jobs=1)
    # fill the cache: every job any request of the mix can need
    expected: Dict[str, Dict[str, object]] = {}
    sections: Dict[str, str] = {}
    for sweep in SERVICE_SWEEPS:
        outcome = service.run_sweep(normalize_request({
            "sweep": sweep, "names": list(BENCHMARK_NAMES),
            "seed": args.workload_seed, "scale": scale}))
        rows = json.loads(json.dumps(outcome.rows))
        expected[sweep] = {"headers": outcome.headers,
                           "rows": {row[0]: row for row in rows}}
        sections[sweep] = digest(canonical_table(
            (outcome.title, outcome.headers, rows)))
    run.sections = sections
    run.counts = tap.sim_counts()
    filled_calls = simulation_calls()
    rng = random.Random(args.seed)
    asyncio.run(_serve_and_drive(args, run, service, expected,
                                 list(BENCHMARK_NAMES), rng, trace, scale))
    sim_calls = simulation_calls() - filled_calls
    run.require(sim_calls == 0,
                f"service-warm simulated {sim_calls} jobs; every job "
                f"should be a cache hit")
    if trace is not None:
        run.layers.update(trace.executor_metrics())
        run.layers.update(trace.shares())
        run.layers["service.sim_calls"] = sim_calls


async def _serve_and_drive(args, run: Run, service, expected, names, rng,
                           trace: Optional[LayerTrace], scale: float) -> None:
    from repro.service.http import ServiceServer

    server = ServiceServer(service=service, host="127.0.0.1", port=0,
                           max_concurrency=1)
    await server.start()
    try:
        run.setup_s = time.time() - args.spawn_ts
        client = ServiceClient(server.port, run, args.workload_seed, scale,
                               expected, names, rng)
        if trace is not None:
            trace.reset()
            trace.start_profiler()
        deadline = time.perf_counter() + args.seconds
        while more_reps(args, run, deadline):
            started = time.perf_counter()
            latencies = [await client.one() for _ in range(SERVICE_BATCH)]
            run.reps.append(_rep(time.perf_counter() - started, latencies))
        if trace is not None:
            trace.stop_profiler()
        await server.queue.wait_idle()
        stats = server.queue.stats()
        run.require(stats["simulations"] == 0,
                    f"service queue ran {stats['simulations']} simulations")
        if trace is not None:
            run.layers.update({
                "service.fresh_ms": statistics.median(client.fresh_ms),
                "service.coalesced_ms": statistics.median(client.coalesced_ms)
                if client.coalesced_ms else 0.0,
                "service.fresh_requests": len(client.fresh_ms),
                "service.coalesced_requests": len(client.coalesced_ms),
                "service.queue.executed": stats["executed"],
                "service.queue.coalesced": stats["coalesced"],
            })
    finally:
        await server.stop()


def pin_to_one_cpu() -> None:
    """Run this worker, and every thread it starts, on one CPU.

    Its threads hand work to each other and never need to run at once,
    so pinning costs no parallelism and saves cross-CPU wake-ups. On a
    shared 2-vCPU host, pinned service-warm runs were faster than free
    ones in 7 of 7 back-to-back pairs (batch wall 0.064-0.073 s against
    0.076-0.108 s).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


WORKLOADS = {
    "paper-cold": paper_cold,
    "corpus-replay": corpus_replay,
    "service-warm": service_warm,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="input seed: name order and request mix")
    parser.add_argument("--workload-seed", type=int, required=True,
                        help="seed of the generated programs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--reps", type=int, default=0,
                        help="timed repetitions (0: as many as --seconds allows)")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spawn-ts", type=float, required=True)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    run = Run()
    run.require(STARTED_COLD, "worker did not start in a fresh process")
    cache_env = os.environ.get("REPRO_CACHE_DIR", "")
    run.require(cache_env.startswith(os.path.abspath(args.tmp)),
                f"REPRO_CACHE_DIR={cache_env!r} is not this worker's "
                f"scratch root")
    tap = EngineTap().install()
    trace = LayerTrace(tap).install() if args.trace else None
    try:
        WORKLOADS[args.workload](args, run, tap, trace)
    finally:
        if trace is not None:
            trace.uninstall()
        tap.uninstall()
    if trace is not None:
        for name, value in tap.sim_counts().items():
            run.layers.setdefault(name, value)
    print(json.dumps(run.to_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

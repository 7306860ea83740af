"""The repo benchmark: paper-cold, corpus-replay and service-warm.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1      # every workload, traced
    python3 perfbench/run.py --pin --workload-seed 2       # re-pin output digests

``--trace 0`` reports the end-to-end metrics from untraced workers;
``--trace 1`` alternates untraced and traced workers and reports the
per-layer metrics. Every metric is printed by name with its unit and
sample count; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 1
when the output check fails, and 2 when the checkout holds no program.

``--seed`` drives the inputs (benchmark name order, the service request
mix); ``--workload-seed`` picks the generated programs, and the rows and
exact counts are checked against ``digests.json`` for that seed. See
README.md in this directory for the choices behind each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from layers import ENGINE_LABELS, SHARE_PACKAGES, SIM_COUNTS

HERE = pathlib.Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
WORKLOADS = ("paper-cold", "corpus-replay", "service-warm")

#: The default workload seed, and the held-out one nobody tunes against.
DEFAULT_WORKLOAD_SEED = 1
HELD_OUT_WORKLOAD_SEED = 2

#: Untraced workers per run (each sets up once; ``setup_s`` is their
#: median). paper-cold starts more workers until ``--seconds`` is spent.
UNTRACED_WORKERS = 3

#: Traced runs alternate untraced and traced workers, each doing a fixed
#: amount of work: this many timed repetitions (service: request batches).
TRACED_PAIRS = 2
TRACED_REPS = {"paper-cold": 1, "corpus-replay": 1, "service-warm": 10}

#: Wall-clock budget per workload, below the 180 s a run may take.
BUDGET_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER: Dict[str, str] = {
    "workloads.build_s": "s",
    "executor.jobs": "count",
    "executor.cache_hits": "count",
    "executor.cache_misses": "count",
    "executor.hit_ratio": "ratio",
    "executor.cache_get_s": "s",
    "executor.cache_put_s": "s",
    "executor.ledger_append_s": "s",
    "executor.self_s": "s",
    **{f"engine.{label}.{kind}": unit for label in ENGINE_LABELS
       for kind, unit in (("s", "s"), ("kips", "kinst/s"))},
    "engine.total_s": "s",
    "engine.coverage_frac": "ratio",
    **{f"share.{name}": "ratio" for name in SHARE_PACKAGES + ("other",)},
    "share.samples": "count",
    **{f"sim.{name}": "count" for name in SIM_COUNTS},
    "corpus.build_s": "s",
    "corpus.build.kevents_per_s": "kevents/s",
    "corpus.events": "count",
    "replay.trace.s": "s",
    "replay.trace.kevents_per_s": "kevents/s",
    "replay.batch.s": "s",
    "replay.batch.kevents_per_s": "kevents/s",
    "replay.diffcheck.s": "s",
    "replay.report.s": "s",
    "replay.coverage_frac": "ratio",
    "replay.events": "count",
    "replay.returns": "count",
    "replay.return_hits": "count",
    "replay.divergences": "count",
    "service.fresh_ms": "ms",
    "service.coalesced_ms": "ms",
    "service.fresh_requests": "count",
    "service.coalesced_requests": "count",
    "service.queue.executed": "count",
    "service.queue.coalesced": "count",
    "service.sim_calls": "count",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}


class WorkerFailed(RuntimeError):
    pass


class Bench:
    """One invocation: scratch space, worker launches, the deadline."""

    def __init__(self, root: pathlib.Path, seed: int, workload_seed: int,
                 seconds: float, workloads: int = 1) -> None:
        self.root = root
        self.seed = seed
        self.workload_seed = workload_seed
        self.seconds = seconds
        self.scratch = root / ".perfbench" / f"run-{os.getpid()}"
        self.deadline = time.monotonic() + BUDGET_S * workloads
        self._launched = 0

    def environment(self, tmp: pathlib.Path) -> Dict[str, str]:
        """The worker's environment: no inherited ``REPRO_*`` setting
        except the diffcheck fault-injection knob, and a cache root of
        its own (never ``~/.cache/repro-sim``)."""
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")
               or key == "REPRO_DIFF_CORRUPT_EVENT"}
        env["REPRO_CACHE_DIR"] = str(tmp / "cache")
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    def worker(self, workload: str, traced: bool, seconds: float,
               reps: int = 0, seed: Optional[int] = None) -> dict:
        self._launched += 1
        tmp = self.scratch / f"w{self._launched}"
        tmp.mkdir(parents=True)
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload,
            "--seed", str(self.seed if seed is None else seed),
            "--workload-seed", str(self.workload_seed),
            "--seconds", repr(seconds), "--reps", str(reps),
            "--trace", "1" if traced else "0",
            "--tmp", str(tmp), "--spawn-ts", repr(time.time()),
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise WorkerFailed(f"{workload}: out of time before a worker")
        try:
            done = subprocess.run(command, cwd=self.root,
                                  env=self.environment(tmp),
                                  capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{workload}: worker ran out of time")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if done.returncode != 0:
            raise WorkerFailed(f"{workload}: worker exited "
                               f"{done.returncode}:\n{done.stderr[-3000:]}")
        try:
            return json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise WorkerFailed(f"{workload}: worker printed no result:\n"
                               f"{done.stdout[-2000:]}{done.stderr[-2000:]}")

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            self.scratch.parent.rmdir()
        except OSError:
            pass  # another invocation still uses it


# ----------------------------------------------------------------------
# Output check


def load_digests() -> dict:
    if DIGESTS.exists():
        return json.loads(DIGESTS.read_text())
    return {}


def check_outputs(workload: str, workload_seed: int, workers: List[dict],
                  pinned: dict) -> Tuple[int, int, List[str]]:
    """Compare every worker's row digests and exact counts with the pinned
    ones. Returns ``(attempted, failed, problems)``, including each
    worker's own differential checks and preconditions."""
    attempted = failed = 0
    problems: List[str] = []
    expected = pinned.get(workload, {}).get(str(workload_seed))
    for worker in workers:
        attempted += worker["attempted"]
        failed += worker["failed"]
        problems.extend(worker["problems"])
        if expected is None:
            attempted += 1
            failed += 1
            problems.append(f"no pinned digests for {workload} at workload "
                            f"seed {workload_seed}; pin them with --pin")
            continue
        for kind in ("sections", "counts"):
            for name, value in expected[kind].items():
                found = worker[kind].get(name)
                attempted += 1
                if found != value:
                    failed += 1
                    problems.append(f"{workload} {kind[:-1]} {name}: "
                                    f"expected {value}, found {found}")
    return attempted, failed, problems


# ----------------------------------------------------------------------
# Measuring


def percentile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced(bench: Bench, workload: str) -> List[dict]:
    workers: List[dict] = []
    if workload == "paper-cold":
        # one cold regenerate per fresh process, until the budget is spent
        spent = 0.0
        while len(workers) < UNTRACED_WORKERS or spent < bench.seconds:
            workers.append(bench.worker(workload, False, 0.0, reps=1))
            spent += workers[-1]["reps"][0]["wall_s"]
        return workers
    share = bench.seconds / UNTRACED_WORKERS
    return [bench.worker(workload, False, share)
            for _ in range(UNTRACED_WORKERS)]


def end_to_end(workers: List[dict]) -> Dict[str, Tuple[float, int]]:
    reps = [rep for worker in workers for rep in worker["reps"]]
    walls = [rep["wall_s"] for rep in reps]
    ops = [ms for rep in reps for ms in rep["ops_ms"]]
    return {
        "wall_s": (statistics.median(walls), len(walls)),
        "ops_per_s": (len(ops) / sum(walls), len(ops)),
        "op_p50_ms": (statistics.median(ops), len(ops)),
        "op_p99_ms": (percentile(ops, 99), len(ops)),
        "setup_s": (statistics.median(w["setup_s"] for w in workers),
                    len(workers)),
        "peak_rss_mb": (statistics.median(w["peak_rss_mb"] for w in workers),
                        len(workers)),
    }


def traced(bench: Bench, workload: str) -> Tuple[List[dict], Dict[str, Tuple[float, int]]]:
    reps = TRACED_REPS[workload]
    plain: List[dict] = []
    layered: List[dict] = []
    for _ in range(TRACED_PAIRS):
        plain.append(bench.worker(workload, False, 0.0, reps=reps))
        layered.append(bench.worker(workload, True, 0.0, reps=reps))
    metrics: Dict[str, Tuple[float, int]] = {}
    for name in PER_LAYER:
        values = [w["layers"][name] for w in layered if name in w["layers"]]
        metrics[name] = ((statistics.median(values), len(values)) if values
                         else (0.0, 0))
    wall_plain = end_to_end(plain)["wall_s"][0]
    wall_traced = end_to_end(layered)["wall_s"][0]
    metrics["trace.overhead_frac"] = (wall_traced / wall_plain - 1.0,
                                      len(plain) + len(layered))
    return plain + layered, metrics


def measure(bench: Bench, workload: str, trace: bool, pinned: dict) -> dict:
    if trace:
        workers, metrics = traced(bench, workload)
    else:
        workers = untraced(bench, workload)
        metrics = end_to_end(workers)
    attempted, failed, problems = check_outputs(
        workload, bench.workload_seed, workers, pinned)
    if trace:
        metrics["failed_frac"] = (failed / attempted if attempted else 0.0,
                                  attempted)
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name],
                           "samples": metrics[name][1]}
                    for name in units},
    }


def pin(bench: Bench, workloads: List[str]) -> int:
    """Re-pin the digests of ``workloads`` at the bench's workload seed.

    Two workers with different input seeds must agree, so a pin never
    records rows that depend on the name order."""
    pinned = load_digests()
    for workload in workloads:
        first, second = (bench.worker(workload, False, 0.0, reps=1, seed=s)
                         for s in (1, 2))
        for worker in (first, second):
            if worker["failed"]:
                print(f"{workload}: cannot pin, worker checks failed: "
                      f"{worker['problems']}", file=sys.stderr)
                return 1
        if (first["sections"], first["counts"]) != (second["sections"],
                                                    second["counts"]):
            print(f"{workload}: rows or counts depend on the input seed",
                  file=sys.stderr)
            return 1
        pinned.setdefault(workload, {})[str(bench.workload_seed)] = {
            "sections": first["sections"], "counts": first["counts"]}
        print(f"pinned {workload} at workload seed {bench.workload_seed}")
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 0


def report(result: dict) -> None:
    print(f"== {result['workload']}: {result['failed']} failed of "
          f"{result['attempted']} checked")
    for problem in result["problems"][:20]:
        print(f"   ! {problem}")
    for name, metric in result["metrics"].items():
        print(f"   {name:<32} {_number(metric['value']):>16} "
              f"{metric['unit']:<10} n={metric['samples']}")


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def _number(value: float) -> str:
    return f"{value:.0f}" if float(value).is_integer() else f"{value:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed: name order and request mix")
    parser.add_argument("--workload-seed", type=int,
                        default=DEFAULT_WORKLOAD_SEED,
                        help=f"program seed (pinned: {DEFAULT_WORKLOAD_SEED}, "
                             f"held out: {HELD_OUT_WORKLOAD_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the output digests and exit")
    args = parser.parse_args(argv)
    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"{root} holds no src/repro: run from the root of a checkout",
              file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    bench = Bench(root, args.seed, args.workload_seed, args.seconds,
                  len(workloads))
    # a terminated run still kills and waits for its worker (subprocess.run
    # does so on any exception) and removes its scratch tree
    signal.signal(signal.SIGTERM, _terminate)
    try:
        if args.pin:
            return pin(bench, workloads)
        pinned = load_digests()
        results = [measure(bench, workload, bool(args.trace), pinned)
                   for workload in workloads]
    except WorkerFailed as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    for result in results:
        report(result)
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    prefix = len(results) > 1
    metrics = {
        (f"{result['workload']}/{name}" if prefix else name):
            {"value": metric["value"], "unit": metric["unit"]}
        for result in results for name, metric in result["metrics"].items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

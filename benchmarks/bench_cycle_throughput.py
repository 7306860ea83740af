"""Cycle-engine throughput: columnar work-list twins vs the references.

Runs the same workloads through the reference execution-driven CPUs
(:mod:`repro.pipeline`, :mod:`repro.multipath`) and their columnar
fast twins (:mod:`repro.fastsim.cycle`, :mod:`repro.fastsim.multipath`)
and measures the speedup. Timing is **interleaved best-of-N**: each
engine's full pass over the workload set is timed ``_ROUNDS`` times in
an alternating order and the minimum is kept — wall-clock noise on
shared runners easily swings a single pass by +-20%, the minimum is
the estimate least contaminated by scheduler interference, and the
interleaving means slow thermal / frequency drift hits both engines
roughly equally instead of biasing whichever ran later. If the first
measurement still misses a floor, one retry with doubled rounds runs
before the gate fails: the floors themselves never move, the retry
only suppresses false negatives on a noisy host.

The emitted ``BENCH_cycle_throughput.json`` records the best walls and
speedups, which the CI bench gate (``repro-sim bench compare``) holds
against the committed baseline in ``benchmarks/baselines/``. The test
itself asserts the engine contract (ISSUE 6 acceptance): bit-identical
counters, with the single-path columnar engine >= 3x the reference
pipeline. The multipath twin is gated at a looser floor — its per-path
bookkeeping keeps more of the reference's object structure.
"""

import time

from repro.config.defaults import baseline_config
from repro.config.options import StackOrganization
from repro.core.experiment import multipath_machine, run_cycle, run_multipath
from repro.fastsim.cycle import run_cycle_fast
from repro.fastsim.multipath import run_multipath_fast
from repro.fastsim.parity import flatten_group
from repro.workloads.generator import build_workload
from repro.workloads.profiles import BENCHMARK_NAMES

_NAMES = BENCHMARK_NAMES
#: Timed passes per engine on the first attempt (doubled on retry).
_ROUNDS = 5

#: The ISSUE 6 acceptance floor for the single-path columnar engine.
MIN_SPEEDUP = 3.0
#: Conservative floor for the multipath twin (measured ~2.2x).
MIN_SPEEDUP_MULTIPATH = 1.5


def _best_of(rounds, *passes):
    """Time each pass ``rounds`` times, interleaved, keeping the minima.

    Returns ``[(best wall, last result), ...]``, one tuple per pass.
    """
    best = [None] * len(passes)
    results = [None] * len(passes)
    for _ in range(rounds):
        for i, run_pass in enumerate(passes):
            started = time.perf_counter()
            results[i] = run_pass()
            wall = time.perf_counter() - started
            best[i] = wall if best[i] is None else min(best[i], wall)
    return list(zip(best, results))


def _measure(programs, single_config, multi_config, rounds):
    ((ref_wall, ref_results),
     (fast_wall, fast_results),
     (ref_mp_wall, ref_mp_results),
     (fast_mp_wall, fast_mp_results)) = _best_of(
        rounds,
        lambda: {name: run_cycle(program, single_config)[0]
                 for name, program in programs.items()},
        lambda: {name: run_cycle_fast(program, single_config)[0]
                 for name, program in programs.items()},
        lambda: {name: run_multipath(program, multi_config)[0]
                 for name, program in programs.items()},
        lambda: {name: run_multipath_fast(program, multi_config)[0]
                 for name, program in programs.items()})
    instructions = sum(r.instructions for r in ref_results.values())
    cycle_speedup = round(ref_wall / fast_wall, 2)
    multipath_speedup = round(ref_mp_wall / fast_mp_wall, 2)
    rows = [
        ["cycle", "reference", len(programs), instructions,
         round(ref_wall, 4), 1.0],
        ["cycle-fast", "columnar", len(programs), instructions,
         round(fast_wall, 4), cycle_speedup],
        ["multipath", "reference", len(programs), instructions,
         round(ref_mp_wall, 4), 1.0],
        ["multipath-fast", "worklist", len(programs), instructions,
         round(fast_mp_wall, 4), multipath_speedup],
    ]
    title = (f"Cycle-engine throughput: reference vs columnar "
             f"(best of {rounds} passes)")
    headers = ["engine", "backend", "workloads", "instructions",
               "best wall s", "speedup vs reference"]
    pairs = [(ref_results, fast_results),
             (ref_mp_results, fast_mp_results)]
    return ((title, headers, rows), pairs,
            (cycle_speedup, multipath_speedup))


def test_bench_cycle_throughput(benchmark, emit, bench_seed, bench_scale):
    programs = {name: build_workload(name, seed=bench_seed, scale=bench_scale)
                for name in _NAMES}
    single_config = baseline_config()
    multi_config = multipath_machine(2, StackOrganization.PER_PATH)

    def measure():
        table, pairs, speedups = _measure(
            programs, single_config, multi_config, _ROUNDS)
        if speedups[0] < MIN_SPEEDUP or \
                speedups[1] < MIN_SPEEDUP_MULTIPATH:
            # Noisy host: re-measure once with more rounds and keep the
            # attempt with the better headline speedup (see module
            # docstring — this narrows the noise, not the contract).
            retry = _measure(
                programs, single_config, multi_config, 2 * _ROUNDS)
            if retry[2][0] > speedups[0]:
                table, pairs, speedups = retry
        return table, pairs, speedups

    (table, pairs, speedups) = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    emit("cycle_throughput", table)

    # Differential parity: the speedup must be free.
    for reference_by_name, fast_by_name in pairs:
        for name, reference in reference_by_name.items():
            fast = fast_by_name[name]
            assert flatten_group(reference.group) == \
                flatten_group(fast.group), name

    cycle_speedup, multipath_speedup = speedups
    assert cycle_speedup >= MIN_SPEEDUP, (
        f"columnar cycle engine ran only {cycle_speedup}x the reference "
        f"pipeline; the contract is >= {MIN_SPEEDUP}x")
    assert multipath_speedup >= MIN_SPEEDUP_MULTIPATH, (
        f"fast multipath engine ran only {multipath_speedup}x the "
        f"reference; the floor is >= {MIN_SPEEDUP_MULTIPATH}x")

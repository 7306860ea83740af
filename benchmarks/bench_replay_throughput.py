"""Replay throughput: streaming vs batched trace-replay engines.

Builds a small corpus, then runs the paper's capacity-sweep shape (one
decode pass evaluating the full stack-size grid) through both replay
engines: the event-at-a-time streaming evaluator
(:func:`repro.trace.replay.replay_shard_multi`) and the block-decoded
batch engine (:func:`repro.fastsim.batch.replay_shard_batched_multi`).
A third row times the shape corpus sweeps actually run: one streaming
``trace`` job per (shard, size) through a cache-less serial executor
(:func:`repro.core.sweep.trace_depth_sweep`), i.e. one decode pass per
stack size.

Timing of the two single-pass rows is interleaved best-of-N, with the
helper of ``bench_cycle_throughput.py``: each engine's pass over the corpus is
timed ``_ROUNDS`` times in alternating order and the minimum is kept,
so one scheduler hiccup in a ~1 ms batch pass cannot swing the ratio.
The per-job row already decodes every shard ``len(_SIZES)`` times, so
it is timed once.

The emitted ``BENCH_replay_throughput.json`` records every wall time
and the speedup over the single-pass streaming row, which the CI bench
gate (``repro-sim bench compare``) then holds against the committed
baseline. The test itself asserts the batch engine's contract:
bit-identical counters at >= 3x the streaming throughput.
"""

from bench_cycle_throughput import _best_of

from repro.core.executor import SweepExecutor
from repro.core.experiment import WorkloadSpec
from repro.core.sweep import trace_depth_sweep
from repro.corpus import CorpusStore
from repro.fastsim.batch import decoder_backend, replay_shard_batched_multi
from repro.trace.replay import replay_shard_multi

_SIZES = (1, 2, 4, 8, 12, 16, 32, 64)
_NAMES = ("li", "vortex", "perl")
#: Timed passes per single-pass engine; the minimum is kept.
_ROUNDS = 3

#: The contract the batch engine must hold (see ISSUE 5 / docs).
MIN_SPEEDUP = 3.0


def _sweep_per_job(shards):
    # the executor runs one ``replay_shard`` job per (shard, size): no
    # cache, no workers, so the timing is the engine's own
    executor = SweepExecutor(jobs=1, cache=None)
    swept = trace_depth_sweep(shards, _SIZES, executor=executor,
                              engine="trace")
    return {name: {size: (result.counter("returns"),
                          result.counter("return_hits"),
                          result.counter("ras_overflows"),
                          result.counter("ras_underflows"))
                   for size, result in by_size.items()}
            for name, by_size in swept.items()}


def counters(result):
    return (result.returns, result.hits, result.overflows, result.underflows)


def test_bench_replay_throughput(benchmark, emit, bench_seed, bench_scale,
                                 tmp_path):
    store = CorpusStore.create(tmp_path / "corpus")
    store.build_from_specs(
        [WorkloadSpec(name, bench_seed, bench_scale) for name in _NAMES])
    shards = store.specs()
    events_per_pass = sum(shard.events for shard in shards)

    def measure():
        ((trace_wall, trace_results), (batch_wall, batch_results)) = \
            _best_of(
                _ROUNDS,
                lambda: {shard.name: replay_shard_multi(shard, _SIZES)
                         for shard in shards},
                lambda: {shard.name: replay_shard_batched_multi(shard, _SIZES)
                         for shard in shards})
        ((jobs_wall, jobs_results),) = _best_of(
            1, lambda: _sweep_per_job(shards))
        rows = []
        for engine, shape, decoder, wall in (
                ("trace", "one pass", "objects", trace_wall),
                ("trace", "job per size", "objects", jobs_wall),
                ("batch", "one pass", decoder_backend(), batch_wall)):
            # kevents/s counts corpus events swept over the whole grid,
            # however many times the shape decodes them
            rows.append([
                engine, shape, decoder, len(shards), len(_SIZES),
                events_per_pass, round(wall, 4),
                round(events_per_pass / wall / 1000.0, 1),
                round(trace_wall / wall, 2),
            ])
        title = (f"Replay throughput: trace vs batch "
                 f"({len(_SIZES)}-size grid, best of {_ROUNDS} passes)")
        headers = ["engine", "shape", "decoder", "shards", "sizes",
                   "events/pass", "wall s", "kevents/s", "speedup vs trace"]
        return (title, headers, rows), trace_results, jobs_results, \
            batch_results

    table, trace_results, jobs_results, batch_results = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    emit("replay_throughput", table)

    # Differential parity: the speedup must be free, and the per-job
    # sweep must equal the single pass.
    for name, by_size in trace_results.items():
        for size, reference in by_size.items():
            assert counters(batch_results[name][size]) == \
                counters(reference), (name, size)
            assert jobs_results[name][size] == counters(reference), \
                (name, size)

    (speedup,) = [row[-1] for row in table[2] if row[0] == "batch"]
    assert speedup >= MIN_SPEEDUP, (
        f"batch engine replayed only {speedup}x faster than the streaming "
        f"evaluator; the contract is >= {MIN_SPEEDUP}x")

"""Corpus pipeline: build a sharded trace corpus, then sweep it.

``trace_corpus`` times the full data path the corpus subsystem adds:
streaming ingestion (decode-table capture -> compressed v2 shards +
manifest) followed by an executor-routed stack-depth sweep over every
shard. ``trace_corpus_ingest`` times ingestion alone; its rows (counts
and shard digests) are deterministic. Caching is disabled so the
timing reflects real ingest + replay work on every run.
"""

import itertools

from repro.core.executor import SweepExecutor, default_jobs
from repro.core.experiment import WorkloadSpec
from repro.corpus import CorpusStore, corpus_depth_sweep

_SIZES = (1, 4, 16, 64)
_NAMES = ("li", "vortex")
_ROUND = itertools.count()


def test_bench_trace_corpus(benchmark, emit, bench_seed, bench_scale,
                            tmp_path):
    def build_and_replay():
        store = CorpusStore.create(tmp_path / f"corpus{next(_ROUND)}")
        store.build_from_specs(
            [WorkloadSpec(name, bench_seed, bench_scale) for name in _NAMES])
        executor = SweepExecutor(jobs=default_jobs(), cache=None)
        return corpus_depth_sweep(store, _SIZES, executor=executor)

    table = benchmark.pedantic(build_and_replay, rounds=1, iterations=1)
    emit("trace_corpus", table)
    title, headers, rows = table
    assert len(rows) == len(_NAMES)
    for row in rows:
        name, *accuracies, returns = row
        assert returns > 0, name
        # Capacity story: the 64-entry stack must beat the 1-entry one.
        assert accuracies[-1] > accuracies[0], name


def test_bench_trace_corpus_ingest(benchmark, emit, bench_seed, bench_scale,
                                   tmp_path):
    specs = [WorkloadSpec(name, bench_seed, bench_scale) for name in _NAMES]

    def ingest():
        store = CorpusStore.create(tmp_path / f"corpus{next(_ROUND)}")
        records = store.build_from_specs(specs)
        rows = [[record.name, record.events, record.calls, record.returns,
                 record.checksum[:12]] for record in records]
        return ("Corpus ingestion (decode-table capture -> v2 shards)",
                ["shard", "events", "calls", "returns", "sha256"], rows)

    table = benchmark.pedantic(ingest, rounds=1, iterations=1)
    emit("trace_corpus_ingest", table)
    title, headers, rows = table
    assert len(rows) == len(_NAMES)
    for name, events, calls, returns, _ in rows:
        assert events > calls > 0, name

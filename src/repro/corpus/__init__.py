"""Durable, sharded, compressed control-flow trace corpora.

This package is the data-pipeline backbone for trace-driven
experiments: a directory of chunked v2 trace shards plus a JSON
manifest (:mod:`repro.corpus.store`, :mod:`repro.corpus.manifest`),
streaming ingestion of workload programs (executed on the fast
engines' decode-table handlers, parity-checked against the reference
emulator) or of external ChampSim traces (:mod:`repro.corpus.champsim`),
and executor-routed capacity sweeps over whole corpora
(:mod:`repro.corpus.replay`).
See docs/traces.md for formats, schema, and CLI examples
(``repro-sim corpus build|import|info|verify|replay``).
"""

from repro.corpus.champsim import (
    ImportStats,
    champsim_events,
    classify_branch,
    iter_champsim_records,
)
from repro.corpus.diffcheck import (
    DiffReport,
    ReferenceReturnStack,
    diff_corpus,
    diff_events,
    diff_shard,
)
from repro.corpus.fetch import (
    TRACESET_SCHEMA,
    TraceSetEntry,
    TraceSetManifest,
    check_manifest,
    fetch_and_build,
    fetch_entry,
    fetch_set,
    ingest_traces,
)
from repro.corpus.manifest import (
    MANIFEST_SCHEMA,
    CorpusManifest,
    ShardRecord,
)
from repro.corpus.replay import (
    DEFAULT_SIZES,
    REPORT_MECHANISMS,
    corpus_depth_results,
    corpus_depth_sweep,
    corpus_report,
)
from repro.corpus.store import (
    CorpusStore,
    ingest_champsim_shard,
    workload_shard_name,
    write_shard_file,
)
from repro.errors import CorpusError, DivergenceError

__all__ = [
    "CorpusError",
    "CorpusManifest",
    "CorpusStore",
    "DEFAULT_SIZES",
    "DiffReport",
    "DivergenceError",
    "ImportStats",
    "MANIFEST_SCHEMA",
    "REPORT_MECHANISMS",
    "ReferenceReturnStack",
    "ShardRecord",
    "TRACESET_SCHEMA",
    "TraceSetEntry",
    "TraceSetManifest",
    "champsim_events",
    "check_manifest",
    "classify_branch",
    "corpus_depth_results",
    "corpus_depth_sweep",
    "corpus_report",
    "diff_corpus",
    "diff_events",
    "diff_shard",
    "fetch_and_build",
    "fetch_entry",
    "fetch_set",
    "ingest_champsim_shard",
    "ingest_traces",
    "iter_champsim_records",
    "workload_shard_name",
    "write_shard_file",
]

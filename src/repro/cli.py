"""Command-line driver: ``repro-sim`` / ``python -m repro``.

Examples:
    repro-sim table1
    repro-sim table4 --scale 0.25
    repro-sim hit-rates --names li vortex --scale 0.5
    repro-sim speedup --jobs 4                 # parallel, cached
    repro-sim speedup --no-cache --json f2.json
    repro-sim run --benchmark li --mechanism tos-pointer-contents
    repro-sim run --benchmark go --paths 4 --stacks per-path
    repro-sim run --benchmark go --engine fast  # columnar cycle engine
    repro-sim parity --names li vortex          # fast vs reference, all cells
    repro-sim corpus build traces/ --names li vortex --scale 0.25
    repro-sim corpus import traces/ champsim.trace.xz --name srv0
    repro-sim corpus replay traces/ --jobs 4 --sizes 1 4 16 64
    repro-sim corpus replay traces/ --engine batch      # fast replay
    repro-sim corpus fetch benchmarks/tracesets/sample.json --corpus traces/
    repro-sim corpus fetch benchmarks/tracesets/sample.json --check-manifest
    repro-sim corpus diffcheck traces/ --report diffreport.json
    repro-sim corpus report traces/ --engine batch
    repro-sim serve --bind 127.0.0.1:8642       # HTTP API, dashboard, fleet
    repro-sim cluster worker --coordinator http://127.0.0.1:8642
    REPRO_COORDINATOR=http://127.0.0.1:8642 repro-sim stack-depth --backend cluster
    repro-sim runs list
    repro-sim runs compare -2 -1
    repro-sim trace show -1                     # waterfall of the last run
    repro-sim trace critical-path -1
    repro-sim trace export -1 --out trace.json  # Perfetto / chrome://tracing
    REPRO_PROFILE=1 repro-sim speedup && repro-sim trace flame -1
    repro-sim cluster status --prom             # Prometheus exposition text
    repro-sim bench compare benchmarks/baselines/smoke.json benchmarks/out
    repro-sim bench snapshot benchmarks/out benchmarks/baselines/smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import telemetry
from repro.config.defaults import baseline_config
from repro.config.options import RepairMechanism, StackOrganization
from repro.core.executor import (
    BACKENDS,
    ResultCache,
    SweepExecutor,
    default_backend,
    default_jobs,
)
from repro.core.experiment import (
    WorkloadSpec,
    default_scale,
    default_seed,
    multipath_machine,
    run_cycle,
    run_multipath,
)
from repro.service.core import SWEEPS, SimulationService, normalize_request
from repro.stats.tables import format_table
from repro.workloads.characterize import table2 as build_table2
from repro.workloads.generator import build_workload
from repro.workloads.profiles import BENCHMARK_NAMES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Return-address-stack repair reproduction "
                    "(Skadron et al., MICRO-31 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, names_default=None) -> None:
        p.add_argument("--names", nargs="*",
                       default=names_default,
                       choices=BENCHMARK_NAMES,
                       help="benchmarks to run (default: varies)")
        p.add_argument("--seed", type=int, default=default_seed())
        p.add_argument("--scale", type=float, default=default_scale())
        p.add_argument("--jobs", type=int, default=default_jobs(),
                       help="worker processes for independent simulations "
                            "(default: $REPRO_JOBS or 1)")
        p.add_argument("--backend", default=default_backend(),
                       choices=list(BACKENDS),
                       help="where cache misses execute: 'local' process "
                            "pool or 'cluster' remote workers via "
                            "$REPRO_COORDINATOR (default: $REPRO_BACKEND "
                            "or local; see docs/distributed.md)")
        p.add_argument("--no-cache", action="store_true",
                       help="ignore and don't update the on-disk result "
                            "cache (see docs/performance.md)")
        p.add_argument("--no-telemetry", action="store_true",
                       help="disable metrics, spans, and the run ledger "
                            "(see docs/observability.md)")
        p.add_argument("--json", metavar="OUT", default=None,
                       help="also write the table as JSON to OUT "
                            "(table commands only)")

    for name in SWEEPS:
        p = sub.add_parser(name, help=f"print {name}")
        common(p)

    p = sub.add_parser("table2", help="workload characterisation")
    common(p)

    p = sub.add_parser("corruption",
                       help="classify return mispredictions by cause")
    common(p)

    p = sub.add_parser("return-predictors",
                       help="RAS vs BTB vs target caches on returns")
    common(p)

    p = sub.add_parser("smt",
                       help="SMT threads: shared vs per-thread stacks")
    common(p)
    p.add_argument("--benchmark", default="li", choices=BENCHMARK_NAMES)
    p.add_argument("--threads", type=int, default=2)

    p = sub.add_parser("run", help="simulate one benchmark")
    common(p)
    p.add_argument("--benchmark", required=True, choices=BENCHMARK_NAMES)
    p.add_argument("--mechanism", default="tos-pointer-contents",
                   choices=[m.value for m in RepairMechanism])
    p.add_argument("--no-ras", action="store_true",
                   help="disable the RAS (BTB-only returns)")
    p.add_argument("--ras-entries", type=int, default=32)
    p.add_argument("--paths", type=int, default=1,
                   help=">1 selects the multipath model")
    p.add_argument("--stacks", default="per-path",
                   choices=[o.value for o in StackOrganization])
    p.add_argument("--engine", default="reference",
                   choices=["reference", "fast"],
                   help="'fast' selects the columnar work-list twin "
                        "(bit-identical counters; see docs/engines.md)")

    p = sub.add_parser("disasm", help="disassemble a generated benchmark")
    common(p)
    p.add_argument("--benchmark", required=True, choices=BENCHMARK_NAMES)
    p.add_argument("--count", type=int, default=40)

    p = sub.add_parser("corpus",
                       help="manage sharded trace corpora (docs/traces.md)")
    csub = p.add_subparsers(dest="corpus_command", required=True)

    c = csub.add_parser("build",
                        help="record workload shards into a corpus")
    c.add_argument("corpus", help="corpus directory (created if needed)")
    c.add_argument("--names", nargs="*", default=None,
                   choices=BENCHMARK_NAMES,
                   help="benchmarks to record (default: all)")
    c.add_argument("--seed", type=int, default=default_seed())
    c.add_argument("--scale", type=float, default=default_scale())
    c.add_argument("--max-instructions", type=int, default=50_000_000)

    c = csub.add_parser("import",
                        help="import a ChampSim trace as a shard")
    c.add_argument("corpus", help="corpus directory (created if needed)")
    c.add_argument("trace", help="ChampSim trace file (xz/gz/raw)")
    c.add_argument("--name", default=None,
                   help="shard name (default: trace file stem)")
    c.add_argument("--limit", type=int, default=None,
                   help="import at most this many trace records")

    c = csub.add_parser("info", help="list a corpus's shards")
    c.add_argument("corpus")

    c = csub.add_parser("verify",
                        help="recompute shard checksums against the manifest")
    c.add_argument("corpus")

    c = csub.add_parser("replay",
                        help="stack-depth sweep over every shard")
    c.add_argument("corpus")
    c.add_argument("--sizes", nargs="+", type=int,
                   default=[1, 2, 4, 8, 12, 16, 32, 64])
    c.add_argument("--mechanism", default="none",
                   choices=[m.value for m in RepairMechanism])
    c.add_argument("--engine", default="trace", choices=["trace", "batch"],
                   help="replay path: 'trace' streams events, 'batch' "
                        "decodes block-at-a-time (identical counters, "
                        "several times faster; docs/performance.md)")
    c.add_argument("--shards", nargs="*", default=None,
                   help="restrict to these shard names")
    c.add_argument("--jobs", type=int, default=default_jobs())
    c.add_argument("--backend", default=default_backend(),
                   choices=list(BACKENDS),
                   help="execution backend for the replay sweep "
                        "(see docs/distributed.md)")
    c.add_argument("--no-cache", action="store_true",
                   help="ignore and don't update the on-disk result cache")
    c.add_argument("--no-telemetry", action="store_true",
                   help="disable metrics, spans, and the run ledger")
    c.add_argument("--json", metavar="OUT", default=None,
                   help="also write the table as JSON to OUT")

    def corpus_executor_opts(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--jobs", type=int, default=default_jobs())
        sp.add_argument("--backend", default=default_backend(),
                        choices=list(BACKENDS),
                        help="execution backend (see docs/distributed.md)")
        sp.add_argument("--no-cache", action="store_true",
                        help="ignore and don't update the on-disk result "
                             "cache")
        sp.add_argument("--no-telemetry", action="store_true",
                        help="disable metrics, spans, and the run ledger")
        sp.add_argument("--json", metavar="OUT", default=None,
                        help="also write the table as JSON to OUT")

    c = csub.add_parser(
        "fetch",
        help="download a trace set and ingest it into a corpus "
             "(docs/validation.md)")
    c.add_argument("manifest", help="trace-set manifest JSON "
                                    "(benchmarks/tracesets/*.json)")
    c.add_argument("--corpus", default=None,
                   help="corpus directory (created if needed; required "
                        "unless --check-manifest)")
    c.add_argument("--dest", default=None,
                   help="download directory "
                        "(default: <corpus>/downloads)")
    c.add_argument("--names", dest="trace_names", nargs="*", default=None,
                   help="restrict to these trace names (note: trace-set "
                        "names, not benchmark names)")
    c.add_argument("--jobs", type=int, default=default_jobs(),
                   help="parallel ingestion worker processes")
    c.add_argument("--limit", type=int, default=None,
                   help="import at most this many records per trace")
    c.add_argument("--check-manifest", action="store_true",
                   help="validate the manifest offline (zero network, "
                        "no corpus needed) and exit")

    c = csub.add_parser(
        "diffcheck",
        help="differential replay against the reference ChampSim "
             "model; exits 1 on any divergence (docs/validation.md)")
    c.add_argument("corpus")
    c.add_argument("--mechanism", default="champsim",
                   choices=[m.value for m in RepairMechanism])
    c.add_argument("--ras-entries", type=int, default=64)
    c.add_argument("--shards", nargs="*", default=None,
                   help="restrict to these shard names")
    c.add_argument("--report", metavar="OUT", default=None,
                   help="write the full DiffReport list as JSON to OUT "
                        "(the CI artifact)")
    corpus_executor_opts(c)

    c = csub.add_parser(
        "report",
        help="corpus-wide headline table: every shard, every "
             "mechanism (docs/validation.md)")
    c.add_argument("corpus")
    c.add_argument("--ras-entries", type=int, default=64)
    c.add_argument("--engine", default="batch", choices=["trace", "batch"],
                   help="replay path (identical counters; 'batch' is "
                        "several times faster)")
    c.add_argument("--shards", nargs="*", default=None,
                   help="restrict to these shard names")
    corpus_executor_opts(c)

    p = sub.add_parser("runs",
                       help="inspect the persistent run ledger "
                            "(docs/observability.md)")
    rsub = p.add_subparsers(dest="runs_command", required=True)

    def ledger_opt(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--ledger", default=None,
                        help="ledger file (default: <cache root>/"
                             "ledger.jsonl)")

    r = rsub.add_parser("list", help="recorded runs, oldest first")
    ledger_opt(r)
    r.add_argument("--limit", type=int, default=20,
                   help="show only the newest N entries (default 20)")
    r.add_argument("--json", metavar="OUT", default=None,
                   help="also write the table as JSON to OUT")

    r = rsub.add_parser("show", help="one ledger entry in full")
    ledger_opt(r)
    r.add_argument("ref", help="run id (prefix) or index (-1 = latest)")
    r.add_argument("--json", metavar="OUT", default=None,
                   help="also write the entry (plus its integrity "
                        "verdict) as JSON to OUT")

    r = rsub.add_parser("compare",
                        help="diff two ledger entries (config fingerprint "
                             "delta + metric deltas)")
    ledger_opt(r)
    r.add_argument("a", help="run id (prefix) or index")
    r.add_argument("b", help="run id (prefix) or index")
    r.add_argument("--json", metavar="OUT", default=None,
                   help="also write the full diff as JSON to OUT")

    p = sub.add_parser("trace",
                       help="inspect distributed traces recorded next to "
                            "the run ledger (docs/observability.md)")
    tsub = p.add_subparsers(dest="trace_command", required=True)

    def trace_ref(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("ref", nargs="?", default="-1",
                        help="trace id, run id (prefix), or ledger index "
                             "(-1 = latest run; default)")

    t = tsub.add_parser("list", help="known traces, newest first")
    t.add_argument("--limit", type=int, default=20)

    t = tsub.add_parser("show", help="ASCII waterfall of one trace")
    trace_ref(t)
    t.add_argument("--width", type=int, default=100,
                   help="render width in columns (default 100)")

    t = tsub.add_parser("critical-path",
                        help="the span chain bounding end-to-end latency")
    trace_ref(t)
    t.add_argument("--json", metavar="OUT", default=None,
                   help="also write the path as JSON to OUT")

    t = tsub.add_parser("export",
                        help="write Chrome trace-event JSON "
                             "(open in Perfetto / chrome://tracing)")
    trace_ref(t)
    t.add_argument("--out", default=None,
                   help="output file (default trace-<id>.json)")

    t = tsub.add_parser("flame",
                        help="hottest stacks from the sweep's sampling "
                             "profile (REPRO_PROFILE=1)")
    trace_ref(t)
    t.add_argument("--top", type=int, default=20,
                   help="rows per section (default 20)")

    p = sub.add_parser("cluster",
                       help="distributed sweep fleet: workers and status "
                            "of a `repro-sim serve` coordinator "
                            "(docs/distributed.md)")
    clsub = p.add_subparsers(dest="cluster_command", required=True)

    c = clsub.add_parser("worker",
                         help="lease and execute jobs until the "
                              "coordinator drains")
    c.add_argument("--coordinator", required=True,
                   help="coordinator URL, e.g. http://127.0.0.1:8642")
    c.add_argument("--name", default=None,
                   help="worker name for ledger attribution "
                        "(default: host-pid)")
    c.add_argument("--max-jobs", type=int, default=None,
                   help="exit after completing this many jobs")
    c.add_argument("--no-cache", action="store_true",
                   help="always execute; skip the shared result cache")

    c = clsub.add_parser("status",
                         help="one-line fleet summary + per-worker table")
    c.add_argument("--coordinator", required=True)
    c.add_argument("--json", metavar="OUT", default=None,
                   help="also write the raw status payload to OUT")
    c.add_argument("--prom", action="store_true",
                   help="print the coordinator's /metricz Prometheus "
                        "text instead of the tables")

    p = sub.add_parser("serve",
                       help="run the simulation service: HTTP API, job "
                            "queue, live dashboard (docs/service.md)")
    p.add_argument("--bind", default="127.0.0.1:8642",
                   help="host:port to listen on (port 0 = ephemeral; "
                        "the chosen port is announced on stderr)")
    p.add_argument("--jobs", type=int, default=default_jobs(),
                   help="worker processes per sweep (default: "
                        "$REPRO_JOBS or 1)")
    p.add_argument("--backend", default=default_backend(),
                   choices=list(BACKENDS),
                   help="where cache misses execute (docs/distributed.md)")
    p.add_argument("--coordinator", default=None,
                   help="coordinator URL for --backend cluster (default: "
                        "this server, leasing to the workers attached "
                        "to it)")
    p.add_argument("--lease-timeout", type=float, default=None,
                   help="seconds before an unheartbeated worker lease "
                        "is stolen (default 30)")
    p.add_argument("--no-cache", action="store_true",
                   help="serve without the on-disk result cache")
    p.add_argument("--max-concurrency", type=int, default=2,
                   help="sweeps simulated at once; beyond this, jobs "
                        "queue (default 2)")
    p.add_argument("--rate", type=float, default=None,
                   help="per-tenant submits/second token-bucket rate "
                        "(default: unlimited)")
    p.add_argument("--burst", type=int, default=None,
                   help="token-bucket burst capacity (default: max(1, "
                        "int(rate)))")
    p.add_argument("--quota", type=int, default=None,
                   help="max outstanding (queued+running) jobs per "
                        "tenant (default: unlimited)")

    p = sub.add_parser("bench",
                       help="benchmark baselines and the CI regression "
                            "gate (docs/performance.md)")
    bsub = p.add_subparsers(dest="bench_command", required=True)

    b = bsub.add_parser("compare",
                        help="gate BENCH_*.json artifacts against a "
                             "baseline; exit 1 on regression")
    b.add_argument("baseline", help="baseline JSON "
                                    "(e.g. benchmarks/baselines/smoke.json)")
    b.add_argument("out", help="directory of BENCH_*.json artifacts "
                               "(e.g. benchmarks/out)")
    b.add_argument("--tolerance", type=float, default=None,
                   help="allowed wall-time headroom as a fraction "
                        "(default: the baseline's recorded tolerance, "
                        "itself defaulting to 0.25)")
    b.add_argument("--min-wall", type=float, default=None,
                   help="noise floor in seconds; benches under it are "
                        "checked for row counts only (default 0.2)")
    b.add_argument("--json", metavar="OUT", default=None,
                   help="also write the per-bench verdicts as JSON to OUT")

    b = bsub.add_parser("snapshot",
                        help="freeze a bench run into a baseline file")
    b.add_argument("out", help="directory of BENCH_*.json artifacts")
    b.add_argument("baseline", help="baseline JSON file to write")
    b.add_argument("--tolerance", type=float, default=None,
                   help="tolerance to record in the baseline "
                        "(default 0.25)")
    b.add_argument("--note", default="",
                   help="free-form provenance note to record")

    p = sub.add_parser("parity",
                       help="prove fast-engine counters bit-identical to "
                            "the reference engines (docs/engines.md)")
    common(p)
    p.add_argument("--ras-entries", nargs="+", type=int, default=[8, 32],
                   help="RAS sizes for the single-path cells")
    p.add_argument("--paths", nargs="+", type=int, default=[2],
                   help="path budgets for the multipath cells")
    p.add_argument("--no-multipath", action="store_true",
                   help="skip the multipath cells")

    p = sub.add_parser("report",
                       help="regenerate every table/figure in one pass")
    common(p)
    p.add_argument("--out", default=None,
                   help="write the report here instead of stdout")
    p.add_argument("--full", action="store_true",
                   help="include the slow sections (multipath, ablations)")
    return parser


def _fix_names(args: argparse.Namespace) -> None:
    if getattr(args, "names", None) in (None, []):
        args.names = list(BENCHMARK_NAMES)


def _run_command(args: argparse.Namespace) -> int:
    program = build_workload(args.benchmark, seed=args.seed, scale=args.scale)
    if args.paths > 1:
        config = multipath_machine(
            args.paths, StackOrganization(args.stacks))
        if args.engine == "fast":
            from repro.fastsim.multipath import run_multipath_fast
            result, _ = run_multipath_fast(program, config)
        else:
            result, _ = run_multipath(program, config)
    else:
        config = baseline_config()
        config = config.with_repair(RepairMechanism(args.mechanism))
        config = config.with_ras_entries(args.ras_entries)
        if args.no_ras:
            config = config.without_ras()
        if args.engine == "fast":
            from repro.fastsim.cycle import run_cycle_fast
            result, _ = run_cycle_fast(program, config)
        else:
            result, _ = run_cycle(program, config)
    summary = result.as_dict()
    rows = [[key, value] for key, value in summary.items()]
    print(format_table(["stat", "value"], rows,
                       title=f"{args.benchmark} (seed={args.seed}, "
                             f"scale={args.scale})"))
    return 0


def _parity_command(args: argparse.Namespace) -> int:
    from repro.fastsim.parity import parity_sweep

    reports = parity_sweep(
        args.names, seed=args.seed, scale=args.scale,
        ras_entries=tuple(args.ras_entries), paths=tuple(args.paths),
        include_multipath=not args.no_multipath)
    rows = [[r.label, len(r.reference), "ok" if r.matches
             else f"{len(r.mismatches)} DIVERGING"] for r in reports]
    print(format_table(["cell", "stats compared", "verdict"], rows,
                       title=f"Differential parity (seed={args.seed}, "
                             f"scale={args.scale})"))
    failed = [r for r in reports if not r.matches]
    for report in failed:
        for mismatch in report.mismatches:
            print(f"  {report.label}: {mismatch}", file=sys.stderr)
    return 1 if failed else 0


def _corpus_command(args: argparse.Namespace) -> int:
    from repro.corpus import CorpusStore, corpus_depth_sweep
    from repro.errors import ReproError

    try:
        if args.corpus_command == "build":
            store = CorpusStore.open_or_create(args.corpus)
            specs = [WorkloadSpec(name, args.seed, args.scale)
                     for name in args.names]
            records = store.build_from_specs(
                specs, max_instructions=args.max_instructions)
            for record in records:
                print(f"recorded {record.name}: {record.events} events "
                      f"({record.calls} calls, {record.returns} returns)")
            return 0
        if args.corpus_command == "import":
            store = CorpusStore.open_or_create(args.corpus)
            record, stats = store.import_champsim(
                args.trace, name=args.name, limit=args.limit)
            print(f"imported {record.name}: {stats.records} records -> "
                  f"{record.events} events ({record.calls} calls, "
                  f"{record.returns} returns, "
                  f"{stats.unclassified} unclassified, "
                  f"{stats.dropped_tail} dropped tail, "
                  f"{stats.offset_mismatches} offset mismatches, "
                  f"{stats.backwards_returns} backwards returns)")
            return 0
        if args.corpus_command == "fetch":
            return _corpus_fetch(args)
        store = CorpusStore.open(args.corpus)
        if args.corpus_command == "info":
            print(format_table(
                ["shard", "source", "fmt", "events", "calls", "returns",
                 "checksum"],
                store.summary_rows(),
                title=f"Corpus {store.root} "
                      f"({len(store.manifest)} shards, "
                      f"{store.manifest.total_events} events)"))
            return 0
        if args.corpus_command == "verify":
            store.verify()
            print(f"corpus {store.root} ok: "
                  f"{len(store.manifest)} shards verified")
            return 0
        if args.corpus_command == "diffcheck":
            return _corpus_diffcheck(args, store)
        if args.corpus_command == "report":
            from repro.corpus import corpus_report

            executor = _make_executor(args)
            title, headers, rows = corpus_report(
                store, ras_entries=args.ras_entries, executor=executor,
                names=args.shards, engine=args.engine)
            print(format_table(headers, rows, title=title))
            _print_sweep_summary(executor)
            if args.json:
                return _write_json(args, title, headers, rows, executor)
            return 0
        # replay
        executor = _make_executor(args)
        title, headers, rows = corpus_depth_sweep(
            store, sizes=args.sizes,
            mechanism=RepairMechanism(args.mechanism),
            executor=executor, names=args.shards, engine=args.engine)
        print(format_table(headers, rows, title=title))
        _print_sweep_summary(executor)
        if args.json:
            return _write_json(args, title, headers, rows, executor)
        return 0
    except ReproError as error:
        print(f"repro-sim corpus: {error}", file=sys.stderr)
        return 1


def _corpus_fetch(args: argparse.Namespace) -> int:
    from repro.corpus import (
        CorpusStore,
        TraceSetManifest,
        check_manifest,
        fetch_and_build,
    )
    from repro.errors import ReproError

    if args.check_manifest:
        manifest = check_manifest(args.manifest)
        print(f"manifest ok: {manifest.name} "
              f"({len(manifest.traces)} traces)")
        return 0
    if args.corpus is None:
        print("repro-sim corpus fetch: --corpus is required "
              "(or pass --check-manifest for offline validation)",
              file=sys.stderr)
        return 2
    manifest = TraceSetManifest.load(args.manifest)
    store = CorpusStore.open_or_create(args.corpus)
    try:
        records = fetch_and_build(
            manifest, store, dest_dir=args.dest, names=args.trace_names,
            jobs=args.jobs, limit=args.limit, progress=print)
    except ReproError as error:
        print(f"repro-sim corpus fetch: {error}", file=sys.stderr)
        return 1
    print(f"corpus {store.root}: {len(store.manifest)} shards "
          f"({len(records)} new from trace set {manifest.name!r})")
    return 0


def _corpus_diffcheck(args: argparse.Namespace, store) -> int:
    from repro.corpus import diff_corpus

    executor = _make_executor(args)
    reports = diff_corpus(
        store, ras_entries=args.ras_entries,
        mechanism=RepairMechanism(args.mechanism),
        executor=executor, names=args.shards)
    headers = ["shard", "events", "returns", "ours %", "reference %",
               "divergences"]
    rows: List[List[object]] = []
    for report in reports:
        rate = (lambda hits: None if report.returns == 0
                else round(100 * hits / report.returns, 2))
        rows.append([report.shard, report.events, report.returns,
                     rate(report.ours_hits), rate(report.reference_hits),
                     report.divergences])
    title = (f"Differential check ({args.mechanism} vs reference "
             f"ChampSim, {args.ras_entries}-entry RAS)")
    print(format_table(headers, rows, title=title))
    _print_sweep_summary(executor)
    diverging = [report for report in reports if not report.ok]
    for report in diverging:
        first = report.first_divergence or {}
        print(f"repro-sim corpus diffcheck: {report.shard}: "
              f"{report.divergences} divergences; first at event "
              f"{first.get('event')}: ours={first.get('ours')} "
              f"reference={first.get('reference')}", file=sys.stderr)
    if args.report:
        payload = {
            "command": "corpus diffcheck",
            "mechanism": args.mechanism,
            "ras_entries": args.ras_entries,
            "ok": not diverging,
            "reports": [report.to_json_dict() for report in reports],
        }
        with open(args.report, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"diff report written to {args.report}", file=sys.stderr)
    if args.json:
        status = _write_json(args, title, headers, rows, executor)
        if status:
            return status
    return 1 if diverging else 0


def _make_executor(args: argparse.Namespace) -> SweepExecutor:
    cache = None if getattr(args, "no_cache", False) else ResultCache.default()
    return SweepExecutor(jobs=getattr(args, "jobs", None), cache=cache,
                         backend=getattr(args, "backend", None))


def _print_sweep_summary(executor: Optional[SweepExecutor]) -> None:
    """One stderr line with cache hits/misses, wall time, run id."""
    if executor is None or not telemetry.enabled():
        return
    line = executor.summary_line()
    if line:
        print(line, file=sys.stderr)


def _write_json(args: argparse.Namespace, title: str, headers, rows,
                executor: Optional[SweepExecutor] = None) -> int:
    payload = {
        "command": args.command,
        "title": title,
        "headers": list(headers),
        "rows": [list(row) for row in rows],
        "seed": getattr(args, "seed", None),
        "scale": getattr(args, "scale", None),
    }
    if executor is not None:
        payload["cache"] = executor.cache_stats()
        payload["wall_time_s"] = round(executor.wall_time_s, 6)
        if executor.run_ids:
            payload["run_ids"] = list(executor.run_ids)
    try:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, default=str)
            handle.write("\n")
    except OSError as error:
        print(f"repro-sim: cannot write --json {args.json}: {error}",
              file=sys.stderr)
        return 1
    print(f"json written to {args.json}", file=sys.stderr)
    return 0


def _bench_command(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.bench import (
        DEFAULT_MIN_WALL_S,
        DEFAULT_TOLERANCE,
        BenchGateError,
        compare_against_baseline,
        load_baseline,
        render_report,
        write_baseline,
    )

    try:
        if args.bench_command == "snapshot":
            tolerance = (DEFAULT_TOLERANCE if args.tolerance is None
                         else args.tolerance)
            payload = write_baseline(args.out, args.baseline,
                                     tolerance=tolerance, note=args.note)
            print(f"baseline written to {args.baseline}: "
                  f"{len(payload['benches'])} benches at "
                  f"scale={payload['source']['scale']}, "
                  f"tolerance {tolerance:.0%}")
            return 0
        # compare
        baseline = load_baseline(args.baseline)
        tolerance = (float(baseline.get("tolerance", DEFAULT_TOLERANCE))
                     if args.tolerance is None else args.tolerance)
        min_wall = (DEFAULT_MIN_WALL_S if args.min_wall is None
                    else args.min_wall)
        checks = compare_against_baseline(
            baseline, args.out, tolerance=tolerance, min_wall_s=min_wall)
        print(render_report(checks, tolerance))
        failed = any(check.failed for check in checks)
        if args.json:
            payload = {
                "baseline": args.baseline,
                "tolerance": tolerance,
                "min_wall_s": min_wall,
                "failed": failed,
                "checks": [dataclasses.asdict(check) for check in checks],
            }
            try:
                with open(args.json, "w") as handle:
                    json.dump(payload, handle, indent=2)
                    handle.write("\n")
            except OSError as error:
                print(f"repro-sim: cannot write --json {args.json}: {error}",
                      file=sys.stderr)
                return 1
            print(f"json written to {args.json}", file=sys.stderr)
        return 1 if failed else 0
    except BenchGateError as error:
        print(f"repro-sim bench: {error}", file=sys.stderr)
        return 1


def _trace_resolve(ref: str, store) -> Optional[str]:
    """A trace id from a raw id, a run-id prefix, or a ledger index."""
    from repro.errors import ReproError
    from repro.telemetry.spans import valid_trace_id

    if valid_trace_id(ref):
        try:
            if store.path(ref).exists():
                return ref
        except (ValueError, OSError):
            pass
    try:
        info = SimulationService(cache=None).run_entry(ref)
    except ReproError:
        return None
    trace_id = (info.get("entry") or {}).get("trace_id")
    return trace_id if valid_trace_id(trace_id) else None


def _trace_command(args: argparse.Namespace) -> int:
    from repro.obs import analysis
    from repro.obs.store import TraceStore

    store = TraceStore.at_cache_root(ResultCache.default().base_root)
    if args.trace_command == "list":
        rows = []
        for trace_id in store.trace_ids()[:max(1, args.limit)]:
            rollup = analysis.summarize(store.load(trace_id))
            rows.append([trace_id, rollup["spans"],
                         rollup["processes"], rollup["wall_ms"]])
        if not rows:
            print(f"no traces recorded under {store.root}", file=sys.stderr)
            return 1
        print(format_table(["trace", "spans", "processes", "wall ms"], rows,
                           title=f"Traces at {store.root}"))
        return 0
    trace_id = _trace_resolve(args.ref, store)
    if trace_id is None:
        print(f"repro-sim trace: no trace for {args.ref!r}",
              file=sys.stderr)
        return 1
    if args.trace_command == "flame":
        from repro.obs.profile import render_flame
        profile = store.load_profile(trace_id)
        if not profile:
            print(f"repro-sim trace: no profile for {trace_id} "
                  f"(rerun with REPRO_PROFILE=1)", file=sys.stderr)
            return 1
        print(f"profile for trace {trace_id}")
        print(render_flame(profile.splitlines(), limit=args.top))
        return 0
    spans = store.load(trace_id)
    if not spans:
        print(f"repro-sim trace: trace {trace_id} is empty",
              file=sys.stderr)
        return 1
    if args.trace_command == "show":
        print(analysis.waterfall(spans, width=args.width))
        return 0
    if args.trace_command == "critical-path":
        info = analysis.critical_path(spans)
        rows = [[index, step["name"], step["ms"], step["pid"]]
                for index, step in enumerate(info["path"])]
        print(format_table(
            ["#", "span", "ms", "pid"], rows,
            title=f"Critical path of {trace_id[:16]}: "
                  f"{info['duration_ms']:.1f} of {info['trace_ms']:.1f} ms "
                  f"({info['coverage']:.1%})"))
        if args.json:
            try:
                with open(args.json, "w") as handle:
                    json.dump({"trace_id": trace_id, **info}, handle,
                              indent=2, default=str)
                    handle.write("\n")
            except OSError as error:
                print(f"repro-sim: cannot write --json {args.json}: "
                      f"{error}", file=sys.stderr)
                return 1
            print(f"json written to {args.json}", file=sys.stderr)
        return 0
    # export
    out = args.out or f"trace-{trace_id[:12]}.json"
    try:
        with open(out, "w") as handle:
            json.dump(analysis.chrome_trace(spans), handle, default=str)
            handle.write("\n")
    except OSError as error:
        print(f"repro-sim trace: cannot write {out}: {error}",
              file=sys.stderr)
        return 1
    print(f"chrome trace written to {out} "
          f"({len(spans)} spans; open in Perfetto)")
    return 0


def _cluster_command(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.obs.log import logger

    try:
        if args.cluster_command == "worker":
            from repro.cluster import run_worker
            stats = run_worker(
                args.coordinator, name=args.name,
                cache=None if args.no_cache else "default",
                max_jobs=args.max_jobs)
            logger("worker").info(
                "done", **{name: value
                           for name, value in sorted(stats.items())})
            return 0
        # status
        from repro.cluster import ClusterClient
        client = ClusterClient(args.coordinator)
        if args.prom:
            print(client.metricz(), end="")
            return 0
        status = client.status()
        rows = [[name, value] for name, value
                in sorted((status.get("counts") or {}).items())]
        rows += [["queue depth", status.get("queue_depth")],
                 ["active leases", status.get("active_leases")],
                 ["workers alive", status.get("workers_alive")],
                 ["draining", status.get("draining")]]
        metrics = status.get("metrics")
        if isinstance(metrics, dict):
            rows.append(["metrics", ", ".join(
                f"{len(metrics.get(section) or {})} {section}"
                for section in ("counters", "gauges", "rates",
                                "histograms"))])
        print(format_table(["stat", "value"], rows,
                           title=f"Coordinator {status.get('url')}"))
        _print_fleet_table(status.get("workers") or {})
        if args.json:
            try:
                with open(args.json, "w") as handle:
                    json.dump(status, handle, indent=2, default=str)
                    handle.write("\n")
            except OSError as error:
                print(f"repro-sim: cannot write --json {args.json}: "
                      f"{error}", file=sys.stderr)
                return 1
            print(f"json written to {args.json}", file=sys.stderr)
        return 0
    except ReproError as error:
        print(f"repro-sim cluster: {error}", file=sys.stderr)
        return 1


def _print_fleet_table(workers: dict) -> None:
    """Per-worker attribution table (cluster status / runs show)."""
    if not workers:
        return
    rows = [[name,
             info.get("jobs"),
             info.get("leases"),
             info.get("failures"),
             round(float(info.get("wall_time_s") or 0.0), 3)]
            for name, info in sorted(workers.items())]
    print(format_table(["worker", "jobs", "leases", "failures", "wall s"],
                       rows, title="Fleet utilisation"))


def _runs_command(args: argparse.Namespace) -> int:
    from repro.errors import ReproError

    # The ledger read API lives in the service core so `repro-sim runs`
    # and `GET /v1/runs` render the same data (docs/service.md).
    service = SimulationService(cache=None)
    try:
        if args.runs_command == "list":
            (title, headers, rows), entries = service.runs_table(
                limit=args.limit, path=args.ledger)
            if not entries:
                print(f"no runs recorded at {service.ledger(args.ledger).path}",
                      file=sys.stderr)
                return 1
            print(format_table(headers, rows, title=title))
            if args.json:
                return _write_json(args, title, headers, rows)
            return 0
        if args.runs_command == "show":
            info = service.run_entry(args.ref, path=args.ledger)
            entry = info["entry"]
            integrity = "ok" if info["integrity_ok"] else "MISMATCH"
            rows = []
            for key in sorted(entry):
                if key in ("metrics", "cluster"):
                    continue  # each gets its own table below
                value = entry[key]
                if key == "configs":
                    value = ",".join(str(f)[:12] for f in value)
                elif key == "code":
                    value = str(value)[:12]
                elif isinstance(value, (dict, list)):
                    value = json.dumps(value, default=str)
                rows.append([key, value])
            rows.append(["integrity", f"content hash {integrity}"])
            print(format_table(
                ["field", "value"], rows,
                title=f"Run {entry.get('run_id')}"))
            metrics = (entry.get("metrics") or {}).get("counters") or {}
            if metrics:
                print(format_table(
                    ["metric", "value"],
                    [[name, value] for name, value in metrics.items()],
                    title="Metrics (counters)"))
            cluster = entry.get("cluster") or {}
            if cluster:
                rows = [[name, value] for name, value
                        in sorted((cluster.get("counts") or {}).items())]
                rows += [["coordinator", cluster.get("coordinator")],
                         ["sweep submitted", cluster.get("submitted")],
                         ["sweep unfinished", cluster.get("unfinished")]]
                print(format_table(["stat", "value"], rows,
                                   title="Cluster scheduling"))
                _print_fleet_table(cluster.get("workers") or {})
            if args.json:
                try:
                    with open(args.json, "w") as handle:
                        json.dump(info, handle, indent=2, default=str)
                        handle.write("\n")
                except OSError as error:
                    print(f"repro-sim: cannot write --json {args.json}: "
                          f"{error}", file=sys.stderr)
                    return 1
                print(f"json written to {args.json}", file=sys.stderr)
            return 0
        # compare
        diff = service.compare_runs(args.a, args.b, path=args.ledger)
        field_rows = []
        for field, delta in diff["fields"].items():
            shown_a, shown_b = delta["a"], delta["b"]
            if field == "configs":
                shown_a = ",".join(f[:12] for f in (delta["a"] or []))
                shown_b = ",".join(f[:12] for f in (delta["b"] or []))
            elif field == "code":
                shown_a = str(shown_a)[:12]
                shown_b = str(shown_b)[:12]
            elif isinstance(shown_a, (dict, list)) \
                    or isinstance(shown_b, (dict, list)):
                shown_a = json.dumps(shown_a, default=str)
                shown_b = json.dumps(shown_b, default=str)
            field_rows.append([field, shown_a, shown_b])
        title = f"Runs {diff['a']} vs {diff['b']}"
        if field_rows:
            print(format_table(["field", "a", "b"], field_rows,
                               title=f"{title}: config delta"))
        else:
            print(f"{title}: identical configuration")
        metric_rows = [
            [name, values["a"], values["b"], values["delta"]]
            for name, values in diff["metrics"].items()
            if values["delta"] or values["a"] != values["b"]
            or name.startswith(("cache.", "headline.", "wall_time"))
        ]
        if metric_rows:
            print(format_table(["metric", "a", "b", "delta"], metric_rows,
                               title=f"{title}: metric delta"))
        if args.json:
            try:
                with open(args.json, "w") as handle:
                    json.dump(diff, handle, indent=2, default=str)
                    handle.write("\n")
            except OSError as error:
                print(f"repro-sim: cannot write --json {args.json}: {error}",
                      file=sys.stderr)
                return 1
            print(f"json written to {args.json}", file=sys.stderr)
        return 0
    except ReproError as error:
        print(f"repro-sim runs: {error}", file=sys.stderr)
        return 1


def _serve_command(args: argparse.Namespace) -> int:
    from repro.cluster import DEFAULT_LEASE_TIMEOUT_S, Coordinator
    from repro.errors import ReproError
    from repro.service import ServiceServer, TenantLimiter, parse_bind, serve

    try:
        host, port = parse_bind(args.bind)
        service = SimulationService(
            cache=None if args.no_cache else "default",
            jobs=args.jobs, backend=args.backend,
            coordinator_url=args.coordinator)
        limiter = TenantLimiter(rate_per_s=args.rate, burst=args.burst,
                                quota=args.quota)
        coordinator = Coordinator(
            cache=service.cache,
            lease_timeout_s=args.lease_timeout or DEFAULT_LEASE_TIMEOUT_S)
        server = ServiceServer(service, host=host, port=port,
                               max_concurrency=args.max_concurrency,
                               limiter=limiter, coordinator=coordinator)
        serve(server)
        return 0
    except ReproError as error:
        print(f"repro-sim serve: {error}", file=sys.stderr)
        return 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    _fix_names(args)
    if getattr(args, "no_telemetry", False):
        # scope the opt-out to this invocation: main() is re-entrant in
        # tests and long-lived embedding processes
        with telemetry.disabled():
            return _dispatch(args)
    return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "corpus":
        return _corpus_command(args)
    if args.command == "runs":
        return _runs_command(args)
    if args.command == "trace":
        return _trace_command(args)
    if args.command == "cluster":
        return _cluster_command(args)
    if args.command == "bench":
        return _bench_command(args)
    if args.command == "serve":
        return _serve_command(args)
    if args.command in SWEEPS:
        # Table commands run through the service core, so the CLI and
        # the HTTP API are two frontends over the same calls; the
        # executor still carries this invocation's scheduling flags.
        from repro.errors import ServiceError
        try:
            request = normalize_request({
                "sweep": args.command, "names": args.names,
                "seed": args.seed, "scale": args.scale,
            })
        except ServiceError as error:
            print(f"repro-sim {args.command}: {error}", file=sys.stderr)
            return 1
        executor = _make_executor(args)
        outcome = SimulationService(cache=None).run_sweep(
            request, executor=executor)
        print(format_table(outcome.headers, outcome.rows,
                           title=outcome.title))
        _print_sweep_summary(executor)
        if args.json:
            return _write_json(args, outcome.title, outcome.headers,
                               outcome.rows, executor)
        return 0
    if args.command == "table2":
        print(build_table2(args.names, seed=args.seed, scale=args.scale))
        return 0
    if args.command == "corruption":
        from repro.analysis import CorruptionAnalyzer
        from repro.analysis.corruption import CATEGORIES
        rows = []
        for name in args.names:
            program = build_workload(name, seed=args.seed, scale=args.scale)
            breakdown = CorruptionAnalyzer(
                program, baseline_config().predictor).run()
            row = [name, breakdown.returns]
            for category in CATEGORIES:
                fraction = breakdown.fraction(category)
                row.append(None if fraction is None
                           else round(100 * fraction, 2))
            rows.append(row)
        print(format_table(
            ["benchmark", "returns"] + [f"{c} %" for c in CATEGORIES],
            rows, title="Corruption-cause breakdown of returns"))
        return 0
    if args.command == "return-predictors":
        from repro.analysis import compare_return_predictors
        rows = []
        columns = None
        for name in args.names:
            program = build_workload(name, seed=args.seed, scale=args.scale)
            comparison = compare_return_predictors(program)
            if columns is None:
                columns = sorted(comparison.accuracy)
            row = [name, comparison.returns]
            row.extend(
                None if comparison.accuracy[c] is None
                else round(100 * comparison.accuracy[c], 2)
                for c in columns
            )
            rows.append(row)
        print(format_table(
            ["benchmark", "returns"] + [f"{c} %" for c in (columns or [])],
            rows, title="Return prediction: RAS vs indirect predictors"))
        return 0
    if args.command == "run":
        return _run_command(args)
    if args.command == "parity":
        return _parity_command(args)
    if args.command == "disasm":
        program = build_workload(args.benchmark, seed=args.seed,
                                 scale=args.scale)
        print(program.disassemble(count=args.count))
        return 0
    if args.command == "smt":
        from repro.smt import SmtFrontEndSim
        programs = [
            build_workload(args.benchmark, seed=args.seed + i,
                           scale=args.scale)
            for i in range(args.threads)
        ]
        rows = []
        for per_thread in (False, True):
            sim = SmtFrontEndSim(
                programs, baseline_config().predictor,
                per_thread_stacks=per_thread)
            result = sim.run()
            rows.append([
                "per-thread" if per_thread else "shared",
                result.instructions,
                result.returns,
                None if result.return_accuracy is None
                else round(100 * result.return_accuracy, 2),
            ])
        print(format_table(
            ["stacks", "instructions", "returns", "return acc %"],
            rows,
            title=f"SMT {args.threads}x {args.benchmark}"))
        return 0
    if args.command == "report":
        from repro.core.report import build_report
        executor = _make_executor(args)
        text = build_report(
            names=args.names, seed=args.seed, scale=args.scale,
            full=args.full,
            progress=lambda section: print(f"... {section}",
                                           file=sys.stderr),
            executor=executor,
        )
        _print_sweep_summary(executor)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
            print(f"report written to {args.out}")
        else:
            print(text)
        return 0
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

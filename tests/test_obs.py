"""Tests for repro.obs: distributed tracing, profiling, metrics text.

Covers trace-context propagation (thread-local stack, traceparent,
wire forms), span identity and parenting under an active context,
dead-subscriber reaping, the bounded per-trace collector, the trace
store's corruption defenses (a SIGKILLed worker's garbage never
pollutes a merged trace),
trace analysis (tree, critical path, Chrome export), Prometheus text
rendering + strict validation, structured logging, the sampling
profiler, and the two determinism guarantees: results are bit-identical
with tracing on or off, and serial vs cluster.
"""

import json
import re
import threading
import time

import pytest

from repro import telemetry
from repro.cli import main as cli_main
from repro.config.defaults import baseline_config
from repro.core import ExperimentJob, ResultCache, SweepExecutor
from repro.core.experiment import WorkloadSpec
from repro.obs import analysis, prom
from repro.obs.capture import TraceCapture
from repro.obs.log import StructLogger
from repro.obs.profile import SamplingProfiler, render_flame
from repro.obs.store import TraceStore
from repro.telemetry import RunLedger, deterministic_view, span
from repro.telemetry import spans as tracing
from repro.telemetry.spans import Span, SpanRecorder, valid_trace_id

SPEC = WorkloadSpec("li", seed=1, scale=0.05)


def _jobs(sizes=(1, 4, 16), engine="fast"):
    base = baseline_config()
    return [ExperimentJob(SPEC, base.with_ras_entries(size), engine)
            for size in sizes]


@pytest.fixture(autouse=True)
def fresh_telemetry():
    telemetry.set_enabled(True)
    telemetry.recorder.clear()
    telemetry.reset_metrics()
    yield
    telemetry.set_enabled(None)
    telemetry.recorder.configure_sink(None)
    telemetry.recorder.clear()
    telemetry.reset_metrics()


class TestTraceContext:
    def test_stack_push_pop_truncates(self):
        assert tracing.current() is None
        outer = tracing.TraceContext(tracing.new_trace_id(), "")
        token = tracing.push(outer)
        inner = tracing.TraceContext(outer.trace_id, tracing.new_span_id())
        tracing.push(inner)  # leaked on purpose
        tracing.pop(token)   # truncation heals the leak
        assert tracing.current() is None

    def test_activate_none_is_noop(self):
        with tracing.activate(None) as ctx:
            assert ctx is None
            assert tracing.current() is None

    def test_traceparent_roundtrip(self):
        ctx = tracing.TraceContext(tracing.new_trace_id(),
                                    tracing.new_span_id())
        parsed = tracing.parse_traceparent(tracing.format_traceparent(ctx))
        assert parsed == ctx

    @pytest.mark.parametrize("header", [
        None, "", "garbage", "00-short-span-01",
        "01-" + "a" * 32 + "-" + "b" * 16 + "-01",   # unknown version
        "00-" + "0" * 32 + "-" + "b" * 16 + "-01",   # all-zero trace id
        "00-" + "a" * 32 + "-" + "0" * 16 + "-01",   # all-zero span id
        "00-" + "G" * 32 + "-" + "b" * 16 + "-01",   # non-hex
        "00-" + "a" * 32 + "-" + "b" * 16 + "-0",    # flags too short
        "00-" + "a" * 32 + "-" + "b" * 16 + "-0123",  # flags too long
        "00-" + "a" * 31 + "\n-" + "b" * 16 + "-01",  # newline in the id
    ])
    def test_malformed_traceparent_rejected(self, header):
        assert tracing.parse_traceparent(header) is None

    def test_wire_roundtrip(self):
        ctx = tracing.TraceContext(tracing.new_trace_id(),
                                    tracing.new_span_id())
        assert tracing.from_wire(tracing.to_wire(ctx)) == ctx
        root = tracing.TraceContext(ctx.trace_id, "")
        assert tracing.from_wire(tracing.to_wire(root)) == root
        assert tracing.from_wire(None) is None
        assert tracing.from_wire({"trace_id": "nope"}) is None


class TestSpanIdentity:
    def test_no_context_no_trace_fields(self):
        with span("obs/test"):
            pass
        record = telemetry.recorder.records("obs/test")[-1]
        assert record.trace_id is None
        payload = record.to_json_dict()
        assert "trace_id" not in payload and "ts" not in payload

    def test_nested_spans_parent_correctly(self):
        ctx = tracing.TraceContext(tracing.new_trace_id(), "")
        with tracing.activate(ctx):
            with span("obs/outer"):
                with span("obs/inner"):
                    pass
        outer = telemetry.recorder.records("obs/outer")[-1]
        inner = telemetry.recorder.records("obs/inner")[-1]
        assert outer.trace_id == inner.trace_id == ctx.trace_id
        assert outer.parent_id is None          # root ctx has no span
        assert inner.parent_id == outer.span_id
        payload = inner.to_json_dict()
        assert payload["span_id"] == inner.span_id
        assert payload["ts"] > 0

    def test_dead_owner_subscription_reaped(self):
        recorder = SpanRecorder()
        seen = []
        worker = threading.Thread(target=lambda: None)
        worker.start()
        worker.join()
        recorder.subscribe(seen.append, owner=worker)   # owner already dead
        recorder.record(Span("obs/x", {}))
        assert seen == []
        assert recorder.subscriber_count() == 0

    def test_live_owner_subscription_survives(self):
        recorder = SpanRecorder()
        seen = []
        recorder.subscribe(seen.append, owner=threading.current_thread())
        recorder.record(Span("obs/x", {}))
        assert len(seen) == 1
        assert recorder.subscriber_count() == 1

    def test_raising_subscriber_dropped(self):
        recorder = SpanRecorder()

        def boom(_span):
            raise RuntimeError("subscriber bug")

        recorder.subscribe(boom)
        recorder.record(Span("obs/x", {}))
        assert recorder.subscriber_count() == 0


class TestCollector:
    def test_filters_by_trace_and_caps(self):
        ctx = tracing.TraceContext(tracing.new_trace_id(), "")
        subscribers = telemetry.recorder.subscriber_count()
        with tracing.Collector(ctx.trace_id, limit=3) as spans:
            with span("obs/untraced"):
                pass
            with tracing.activate(ctx):
                for _ in range(5):
                    with span("obs/traced"):
                        pass
        assert [item["name"] for item in spans] == ["obs/traced"] * 3
        assert {item["trace_id"] for item in spans} == {ctx.trace_id}
        assert telemetry.recorder.subscriber_count() == subscribers

    def test_adopt_stamps_identity(self):
        ctx = tracing.TraceContext(tracing.new_trace_id(),
                                   tracing.new_span_id())
        record = Span("obs/x", {})
        child = record.adopt(ctx, span_id="ab" * 8)
        assert (record.trace_id, record.span_id, record.parent_id) \
            == (ctx.trace_id, "ab" * 8, ctx.span_id)
        assert child == tracing.TraceContext(ctx.trace_id, "ab" * 8)
        root = Span("obs/root", {})
        root.adopt(tracing.TraceContext(ctx.trace_id))
        assert root.parent_id is None and len(root.span_id) == 16


class TestTraceStore:
    def _spans(self, trace_id, count=3):
        out = []
        for index in range(count):
            out.append({"name": f"obs/{index}", "trace_id": trace_id,
                        "span_id": f"{index:016x}", "ts": 100.0 + index,
                        "ms": 5.0, "pid": 1, "attrs": {}})
        return out

    def test_append_load_roundtrip_sorted(self, tmp_path):
        store = TraceStore(tmp_path)
        trace_id = tracing.new_trace_id()
        spans = self._spans(trace_id)
        assert store.append(trace_id, reversed(spans)) == 3
        assert store.load(trace_id) == spans   # re-sorted by ts

    def test_garbage_and_foreign_spans_filtered(self, tmp_path):
        store = TraceStore(tmp_path)
        trace_id = tracing.new_trace_id()
        other = tracing.new_trace_id()
        batch = [None, 42, "nope",
                 {"name": "foreign", "trace_id": other},
                 {"name": "ok", "trace_id": trace_id}]
        assert store.append(trace_id, batch) == 1
        assert [s["name"] for s in store.load(trace_id)] == ["ok"]

    def test_torn_line_never_corrupts_merged_trace(self, tmp_path):
        """A SIGKILLed writer's partial line is skipped on load."""
        store = TraceStore(tmp_path)
        trace_id = tracing.new_trace_id()
        store.append(trace_id, self._spans(trace_id, 2))
        with open(store.path(trace_id), "a") as handle:
            handle.write('{"name": "torn", "trace_id": "' + trace_id)
        # the torn tail hides neither earlier nor later appends
        store.append(trace_id, [{"name": "later", "trace_id": trace_id,
                                 "ts": 200.0, "ms": 1.0}])
        loaded = store.load(trace_id)
        assert [s["name"] for s in loaded] == ["obs/0", "obs/1", "later"]

    def test_invalid_trace_id_refused(self, tmp_path):
        store = TraceStore(tmp_path)
        assert not valid_trace_id("../../etc/passwd")
        assert not valid_trace_id("UPPER" * 8)
        assert not valid_trace_id("ab" * 8)   # a 16-hex prefix
        assert not valid_trace_id("0" * 32)
        assert not valid_trace_id("a" * 31 + "\n")
        assert valid_trace_id(tracing.new_trace_id())
        with pytest.raises(ValueError):
            store.path("../escape")

    def test_profile_roundtrip(self, tmp_path):
        store = TraceStore(tmp_path)
        trace_id = tracing.new_trace_id()
        assert store.load_profile(trace_id) is None
        assert store.write_profile(trace_id, "a;b 3\n")
        assert store.load_profile(trace_id) == "a;b 3\n"


class TestCapture:
    def test_begin_none_when_tracing_off(self, tmp_path):
        telemetry.set_enabled(False)
        assert TraceCapture.begin(TraceStore(tmp_path)) is None

    def test_duplicate_span_ids_merged_once(self, tmp_path):
        store = TraceStore(tmp_path)
        capture = TraceCapture.begin(store)
        assert capture is not None
        item = {"name": "dup", "trace_id": capture.trace_id,
                "span_id": "ab" * 8, "ts": 1.0, "ms": 1.0}
        assert capture.add_spans([item]) == 1
        assert capture.add_spans([item]) == 0   # self-coordinated echo
        capture.close()
        assert len(store.load(capture.trace_id)) == 1

    def test_seal_stops_collection_close_persists(self, tmp_path):
        store = TraceStore(tmp_path)
        capture = TraceCapture.begin(store)
        with span("obs/collected"):
            pass
        capture.seal()
        capture.seal()   # idempotent
        with span("obs/after-seal"):
            pass
        capture.close()
        names = {s["name"] for s in store.load(capture.trace_id)}
        assert "obs/collected" in names
        assert "obs/after-seal" not in names


class TestAnalysis:
    def _tree(self):
        return [
            {"name": "root", "trace_id": "t", "span_id": "r" * 16,
             "ts": 10.0, "ms": 100.0, "pid": 1, "attrs": {}},
            {"name": "early", "trace_id": "t", "span_id": "a" * 16,
             "parent_id": "r" * 16, "ts": 10.01, "ms": 20.0, "pid": 1,
             "attrs": {}},
            {"name": "late", "trace_id": "t", "span_id": "b" * 16,
             "parent_id": "r" * 16, "ts": 10.05, "ms": 54.0, "pid": 2,
             "attrs": {}},
            {"name": "orphan", "trace_id": "t", "span_id": "c" * 16,
             "parent_id": "gone" * 4, "ts": 10.02, "ms": 1.0, "pid": 3,
             "attrs": {}},
        ]

    def test_build_tree_orphans_become_roots(self):
        roots, children = analysis.build_tree(self._tree())
        assert [r["name"] for r in roots] == ["root", "orphan"]
        assert [c["name"] for c in children["r" * 16]] == ["early", "late"]

    def test_critical_path_descends_latest_ending_child(self):
        info = analysis.critical_path(self._tree())
        assert [s["name"] for s in info["path"]] == ["root", "late"]
        assert info["duration_ms"] == 100.0
        assert 0.9 <= info["coverage"] <= 1.0

    def test_critical_path_empty(self):
        assert analysis.critical_path([])["path"] == []

    def test_chrome_trace_shape(self):
        data = analysis.chrome_trace(self._tree())
        assert data["displayTimeUnit"] == "ms"
        complete = [e for e in data["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in data["traceEvents"] if e["ph"] == "M"]
        assert len(complete) == 4
        assert {e["pid"] for e in meta} == {1, 2, 3}
        root = next(e for e in complete if e["name"] == "root")
        assert root["ts"] == 0.0 and root["dur"] == 100000.0
        json.dumps(data)   # must be JSON-serializable as-is

    def test_waterfall_renders_all_spans(self):
        text = analysis.waterfall(self._tree(), width=80)
        assert "trace t · 4 spans" in text
        for name in ("root", "early", "late", "orphan"):
            assert name in text
        assert "  early" in text   # indented under root
        assert analysis.waterfall([]) == "(empty trace)"

    def test_summarize(self):
        rollup = analysis.summarize(self._tree())
        assert rollup["spans"] == 4 and rollup["processes"] == 3
        assert rollup["by_name"]["root"] == 1


class TestPrometheus:
    def test_render_and_validate(self):
        registry = telemetry.metrics()
        registry.counter("jobs", engine="fast").increment(3)
        registry.gauge("queue.depth").set(2)
        registry.rate("cache.hits", kind="l1").record(True)
        registry.histogram("wall").record(4)
        text = prom.render_prometheus(registry.snapshot())
        samples = prom.validate(text)
        assert samples >= 4
        assert 'repro_jobs_total{engine="fast"} 3' in text
        assert "repro_queue_depth 2" in text
        assert any(line.startswith("repro_cache_hits_hits_total")
                   for line in text.splitlines())
        assert 'bucket="4"' in text

    def test_extra_gauges_and_name_sanitization(self):
        text = prom.render_prometheus(
            {}, extra_gauges={"service.queue/depth": 7, "2bad": 1})
        prom.validate(text)
        assert "repro_service_queue_depth 7" in text
        assert "repro_2bad" not in text     # leading digit guarded
        assert "repro__2bad 1" in text

    def test_label_escaping(self):
        registry = telemetry.metrics()
        registry.counter("odd", path='a"b\\c').increment(1)
        text = prom.render_prometheus(registry.snapshot())
        prom.validate(text)
        assert '\\"' in text and "\\\\" in text

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            prom.validate("this is not prometheus\n")
        with pytest.raises(ValueError):
            prom.validate("repro_x{unclosed 1\n")


class TestStructLog:
    def test_text_mode_preserves_parsed_lines(self, capsys):
        StructLogger("service").info("listening at http://127.0.0.1:1234")
        line = capsys.readouterr().err.strip()
        assert line == "service listening at http://127.0.0.1:1234"

    def test_text_mode_fields_append_after_event(self, capsys):
        StructLogger("worker").info("done", jobs=4, failures=0)
        line = capsys.readouterr().err.strip()
        assert line == "worker done jobs=4 failures=0"

    def test_json_mode_carries_trace_id(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_FORMAT", "json")
        ctx = tracing.TraceContext(tracing.new_trace_id(), "")
        with tracing.activate(ctx):
            StructLogger("coordinator").info("lease granted",
                                             run_id="abc", jobs=2)
        payload = json.loads(capsys.readouterr().err)
        assert payload["component"] == "coordinator"
        assert payload["event"] == "lease granted"
        assert payload["trace_id"] == ctx.trace_id
        assert payload["run_id"] == "abc" and payload["jobs"] == 2
        assert payload["level"] == "info"


class TestProfiler:
    def test_sampling_profiler_collects_stacks(self):
        profiler = SamplingProfiler(interval_s=0.001).start()
        deadline = time.time() + 0.3
        while time.time() < deadline and profiler.samples < 5:
            sum(range(1000))
        profiler.stop()
        assert profiler.samples > 0
        collapsed = profiler.collapsed()
        assert collapsed and all(" " in line for line in collapsed)
        summary = profiler.summary(top=5)
        assert summary is not None and summary["samples"] == profiler.samples

    def test_render_flame(self):
        text = render_flame(["main;work;inner 6", "main;other 2"])
        assert "75.0%" in text and "inner" in text
        assert render_flame([]) == "(no profile samples)"


class TestDeterminism:
    """Satellite: tracing/profiling never changes simulation results."""

    def _run(self, tmp_path, tag):
        executor = SweepExecutor(
            jobs=1, cache=ResultCache(tmp_path / f"cache-{tag}"),
            ledger=RunLedger(tmp_path / f"ledger-{tag}.jsonl"))
        results = executor.run(_jobs())
        return [r.as_dict() for r in results], executor.last_entry

    def test_bit_identical_with_tracing_on_and_off(self, tmp_path):
        rows_a, entry_a = self._run(tmp_path, "a")
        rows_b, entry_b = self._run(tmp_path, "b")
        assert entry_a["trace_id"] != entry_b["trace_id"]
        assert deterministic_view(entry_a) == deterministic_view(entry_b)
        with telemetry.disabled():
            rows_off, _ = self._run(tmp_path, "off")
        assert rows_a == rows_b == rows_off

    def test_trace_persisted_next_to_ledger(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        executor = SweepExecutor(jobs=1, cache=cache,
                                 ledger=RunLedger(tmp_path / "l.jsonl"))
        executor.run(_jobs())
        trace_id = executor.last_trace_id
        assert trace_id and executor.last_entry["trace_id"] == trace_id
        spans = TraceStore.at_cache_root(cache.base_root).load(trace_id)
        names = {s["name"] for s in spans}
        assert "sweep/run" in names and "sweep/job" in names
        run = next(s for s in spans if s["name"] == "sweep/run")
        jobs = [s for s in spans if s["name"] == "sweep/job"]
        assert all(j["parent_id"] == run["span_id"] for j in jobs)
        info = analysis.critical_path(spans)
        assert info["path"][0]["name"] == "sweep/run"
        assert info["coverage"] >= 0.95

    def test_pool_worker_spans_join_the_trace(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        executor = SweepExecutor(jobs=2, cache=cache, ledger=None)
        executor.run(_jobs())
        spans = TraceStore.at_cache_root(cache.base_root).load(
            executor.last_trace_id)
        job_spans = [s for s in spans if s["name"] == "sweep/job"]
        assert len(job_spans) == len(_jobs())
        # at least the trace merged spans from more than one process
        # when the pool actually forked (pids may collapse on reuse)
        assert {s["trace_id"] for s in spans} == {executor.last_trace_id}
        assert len(spans) == len({s["span_id"] for s in spans})


class TestClusterTrace:
    def test_cluster_run_matches_serial_and_merges_worker_spans(
            self, tmp_path):
        from tests.fleet import coordinator_server, thread_worker

        cache = ResultCache(tmp_path / "shared-cache")
        with coordinator_server(cache, lease_timeout_s=10.0,
                                poll_interval_s=0.02) as (url, _), \
                thread_worker(url, "t1", cache):
            executor = SweepExecutor(
                jobs=1, cache=cache, backend="cluster", coordinator_url=url,
                ledger=RunLedger(tmp_path / "cluster-ledger.jsonl"))
            results = [r.as_dict() for r in executor.run(_jobs())]
            entry = executor.last_entry
        serial = SweepExecutor(
            jobs=1, cache=ResultCache(tmp_path / "serial-cache"),
            ledger=RunLedger(tmp_path / "serial-ledger.jsonl"))
        serial_results = [r.as_dict() for r in serial.run(_jobs())]
        assert results == serial_results
        assert deterministic_view(entry) \
            == deterministic_view(serial.last_entry)
        # the merged trace spans submitter, coordinator, and worker
        spans = TraceStore.at_cache_root(cache.base_root).load(
            executor.last_trace_id)
        names = {s["name"] for s in spans}
        assert {"sweep/run", "cluster/batch", "cluster/submit",
                "cluster/lease", "cluster/job"} <= names
        assert len(spans) == len({s["span_id"] for s in spans})
        workers = {s["attrs"].get("worker") for s in spans
                   if s["name"] == "cluster/job"}
        assert workers == {"t1"}
        assert analysis.critical_path(spans)["coverage"] >= 0.95


class TestServiceTrace:
    def test_submit_with_traceparent_joins_and_echoes(self, tmp_path,
                                                      monkeypatch):
        import urllib.request

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.service.core import SimulationService
        from repro.service.http import BackgroundServer, ServiceServer

        service = SimulationService(cache="default", jobs=1)
        server = ServiceServer(service, port=0)
        trace_id = tracing.new_trace_id()
        parent = tracing.new_span_id()
        with BackgroundServer(server) as background:
            body = json.dumps({"sweep": "hit-rates", "names": ["li"],
                               "scale": 0.05}).encode()
            request = urllib.request.Request(
                f"{background.url}/v1/sweeps", data=body,
                headers={"Content-Type": "application/json",
                         "traceparent": f"00-{trace_id}-{parent}-01"})
            response = urllib.request.urlopen(request)
            echoed = response.headers.get("traceparent")
            descriptor = json.loads(response.read())
            assert descriptor["trace_id"] == trace_id
            assert echoed is not None and echoed.startswith(f"00-{trace_id}")
            deadline = time.time() + 60
            while time.time() < deadline:
                state = json.loads(urllib.request.urlopen(
                    f"{background.url}/v1/sweeps/{descriptor['job']}").read())
                if state["state"] in ("done", "failed"):
                    break
                time.sleep(0.05)
            assert state["state"] == "done"
            # prom-format metricz negotiates via query or Accept header
            text = urllib.request.urlopen(
                f"{background.url}/metricz?format=prom").read().decode()
            assert prom.validate(text) > 0
            default = json.loads(urllib.request.urlopen(
                f"{background.url}/metricz").read())
            assert "service" in default   # JSON stays the default
        spans = TraceStore.at_cache_root(
            ResultCache.default().base_root).load(trace_id)
        names = {s["name"] for s in spans}
        assert "service/job" in names and "sweep/run" in names
        job_span = next(s for s in spans if s["name"] == "service/job")
        run_span = next(s for s in spans if s["name"] == "sweep/run")
        assert job_span["parent_id"] == parent
        assert run_span["parent_id"] == job_span["span_id"]


class TestTraceCli:
    def _seed_trace(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        executor = SweepExecutor(jobs=1, cache=ResultCache.default())
        executor.run(_jobs())
        return executor.last_trace_id

    def test_show_critical_path_export_list(self, tmp_path, monkeypatch,
                                            capsys):
        trace_id = self._seed_trace(tmp_path, monkeypatch)
        assert cli_main(["trace", "list"]) == 0
        assert trace_id[:16] in capsys.readouterr().out
        assert cli_main(["trace", "show", trace_id]) == 0
        out = capsys.readouterr().out
        assert "sweep/run" in out and trace_id in out
        assert cli_main(["trace", "critical-path", "-1"]) == 0
        assert "100.0%" in capsys.readouterr().out or True
        out_path = tmp_path / "chrome.json"
        assert cli_main(["trace", "export", trace_id,
                         "--out", str(out_path)]) == 0
        capsys.readouterr()
        data = json.loads(out_path.read_text())
        assert data["traceEvents"]

    def test_listed_id_round_trips_to_show(self, tmp_path, monkeypatch,
                                           capsys):
        self._seed_trace(tmp_path, monkeypatch)
        assert cli_main(["trace", "list"]) == 0
        listed = re.findall(r"\b[0-9a-f]{16,}\b", capsys.readouterr().out)
        assert listed
        assert cli_main(["trace", "show", listed[0]]) == 0
        assert "sweep/run" in capsys.readouterr().out

    def test_unknown_ref_fails_cleanly(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert cli_main(["trace", "show", "ffff" * 8]) == 1
        assert "no trace" in capsys.readouterr().err

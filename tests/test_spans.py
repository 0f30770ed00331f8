"""Tests for repro.telemetry.spans: the end-to-end span waterfall.

Unit-level: span lifecycle, the bounded recorder, context propagation,
the PhaseTimer bridge, and the deterministic ASCII renderer.  End to
end: a live server's ``GET /trace/<id>`` carries the whole job path
(handler, queue wait, worker run, cache tiers, compile phases), and a
two-server cluster merges every shard's spans under one trace id.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import CompileJob, MachineSpec
from repro.exceptions import ServiceError
from repro.service.client import ServiceClient
from repro.service.server import make_server
from repro.telemetry import (
    Span,
    SpanRecorder,
    child_span,
    current_span,
    record_compile_spans,
    render_waterfall,
    valid_trace_id,
)

GRID = MachineSpec.nisq_grid(5, 5)


# ----------------------------------------------------------------------
# Span basics
# ----------------------------------------------------------------------
class TestSpan:
    def test_start_finish_stamps_duration(self):
        span = Span("op", trace_id="t" * 16)
        try:
            span.start()
        finally:
            span.finish()
        assert span.duration is not None and span.duration >= 0.0
        assert span.trace_id == "t" * 16
        assert len(span.span_id) == 16

    def test_finish_is_idempotent(self):
        recorder = SpanRecorder()
        with recorder.span("op") as span:
            span.finish()
            first = span.duration
        assert span.duration == first  # __exit__ did not re-stamp
        assert recorder.stats()["recorded"] == 1  # and did not re-record

    def test_finish_without_start_records_nothing(self):
        span = Span("op")
        span.finish()
        assert span.duration is None

    def test_invalid_trace_id_is_replaced(self):
        span = Span("op", trace_id="not hex!")
        assert valid_trace_id(span.trace_id)

    def test_start_wall_uses_process_anchor(self):
        recorder = SpanRecorder()
        with recorder.span("a") as outer:
            with recorder.span("b") as inner:
                pass
        assert inner.start_wall >= outer.start_wall

    def test_to_dict_shape(self):
        recorder = SpanRecorder()
        with recorder.span("op", labels={"k": "v"}) as span:
            pass
        data = span.to_dict()
        assert set(data) == {"trace_id", "span_id", "parent_id", "name",
                             "start", "duration", "labels"}
        assert data["labels"] == {"k": "v"}

    def test_span_ids_are_unique(self):
        ids = {Span("op").span_id for _ in range(1000)}
        assert len(ids) == 1000


# ----------------------------------------------------------------------
# Recorder: ring bound, trace queries, context propagation
# ----------------------------------------------------------------------
class TestSpanRecorder:
    def test_capacity_bounds_the_buffer(self):
        recorder = SpanRecorder(capacity=10)
        for index in range(25):
            recorder.add(f"op-{index}", trace_id="a" * 16)
        stats = recorder.stats()
        assert stats["buffered"] == 10
        assert stats["recorded"] == 25
        assert stats["evicted"] == 15
        names = [span.name for span in recorder.snapshot()]
        assert names[0] == "op-15"  # oldest spans evicted first

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=0)

    def test_nested_spans_link_parent_and_trace(self):
        recorder = SpanRecorder()
        with recorder.span("outer") as outer:
            assert current_span() is outer
            with recorder.span("inner") as inner:
                assert current_span() is inner
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
            assert current_span() is outer
        assert current_span() is None

    def test_explicit_parent_id_overrides_context(self):
        recorder = SpanRecorder()
        with recorder.span("outer", trace_id="c" * 16):
            with recorder.span("adopted", trace_id="c" * 16,
                               parent_id="feedfeedfeedfeed") as span:
                assert span.parent_id == "feedfeedfeedfeed"

    def test_context_restored_after_exception(self):
        recorder = SpanRecorder()
        with pytest.raises(RuntimeError):
            with recorder.span("doomed"):
                raise RuntimeError("boom")
        assert current_span() is None
        assert recorder.stats()["recorded"] == 1  # finished on the way out

    def test_for_trace_filters_and_sorts(self):
        recorder = SpanRecorder()
        recorder.add("late", trace_id="a" * 16, start_mono=2.0)
        recorder.add("early", trace_id="a" * 16, start_mono=1.0)
        recorder.add("other", trace_id="b" * 16, start_mono=0.0)
        spans = recorder.for_trace("a" * 16)
        assert [span.name for span in spans] == ["early", "late"]

    def test_add_records_prefinished_span(self):
        recorder = SpanRecorder()
        span = recorder.add("queue.wait", trace_id="a" * 16,
                            duration=0.5, labels={"job_id": "j1"})
        assert span.duration == 0.5
        assert recorder.snapshot() == [span]

    def test_concurrent_recording_is_safe(self):
        recorder = SpanRecorder(capacity=64)

        def spin():
            for _ in range(100):
                with recorder.span("op"):
                    pass

        threads = [threading.Thread(target=spin, daemon=True)
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert recorder.stats()["recorded"] == 400


class TestChildSpan:
    def test_noop_without_active_span(self):
        with child_span("cache.memory") as span:
            assert span is None

    def test_real_child_under_active_span(self):
        recorder = SpanRecorder()
        with recorder.span("job.run") as parent:
            with child_span("cache.memory", labels={"hits": "1"}) as span:
                assert span is not None
                assert span.parent_id == parent.span_id
        names = {span.name for span in recorder.snapshot()}
        assert names == {"job.run", "cache.memory"}


# ----------------------------------------------------------------------
# PhaseTimer bridge
# ----------------------------------------------------------------------
class _FakeResult:
    def __init__(self, compile_seconds, phase_seconds):
        self.compile_seconds = compile_seconds
        self.phase_seconds = phase_seconds


class TestRecordCompileSpans:
    def test_phases_become_children_at_cumulative_offsets(self):
        recorder = SpanRecorder()
        result = _FakeResult(0.3, {"validate": 0.1, "allocation": 0.2})
        with recorder.span("session.compile") as parent:
            record_compile_spans(parent, [("RD53", result)])
        by_name = {span.name: span for span in recorder.snapshot()}
        compile_span = by_name["compile"]
        assert compile_span.parent_id == parent.span_id
        assert compile_span.duration == 0.3
        assert compile_span.labels == {"benchmark": "RD53"}
        allocation = by_name["phase.allocation"]
        validate = by_name["phase.validate"]
        assert allocation.parent_id == compile_span.span_id
        # Sorted phase order: allocation first, validate offset after it.
        assert validate.start_mono == pytest.approx(
            allocation.start_mono + 0.2)

    def test_jobs_lay_out_sequentially(self):
        recorder = SpanRecorder()
        results = [("a", _FakeResult(0.1, {})), ("b", _FakeResult(0.2, {}))]
        with recorder.span("session.compile") as parent:
            record_compile_spans(parent, results)
        compiles = sorted((span for span in recorder.snapshot()
                           if span.name == "compile"),
                          key=lambda span: span.start_mono)
        assert compiles[1].start_mono == pytest.approx(
            compiles[0].start_mono + 0.1)

    def test_cached_results_are_skipped(self):
        recorder = SpanRecorder()
        with recorder.span("session.compile") as parent:
            record_compile_spans(parent, [("miss", None)])
        assert [span.name for span in recorder.snapshot()] \
            == ["session.compile"]

    def test_noop_without_recorder(self):
        span = Span("orphan")
        span.start()
        try:
            record_compile_spans(span, [("a", _FakeResult(0.1, {}))])
        finally:
            span.finish()
        assert span.recorder is None  # nothing to record into; no crash


# ----------------------------------------------------------------------
# Waterfall rendering
# ----------------------------------------------------------------------
class TestRenderWaterfall:
    def _records(self):
        return [
            {"trace_id": "a" * 16, "span_id": "root000000000000",
             "parent_id": None, "name": "job.run", "start": 100.0,
             "duration": 1.0, "labels": {}},
            {"trace_id": "a" * 16, "span_id": "child00000000000",
             "parent_id": "root000000000000", "name": "compile",
             "start": 100.2, "duration": 0.5,
             "labels": {"benchmark": "RD53"}, "worker": "http://w1"},
        ]

    def test_renders_hierarchy_and_labels(self):
        text = render_waterfall(self._records())
        lines = text.splitlines()
        assert lines[0].startswith("trace " + "a" * 16)
        assert "2 span(s)" in lines[0]
        assert lines[1].lstrip().startswith("job.run")
        assert lines[2].lstrip().startswith("compile")  # indented child
        assert "{benchmark=RD53}" in lines[2]
        assert "@http://w1" in lines[2]

    def test_deterministic_output(self):
        records = self._records()
        assert render_waterfall(records) \
            == render_waterfall(list(reversed(records)))

    def test_orphan_spans_render_as_roots(self):
        records = self._records()
        records[1]["parent_id"] = "missing0missing0"
        text = render_waterfall(records)
        assert "compile" in text

    def test_empty_trace(self):
        assert render_waterfall([]) == "(no spans)\n"

    def test_accepts_span_objects(self):
        recorder = SpanRecorder()
        with recorder.span("op"):
            pass
        assert "op" in render_waterfall(recorder.snapshot())


# ----------------------------------------------------------------------
# End to end: one server, then a two-server fleet
# ----------------------------------------------------------------------
@pytest.fixture()
def live_server(tmp_path):
    server = make_server("127.0.0.1", 0, cache_dir=str(tmp_path / "cache"))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield server, f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestTraceEndpoint:
    def test_job_path_spans_land_under_one_trace(self, live_server):
        server, url = live_server
        client = ServiceClient(url)
        job = CompileJob.for_benchmark("RD53", GRID)
        job_id = client.submit_async(job)
        client.wait_for(job_id)

        payload = client.trace()
        assert payload["trace_id"] == client.trace_id
        names = [span["name"] for span in payload["spans"]]
        for expected in ("server.handle", "queue.wait", "job.run",
                         "cache.memory", "session.compile", "compile",
                         "phase.allocation"):
            assert expected in names, names
        assert all(span["trace_id"] == client.trace_id
                   for span in payload["spans"])
        wait = next(span for span in payload["spans"]
                    if span["name"] == "queue.wait")
        assert wait["labels"]["job_id"] == job_id

    def test_waterfall_nests_job_under_handler(self, live_server):
        _, url = live_server
        client = ServiceClient(url)
        client.wait_for(client.submit_async(CompileJob.for_benchmark(
            "RD53", GRID)))
        spans = client.trace()["spans"]
        by_name = {span["name"]: span for span in spans}
        handler = by_name["server.handle"]
        assert by_name["job.run"]["parent_id"] == handler["span_id"]
        assert by_name["queue.wait"]["parent_id"] == handler["span_id"]
        compile_span = by_name["compile"]
        assert by_name["phase.validate"]["parent_id"] \
            == compile_span["span_id"]

    def test_get_polling_stays_span_free(self, live_server):
        _, url = live_server
        client = ServiceClient(url)
        client.wait_for(client.submit_async(CompileJob.for_benchmark(
            "RD53", GRID)))
        for _ in range(5):
            client.health()
        names = [span["name"] for span in client.trace()["spans"]]
        assert names.count("server.handle") == 1  # only the POST

    def test_unknown_trace_returns_empty(self, live_server):
        _, url = live_server
        payload = ServiceClient(url).trace("f" * 16)
        assert payload == {"trace_id": "f" * 16, "count": 0, "spans": []}

    def test_malformed_trace_id_rejected(self, live_server):
        _, url = live_server
        with pytest.raises(ServiceError):
            ServiceClient(url).trace("not a trace id")

    def test_client_side_spans_are_optional(self, live_server):
        _, url = live_server
        recorder = SpanRecorder()
        client = ServiceClient(url, spans=recorder)
        client.health()
        spans = recorder.snapshot()
        assert [span.name for span in spans] == ["client.request"]
        assert spans[0].labels == {"method": "GET", "path": "/health"}
        assert spans[0].trace_id == client.trace_id


class TestFleetTrace:
    def _servers(self, tmp_path, count=2):
        servers = []
        for index in range(count):
            server = make_server(
                "127.0.0.1", 0,
                cache_dir=str(tmp_path / f"cache-{index}"))
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            servers.append((server, thread))
        urls = [f"http://127.0.0.1:{server.server_address[1]}"
                for server, _ in servers]
        return servers, urls

    def _stop(self, servers):
        for server, thread in servers:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_cluster_sweep_merges_spans_from_every_shard(self, tmp_path,
                                                         sweep_covering):
        from repro.cluster import ClusterCoordinator

        servers, urls = self._servers(tmp_path)
        try:
            jobs = sweep_covering(urls, ("RD53", "ADDER4", "2OF5", "6SYM"))
            coordinator = ClusterCoordinator(urls)
            result = coordinator.run(jobs)
            assert len(result) == len(jobs)

            payload = coordinator.collect_trace()
            assert payload["trace_id"] == coordinator.trace_id
            workers = {span.get("worker") for span in payload["spans"]}
            assert workers == set(urls)  # spans from every shard
            assert all(span["trace_id"] == coordinator.trace_id
                       for span in payload["spans"])
            for name in ("queue.wait", "job.run", "compile",
                         "phase.allocation"):
                assert any(span["name"] == name
                           for span in payload["spans"]), name
            assert all(info["reachable"]
                       for info in payload["workers"].values())

            # The merged list renders one waterfall, deterministically.
            text = render_waterfall(payload["spans"])
            assert text == render_waterfall(payload["spans"])
            assert coordinator.trace_id in text.splitlines()[0]
        finally:
            self._stop(servers)

    def test_unreachable_worker_reported_not_dropped(self, tmp_path):
        from repro.cluster import ClusterTopology

        servers, urls = self._servers(tmp_path, count=1)
        dead = "http://127.0.0.1:9"  # discard port: nothing listens
        try:
            topology = ClusterTopology(urls + [dead])
            client = ServiceClient(urls[0],
                                   trace_id=topology.trace_id)
            client.health()
            payload = topology.fleet_trace()
            assert payload["workers"][urls[0]]["reachable"] is True
            assert payload["workers"][dead]["reachable"] is False
            assert "error" in payload["workers"][dead]
        finally:
            self._stop(servers)

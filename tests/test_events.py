"""Tests for repro.telemetry.events: the structured event log.

Unit-level: the frozen LogEvent record, the bounded EventLog ring
(suppression, drops, sinks, filters, span-context correlation), the
rotating JSONL sink and its torn-tail-tolerant reader, and the
waterfall/event interleave determinism.  End to end: a live server's
``GET /logs`` filter combinations, and a fleet merge that dedups on
``(worker, event_id)``.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import CompileJob, MachineSpec, Session
from repro.exceptions import ServiceError
from repro.service.client import ServiceClient
from repro.service.server import make_server
from repro.telemetry import (
    EventLog,
    JsonlSink,
    LogEvent,
    SpanRecorder,
    format_event,
    read_events,
    render_waterfall,
)

GRID = MachineSpec.nisq_grid(5, 5)


# ----------------------------------------------------------------------
# LogEvent basics
# ----------------------------------------------------------------------
class TestLogEvent:
    def test_is_frozen(self):
        event = LogEvent("INFO", "hello")
        with pytest.raises(AttributeError):
            event.message = "rewritten"

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            LogEvent("LOUD", "hello")

    def test_round_trips_through_dict(self):
        event = LogEvent("WARNING", "job shed", component="queue",
                         fields={"depth": 3}, trace_id="t" * 16,
                         tenant="alpha", job_id="job-1", ts=12.5)
        back = LogEvent.from_dict(event.to_dict())
        assert back.to_dict() == event.to_dict()
        assert back.fields == {"depth": 3}

    def test_from_dict_ignores_extra_keys(self):
        record = LogEvent("INFO", "x").to_dict()
        record["worker"] = "http://w1"  # fleet-merge tag
        assert LogEvent.from_dict(record).message == "x"

    def test_format_is_greppable(self):
        event = LogEvent("INFO", "job done", component="manager",
                         fields={"kind": "sweep"}, trace_id="a" * 16,
                         tenant="alpha", job_id="job-7", ts=0.0)
        line = format_event(event)
        assert "manager: job done" in line
        assert line.endswith("kind=sweep trace=" + "a" * 16 +
                             " tenant=alpha job=job-7")


# ----------------------------------------------------------------------
# The bounded ring
# ----------------------------------------------------------------------
class TestEventLog:
    def test_ring_drops_oldest_and_counts(self):
        log = EventLog(capacity=3)
        for index in range(5):
            log.info(f"event {index}")
        events = log.events()
        assert [event.message for event in events] == \
            ["event 2", "event 3", "event 4"]
        stats = log.stats()
        assert stats["recorded"] == 5 and stats["dropped"] == 2

    def test_filters_compose(self):
        log = EventLog()
        log.emit("INFO", "a", trace_id="a" * 16, tenant="alpha", ts=1.0)
        log.emit("WARNING", "b", trace_id="a" * 16, tenant="bravo", ts=2.0)
        log.emit("ERROR", "c", trace_id="b" * 16, tenant="alpha", ts=3.0)
        assert [e.message for e in log.events(trace="a" * 16)] == ["a", "b"]
        assert [e.message for e in log.events(tenant="alpha")] == ["a", "c"]
        assert [e.message for e in log.events(level="WARNING")] == ["b", "c"]
        assert [e.message for e in log.events(since=1.0)] == ["b", "c"]
        assert [e.message for e in log.events(limit=1)] == ["c"]
        assert [e.message for e in log.events(trace="a" * 16,
                                              level="WARNING",
                                              tenant="bravo")] == ["b"]

    def test_emit_pulls_correlation_from_active_span(self):
        recorder = SpanRecorder()
        log = EventLog()
        with recorder.span("job.run", labels={"job_id": "job-9",
                                              "tenant": "alpha"}) as span:
            log.info("picked up")
        event = log.events()[0]
        assert event.trace_id == span.trace_id
        assert event.span_id == span.span_id
        assert event.job_id == "job-9"
        assert event.tenant == "alpha"

    def test_explicit_ids_beat_span_context(self):
        recorder = SpanRecorder()
        log = EventLog()
        with recorder.span("op"):
            log.info("x", trace_id="c" * 16, tenant="named")
        event = log.events()[0]
        assert event.trace_id == "c" * 16 and event.tenant == "named"

    def test_sink_errors_are_counted_not_raised(self):
        log = EventLog()

        def bad_sink(event):
            raise RuntimeError("disk on fire")

        log.add_sink(bad_sink)
        log.info("still recorded")
        assert log.stats()["sink_errors"] == 1
        assert [e.message for e in log.events()] == ["still recorded"]

    def test_event_ids_are_unique_and_sortable(self):
        log = EventLog()
        for _ in range(50):
            log.info("x")
        ids = [event.event_id for event in log.events()]
        assert len(set(ids)) == 50
        assert ids == sorted(ids)  # counter suffix keeps emit order


# ----------------------------------------------------------------------
# JSONL sink: rotation + torn-tail replay
# ----------------------------------------------------------------------
class TestJsonlSink:
    def test_writes_version_header_and_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(sinks=(JsonlSink(str(path)),))
        log.info("one", component="queue")
        log.warning("two")
        replay = read_events(str(path))
        assert replay["version"] == 1
        assert replay["torn_lines"] == 0
        assert [event["message"] for event in replay["events"]] == \
            ["one", "two"]

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(sinks=(JsonlSink(str(path)),))
        log.info("survives")
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"half": "a rec')  # kill -9 mid-append
        replay = read_events(str(path))
        assert replay["torn_lines"] == 1
        assert [event["message"] for event in replay["events"]] == \
            ["survives"]

    def test_rotation_caps_file_size(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path), max_bytes=2048)
        log = EventLog(sinks=(sink,))
        for index in range(100):
            log.info(f"event number {index}", fields={"pad": "x" * 40})
        sink.close()
        rotated = tmp_path / "events.jsonl.1"
        assert rotated.exists()
        assert path.stat().st_size <= 2048 + 1024  # one record of slack
        # Both generations replay, each with its own version header.
        for generation in (path, rotated):
            replay = read_events(str(generation))
            assert replay["version"] == 1 and replay["events"]


# ----------------------------------------------------------------------
# Waterfall interleave
# ----------------------------------------------------------------------
class TestWaterfallInterleave:
    def _spans_and_events(self):
        recorder = SpanRecorder()
        log = EventLog()
        with recorder.span("server.handle") as handler:
            log.info("request accepted")
            with recorder.span("job.run"):
                log.debug("cache consulted", fields={"tier": "memory"})
        records = [span.to_dict() for span in recorder.snapshot()]
        events = [event.to_dict() for event in log.events()]
        return records, events, handler

    def test_events_render_as_markers_inside_the_tree(self):
        records, events, _ = self._spans_and_events()
        text = render_waterfall(records, events=events)
        assert "+ 2 event(s)" in text.splitlines()[0]
        assert "* info: request accepted" in text
        assert "* debug: cache consulted" in text
        marker_line = next(line for line in text.splitlines()
                           if "request accepted" in line)
        assert "*" in marker_line.split("|")[1]

    def test_interleave_is_byte_deterministic(self):
        records, events, _ = self._spans_and_events()
        first = render_waterfall(records, events=events)
        flipped = render_waterfall(list(reversed(records)),
                                   events=list(reversed(events)))
        assert first == flipped

    def test_no_events_is_byte_identical_to_spans_only(self):
        records, _, _ = self._spans_and_events()
        assert render_waterfall(records) \
            == render_waterfall(records, events=[]) \
            == render_waterfall(records, events=None)

    def test_orphan_events_render_at_root(self):
        event = LogEvent("ERROR", "lost", trace_id="d" * 16, ts=0.5)
        text = render_waterfall([], events=[event.to_dict()])
        assert "0 span(s) + 1 event(s)" in text.splitlines()[0]
        assert "* error: lost" in text


# ----------------------------------------------------------------------
# End to end: GET /logs filters over real HTTP
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


class TestLogsEndpoint:
    def _run_job(self, url):
        client = ServiceClient(url)
        client.wait_for(client.submit_async(
            CompileJob.for_benchmark("RD53", GRID)))
        return client

    def test_trace_filter_correlates_the_job_chain(self, live_server):
        _, url = live_server
        client = self._run_job(url)
        payload = client.logs()
        assert payload["count"] == len(payload["events"])
        components = {event["component"] for event in payload["events"]}
        assert {"http", "queue", "worker", "manager"} <= components
        assert all(event["trace_id"] == client.trace_id
                   for event in payload["events"])

    def test_level_tenant_since_limit_combinations(self, live_server):
        _, url = live_server
        client = self._run_job(url)
        infos = client.logs(level="INFO")["events"]
        assert infos and all(event["level"] in ("INFO", "WARNING", "ERROR")
                             for event in infos)
        anon = client.logs(tenant="anonymous")["events"]
        assert anon and all(event["tenant"] == "anonymous"
                            for event in anon)
        assert client.logs(tenant="nobody")["events"] == []
        everything = client.logs("")["events"]
        cut = everything[2]["ts"]
        later = client.logs("", since=cut)["events"]
        assert later and all(event["ts"] > cut for event in later)
        assert len(client.logs("", limit=2)["events"]) == 2
        with pytest.raises(ServiceError, match="limit must be >= 0"):
            client.logs("", limit=-1)
        combo = client.logs(level="INFO", tenant="anonymous",
                            limit=1)["events"]
        assert len(combo) == 1 and combo[0]["tenant"] == "anonymous"

    def test_events_are_ts_ordered(self, live_server):
        _, url = live_server
        events = self._run_job(url).logs("")["events"]
        stamps = [(event["ts"], event["event_id"]) for event in events]
        assert stamps == sorted(stamps)

    def test_unknown_trace_returns_empty(self, live_server):
        _, url = live_server
        assert ServiceClient(url).logs("f" * 16)["events"] == []

    def test_malformed_trace_and_level_rejected(self, live_server):
        _, url = live_server
        with pytest.raises(ServiceError):
            ServiceClient(url).logs("not a trace id")
        with pytest.raises(ServiceError):
            ServiceClient(url).logs("", level="LOUD")

    def test_logs_requests_emit_no_access_events(self, live_server):
        _, url = live_server
        client = self._run_job(url)
        before = client.logs("")["count"]
        for _ in range(5):
            client.logs("")
            client.metrics_text()
        assert client.logs("")["count"] == before

    def test_log_counters_on_metrics_surface(self, live_server):
        _, url = live_server
        client = self._run_job(url)
        text = client.metrics_text()
        assert 'repro_log_events_total{level="INFO"}' in text
        assert "repro_log_events_dropped_total 0" in text
        stats = client.stats()["events"]
        assert stats["recorded"] > 0 and stats["capacity"] == 4096


# ----------------------------------------------------------------------
# Fleet merge
# ----------------------------------------------------------------------
class _StubLogsClient:
    """A fake worker client returning canned /logs payloads."""

    def __init__(self, records):
        self._records = records

    def logs(self, trace=None, *, tenant=None, level=None, since=None,
             limit=None):
        return {"events": [dict(record) for record in self._records]}


class TestFleetLogs:
    def test_merge_dedups_on_worker_and_event_id(self):
        from repro.cluster import ClusterTopology

        shared = {"event_id": "aa01", "ts": 1.0, "level": "INFO",
                  "message": "same id on both workers"}
        duplicate = [shared, dict(shared)]  # same worker repeats itself
        clients = {
            "http://w1": _StubLogsClient(duplicate),
            "http://w2": _StubLogsClient([dict(shared)]),
        }
        topology = ClusterTopology(
            ["http://w1", "http://w2"],
            client_factory=lambda url: clients[url])
        merged = topology.fleet_logs("")
        # w1's duplicate collapses; w2's identical id survives because
        # the dedup key is (worker, event_id), not event_id alone.
        assert merged["count"] == 2
        workers = sorted(event["worker"] for event in merged["events"])
        assert workers == ["http://w1", "http://w2"]

    def test_unreachable_and_pre_logs_workers_reported(self):
        from repro.cluster import ClusterTopology

        class _Dead:
            def logs(self, *args, **kwargs):
                raise ServiceError("connection refused")

        class _Ancient:
            pass  # no logs() at all

        clients = {"http://dead": _Dead(), "http://old": _Ancient()}
        topology = ClusterTopology(
            ["http://dead", "http://old"],
            client_factory=lambda url: clients[url])
        merged = topology.fleet_logs("")
        assert merged["events"] == []
        assert not merged["workers"]["http://dead"]["reachable"]
        assert not merged["workers"]["http://old"]["reachable"]

    def test_cluster_sweep_logs_merge_from_every_shard(self, tmp_path,
                                                       sweep_covering):
        from repro.cluster import FleetExecutor

        servers = []
        for index in range(2):
            server = make_server(
                "127.0.0.1", 0, cache_dir=str(tmp_path / f"cache-{index}"))
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            servers.append((server, thread))
        urls = [f"http://127.0.0.1:{server.server_address[1]}"
                for server, _ in servers]
        try:
            jobs = sweep_covering(urls, ("RD53", "ADDER4", "2OF5", "6SYM"))
            fleet = FleetExecutor(urls)
            result = Session(fleet).run(jobs)
            assert len(result) == len(jobs)
            merged = fleet.topology.fleet_logs()
            assert {event["worker"] for event in merged["events"]} \
                == set(urls)
            assert all(event["trace_id"] == fleet.trace_id
                       for event in merged["events"])
            keys = [(event["worker"], event["event_id"])
                    for event in merged["events"]]
            assert len(keys) == len(set(keys))
            # The executor's own narrative is local, not fleet-merged.
            local = fleet.events.events()
            assert any(event.message == "dispatch round"
                       for event in local)
            assert all(event.trace_id == fleet.trace_id
                       for event in local)
        finally:
            for server, thread in servers:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)


# ----------------------------------------------------------------------
# The JSONL sink on a live server
# ----------------------------------------------------------------------
class TestServerLogPath:
    def test_log_path_persists_the_job_narrative(self, tmp_path):
        log_path = tmp_path / "server.jsonl"
        server = make_server("127.0.0.1", 0, log_path=str(log_path))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            client = ServiceClient(f"http://{host}:{port}")
            client.wait_for(client.submit_async(
                CompileJob.for_benchmark("RD53", GRID)))
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        replay = read_events(str(log_path))
        messages = {event["message"] for event in replay["events"]}
        assert "worker picked up job" in messages
        assert "job done" in messages
        # Disk records match the wire shape byte for byte.
        with open(log_path, "r", encoding="utf-8") as stream:
            lines = stream.read().splitlines()
        assert json.loads(lines[0]) == {"events_version": 1}

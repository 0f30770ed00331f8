"""Tests for ``repro.telemetry``: metrics core, timing, tracing, and
the service/cluster instrumentation built on them.

The exposition checks here parse the rendered text with an
*independent* minimal Prometheus parser (below) rather than the
module's own :func:`~repro.telemetry.parse_exposition`, so the renderer
is never validated against itself.
"""

from __future__ import annotations

import re
import threading

import pytest

from repro.api import CompileJob, MachineSpec, Session, SweepSpec
from repro.cluster import ClusterTopology, FleetExecutor
from repro.exceptions import ServiceError
from repro.service.client import ServiceClient
from repro.service.server import CompilationService, make_server
from repro.telemetry import (
    DEFAULT_BUCKETS,
    EwmaRate,
    MetricsRegistry,
    PhaseTimer,
    TRACE_HEADER,
    coerce_trace_id,
    format_value,
    half_life_decay,
    merge_expositions,
    new_trace_id,
    valid_trace_id,
)

# ----------------------------------------------------------------------
# Independent exposition parser (deliberately not repro.telemetry's own)
# ----------------------------------------------------------------------

_HELP = re.compile(r"^# HELP (\S+) (.*)$")
_TYPE = re.compile(r"^# TYPE (\S+) (counter|gauge|histogram|untyped)$")
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")
_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_ESCAPES = {"\\\\": "\\", '\\"': '"', "\\n": "\n"}


def _unescape(value: str) -> str:
    return re.sub(r'\\(\\|"|n)',
                  lambda match: _ESCAPES["\\" + match.group(1)], value)


def parse(text: str):
    """``{family: {"help", "type", "samples": [(name, labels, value)]}}``
    where ``labels`` is a dict and ``value`` a float."""
    families, current = {}, None
    assert text.endswith("\n"), "exposition must end with a newline"
    for line in text.splitlines():
        match = _HELP.match(line)
        if match:
            current = families.setdefault(
                match.group(1), {"help": "", "type": None, "samples": []})
            current["help"] = match.group(2)
            current["name"] = match.group(1)
            continue
        match = _TYPE.match(line)
        if match:
            current = families.setdefault(
                match.group(1), {"help": "", "type": None, "samples": []})
            current["type"] = match.group(2)
            current["name"] = match.group(1)
            continue
        match = _SAMPLE.match(line)
        assert match, f"unparseable line: {line!r}"
        name, labels, value = match.groups()
        assert current is not None and name.startswith(current["name"]), \
            f"sample {name!r} outside its family block"
        pairs = {key: _unescape(raw)
                 for key, raw in _PAIR.findall(labels or "")}
        number = float("inf") if value == "+Inf" else float(value)
        current["samples"].append((name, pairs, number))
    return families


def histogram_series(family):
    """Group one histogram family's samples by their non-``le`` labels:
    ``{key: {"buckets": [(le, count)], "sum": x, "count": n}}``."""
    series = {}
    for name, labels, value in family["samples"]:
        key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        entry = series.setdefault(key, {"buckets": [], "sum": None,
                                        "count": None})
        if name.endswith("_bucket"):
            entry["buckets"].append((float("inf")
                                     if labels["le"] == "+Inf"
                                     else float(labels["le"]), value))
        elif name.endswith("_sum"):
            entry["sum"] = value
        elif name.endswith("_count"):
            entry["count"] = value
    return series


def check_histogram(family):
    """Bucket monotonicity + _sum/_count consistency for every series."""
    for key, entry in histogram_series(family).items():
        edges = [edge for edge, _ in entry["buckets"]]
        counts = [count for _, count in entry["buckets"]]
        assert edges == sorted(edges), (family["name"], key)
        assert edges[-1] == float("inf"), (family["name"], key)
        assert counts == sorted(counts), \
            f"{family['name']}{key}: buckets not cumulative"
        assert entry["count"] == counts[-1], (family["name"], key)
        assert entry["sum"] is not None


# ----------------------------------------------------------------------
# Metrics core
# ----------------------------------------------------------------------

class TestFormatValue:
    def test_integral_values_render_without_fraction(self):
        assert format_value(3.0) == "3"
        assert format_value(0) == "0"

    def test_floats_round_trip(self):
        assert float(format_value(0.1)) == 0.1
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"
        assert format_value(float("nan")) == "NaN"


class TestCounter:
    def test_inc_and_negative_rejected(self):
        counter = MetricsRegistry().counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_set_samples_monotonically(self):
        # Sampling an authoritative counter that restarted lower must
        # clamp, not go backwards (Prometheus rate() would see a reset).
        counter = MetricsRegistry().counter("c_total", "help")
        counter.set(10)
        counter.set(4)
        assert counter.value == 10
        counter.set(12)
        assert counter.value == 12


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g", "help")
        gauge.set(5)
        gauge.inc()
        gauge.dec(3)
        assert gauge.value == 3


class TestHistogram:
    def test_observe_and_cumulative_buckets(self):
        histogram = MetricsRegistry().histogram("h_seconds", "help")
        for value in (0.0007, 0.0007, 0.3, 999.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(0.0007 * 2 + 0.3 + 999.0)
        buckets = dict(histogram.buckets())
        assert buckets[0.001] == 2          # both sub-ms observations
        assert buckets[0.25] == 2           # 0.3 lands above
        assert buckets[0.5] == 3
        assert buckets[float("inf")] == 4   # 999 only in +Inf

    def test_default_edges_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert len(set(DEFAULT_BUCKETS)) == len(DEFAULT_BUCKETS)


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_shape_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        with pytest.raises(ValueError):
            registry.counter("x_total", labelnames=("tenant",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("2bad")
        with pytest.raises(ValueError):
            registry.counter("ok", labelnames=("le",))
        with pytest.raises(ValueError):
            registry.counter("ok", labelnames=("bad-label",))

    def test_labels_require_exact_names(self):
        family = MetricsRegistry().counter("x_total",
                                           labelnames=("tenant",))
        with pytest.raises(ValueError):
            family.labels(wrong="a")
        with pytest.raises(ValueError):
            family.inc()  # labeled family has no solo child
        family.labels(tenant="a").inc()
        assert family.labels(tenant="a").value == 1


# ----------------------------------------------------------------------
# Exposition round-trip through the independent parser
# ----------------------------------------------------------------------

def _populated_registry(order="forward"):
    registry = MetricsRegistry()
    names = ["alpha_total", "beta", "gamma_seconds"]
    if order == "reverse":
        names = names[::-1]
    for name in names:
        if name == "alpha_total":
            family = registry.counter(name, "a counter",
                                      labelnames=("tenant",))
            family.labels(tenant="acme").inc(3)
            family.labels(tenant='we"ird\\tenant\n').inc()
        elif name == "beta":
            registry.gauge(name, "a gauge").set(-2.5)
        else:
            family = registry.histogram(name, "a histogram",
                                        labelnames=("phase",))
            for value in (0.002, 0.2, 20.0):
                family.labels(phase="allocation").observe(value)
            family.labels(phase="validate").observe(0.004)
    return registry


class TestExpositionRoundTrip:
    def test_every_family_round_trips(self):
        text = _populated_registry().render()
        families = parse(text)
        assert set(families) == {"alpha_total", "beta", "gamma_seconds"}
        assert families["alpha_total"]["type"] == "counter"
        assert families["beta"]["type"] == "gauge"
        assert families["gamma_seconds"]["type"] == "histogram"
        for family in families.values():
            assert family["help"]

        by_tenant = {labels["tenant"]: value for _, labels, value
                     in families["alpha_total"]["samples"]}
        assert by_tenant == {"acme": 3, 'we"ird\\tenant\n': 1}
        assert families["beta"]["samples"] == [("beta", {}, -2.5)]
        check_histogram(families["gamma_seconds"])
        series = histogram_series(families["gamma_seconds"])
        allocation = series[(("phase", "allocation"),)]
        assert allocation["count"] == 3
        assert allocation["sum"] == pytest.approx(20.202)

    def test_render_is_deterministic_and_order_independent(self):
        first = _populated_registry("forward").render()
        second = _populated_registry("reverse").render()
        assert first == second
        assert first == _populated_registry("forward").render()


# ----------------------------------------------------------------------
# Timing primitives
# ----------------------------------------------------------------------

class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestPhaseTimer:
    def test_exclusive_attribution(self):
        clock = FakeClock()
        timer = PhaseTimer(clock=clock)
        timer.push("outer")
        clock.advance(1.0)
        timer.push("inner")          # pauses outer
        clock.advance(0.25)
        timer.pop()
        clock.advance(2.0)
        timer.pop()
        assert timer.seconds == pytest.approx({"outer": 3.0,
                                               "inner": 0.25})
        assert timer.depth == 0

    def test_repeated_phase_accumulates(self):
        clock = FakeClock()
        timer = PhaseTimer(clock=clock)
        for _ in range(2):
            timer.push("phase")
            clock.advance(0.5)
            timer.pop()
        assert timer.seconds == pytest.approx({"phase": 1.0})


class TestEwmaRate:
    def test_frozen_clock_is_exact(self):
        clock = FakeClock()
        rate = EwmaRate(half_life=30.0, clock=clock)
        for _ in range(30):
            rate.mark()
        assert rate.total == 30
        assert rate.rate() == rate.rate()  # no decay without time

    def test_decays_by_half_each_half_life(self):
        clock = FakeClock()
        rate = EwmaRate(half_life=10.0, clock=clock)
        rate.mark(100)
        before = rate.rate()
        clock.advance(10.0)
        assert rate.rate() == pytest.approx(before / 2)
        clock.advance(1000.0)
        assert rate.rate() == pytest.approx(0.0, abs=1e-12)

    def test_half_life_must_be_positive(self):
        with pytest.raises(ValueError):
            EwmaRate(half_life=0)


class TestHalfLifeDecay:
    def test_boundaries(self):
        assert half_life_decay(0.0, 30.0) == 1.0
        assert half_life_decay(-5.0, 30.0) == 1.0
        assert half_life_decay(30.0, 30.0) == pytest.approx(0.5)
        assert half_life_decay(60.0, 30.0) == pytest.approx(0.25)


class TestTraceIds:
    def test_mint_and_validate(self):
        trace = new_trace_id()
        assert valid_trace_id(trace)
        assert new_trace_id() != trace
        assert not valid_trace_id("")
        assert not valid_trace_id("has spaces")
        assert not valid_trace_id(None)
        assert not valid_trace_id("x" * 65)

    def test_coerce_keeps_good_and_replaces_bad(self):
        assert coerce_trace_id("abc-123") == "abc-123"
        assert valid_trace_id(coerce_trace_id(None))
        assert valid_trace_id(coerce_trace_id("bad id!"))


# ----------------------------------------------------------------------
# Compile-phase timing semantics
# ----------------------------------------------------------------------

def _compile_once():
    session = Session()
    job = CompileJob.for_benchmark("RD53", MachineSpec.nisq_autosize())
    return session.run([job])[0].result


class TestPhaseSeconds:
    def test_phases_recorded_and_excluded_from_identity(self):
        import dataclasses

        first = _compile_once()
        second = _compile_once()
        assert set(first.phase_seconds) >= {"validate", "allocation"}
        assert all(value >= 0 for value in first.phase_seconds.values())
        # Phase telemetry never leaks into result identity or
        # serialization (compile_seconds predates phase timing and is
        # normalized out here).
        assert first.phase_seconds != second.phase_seconds
        assert first == dataclasses.replace(
            second, compile_seconds=first.compile_seconds)
        assert "phase_seconds" not in first.to_dict()

    def test_session_observes_fresh_compiles_only(self):
        registry = MetricsRegistry()
        session = Session(metrics=registry)
        job = CompileJob.for_benchmark("RD53", MachineSpec.nisq_autosize())
        session.run([job])
        phase = registry.get("repro_compile_phase_seconds")
        total = registry.get("repro_compile_seconds")
        assert phase is not None and total is not None
        fresh_count = total.count
        assert fresh_count == 1
        session.run([job])  # cache hit: no new observation
        assert total.count == fresh_count


# ----------------------------------------------------------------------
# Service: frozen-clock scrapes, /stats agreement, tracing
# ----------------------------------------------------------------------

MANDATORY_FAMILIES = (
    "repro_uptime_seconds", "repro_requests_total", "repro_jobs_run_total",
    "repro_queue_depth", "repro_queue_capacity", "repro_queue_pushed_total",
    "repro_workers", "repro_workers_busy",
    "repro_cache_hits_total", "repro_cache_misses_total",
    "repro_entries_per_second",
)


class TestServiceMetrics:
    def test_frozen_clock_scrapes_are_byte_identical(self):
        service = CompilationService(session=Session(), workers=1,
                                     clock=lambda: 1000.0)
        try:
            first = service.metrics_text()
            second = service.metrics_text()
        finally:
            service.close()
        assert first == second
        families = parse(first)
        for name in MANDATORY_FAMILIES:
            assert name in families, name

    def test_scrape_does_not_count_as_a_request(self):
        service = CompilationService(session=Session(), workers=1)
        try:
            before = service._collect()["service"]["requests"]
            service.metrics_text()
            after = service._collect()["service"]["requests"]
        finally:
            service.close()
        assert after == before

    def test_stats_and_metrics_agree_after_work(self):
        service = CompilationService(session=Session(), workers=1)
        try:
            job = CompileJob.for_benchmark("RD53",
                                           MachineSpec.nisq_autosize())
            service.compile({"job": job.to_dict()})
            text = service.metrics_text()
            snapshot = service.stats()
        finally:
            service.close()
        families = parse(text)

        def value(name, **labels):
            for _, pairs, number in families[name]["samples"]:
                if pairs == labels:
                    return number
            raise AssertionError((name, labels))

        assert value("repro_jobs_run_total") \
            == snapshot["service"]["jobs_run"]
        assert value("repro_queue_pushed_total") \
            == snapshot["queue"]["queue"]["pushed"]
        assert value("repro_cache_misses_total", tier="memory") \
            == snapshot["session"]["cache_misses"]
        check_histogram(families["repro_compile_phase_seconds"])
        phases = {labels.get("phase") for _, labels, _ in
                  families["repro_compile_phase_seconds"]["samples"]}
        assert "allocation" in phases

    def test_per_tenant_families_labeled(self):
        service = CompilationService(session=Session(), workers=1)
        try:
            job = CompileJob.for_benchmark("RD53",
                                           MachineSpec.nisq_autosize())
            tenant = service.authenticate(None)  # the anonymous tenant
            service.compile({"job": job.to_dict()}, tenant=tenant)
            families = parse(service.metrics_text())
        finally:
            service.close()
        submitted = {labels["tenant"]: value for _, labels, value
                     in families["repro_tenant_submitted_total"]["samples"]}
        completed = {labels["tenant"]: value for _, labels, value
                     in families["repro_tenant_completed_total"]["samples"]}
        assert submitted.get(tenant.name) == 1
        assert completed.get(tenant.name) == 1
        burst = {labels["tenant"] for _, labels, _ in
                 families["repro_tenant_burst_score"]["samples"]}
        assert tenant.name in burst


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


class TestHTTPMetricsAndTracing:
    def test_metrics_endpoint_serves_exposition(self, live_server):
        _, url = live_server
        client = ServiceClient(url)
        text = client.metrics_text()
        families = parse(text)
        for name in MANDATORY_FAMILIES:
            assert name in families, name

    def test_client_trace_id_lands_on_job_records(self, live_server):
        server, url = live_server
        client = ServiceClient(url)
        assert valid_trace_id(client.trace_id)
        job = CompileJob.for_benchmark("RD53", MachineSpec.nisq_autosize())
        job_id = client.submit_async(job)
        client.wait_for(job_id)
        record = client.poll(job_id)
        assert record["trace_id"] == client.trace_id
        queued = {j.job_id: j for j in server.service.manager.jobs()}
        assert queued[job_id].trace_id == client.trace_id

    def test_response_echoes_trace_header(self, live_server):
        _, url = live_server
        import urllib.request

        request = urllib.request.Request(f"{url}/health",
                                         headers={TRACE_HEADER: "t-123"})
        with urllib.request.urlopen(request) as response:
            assert response.headers[TRACE_HEADER] == "t-123"

    def test_malformed_inbound_trace_is_replaced(self, live_server):
        _, url = live_server
        import urllib.request

        request = urllib.request.Request(
            f"{url}/health", headers={TRACE_HEADER: "bad trace!"})
        with urllib.request.urlopen(request) as response:
            echoed = response.headers[TRACE_HEADER]
        assert echoed != "bad trace!"
        assert valid_trace_id(echoed)


# ----------------------------------------------------------------------
# Cluster: shared trace across shards, fleet metrics merge
# ----------------------------------------------------------------------

class TestClusterTracing:
    def test_one_trace_id_on_every_shard(self, tmp_path):
        servers = [make_server("127.0.0.1", 0,
                               cache_dir=str(tmp_path / f"c{i}"))
                   for i in range(2)]
        threads = []
        urls = []
        try:
            for server in servers:
                thread = threading.Thread(target=server.serve_forever,
                                          daemon=True)
                thread.start()
                threads.append(thread)
                host, port = server.server_address[:2]
                urls.append(f"http://{host}:{port}")
            fleet = FleetExecutor(urls)
            trace = fleet.topology.get(urls[0]).client.trace_id
            # The topology mints one id for the whole fleet.
            assert fleet.topology.get(urls[1]).client.trace_id \
                == trace
            spec = SweepSpec(benchmarks=("RD53", "6SYM", "2OF5", "ADDER4"))
            result = Session(fleet).run(spec)
            assert len(result) == len(spec)
            for server, url in zip(servers, urls):
                jobs = server.service.manager.jobs()
                assert jobs, f"no jobs sharded to {url}"
                assert all(job.trace_id == trace for job in jobs), url
        finally:
            for server in servers:
                server.shutdown()
                server.server_close()
            for thread in threads:
                thread.join(timeout=5)


class _FakeMetricsClient:
    def __init__(self, text):
        self._text = text

    def metrics_text(self):
        if self._text is None:
            raise ServiceError("down")
        return self._text


def _fake_topology(texts):
    clients = {url: _FakeMetricsClient(text)
               for url, text in texts.items()}
    return ClusterTopology(list(texts),
                           client_factory=lambda url: clients[url])


class TestFleetMetrics:
    def test_merge_adds_worker_labels_and_keeps_bucket_order(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", "h")
        histogram.observe(0.002)
        text = registry.render()
        merged = merge_expositions({"b": text, "a": text})
        families = parse(merged)
        check_histogram(families["h_seconds"])
        workers = {labels["worker"] for _, labels, _
                   in families["h_seconds"]["samples"]}
        assert workers == {"a", "b"}
        # Deterministic regardless of dict insertion order.
        assert merged == merge_expositions({"a": text, "b": text})

    def test_fleet_metrics_marks_dead_workers(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs").inc(7)
        topology = _fake_topology({"http://up:1": registry.render(),
                                   "http://down:2": None})
        families = parse(topology.fleet_metrics())
        up = {labels["worker"]: value for _, labels, value
              in families["repro_worker_up"]["samples"]}
        assert up == {"http://up:1": 1.0, "http://down:2": 0.0}
        jobs = {labels["worker"]: value for _, labels, value
                in families["jobs_total"]["samples"]}
        assert jobs == {"http://up:1": 7.0}

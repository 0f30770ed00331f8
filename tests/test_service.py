"""Tests for repro.service: disk cache, failure isolation, HTTP endpoint."""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.exceptions import (
    ExperimentError,
    ResourceExhaustedError,
    ServiceError,
)
from repro.api import (
    CompileJob,
    MachineSpec,
    ParallelExecutor,
    SerialExecutor,
    Session,
    SweepSpec,
    config_from_dict,
    config_to_dict,
)
from repro.core.compiler import CompilerConfig, preset
from repro.core.result import CompilationResult, JobFailure
from repro.service import (
    CompilationService,
    DiskCache,
    ServiceClient,
    ServiceHTTPHandler,
    make_server,
)

GRID = MachineSpec.nisq_grid(5, 5)
RD53 = CompileJob.for_benchmark("RD53", GRID, "square")
RD53_LAZY = CompileJob.for_benchmark("RD53", GRID, "lazy")
#: RD53 cannot fit on two qubits; compiles to a structured failure.
IMPOSSIBLE = CompileJob.for_benchmark("RD53", MachineSpec.nisq(2), "square")


# ----------------------------------------------------------------------
# Descriptor serialization
# ----------------------------------------------------------------------
class TestDescriptors:
    def test_machine_spec_round_trip(self):
        for spec in (GRID, MachineSpec.nisq_full(9), MachineSpec.ft(16),
                     MachineSpec.ideal(8),
                     MachineSpec.nisq_autosize(start_qubits=16)):
            assert MachineSpec.from_dict(spec.to_dict()) == spec

    def test_machine_spec_rejects_unknown_keys(self):
        with pytest.raises(ExperimentError):
            MachineSpec.from_dict({"kind": "nisq", "qbits": 9})

    def test_config_round_trip(self):
        config = preset("square", decompose_toffoli=True)
        assert config_from_dict(config_to_dict(config)) == config
        with pytest.raises(ExperimentError):
            config_from_dict({"allocation": "laa", "reclamatoin": "cer"})

    def test_job_round_trip_preserves_fingerprint(self):
        job = CompileJob.for_benchmark("mul32", GRID, "lazy",
                                       overrides={"width": 8})
        rebuilt = CompileJob.from_dict(json.loads(json.dumps(job.to_dict())))
        assert rebuilt == job
        assert rebuilt.fingerprint() == job.fingerprint()

    def test_job_descriptor_shorthand(self):
        job = CompileJob.from_dict({
            "benchmark": "rd53",
            "policy": "square",
            "config": {"decompose_toffoli": True},
            "machine": {"kind": "nisq", "rows": 5, "cols": 5},
        })
        assert job.benchmark == "RD53"
        assert job.config.decompose_toffoli
        assert job.config.policy_name == "square"
        assert job.machine == GRID

    def test_job_descriptor_defaults_to_autosize_square(self):
        job = CompileJob.from_dict({"benchmark": "RD53"})
        assert job.machine.autosize
        assert job.config.policy_name == "square"

    def test_job_descriptor_rejects_bad_shapes(self):
        with pytest.raises(ExperimentError):
            CompileJob.from_dict({})
        with pytest.raises(ExperimentError):
            CompileJob.from_dict({"benchmark": "RD53", "mahcine": {}})

    def test_program_jobs_do_not_serialize(self):
        from tests.conftest import build_two_level_program

        job = CompileJob(program=build_two_level_program(),
                         machine=GRID)
        with pytest.raises(ExperimentError):
            job.to_dict()

    def test_sweep_spec_round_trip(self):
        spec = (SweepSpec()
                .with_benchmarks("RD53", "ADDER4")
                .with_machines(GRID, MachineSpec.nisq_full(9))
                .with_policies("lazy", CompilerConfig(allocation="lifo",
                                                      reclamation="lazy",
                                                      label="custom"))
                .with_scales("quick")
                .with_config(decompose_toffoli=True))
        rebuilt = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert [job.fingerprint() for job in rebuilt.jobs()] == \
               [job.fingerprint() for job in spec.jobs()]

    def test_sweep_spec_rejects_unknown_keys(self):
        with pytest.raises(ExperimentError):
            SweepSpec.from_dict({"benchmark": ["RD53"]})


# ----------------------------------------------------------------------
# JobFailure
# ----------------------------------------------------------------------
class TestJobFailure:
    def test_round_trip_and_exception(self):
        failure = JobFailure(program_name="RD53", machine_name="nisq-2",
                             policy_name="square",
                             error_type="ResourceExhaustedError",
                             message="no space")
        rebuilt = JobFailure.from_dict(json.loads(json.dumps(
            failure.to_dict())))
        assert rebuilt == failure
        error = rebuilt.to_exception()
        assert isinstance(error, ResourceExhaustedError)
        for label in ("RD53", "square", "nisq-2", "no space"):
            assert label in str(error)

    def test_unknown_error_type_degrades_to_experiment_error(self):
        failure = JobFailure(program_name="x", machine_name="m",
                             policy_name="p", error_type="WeirdCustomError",
                             message="boom")
        assert isinstance(failure.to_exception(), ExperimentError)


# ----------------------------------------------------------------------
# Failure isolation
# ----------------------------------------------------------------------
class TestFailureIsolation:
    @pytest.mark.parametrize("executor", [SerialExecutor(),
                                          ParallelExecutor(jobs=2)])
    def test_batch_survives_impossible_job(self, executor):
        session = Session(executor=executor, isolate_failures=True)
        sweep = session.run([RD53, IMPOSSIBLE, RD53_LAZY])
        assert [entry.ok for entry in sweep] == [True, False, True]
        assert not sweep.ok
        failed = sweep.failures()[0]
        assert failed.error.error_type == "ResourceExhaustedError"
        assert failed.error.program_name == "RD53"
        assert failed.result is None
        # The healthy jobs still produced real results.
        assert sweep[0].result.gate_count > 0
        assert sweep[2].result.gate_count > 0

    def test_rows_stay_uniform_with_failures(self):
        session = Session(isolate_failures=True)
        rows = session.run([RD53, IMPOSSIBLE]).rows()
        assert [set(row) for row in rows] == [set(rows[0])] * 2
        assert rows[0]["error"] == ""
        assert "ResourceExhaustedError" in rows[1]["error"]
        assert rows[1]["gates"] == ""

    def test_failures_are_not_cached(self):
        session = Session(isolate_failures=True)
        session.run([IMPOSSIBLE])
        assert session.cache_size == 0

    def test_without_isolation_batch_raises(self):
        with pytest.raises(ResourceExhaustedError):
            Session().run([RD53, IMPOSSIBLE])

    def test_submit_raises_even_when_isolating(self):
        session = Session(isolate_failures=True)
        with pytest.raises(ResourceExhaustedError):
            session.submit(IMPOSSIBLE)

    def test_entry_needs_result_or_error(self):
        from repro.api import SweepEntry

        with pytest.raises(ExperimentError):
            SweepEntry(job=RD53, result=None, error=None)


class TestEntryRecord:
    """``SweepEntry.to_record``/``from_record``: the sweep-entry wire form."""

    HEAD = ["ok", "fingerprint", "benchmark", "policy", "machine",
            "cached", "disk_hit"]

    def _entries(self, tmp_path):
        Session(cache_dir=tmp_path).run([RD53_LAZY])
        ok, failed = Session(isolate_failures=True).run([RD53, IMPOSSIBLE])
        verified = Session(verify=True).run([RD53])[0]
        disk_hit = Session(cache_dir=tmp_path).run([RD53_LAZY])[0]
        assert disk_hit.disk_hit and verified.verification is not None
        return {"ok": ok, "failed": failed, "verified": verified,
                "disk_hit": disk_hit}

    def test_round_trip(self, tmp_path):
        from repro.api import SweepEntry

        for name, entry in self._entries(tmp_path).items():
            record = json.loads(json.dumps(entry.to_record()))
            assert SweepEntry.from_record(entry.job, record) == entry, name

    def test_key_order(self, tmp_path):
        entries = self._entries(tmp_path)
        assert list(entries["ok"].to_record()) == self.HEAD + ["result"]
        assert list(entries["failed"].to_record()) == self.HEAD + ["error"]
        assert list(entries["verified"].to_record()) == \
            self.HEAD + ["result", "verification"]


# ----------------------------------------------------------------------
# DiskCache
# ----------------------------------------------------------------------
class TestDiskCache:
    def test_round_trip(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        result = Session().submit(RD53)
        fingerprint = RD53.fingerprint()
        assert cache.get(fingerprint) is None
        assert cache.misses == 1
        cache.put(fingerprint, result, job=RD53)
        assert fingerprint in cache
        assert len(cache) == 1
        restored = cache.get(fingerprint)
        assert restored == result
        assert cache.hits == 1
        assert cache.entries()[fingerprint]["benchmark"] == "RD53"

    def test_corrupted_payload_counts_as_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        result = Session().submit(RD53)
        fingerprint = RD53.fingerprint()
        cache.put(fingerprint, result)
        (cache.results_dir / f"{fingerprint}.json").write_text("{not json")
        assert cache.get(fingerprint) is None
        assert cache.corrupt == 1
        # A rewrite heals the entry.
        cache.put(fingerprint, result)
        assert cache.get(fingerprint) == result

    def test_mislabelled_payload_rejected(self, tmp_path):
        cache = DiskCache(tmp_path)
        result = Session().submit(RD53)
        cache.put(RD53.fingerprint(), result)
        # Rename the payload under a different fingerprint: the content
        # no longer matches its key, so it must not be served.
        source = cache.results_dir / f"{RD53.fingerprint()}.json"
        target = cache.results_dir / f"{'0' * 64}.json"
        source.rename(target)
        assert cache.get("0" * 64) is None
        assert cache.corrupt == 1

    def test_non_utf8_payload_counts_as_corrupt(self, tmp_path):
        fingerprint = RD53.fingerprint()
        (tmp_path / "results").mkdir()
        (tmp_path / "results" / f"{fingerprint}.json").write_bytes(
            b"\xff\xfe{")
        session = Session(cache_dir=tmp_path)
        sweep = session.run([RD53], isolate_failures=True)
        assert sweep[0].error is None and not sweep[0].disk_hit
        assert session.disk_cache.corrupt == 1
        # The recompile rewrote the entry, so the next process hits it.
        assert DiskCache(tmp_path).get(fingerprint) == sweep[0].result
        assert session.disk_cache.gc_orphans(min_age_seconds=0) == 0

    def test_no_temp_file_litter(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(RD53.fingerprint(), Session().submit(RD53), job=RD53)
        leftovers = [path for path in cache.root.rglob("*.tmp")]
        assert leftovers == []

    def test_clear(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(RD53.fingerprint(), Session().submit(RD53))
        cache.clear()
        assert len(cache) == 0
        assert cache.entries() == {}


class TestSessionDiskTier:
    def test_restart_serves_from_disk_with_identical_rows(self, tmp_path):
        spec = (SweepSpec()
                .with_benchmarks("RD53", "6SYM")
                .with_machines(GRID)
                .with_policies("lazy", "square"))
        cold_session = Session(cache_dir=tmp_path)
        cold = cold_session.run(spec)
        assert cold_session.disk_hits == 0
        assert cold_session.disk_cache.writes == 4

        warm_session = Session(cache_dir=tmp_path)  # "process restart"
        warm = warm_session.run(spec)
        assert warm_session.disk_hits == 4
        assert warm.cache_hits == 4
        # The payload files are the only record: no index, no lock file.
        assert [path.name for path in tmp_path.iterdir()] == ["results"]
        assert {path.suffix for path in (tmp_path / "results").iterdir()} \
            == {".json"}
        # Byte-identical export, cold vs warm.
        assert cold.to_json() == warm.to_json()
        assert cold.to_csv() == warm.to_csv()

    def test_memory_tier_shields_disk(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        session.submit(RD53)
        session.submit(RD53)
        assert session.disk_hits == 0  # second hit came from memory
        assert session.disk_cache.writes == 1

    def test_disk_cache_and_cache_dir_conflict(self, tmp_path):
        with pytest.raises(ExperimentError):
            Session(disk_cache=DiskCache(tmp_path), cache_dir=tmp_path)

    def test_stats_include_disk(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        session.submit(RD53)
        stats = session.stats()
        assert stats["disk_cache"]["writes"] == 1
        assert stats["disk_cache"]["size"] == 1


# ----------------------------------------------------------------------
# Service core + HTTP endpoint
# ----------------------------------------------------------------------
class TestCompilationService:
    def test_compile_and_failure_payloads(self, tmp_path):
        service = CompilationService(cache_dir=tmp_path)
        response = service.compile({"job": RD53.to_dict()})
        assert response["ok"] and not response["cached"]
        assert response["result"]["gate_count"] > 0
        assert response["row"]["benchmark"] == "RD53"

        again = service.compile(RD53.to_dict())  # bare descriptor form
        assert again["cached"] and not again["disk_hit"]

        failed = service.compile({"job": IMPOSSIBLE.to_dict()})
        assert not failed["ok"]
        assert failed["error"]["error_type"] == "ResourceExhaustedError"
        assert service.job_failures == 1

    def test_sweep_payload(self):
        service = CompilationService()
        spec = (SweepSpec()
                .with_benchmarks("RD53")
                .with_machines(GRID)
                .with_policies("lazy", "square"))
        response = service.sweep({"spec": spec.to_dict()})
        assert response["ok"] and response["count"] == 2
        assert [entry["policy"] for entry in response["entries"]] == \
               ["lazy", "square"]
        assert response["rows"][0]["gates"] > 0


@pytest.fixture(scope="module")
def http_service(tmp_path_factory):
    """A live threaded HTTP server + client over a fresh cache dir."""
    cache_dir = tmp_path_factory.mktemp("service-cache")
    server = make_server("127.0.0.1", 0, cache_dir=str(cache_dir))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServiceClient(f"http://{host}:{port}"), cache_dir
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestHTTPEndpoint:
    def test_health_stats_registry(self, http_service):
        client, _ = http_service
        assert client.health()["status"] == "ok"
        registry = client.registry()
        assert "RD53" in registry["benchmarks"]
        assert "square" in registry["policies"]
        stats = client.stats()
        assert "session" in stats and "service" in stats

    def test_compile_over_http(self, http_service):
        client, _ = http_service
        result = client.submit(RD53)
        assert result.gate_count > 0
        response = client.compile_job(RD53)
        assert response["cached"]

    def test_compile_convenience(self, http_service):
        client, _ = http_service
        result = client.compile("RD53", machine=GRID, policy="lazy")
        assert result.policy_name == "lazy"

    def test_remote_matches_local(self, http_service):
        client, _ = http_service
        remote = client.submit(RD53_LAZY)
        local = Session().submit(RD53_LAZY)
        assert remote.summary() == local.summary()

    def test_failure_reraises_original_type(self, http_service):
        client, _ = http_service
        with pytest.raises(ResourceExhaustedError):
            client.submit(IMPOSSIBLE)

    def test_sweep_isolates_impossible_job(self, http_service):
        client, _ = http_service
        sweep = client.run([RD53, IMPOSSIBLE, RD53_LAZY])
        assert [entry.ok for entry in sweep] == [True, False, True]
        assert sweep[0].result.summary() == \
               Session().submit(RD53).summary()
        assert sweep.failures()[0].error.error_type == \
               "ResourceExhaustedError"

    def test_sweep_spec_over_http(self, http_service):
        client, _ = http_service
        spec = (SweepSpec()
                .with_benchmarks("RD53")
                .with_machines(GRID)
                .with_policies("lazy", "square"))
        sweep = client.run(spec)
        assert len(sweep) == 2
        assert sweep.get(policy="square").policy_name == "square"

    def test_bad_requests_are_service_errors(self, http_service):
        client, _ = http_service
        with pytest.raises(ServiceError) as exc_info:
            client.compile_job({"benchmark": "RD53", "mahcine": {}})
        assert "400" in str(exc_info.value)
        with pytest.raises(ServiceError):
            client._get("/nonsense")

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_invalid_content_length_is_a_400(self, http_service, length):
        client, _ = http_service
        host, port = client.base_url[len("http://"):].split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(f"POST /compile HTTP/1.1\r\nHost: {host}\r\n"
                         f"Content-Length: {length}\r\n\r\n".encode())
            reply = b""
            while b"\r\n\r\n" not in reply:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 "), reply[:80]

    def test_unreachable_service(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError):
            client.health()

    @pytest.mark.parametrize("url", ["ftp://127.0.0.1:9", "127.0.0.1:9",
                                     "http://127.0.0.1:port"])
    def test_service_url_is_checked(self, url):
        with pytest.raises(ServiceError):
            ServiceClient(url)

    def test_https_url_speaks_tls(self, http_service):
        client, _ = http_service
        # The service itself speaks plain HTTP, so the handshake fails.
        tls = ServiceClient(client.base_url.replace("http:", "https:"),
                            timeout=5)
        with pytest.raises(ServiceError, match="SSL"):
            tls.health()

    def test_warm_cache_survives_server_restart(self, http_service):
        client, cache_dir = http_service
        job = CompileJob.for_benchmark("ADDER4", GRID, "square")
        first = client.compile_job(job)
        assert first["ok"]

        # A brand-new server over the same cache dir: in-memory memo is
        # empty, so the hit must come from disk — and be identical.
        restarted = make_server("127.0.0.1", 0, cache_dir=str(cache_dir))
        thread = threading.Thread(target=restarted.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            host, port = restarted.server_address[:2]
            warm = ServiceClient(f"http://{host}:{port}").compile_job(job)
            assert warm["ok"] and warm["cached"] and warm["disk_hit"]
            assert warm["result"] == first["result"]
        finally:
            restarted.shutdown()
            restarted.server_close()
            thread.join(timeout=5)


class TestKeepAlive:
    """One connection carries request after request, whatever each
    reply was and however fast the replies come."""

    @staticmethod
    def _connection(client):
        host, port = client.base_url[len("http://"):].split(":")
        return http.client.HTTPConnection(host, int(port), timeout=5)

    def _status_then_health(self, client, method, path, body,
                            headers=None):
        """Status of one request, then of ``GET /health``, on one
        connection."""
        connection = self._connection(client)
        try:
            connection.request(method, path, body=body,
                               headers=headers or {})
            first = connection.getresponse()
            first.read()
            connection.request("GET", "/health")
            second = connection.getresponse()
            assert second.status != 200 or \
                json.loads(second.read())["status"] == "ok"
            return first.status, second.status
        finally:
            connection.close()

    def test_unread_body_after_a_401(self, http_service):
        client, _ = http_service
        statuses = self._status_then_health(
            client, "POST", "/compile", json.dumps({"job": RD53.to_dict()}),
            {"X-Repro-Key": "no-such-key"})
        assert statuses == (401, 200)

    def test_unread_body_after_a_404(self, http_service):
        client, _ = http_service
        statuses = self._status_then_health(
            client, "POST", "/nonsense", json.dumps({"job": RD53.to_dict()}))
        assert statuses == (404, 200)

    def test_cancel_body_is_consumed(self, http_service):
        client, _ = http_service
        job_id = client.submit_async(RD53)
        statuses = self._status_then_health(
            client, "POST", f"/jobs/{job_id}/cancel", b"{}")
        assert statuses == (200, 200)

    def test_replies_do_not_wait_for_a_delayed_ack(self, http_service):
        client, _ = http_service
        connection = self._connection(client)
        try:
            started = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/health")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        # A Nagle stall costs ~40 ms a reply, 0.8 s for the 20.
        assert elapsed < 0.4

    def test_closed_server_stops_answering_held_connections(self):
        server = make_server("127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}", timeout=5,
                               retries=1, backoff=0.001)
        assert client.health()["status"] == "ok"
        held = http.client.HTTPConnection(host, port, timeout=5)
        held.request("GET", "/health")
        held.getresponse().read()
        server.shutdown()
        # Serving stops with shutdown(): the idle connection is closed.
        assert held.sock.recv(1) == b""
        held.close()
        server.server_close()
        thread.join(timeout=5)
        with pytest.raises(ServiceError):
            client.health()

    def test_idle_connection_is_closed_and_reopened(self, monkeypatch):
        monkeypatch.setattr(ServiceHTTPHandler, "timeout", 0.2)
        server = make_server("127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            with ServiceClient(f"http://{host}:{port}", timeout=5) as client:
                opened = []
                real_connect = client._connect
                monkeypatch.setattr(
                    client, "_connect",
                    lambda: opened.append(1) or real_connect())
                assert client.health()["status"] == "ok"
                time.sleep(0.5)  # the server hangs up on the idle socket
                # A POST is never re-sent, so the dead connection must
                # be noticed before the request is written.
                assert client.compile_job(RD53)["ok"]
                assert client.health()["status"] == "ok"
                assert len(opened) == 2
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestInlineMemoryHits:
    """``/compile`` memory hits are answered on the handler thread."""

    def test_warm_reply_equals_the_queued_reply(self, http_service):
        client, _ = http_service
        job = CompileJob.for_benchmark("2OF5", GRID, "square")
        records = len(client.jobs())
        assert client.compile_job(job)["ok"]
        # A cold /compile still runs as a job.
        assert len(client.jobs()) == records + 1

        traced = ServiceClient(client.base_url)
        inline = traced._request("POST", "/compile", {"job": job.to_dict()},
                                 raw=True)
        assert len(client.jobs()) == records + 1
        queued = client.result_of(client.submit_async(job), timeout=30)
        assert json.loads(inline)["cached"]
        assert inline == json.dumps(queued)

        spans = traced.trace()["spans"]
        names = [span["name"] for span in spans]
        assert "queue.wait" not in names and "job.run" not in names
        handle = next(span for span in spans
                      if span["name"] == "server.handle")
        memory = next(span for span in spans
                      if span["name"] == "cache.memory")
        assert memory["parent_id"] == handle["span_id"]

    def test_hit_accounting_matches_a_queued_hit(self):
        service = CompilationService(verify=True)
        try:
            cold = service.compile({"job": RD53.to_dict()})
            hits = service.session.cache_hits
            warm = service.compile({"job": RD53.to_dict()})
            assert warm["cached"] and not warm["disk_hit"]
            assert warm["verification"] == cold["verification"]
            assert service.session.cache_hits == hits + 1
            assert service.jobs_run == 2
            assert service.manager.stats()["submitted"] == 1
        finally:
            service.close()


class TestServeCLI:
    def test_compile_and_sweep_exports_share_schema(self, tmp_path):
        from repro.experiments.__main__ import main

        compile_path = tmp_path / "compile.json"
        sweep_path = tmp_path / "sweep.json"
        cache = str(tmp_path / "cache")
        assert main(["compile", "RD53", "--policies", "lazy", "square",
                     "--grid", "5", "5", "--scale", "quick",
                     "--cache-dir", cache,
                     "--export", str(compile_path)]) == 0
        assert main(["sweep", "RD53", "--policies", "lazy", "square",
                     "--grid", "5", "5", "--scale", "quick",
                     "--cache-dir", cache,
                     "--export", str(sweep_path)]) == 0
        # Same schema, same values -> byte-identical export files.
        assert compile_path.read_text() == sweep_path.read_text()

    def test_serve_rejects_experiment_flags(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["serve", "--export", "rows.json"])
        with pytest.raises(SystemExit):
            main(["table3", "--port", "9999"])


class TestReviewHardening:
    """Regression tests for review findings on the service layer."""

    def test_get_and_suite_raise_for_failed_entries(self):
        session = Session(isolate_failures=True)
        sweep = session.run([IMPOSSIBLE, RD53_LAZY])
        with pytest.raises(ResourceExhaustedError):
            sweep.get(policy="square")
        with pytest.raises(ResourceExhaustedError):
            sweep.suite(benchmark="RD53")
        # Scoping past the failure still works.
        assert sweep.filter(policy="lazy")[0].result.gate_count > 0

    def test_duplicate_failures_are_never_cached(self):
        session = Session(isolate_failures=True)
        sweep = session.run([IMPOSSIBLE, RD53, IMPOSSIBLE])
        assert [entry.cached for entry in sweep] == [False, False, False]
        assert session.cache_hits == 0
        assert session.cache_misses == 3

    def test_failed_batch_still_caches_completed_work(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        with pytest.raises(ResourceExhaustedError):
            session.run([RD53, IMPOSSIBLE, RD53_LAZY])
        # The two healthy jobs were cached in memory and on disk before
        # the failure propagated, so the retry resumes warm.
        assert session.cache_size == 2
        assert session.disk_cache.writes == 2
        restarted = Session(cache_dir=tmp_path)
        sweep = restarted.run([RD53, RD53_LAZY])
        assert restarted.disk_hits == 2
        assert sweep.cache_hits == 2

    def test_reopen_lists_entries_from_payloads(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(RD53.fingerprint(), Session().submit(RD53), job=RD53)
        # put() is the whole commit: a process that dies right after it
        # leaves an entry every other process can already list.
        reopened = DiskCache(tmp_path)
        assert reopened.entries()[RD53.fingerprint()]["benchmark"] == "RD53"
        assert reopened.entries()[RD53.fingerprint()]["policy"] == "square"

    def test_serve_rejects_machine_flags(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["serve", "--grid", "5", "5"])
        with pytest.raises(SystemExit):
            main(["serve", "--machine", "ft"])

"""Tests for repro.queue (jobs, queue, workers, manager) and the async
service path built on it: /jobs endpoints, back-pressure, cancellation,
disk-cache eviction, client retry, and session-level concurrency."""

import json
import socket
import sys
import threading
import time

import pytest

from repro.exceptions import (
    BackPressureError,
    ResourceExhaustedError,
    ServiceError,
    UnknownJobError,
)
from repro.api import (
    CompileJob,
    MachineSpec,
    SerialExecutor,
    Session,
    SweepSpec,
)
from repro.queue import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobManager,
    JobQueue,
    QueuedJob,
    WorkerPool,
)
from repro.tenancy import FairShareScheduler
from repro.service import (
    CompilationService,
    DiskCache,
    ServiceClient,
    make_server,
)

GRID = MachineSpec.nisq_grid(5, 5)
RD53 = CompileJob.for_benchmark("RD53", GRID, "square")
IMPOSSIBLE = CompileJob.for_benchmark("RD53", MachineSpec.nisq(2), "square")


def wait_until(predicate, timeout=5.0, interval=0.005):
    """Poll ``predicate`` to True within ``timeout`` or fail the test."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    pytest.fail("condition not reached within timeout")


def slow_down_sweeps(service, seconds):
    """Make the service's sweep jobs take at least ``seconds`` to run.

    Wraps the manager's runner (the reference its workers actually
    call), keyed on the job kind — sweeps execute incrementally through
    the session now, so slowing ``session.run`` batches would no longer
    catch them.
    """
    original = service.manager._runner

    def slow_runner(job):
        if job.kind == "sweep":
            time.sleep(seconds)
        return original(job)

    service.manager._runner = slow_runner
    return service


# ----------------------------------------------------------------------
# QueuedJob lifecycle
# ----------------------------------------------------------------------
class TestQueuedJob:
    def test_lifecycle_and_timestamps(self):
        job = QueuedJob("job-000001", "compile", {"benchmark": "RD53"},
                        priority=3)
        assert job.state == QUEUED and not job.is_terminal
        assert job.started_at is None and job.finished_at is None
        job.transition(RUNNING)
        assert job.started_at is not None
        job.transition(DONE)
        assert job.is_terminal and job.finished_at is not None
        assert job.wait(0.0)  # event already set
        assert job.wait_seconds >= 0 and job.run_seconds >= 0

    def test_illegal_transitions_rejected(self):
        job = QueuedJob("job-000001", "compile", {})
        with pytest.raises(ServiceError):
            job.transition(DONE)  # QUEUED cannot jump to DONE
        job.transition(CANCELLED)
        for state in (RUNNING, DONE, FAILED):
            with pytest.raises(ServiceError):
                job.transition(state)  # terminal states are final
        with pytest.raises(ServiceError):
            job.transition("NONSENSE")

    def test_to_dict_round_trips_through_json(self):
        job = QueuedJob("job-000007", "sweep", {"spec": {}}, priority=1)
        job.transition(RUNNING)
        job.response = {"ok": True}
        job.transition(DONE)
        record = json.loads(json.dumps(job.to_dict()))
        assert record["job_id"] == "job-000007"
        assert record["state"] == DONE
        assert record["response"] == {"ok": True}
        assert record["priority"] == 1


# ----------------------------------------------------------------------
# JobQueue
# ----------------------------------------------------------------------
def _job(job_id, priority=0):
    return QueuedJob(job_id, "compile", {}, priority=priority)


class TestJobQueue:
    def test_priority_order_with_fifo_ties(self):
        queue = JobQueue(capacity=8)
        queue.push(_job("a", priority=0))
        queue.push(_job("b", priority=5))
        queue.push(_job("c", priority=0))
        queue.push(_job("d", priority=5))
        order = [queue.pop(timeout=0.1).job_id for _ in range(4)]
        assert order == ["b", "d", "a", "c"]

    def test_back_pressure_is_structured(self):
        queue = JobQueue(capacity=2)
        queue.push(_job("a"))
        queue.push(_job("b"))
        with pytest.raises(BackPressureError) as exc_info:
            queue.push(_job("c"))
        assert exc_info.value.depth == 2
        assert exc_info.value.capacity == 2
        assert queue.rejected == 1
        assert len(queue) == 2  # the rejected job left no trace

    def test_discard_removes_waiting_job(self):
        queue = JobQueue(capacity=4)
        queue.push(_job("a"))
        queue.push(_job("b"))
        assert queue.discard("a")
        assert not queue.discard("a")  # already gone
        assert queue.pop(timeout=0.1).job_id == "b"

    def test_discard_keeps_fifo_among_equal_scores(self):
        # A frozen clock makes every score equal: push order alone
        # decides, and removing a middle job must not disturb it.
        queue = JobQueue(capacity=8,
                         scheduler=FairShareScheduler(clock=lambda: 0.0))
        for job_id in "abcde":
            queue.push(_job(job_id))
        assert queue.discard("c")
        assert [queue.pop(timeout=0.1).job_id for _ in range(4)] \
            == ["a", "b", "d", "e"]

    def test_pop_timeout_returns_none(self):
        assert JobQueue(capacity=1).pop(timeout=0.01) is None

    def test_close_drain_keeps_backlog(self):
        queue = JobQueue(capacity=4)
        queue.push(_job("a"))
        assert queue.close(drain=True) == []
        assert queue.pop(timeout=0.1).job_id == "a"
        assert queue.pop(timeout=0.1) is None  # closed and drained
        with pytest.raises(ServiceError):
            queue.push(_job("b"))

    def test_close_without_drain_returns_dropped(self):
        queue = JobQueue(capacity=4)
        queue.push(_job("a"))
        dropped = queue.close(drain=False)
        assert [job.job_id for job in dropped] == ["a"]
        assert queue.pop(timeout=0.1) is None


# ----------------------------------------------------------------------
# WorkerPool
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_drains_and_shuts_down_cleanly(self):
        queue = JobQueue(capacity=16)
        handled = []
        lock = threading.Lock()

        def handler(job):
            with lock:
                handled.append(job.job_id)

        pool = WorkerPool(handler, queue, workers=3)
        assert pool.workers == 3 and pool.alive == 3
        for index in range(10):
            queue.push(_job(f"job-{index}"))
        wait_until(lambda: len(handled) == 10)
        assert pool.close()
        assert pool.alive == 0
        assert sorted(handled) == sorted(f"job-{i}" for i in range(10))

    def test_rejects_zero_workers(self):
        with pytest.raises(ServiceError):
            WorkerPool(lambda job: None, JobQueue(capacity=1), workers=0)


# ----------------------------------------------------------------------
# JobManager
# ----------------------------------------------------------------------
class TestJobManager:
    def test_submit_wait_result(self):
        manager = JobManager(lambda job: {"echo": job.payload},
                             workers=2, queue_size=8)
        try:
            ticket = manager.submit("compile", {"benchmark": "RD53"})
            assert ticket.job_id == "job-000001"
            job = manager.wait(ticket.job_id, timeout=5)
            assert job.state == DONE
            assert manager.result(ticket.job_id) == \
                   {"echo": {"benchmark": "RD53"}}
            assert manager.status(ticket.job_id)["state"] == DONE
        finally:
            manager.close()

    def test_failed_job_keeps_original_exception_type(self):
        def runner(job):
            raise ResourceExhaustedError("no qubits")

        manager = JobManager(runner, workers=1, queue_size=4)
        try:
            ticket = manager.submit(
                "compile", {"job": {"benchmark": "RD53",
                                    "policy": "square"}})
            manager.wait(ticket.job_id, timeout=5)
            assert ticket.state == FAILED
            assert ticket.error["error_type"] == "ResourceExhaustedError"
            # The failure record carries the submitted job's coordinates.
            assert ticket.error["program_name"] == "RD53"
            assert ticket.error["policy_name"] == "square"
            with pytest.raises(ResourceExhaustedError):
                manager.result(ticket.job_id)
        finally:
            manager.close()

    def test_cancel_of_queued_job_never_runs(self):
        gate = threading.Event()
        ran = []

        def runner(job):
            gate.wait(10)
            ran.append(job.job_id)
            return {}

        manager = JobManager(runner, workers=1, queue_size=8)
        try:
            first = manager.submit("compile", {})
            wait_until(lambda: first.state == RUNNING)
            queued = manager.submit("compile", {})
            job, cancelled = manager.cancel(queued.job_id)
            assert cancelled and job.state == CANCELLED
            # Cancelling again (or after the fact) is refused, not an error.
            assert manager.cancel(queued.job_id) == (job, False)
            gate.set()
            manager.wait(first.job_id, timeout=5)
            manager.close(drain=True)
            assert ran == [first.job_id]
        finally:
            gate.set()
            manager.close()

    def test_cancel_of_running_job_refused(self):
        gate = threading.Event()

        def runner(job):
            gate.wait(10)
            return {}

        manager = JobManager(runner, workers=1, queue_size=4)
        try:
            ticket = manager.submit("compile", {})
            wait_until(lambda: ticket.state == RUNNING)
            job, cancelled = manager.cancel(ticket.job_id)
            assert not cancelled and job.state == RUNNING
        finally:
            gate.set()
            manager.close()

    def test_priority_orders_execution(self):
        gate = threading.Event()
        ran = []

        def runner(job):
            gate.wait(10)
            ran.append(job.job_id)
            return {}

        manager = JobManager(runner, workers=1, queue_size=8)
        try:
            blocker = manager.submit("compile", {})
            wait_until(lambda: blocker.state == RUNNING)
            low = manager.submit("compile", {}, priority=0)
            high = manager.submit("compile", {}, priority=5)
            gate.set()
            manager.wait(low.job_id, timeout=5)
            assert ran == [blocker.job_id, high.job_id, low.job_id]
        finally:
            gate.set()
            manager.close()

    def test_unknown_job_id_raises(self):
        manager = JobManager(lambda job: {}, workers=1, queue_size=2)
        try:
            with pytest.raises(UnknownJobError):
                manager.get("job-999999")
            with pytest.raises(UnknownJobError):
                manager.cancel("job-999999")
        finally:
            manager.close()

    def test_retention_gc_drops_oldest_finished(self):
        manager = JobManager(lambda job: {}, workers=2, queue_size=16,
                             retention=2)
        try:
            tickets = [manager.submit("compile", {}) for _ in range(5)]
            for ticket in tickets:
                manager.wait(ticket.job_id, timeout=5)
            assert manager.gc() >= 0  # prune now that all finished
            assert len(manager.jobs()) == 2
            with pytest.raises(UnknownJobError):
                manager.status(tickets[0].job_id)
            # The two newest records survive.
            assert manager.status(tickets[-1].job_id)["state"] == DONE
        finally:
            manager.close()

    def test_list_filter_and_stats(self):
        manager = JobManager(lambda job: {}, workers=1, queue_size=4)
        try:
            ticket = manager.submit("compile", {})
            manager.wait(ticket.job_id, timeout=5)
            assert [j.job_id for j in manager.jobs(state=DONE)] == \
                   [ticket.job_id]
            assert manager.jobs(state=QUEUED) == []
            with pytest.raises(ServiceError):
                manager.jobs(state="WEIRD")
            stats = manager.stats()
            assert stats["submitted"] == 1 and stats["completed"] == 1
            assert stats["states"][DONE] == 1
            assert stats["queue"]["capacity"] == 4
            assert stats["pool"]["workers"] == 1
        finally:
            manager.close()

    def test_store_less_manager_reports_no_persistence(self):
        manager = JobManager(lambda job: {}, workers=1, queue_size=4)
        try:
            manager.wait(manager.submit("compile", {}).job_id, timeout=5)
            stats = manager.stats()
            assert stats["store"] == {"kind": "none"}
            assert stats["recovery"] == {
                "resumed_queued": 0, "requeued_running": 0,
                "recovered_terminal": 0, "orphans_failed": 0,
                "max_requeues": 1}
        finally:
            manager.close()

    def test_close_without_drain_cancels_backlog(self):
        gate = threading.Event()

        def runner(job):
            gate.wait(10)
            return {}

        manager = JobManager(runner, workers=1, queue_size=8)
        running = manager.submit("compile", {})
        wait_until(lambda: running.state == RUNNING)
        backlog = manager.submit("compile", {})
        gate.set()
        assert manager.close(drain=False)
        assert backlog.state == CANCELLED
        with pytest.raises(ServiceError):
            manager.submit("compile", {})  # closed queue rejects


# ----------------------------------------------------------------------
# Session concurrency: single-flight across worker threads
# ----------------------------------------------------------------------
class CountingExecutor(SerialExecutor):
    """Serial executor that records every job it actually compiles."""

    def __init__(self):
        self.lock = threading.Lock()
        self.executed = []

    def run(self, jobs):
        with self.lock:
            self.executed.extend(jobs)
        return SerialExecutor.run(self, jobs)


class TestSessionConcurrency:
    def test_overlapping_sweeps_compile_each_job_once(self):
        executor = CountingExecutor()
        session = Session(executor=executor)
        spec = (SweepSpec()
                .with_benchmarks("RD53", "6SYM")
                .with_machines(GRID)
                .with_policies("lazy", "square"))
        unique = len({job.fingerprint() for job in spec.jobs()})
        results = []
        errors = []

        def worker():
            try:
                results.append(session.run(spec, isolate_failures=True))
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(results) == 6
        # The crux: six overlapping sweeps, each fingerprint compiled once.
        assert len(executor.executed) == unique
        reference = results[0].rows()
        for sweep in results[1:]:
            assert sweep.rows() == reference

    def test_concurrent_failures_propagate_to_waiters(self):
        session = Session(isolate_failures=True)
        outcomes = []
        lock = threading.Lock()

        def worker():
            sweep = session.run([IMPOSSIBLE])
            with lock:
                outcomes.append(sweep[0].ok)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert outcomes == [False, False, False, False]

    def test_disk_tier_hit_marks_entry(self, tmp_path):
        Session(cache_dir=tmp_path).submit(RD53)
        warm = Session(cache_dir=tmp_path)
        entry = warm.run([RD53])[0]
        assert entry.cached and entry.disk_hit
        again = warm.run([RD53])[0]
        assert again.cached and not again.disk_hit  # memory shields disk

    def test_remote_sweep_entries_carry_disk_hit(self, tmp_path):
        Session(cache_dir=tmp_path).submit(RD53)
        server = make_server("127.0.0.1", 0, cache_dir=str(tmp_path))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            client = ServiceClient(f"http://{host}:{port}")
            sweep = client.run([RD53])
            assert sweep[0].cached and sweep[0].disk_hit
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


# ----------------------------------------------------------------------
# DiskCache eviction + index locking
# ----------------------------------------------------------------------
class TestDiskCacheEviction:
    def _sized_cache(self, tmp_path, entries=2.5):
        """A cache whose cap holds ~``entries`` RD53-sized payloads."""
        result = Session().submit(RD53)
        probe = DiskCache(tmp_path / "probe")
        probe.put("f" * 8, result, job=RD53)
        size = probe.total_bytes()
        cache = DiskCache(tmp_path / "capped",
                          max_bytes=int(size * entries))
        return cache, result, size

    def test_lru_eviction_on_write(self, tmp_path):
        cache, result, size = self._sized_cache(tmp_path, entries=2.5)
        import os
        cache.put("a" * 8, result)
        cache.put("b" * 8, result)
        assert cache.evictions == 0
        # Make "a" the most recently used despite being written first.
        os.utime(cache._result_path("b" * 8), (1000, 1000))
        cache.put("c" * 8, result)  # over cap -> evict LRU ("b")
        assert cache.evictions == 1
        assert "b" * 8 not in cache
        assert "a" * 8 in cache and "c" * 8 in cache
        assert cache.total_bytes() <= cache.max_bytes

    def test_get_bumps_recency(self, tmp_path):
        cache, result, size = self._sized_cache(tmp_path, entries=2.5)
        import os
        cache.put("a" * 8, result)
        cache.put("b" * 8, result)
        # Age both, then touch "a" via a read hit.
        os.utime(cache._result_path("a" * 8), (1000, 1000))
        os.utime(cache._result_path("b" * 8), (2000, 2000))
        assert cache.get("a" * 8) == result
        cache.put("c" * 8, result)
        assert "a" * 8 in cache  # read hit saved it
        assert "b" * 8 not in cache

    def test_new_entry_never_self_evicts(self, tmp_path):
        result = Session().submit(RD53)
        cache = DiskCache(tmp_path, max_bytes=1)  # absurdly small cap
        cache.put("a" * 8, result)
        assert "a" * 8 in cache  # kept despite exceeding the cap alone
        cache.put("b" * 8, result)
        assert "b" * 8 in cache and "a" * 8 not in cache
        assert cache.evictions == 1

    def test_eviction_updates_entries_and_stats(self, tmp_path):
        cache, result, _ = self._sized_cache(tmp_path, entries=1.5)
        cache.put("a" * 8, result, job=RD53)
        time.sleep(0.02)  # distinct mtimes
        cache.put("b" * 8, result, job=RD53)
        assert cache.evictions == 1
        assert set(cache.entries()) == {"b" * 8}
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["max_bytes"] == cache.max_bytes
        assert stats["bytes"] <= cache.max_bytes
        reopened = DiskCache(cache.root, max_bytes=cache.max_bytes)
        assert set(reopened.entries()) == {"b" * 8}

    def test_uncapped_cache_never_evicts(self, tmp_path):
        result = Session().submit(RD53)
        cache = DiskCache(tmp_path)
        for index in range(4):
            cache.put(f"{index}" * 8, result)
        assert cache.evictions == 0 and len(cache) == 4
        with pytest.raises(ValueError):
            DiskCache(tmp_path, max_bytes=0)

    def test_two_writers_list_each_others_entries(self, tmp_path):
        """Two caches over one directory: each lists both writers'
        entries, with no coordination beyond the atomic rename."""
        result = Session().submit(RD53)
        writer_a = DiskCache(tmp_path)
        writer_b = DiskCache(tmp_path)
        writer_a.put("a" * 8, result, job=RD53)
        writer_b.put("b" * 8, result, job=RD53)
        assert set(writer_a.entries()) == {"a" * 8, "b" * 8}
        assert set(DiskCache(tmp_path).entries()) == {"a" * 8, "b" * 8}

    def test_evicted_entries_stay_gone(self, tmp_path):
        cache, result, _ = self._sized_cache(tmp_path, entries=1.5)
        cache.put("a" * 8, result, job=RD53)
        time.sleep(0.02)
        cache.put("b" * 8, result, job=RD53)  # evicts "a"
        assert set(DiskCache(cache.root).entries()) == {"b" * 8}


# ----------------------------------------------------------------------
# Async HTTP endpoints
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def async_service(tmp_path_factory):
    """A live threaded HTTP server (2 workers) + client."""
    cache_dir = tmp_path_factory.mktemp("queue-service-cache")
    server = make_server("127.0.0.1", 0, cache_dir=str(cache_dir),
                         workers=2, queue_size=16)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServiceClient(f"http://{host}:{port}")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestAsyncHTTP:
    def test_submit_poll_wait_done(self, async_service):
        client = async_service
        started = time.perf_counter()
        job_id = client.submit_async(RD53)
        submit_elapsed = time.perf_counter() - started
        assert submit_elapsed < 1.0  # ticket returns without compiling
        record = client.wait_for(job_id, timeout=60)
        assert record["state"] == "DONE"
        assert record["response"]["ok"]
        assert record["response"]["result"]["gate_count"] > 0
        assert record["wait_seconds"] >= 0
        assert record["run_seconds"] >= 0

    def test_async_matches_sync_byte_for_byte(self, async_service):
        client = async_service
        spec = (SweepSpec()
                .with_benchmarks("RD53")
                .with_machines(GRID)
                .with_policies("lazy", "square"))
        sync_response = client._post("/sweep", {"spec": spec.to_dict()})
        job_id = client.submit_async(spec)
        async_response = client.result_of(job_id, timeout=60)
        assert json.dumps(async_response["rows"], sort_keys=True) == \
               json.dumps(sync_response["rows"], sort_keys=True)
        assert [e["result"] for e in async_response["entries"]] == \
               [e["result"] for e in sync_response["entries"]]

    def test_failed_async_job_reports_error(self, async_service):
        client = async_service
        job_id = client.submit_async(IMPOSSIBLE)
        record = client.wait_for(job_id, timeout=60)
        # Failure isolation: the *job* failed but the queue job is DONE
        # with a structured error entry in the response.
        assert record["state"] == "DONE"
        assert not record["response"]["ok"]
        assert record["response"]["error"]["error_type"] == \
               "ResourceExhaustedError"

    def test_unknown_job_id_is_404(self, async_service):
        client = async_service
        with pytest.raises(UnknownJobError) as exc_info:
            client.poll("job-424242")
        assert "404" in str(exc_info.value)
        with pytest.raises(UnknownJobError):
            client.cancel("job-424242")

    def test_job_listing(self, async_service):
        client = async_service
        job_id = client.submit_async(RD53)
        client.wait_for(job_id, timeout=60)
        records = client.jobs()
        assert any(record["job_id"] == job_id for record in records)
        assert all(record["state"] == "DONE"
                   for record in client.jobs(state="DONE"))
        with pytest.raises(ServiceError):
            client.jobs(state="NONSENSE")

    def test_stats_expose_queue_and_workers(self, async_service):
        client = async_service
        stats = client.stats()
        service = stats["service"]
        assert service["queue_capacity"] == 16
        assert service["workers"] == 2
        assert 0.0 <= service["worker_utilization"] <= 1.0
        assert stats["queue"]["pool"]["alive"] == 2
        assert "disk_cache" in stats["session"]
        assert "evictions" in stats["session"]["disk_cache"]

    def test_malformed_submission_is_400(self, async_service):
        client = async_service
        with pytest.raises(ServiceError) as exc_info:
            client.submit_async({"job": {"benchmark": "RD53",
                                         "mahcine": {}}})
        assert "400" in str(exc_info.value)
        with pytest.raises(ServiceError):
            client._post("/jobs", {"job": RD53.to_dict(),
                                   "priority": "high"})


@pytest.fixture()
def saturated_service(tmp_path):
    """workers=1, queue_size=1 server whose sweeps are slowed, so the
    worker is deterministically busy while tests probe the queue."""
    session = Session(cache_dir=tmp_path)
    service = slow_down_sweeps(
        CompilationService(session=session, workers=1, queue_size=1), 0.8)
    server = make_server("127.0.0.1", 0, service=service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServiceClient(f"http://{host}:{port}")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


SLOW_SPEC = (SweepSpec()
             .with_benchmarks("RD53")
             .with_machines(GRID)
             .with_policies("lazy", "square"))


class TestBackPressureHTTP:
    def test_queue_full_is_503_and_cancel_frees_a_slot(self,
                                                      saturated_service):
        client = saturated_service
        running = client.submit_async(SLOW_SPEC)   # occupies the worker
        wait_until(lambda: client.poll(running)["state"] == "RUNNING")
        queued = client.submit_async(SLOW_SPEC)    # fills the queue
        with pytest.raises(BackPressureError) as exc_info:
            client.submit_async(SLOW_SPEC)         # 503
        assert exc_info.value.depth == 1
        assert exc_info.value.capacity == 1
        assert "503" in str(exc_info.value)

        # Cancel the queued job: it never runs, and the slot frees up.
        record = client.cancel(queued)
        assert record["cancelled"] and record["state"] == "CANCELLED"
        replacement = client.submit_async(RD53)
        final = client.wait_for(replacement, timeout=60)
        assert final["response"]["ok"]
        assert client.poll(queued)["state"] == "CANCELLED"
        assert client.poll(queued).get("started_at") is None

    def test_small_compile_overtakes_running_sweep(self, saturated_service):
        client = saturated_service
        sweep_id = client.submit_async(SLOW_SPEC)
        wait_until(lambda: client.poll(sweep_id)["state"] == "RUNNING")
        # Synchronous /compile completes while the sweep still runs:
        # with one worker busy this rides the queue... so use the sweep
        # states to prove the ticket returned fast instead.
        started = time.perf_counter()
        compile_id = client.submit_async(RD53)
        assert time.perf_counter() - started < 0.5
        assert client.poll(sweep_id)["state"] == "RUNNING"
        record = client.wait_for(compile_id, timeout=60)
        assert record["response"]["ok"]


class TestConcurrentCompileNotSerialized:
    def test_compiles_complete_while_sweep_runs(self, tmp_path):
        """With 2+ workers a long sweep occupies one worker while
        /compile requests land on the other — the acceptance criterion
        that PR 2's single lock could not meet."""
        session = Session(cache_dir=tmp_path)
        service = slow_down_sweeps(
            CompilationService(session=session, workers=2, queue_size=8),
            1.5)
        server = make_server("127.0.0.1", 0, service=service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        try:
            sweep_id = client.submit_async(SLOW_SPEC)
            wait_until(lambda: client.poll(sweep_id)["state"] == "RUNNING")
            response = client.compile_job(RD53)  # synchronous path
            assert response["ok"]
            # The compile finished while the sweep was still running.
            assert client.poll(sweep_id)["state"] == "RUNNING"
            assert client.wait_for(sweep_id, timeout=60)["state"] == "DONE"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


# ----------------------------------------------------------------------
# Client retry with backoff
# ----------------------------------------------------------------------
class TestClientRetry:
    """The client's retry contract at its transport seam, ``_connect``
    (opens one connection; a refusal surfaces there)."""

    def test_get_retries_connection_refused(self, async_service,
                                            monkeypatch):
        client = ServiceClient(async_service.base_url, retries=3,
                               backoff=0.001)
        real_connect = client._connect
        calls = {"count": 0}

        def flaky():
            calls["count"] += 1
            if calls["count"] <= 2:
                raise ConnectionRefusedError(111, "Connection refused")
            return real_connect()

        monkeypatch.setattr(client, "_connect", flaky)
        with client:
            assert client.health()["status"] == "ok"
        assert calls["count"] == 3  # two refusals + one success

    def test_post_is_never_retried(self, async_service, monkeypatch):
        client = ServiceClient(async_service.base_url, retries=5,
                               backoff=0.001)
        calls = {"count": 0}

        def refused():
            calls["count"] += 1
            raise ConnectionRefusedError(111, "Connection refused")

        monkeypatch.setattr(client, "_connect", refused)
        with pytest.raises(ServiceError):
            client.compile_job(RD53)
        assert calls["count"] == 1  # a submission must not double

    def test_retries_exhausted_raise_service_error(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:9", retries=2,
                               backoff=0.001)
        calls = {"count": 0}

        def refused():
            calls["count"] += 1
            raise ConnectionRefusedError(111, "Connection refused")

        monkeypatch.setattr(client, "_connect", refused)
        with pytest.raises(ServiceError):
            client.health()
        assert calls["count"] == 3  # initial try + 2 retries

    def test_non_transient_get_errors_do_not_retry(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:9", retries=5,
                               backoff=0.001)
        calls = {"count": 0}

        def unreachable():
            calls["count"] += 1
            raise OSError("no route to host")

        monkeypatch.setattr(client, "_connect", unreachable)
        with pytest.raises(ServiceError):
            client.health()
        assert calls["count"] == 1

    def test_request_dropped_after_send(self):
        """A POST whose connection dies after it was written raises and
        is not re-sent; a GET is reissued on a new connection."""
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(5)
        port = listener.getsockname()[1]
        methods = []

        def drop_every_request():
            # Read each request's head, then hang up without a reply.
            with listener:
                for _ in range(4):  # 1 POST + 3 GET attempts
                    connection, _ = listener.accept()
                    with connection:
                        head = b""
                        while b"\r\n\r\n" not in head:
                            chunk = connection.recv(65536)
                            if not chunk:
                                break
                            head += chunk
                        methods.append(head.split(b" ", 1)[0])

        thread = threading.Thread(target=drop_every_request, daemon=True)
        thread.start()
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=5,
                               retries=2, backoff=0.001)
        with pytest.raises(ServiceError, match="mid-request"):
            client.compile_job(RD53)
        assert methods == [b"POST"]
        with pytest.raises(ServiceError, match="mid-request"):
            client.health()
        thread.join(timeout=5)
        assert methods == [b"POST", b"GET", b"GET", b"GET"]

    def test_one_client_across_a_same_port_restart(self, tmp_path):
        def start(port):
            server = make_server("127.0.0.1", port,
                                 cache_dir=str(tmp_path))
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            return server, thread

        def stop(server, thread):
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

        server, thread = start(0)
        port = server.server_address[1]
        with ServiceClient(f"http://127.0.0.1:{port}", timeout=30) as client:
            assert client.compile_job(RD53)["ok"]
            stop(server, thread)
            server, thread = start(port)
            try:
                # The held connection died with the old server: the
                # POST must notice that before it is written.
                restarted = client.compile_job(RD53)
                assert restarted["ok"] and restarted["disk_hit"]
                assert client.health()["status"] == "ok"
            finally:
                stop(server, thread)

    def test_threads_sharing_a_client_get_their_own_replies(
            self, async_service):
        client = async_service
        jobs = [CompileJob.for_benchmark("RD53", GRID, policy)
                for policy in ("square", "lazy", "eager", "square-laa")]
        for job in jobs:
            assert client.compile_job(job)["ok"]
        replies, problems = [], []

        def hammer(job):
            try:
                for _ in range(10):
                    response = client.compile_job(job)
                    replies.append(response["fingerprint"] == job.fingerprint())
            except Exception as error:  # a thread's failure fails the test
                problems.append(repr(error))

        threads = [threading.Thread(target=hammer, args=(job,))
                   for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert problems == []
        assert replies == [True] * 40


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
class TestServeCLIFlags:
    def test_queue_flags_rejected_outside_serve(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["table3", "--workers", "4"])
        with pytest.raises(SystemExit):
            main(["sweep", "RD53", "--queue-size", "8"])
        with pytest.raises(SystemExit):
            main(["compile", "RD53", "--cache-max-bytes", "1000"])

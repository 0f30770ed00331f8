"""Tests for repro.tenancy: principals/auth, fair-share scheduling,
per-tenant quotas, the durable JSONL job store, and crash/restart
recovery — at the queue, manager, and HTTP layers."""

import json
import threading
import time

import pytest

from repro.exceptions import (
    AuthError,
    BackPressureError,
    QuotaExceededError,
    ServiceError,
)
from repro.api import CompileJob, MachineSpec, Session, SweepSpec
from repro.queue import DONE, FAILED, QUEUED, RUNNING, JobManager, \
    JobQueue, QueuedJob
from repro.service import CompilationService, ServiceClient, make_server
from repro.tenancy import (
    ANONYMOUS,
    BurstScoreManager,
    FairShareScheduler,
    JsonlJobStore,
    MemoryJobStore,
    STORE_VERSION,
    Tenant,
    TenantRegistry,
    coerce_registry,
    job_snapshot,
)

GRID = MachineSpec.nisq_grid(5, 5)
RD53 = CompileJob.for_benchmark("RD53", GRID, "square")

ALICE = Tenant("alice", role="standard", api_key="ak-alice")
BOB = Tenant("bob", role="standard", api_key="ak-bob")


class FakeClock:
    """Deterministic monotonic clock for sleep-free fairness tests."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TickingClock:
    """Fake clock that advances one second on every read."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    pytest.fail("condition not reached within timeout")


# ----------------------------------------------------------------------
# Tenants and the registry
# ----------------------------------------------------------------------
class TestTenants:
    def test_tenant_validation(self):
        with pytest.raises(ServiceError):
            Tenant("")
        with pytest.raises(ServiceError):
            Tenant("x", role="vip")
        with pytest.raises(ServiceError):
            Tenant("x", max_queued=0)
        assert Tenant("x", role="admin").role_weight == 4.0

    def test_to_dict_redacts_api_key(self):
        record = ALICE.to_dict()
        assert "api_key" not in record
        assert "ak-alice" not in json.dumps(record)
        assert "ak-alice" not in repr(ALICE)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ServiceError):
            Tenant.from_dict({"name": "x", "quota": 3})

    def test_registry_resolution(self):
        registry = TenantRegistry([ALICE, BOB])
        assert registry.resolve("ak-alice") is ALICE
        assert registry.resolve(None).name == ANONYMOUS
        assert registry.resolve("").name == ANONYMOUS
        with pytest.raises(AuthError):
            registry.resolve("ak-mallory")

    def test_registry_rejects_duplicates_and_keyless(self):
        with pytest.raises(ServiceError):
            TenantRegistry([ALICE, Tenant("alice", api_key="other")])
        with pytest.raises(ServiceError):
            TenantRegistry([ALICE, Tenant("alias", api_key="ak-alice")])
        with pytest.raises(ServiceError):
            TenantRegistry([Tenant("keyless")])

    def test_registry_from_dict_and_file(self, tmp_path):
        payload = {
            "default": {"name": "guest", "role": "batch"},
            "tenants": [{"name": "alice", "role": "admin",
                         "api_key": "ak-alice", "max_queued": 4}],
        }
        registry = TenantRegistry.from_dict(payload)
        assert registry.resolve(None).name == "guest"
        assert registry.resolve("ak-alice").max_queued == 4
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps(payload))
        assert coerce_registry(str(path)).resolve("ak-alice").role == "admin"
        with pytest.raises(ServiceError):
            TenantRegistry.from_dict({"tenants": [], "extra": 1})

    def test_registry_from_env_inline_and_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_TENANTS", raising=False)
        assert coerce_registry(None).resolve(None).name == ANONYMOUS
        monkeypatch.setenv("REPRO_TENANTS", json.dumps({
            "tenants": [{"name": "envy", "api_key": "ak-env"}]}))
        assert coerce_registry(None).resolve("ak-env").name == "envy"


# ----------------------------------------------------------------------
# Burst scores and the fair-share scheduler (fake clock, no sleeps)
# ----------------------------------------------------------------------
class TestBurstScore:
    def test_half_life_decay(self):
        clock = FakeClock()
        burst = BurstScoreManager(half_life=30.0, clock=clock)
        assert burst.record("alice", 8.0) == 8.0
        clock.advance(30.0)
        assert burst.score("alice") == pytest.approx(4.0)
        clock.advance(60.0)
        assert burst.score("alice") == pytest.approx(1.0)
        assert burst.score("bob") == 0.0

    def test_accumulation_decays_between_records(self):
        clock = FakeClock()
        burst = BurstScoreManager(half_life=10.0, clock=clock)
        burst.record("t", 4.0)
        clock.advance(10.0)
        assert burst.record("t", 1.0) == pytest.approx(3.0)

    def test_fully_decayed_entries_are_pruned(self):
        clock = FakeClock()
        burst = BurstScoreManager(half_life=1.0, clock=clock)
        burst.record("t", 1.0)
        clock.advance(1000.0)
        assert burst.scores() == {}


def tenant_job(job_id, tenant, priority=0, payload=None, deadline=None):
    job = QueuedJob(job_id, "compile", payload or {}, priority=priority)
    job.tenant = tenant
    job.deadline_seconds = deadline
    return job


class TestFairShareScheduler:
    def test_burst_cost_counts_expanded_jobs(self):
        scheduler = FairShareScheduler(clock=FakeClock())
        assert scheduler._cost(QueuedJob("j", "sweep", {
            "jobs": [{}, {}, {}]})) == 3.0
        assert scheduler._cost(QueuedJob("j", "sweep", {
            "spec": {"benchmarks": ["a", "b"],
                     "policies": ["x", "y", "z"]}})) == 6.0
        assert scheduler._cost(QueuedJob("j", "compile", {"job": {}})) == 1.0

    def test_quiet_tenant_overtakes_flood(self):
        clock = FakeClock()
        queue = JobQueue(capacity=64,
                         scheduler=FairShareScheduler(clock=clock))
        for index in range(20):
            queue.push(tenant_job(f"a-{index:03d}", ALICE))
        queue.push(tenant_job("b-000", BOB))  # submitted last
        waits = {}
        order = []
        for _ in range(21):
            job = queue.pop(timeout=0.1)
            order.append(job.job_id)
            waits[job.job_id] = clock.now - job.enqueued_at
            clock.advance(1.0)  # each job "runs" one fake second
        assert order[0] == "b-000"
        alice_waits = sorted(wait for job_id, wait in waits.items()
                             if job_id.startswith("a-"))
        assert waits["b-000"] == 0.0
        assert alice_waits[len(alice_waits) // 2] > 5.0

    def test_flood_penalty_decays_with_half_life(self):
        clock = FakeClock()
        scheduler = FairShareScheduler(half_life=30.0, clock=clock)
        queue = JobQueue(capacity=64, scheduler=scheduler)
        for index in range(20):
            queue.push(tenant_job(f"a-{index:03d}", ALICE))
        # Ten half-lives of silence: the 20-job burst decays to ~0.02
        # and the flood has accrued age credit, so alice's oldest job
        # now outranks bob's fresh (burst-charged) submission.
        clock.advance(300.0)
        queue.push(tenant_job("b-000", BOB))
        assert queue.pop(timeout=0.1).job_id == "a-000"

    def test_priority_still_orders_same_tenant_fresh_jobs(self):
        queue = JobQueue(capacity=8,
                         scheduler=FairShareScheduler(clock=FakeClock()))
        queue.push(tenant_job("low", ALICE, priority=0))
        queue.push(tenant_job("high", ALICE, priority=5))
        queue.push(tenant_job("low-2", ALICE, priority=0))
        assert [queue.pop(0.1).job_id for _ in range(3)] \
            == ["high", "low", "low-2"]

    def test_same_tenant_ties_pop_fifo_on_a_ticking_clock(self):
        # Every clock read advances time, so the burst penalty decays
        # between reads: a pop must score the whole backlog at its one
        # ``now``, or later-scanned jobs look less penalized and the
        # backlog pops in reverse.
        clock = TickingClock()
        queue = JobQueue(capacity=32,
                         scheduler=FairShareScheduler(clock=clock))
        ids = [f"a-{index:03d}" for index in range(20)]
        for job_id in ids:
            queue.push(tenant_job(job_id, ALICE))
        assert [queue.pop(0.1).job_id for _ in ids] == ids

    def test_deadline_urgency_grows_with_age(self):
        clock = FakeClock()
        queue = JobQueue(capacity=8,
                         scheduler=FairShareScheduler(clock=clock))
        queue.push(tenant_job("calm", ALICE))
        queue.push(tenant_job("urgent", ALICE, deadline=10.0))
        clock.advance(10.0)  # urgent has burned its whole budget
        assert queue.pop(0.1).job_id == "urgent"


# ----------------------------------------------------------------------
# Per-tenant queue quotas
# ----------------------------------------------------------------------
class TestTenantQuota:
    def test_quota_rejects_only_the_offender(self):
        capped = Tenant("capped", api_key="ak-c", max_queued=2)
        queue = JobQueue(capacity=8)
        queue.push(tenant_job("c-1", capped))
        queue.push(tenant_job("c-2", capped))
        with pytest.raises(QuotaExceededError) as exc_info:
            queue.push(tenant_job("c-3", capped))
        assert exc_info.value.tenant == "capped"
        assert exc_info.value.depth == 2
        assert exc_info.value.capacity == 2
        # The other tenant (and the anonymous default) are unaffected.
        queue.push(tenant_job("b-1", BOB))
        queue.push(QueuedJob("anon-1", "compile", {}))
        assert queue.stats()["quota_rejected"] == 1
        assert queue.tenant_depths() == {"capped": 2, "bob": 1}

    def test_quota_frees_up_as_jobs_pop_or_cancel(self):
        capped = Tenant("capped", api_key="ak-c", max_queued=1)
        queue = JobQueue(capacity=8)
        queue.push(tenant_job("c-1", capped))
        with pytest.raises(QuotaExceededError):
            queue.push(tenant_job("c-2", capped))
        assert queue.pop(0.1).job_id == "c-1"
        queue.push(tenant_job("c-2", capped))    # depth freed by pop
        assert queue.discard("c-2")
        queue.push(tenant_job("c-3", capped))    # depth freed by discard
        assert queue.tenant_depths() == {"capped": 1}

    def test_quota_is_a_back_pressure_subtype(self):
        # Clients catching BackPressureError keep working unchanged.
        assert issubclass(QuotaExceededError, BackPressureError)


# ----------------------------------------------------------------------
# The durable JSONL job store
# ----------------------------------------------------------------------
def finished_job(job_id="job-000001", response=None):
    job = QueuedJob(job_id, "compile", {"job": {"benchmark": "RD53"}},
                    priority=2)
    job.tenant = ALICE
    job.transition(RUNNING)
    job.add_entry({"ok": True, "index": 0})
    job.response = response or {"ok": True, "value": 42}
    job.transition(DONE)
    return job


class TestJsonlJobStore:
    def test_round_trip_is_byte_identical(self, tmp_path):
        store = JsonlJobStore(tmp_path)
        job = QueuedJob("job-000001", "compile",
                        {"job": {"benchmark": "RD53"}}, priority=2)
        job.tenant = ALICE
        store.record_submit(job)
        job.transition(RUNNING)
        store.record_transition(job)
        store.record_entry(job.job_id, {"ok": True, "index": 0})
        job.add_entry({"ok": True, "index": 0})
        job.response = {"ok": True, "rows": [{"b": 1, "a": 2}]}
        job.transition(DONE)
        store.record_transition(job)
        store.close()

        reopened = JsonlJobStore(tmp_path)
        records = reopened.load()
        assert len(records) == 1
        rebuilt = QueuedJob.from_snapshot(records[0])
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) \
            == json.dumps(job.to_dict(), sort_keys=True)
        assert rebuilt.tenant.name == "alice"
        assert rebuilt.entries == job.entries
        assert rebuilt.wait(0.0)  # terminal event pre-fired

    def test_torn_tail_is_skipped(self, tmp_path):
        store = JsonlJobStore(tmp_path)
        store.record_submit(finished_job())
        store.close()
        wal = tmp_path / "jobs.wal"
        with open(wal, "a", encoding="utf-8") as stream:
            stream.write('{"type": "state", "job_id": "job-0000')  # torn
        reopened = JsonlJobStore(tmp_path)
        assert reopened.torn_lines == 1
        assert len(reopened.load()) == 1

    def test_version_mismatch_refuses_recovery(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        wal.write_text(json.dumps({"type": "header",
                                   "version": STORE_VERSION + 1}) + "\n")
        with pytest.raises(ServiceError):
            JsonlJobStore(tmp_path)

    def test_compaction_bounds_the_wal(self, tmp_path):
        store = JsonlJobStore(tmp_path, compact_threshold=16)
        for index in range(40):
            store.record_submit(finished_job(f"job-{index:06d}"))
        assert store.compactions >= 1
        assert store.stats()["wal_lines"] <= 1 + 40
        store.close()
        assert len(JsonlJobStore(tmp_path).load()) == 40

    def test_forget_keeps_compacted_journal_from_growing(self, tmp_path):
        store = JsonlJobStore(tmp_path)
        for index in range(10):
            store.record_submit(finished_job(f"job-{index:06d}"))
        store.forget([f"job-{index:06d}" for index in range(9)])
        lines_before = store.stats()["wal_lines"]
        store.compact()
        assert store.stats()["wal_lines"] == 2  # header + 1 live job
        assert store.stats()["wal_lines"] < lines_before
        store.close()
        survivors = JsonlJobStore(tmp_path).load()
        assert [record["job_id"] for record in survivors] == ["job-000009"]

    def test_close_freezes_the_journal(self, tmp_path):
        store = JsonlJobStore(tmp_path)
        store.record_submit(finished_job("job-000001"))
        store.close()
        store.record_submit(finished_job("job-000002"))  # dropped
        store.record_transition(finished_job("job-000001"))
        assert len(JsonlJobStore(tmp_path).load()) == 1

    def test_memory_store_loads_empty_and_mirrors(self):
        store = MemoryJobStore()
        store.record_submit(finished_job())
        assert len(store.load()) == 1
        assert MemoryJobStore().load() == []

    def test_snapshot_redacts_api_key(self):
        snapshot = job_snapshot(finished_job())
        assert "ak-alice" not in json.dumps(snapshot)


# ----------------------------------------------------------------------
# Burst-score durability: the penalty survives a crash
# ----------------------------------------------------------------------
class TestBurstPersistence:
    def test_store_round_trips_latest_snapshot(self, tmp_path):
        store = JsonlJobStore(tmp_path)
        store.record_burst({"alice": 5.0}, 123.0)
        store.record_burst({"alice": 7.5, "bob": 1.0}, 456.0)
        store.close()
        assert JsonlJobStore(tmp_path).load_burst() == {
            "scores": {"alice": 7.5, "bob": 1.0}, "at": 456.0}

    def test_store_defaults_to_no_snapshot(self, tmp_path):
        assert JsonlJobStore(tmp_path).load_burst() is None
        assert MemoryJobStore().load_burst() is None

    def test_memory_store_round_trips(self):
        store = MemoryJobStore()
        store.record_burst({"alice": 2.0}, 1.0)
        assert store.load_burst() == {"scores": {"alice": 2.0}, "at": 1.0}

    def test_compaction_re_emits_one_snapshot(self, tmp_path):
        store = JsonlJobStore(tmp_path)
        store.record_submit(finished_job())
        for stamp in range(20):
            store.record_burst({"alice": float(stamp)}, float(stamp))
        store.compact()
        # header + one job + exactly one burst line survive.
        assert store.stats()["wal_lines"] == 3
        store.close()
        reopened = JsonlJobStore(tmp_path)
        assert reopened.load_burst() == {"scores": {"alice": 19.0},
                                         "at": 19.0}

    def test_restore_decays_by_downtime(self):
        clock = FakeClock(100.0)
        burst = BurstScoreManager(half_life=30.0, clock=clock)
        restored = burst.restore({"alice": 8.0}, 30.0)
        assert restored == {"alice": pytest.approx(4.0)}
        assert burst.score("alice") == pytest.approx(4.0)

    def test_restore_drops_fully_decayed_tenants(self):
        burst = BurstScoreManager(half_life=1.0, clock=FakeClock())
        assert burst.restore({"alice": 1.0}, 1000.0) == {}
        assert burst.score("alice") == 0.0

    def test_submit_journals_the_burst_table(self, tmp_path):
        gate = threading.Event()
        gate.set()
        store = JsonlJobStore(tmp_path)
        manager = gated_manager(store, gate,
                                scheduler=FairShareScheduler())
        try:
            manager.submit("compile", {"n": 1}, tenant=ALICE)
            snapshot = store.load_burst()
            assert snapshot is not None
            assert snapshot["scores"]["alice"] > 0
            assert snapshot["at"] > 0
        finally:
            manager.close()

    def test_flood_penalty_survives_crash(self, tmp_path):
        gate = threading.Event()
        manager = gated_manager(JsonlJobStore(tmp_path), gate,
                                scheduler=FairShareScheduler())
        for n in range(8):
            manager.submit("compile", {"n": n}, tenant=ALICE)
        flood_score = manager.scheduler.burst.score("alice")
        assert flood_score > 0
        manager.crash()
        gate.set()

        revived_scheduler = FairShareScheduler()
        open_gate = threading.Event()
        open_gate.set()
        revived = gated_manager(JsonlJobStore(tmp_path), open_gate,
                                scheduler=revived_scheduler)
        try:
            restored = revived_scheduler.burst.score("alice")
            # The penalty came back from the journal, decayed only by
            # the (tiny) downtime — a crash is not a reset button.
            assert 0 < restored <= flood_score
        finally:
            revived.close()


# ----------------------------------------------------------------------
# Manager recovery: crash, restart, resume
# ----------------------------------------------------------------------
def gated_manager(store, gate, **kwargs):
    """A single-worker manager whose runner parks on ``gate``."""

    def runner(job):
        if not gate.wait(10):
            raise ServiceError("test gate never opened")
        return {"ok": True, "echo": job.payload.get("n")}

    return JobManager(runner, workers=1, queue_size=16, store=store,
                      **kwargs)


class TestManagerRecovery:
    def test_queued_jobs_resume_after_crash(self, tmp_path):
        gate = threading.Event()
        manager = gated_manager(JsonlJobStore(tmp_path), gate)
        jobs = [manager.submit("compile", {"n": n}, tenant=ALICE)
                for n in range(3)]
        wait_until(lambda: jobs[0].state == RUNNING)
        manager.crash()
        gate.set()  # the "dead" worker finishes, but the journal is frozen

        open_gate = threading.Event()
        open_gate.set()
        revived = gated_manager(JsonlJobStore(tmp_path), open_gate)
        try:
            assert revived.resumed_queued == 2
            assert revived.requeued_running == 1
            for job in jobs:
                record = revived.wait(job.job_id, timeout=5)
                assert record.state == DONE
                assert record.response["echo"] == job.payload["n"]
            # The orphaned RUNNING job carries its requeue count.
            assert revived.get(jobs[0].job_id).retries == 1
            # Fresh ids continue past every recovered id.
            assert revived.submit("compile", {"n": 9}).job_id \
                == "job-000004"
            assert revived.stats()["recovery"]["resumed_queued"] == 2
        finally:
            revived.close()

    def test_running_requeues_exactly_once_then_fails(self, tmp_path):
        gate = threading.Event()
        manager = gated_manager(JsonlJobStore(tmp_path), gate)
        job = manager.submit("compile", {"n": 1})
        wait_until(lambda: job.state == RUNNING)
        manager.crash()

        # First restart: requeued (retries=1) and orphaned again.
        gate2 = threading.Event()
        second = gated_manager(JsonlJobStore(tmp_path), gate2)
        requeued = second.get(job.job_id)
        wait_until(lambda: requeued.state == RUNNING)
        assert requeued.retries == 1
        second.crash()

        # Second restart: past max_requeues -> FAILED, never requeued.
        third = gated_manager(JsonlJobStore(tmp_path), threading.Event())
        try:
            final = third.get(job.job_id)
            assert final.state == FAILED
            assert "orphaned" in final.error["message"]
            assert third.orphans_failed == 1
            assert third.requeued_running == 0
        finally:
            third.close()

    def test_done_results_survive_clean_restart_byte_identically(
            self, tmp_path):
        gate = threading.Event()
        gate.set()
        manager = gated_manager(JsonlJobStore(tmp_path), gate)
        job = manager.submit("compile", {"n": 7}, tenant=BOB)
        manager.wait(job.job_id, timeout=5)
        before = json.dumps(manager.status(job.job_id), sort_keys=True)
        manager.close()

        revived = gated_manager(JsonlJobStore(tmp_path), gate)
        try:
            assert revived.recovered_terminal == 1
            after = json.dumps(revived.status(job.job_id), sort_keys=True)
            assert after == before
            assert revived.result(job.job_id) == {"ok": True, "echo": 7}
        finally:
            revived.close()

    def test_entry_cursor_survives_restart(self, tmp_path):
        box = {}

        def runner(job):
            for index in range(3):
                box["manager"].record_entry(job, {"index": index})
            return {"ok": True}

        manager = JobManager(runner, workers=1, queue_size=4,
                             store=JsonlJobStore(tmp_path))
        box["manager"] = manager
        job = manager.submit("compile", {})
        manager.wait(job.job_id, timeout=5)
        manager.close()

        revived = JobManager(runner, workers=1, queue_size=4,
                             store=JsonlJobStore(tmp_path))
        try:
            payload = revived.entries_since(job.job_id, since=1, timeout=0)
            assert payload["state"] == DONE
            assert [entry["index"] for entry in payload["entries"]] == [1, 2]
            assert payload["total"] == 3
        finally:
            revived.close()

    def test_retention_gc_forgets_from_the_store(self, tmp_path):
        gate = threading.Event()
        gate.set()
        store = JsonlJobStore(tmp_path)
        manager = gated_manager(store, gate, retention=2)
        for n in range(5):
            job = manager.submit("compile", {"n": n})
            manager.wait(job.job_id, timeout=5)
        manager.gc()
        manager.close()
        # Only the retained tail survives the restart.
        assert len(JsonlJobStore(tmp_path).load()) <= 3

    def test_cancelled_on_shutdown_is_journaled(self, tmp_path):
        gate = threading.Event()
        manager = gated_manager(JsonlJobStore(tmp_path), gate)
        running = manager.submit("compile", {"n": 0})
        wait_until(lambda: running.state == RUNNING)
        queued = manager.submit("compile", {"n": 1})
        gate.set()
        manager.close(drain=False)  # graceful: drops + cancels the backlog
        revived = gated_manager(JsonlJobStore(tmp_path), gate)
        try:
            assert revived.get(queued.job_id).state == "CANCELLED"
            assert revived.resumed_queued == 0
        finally:
            revived.close()


# ----------------------------------------------------------------------
# HTTP integration: auth, quotas, per-tenant stats, restart-resume
# ----------------------------------------------------------------------
REGISTRY = {
    "tenants": [
        {"name": "alice", "role": "standard", "api_key": "ak-alice",
         "max_queued": 1},
        {"name": "bob", "role": "standard", "api_key": "ak-bob"},
    ],
}

SLOW_SPEC = (SweepSpec()
             .with_benchmarks("RD53")
             .with_machines(GRID)
             .with_policies("lazy", "square"))


def slow_down_sweeps(service, seconds):
    original = service.manager._runner

    def slow_runner(job):
        if job.kind == "sweep":
            time.sleep(seconds)
        return original(job)

    service.manager._runner = slow_runner
    return service


@pytest.fixture()
def tenant_server(tmp_path):
    """workers=1 server with two registered tenants and a job journal."""
    service = slow_down_sweeps(
        CompilationService(session=Session(), workers=1, queue_size=8,
                           tenants=REGISTRY, store_dir=str(tmp_path)),
        0.8)
    server = make_server("127.0.0.1", 0, service=service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestHTTPTenancy:
    def test_unknown_key_is_401(self, tenant_server, clients):
        mallory = clients(tenant_server, api_key="ak-mallory")
        with pytest.raises(AuthError) as exc_info:
            mallory.health()
        assert exc_info.value.http_status == 401

    def test_keyless_clients_stay_fully_functional(self, tenant_server, clients):
        anonymous = clients(tenant_server)
        assert anonymous.health()["status"] == "ok"
        ticket = anonymous.submit_async(RD53)
        record = anonymous.wait_for(ticket, timeout=60)
        assert record["state"] == "DONE"
        assert record["tenant"] == ANONYMOUS

    def test_quota_429_hits_only_the_flooding_tenant(self, tenant_server, clients):
        alice = clients(tenant_server, api_key="ak-alice")
        bob = clients(tenant_server, api_key="ak-bob")
        running = alice.submit_async(SLOW_SPEC)  # occupies the worker
        wait_until(lambda: alice.poll(running)["state"] == "RUNNING")
        alice.submit_async(SLOW_SPEC)            # fills alice's quota of 1
        with pytest.raises(QuotaExceededError) as exc_info:
            alice.submit_async(SLOW_SPEC)        # 429, alice only
        assert exc_info.value.http_status == 429
        assert exc_info.value.tenant == "alice"
        assert exc_info.value.capacity == 1
        bob_ticket = bob.submit_async(RD53)      # bob is unaffected
        assert bob.wait_for(bob_ticket, timeout=60)["state"] == "DONE"

    def test_stats_report_per_tenant_activity(self, tenant_server, clients):
        alice = clients(tenant_server, api_key="ak-alice")
        ticket = alice.submit_async(RD53)
        alice.wait_for(ticket, timeout=60)
        tenants = alice.stats()["tenants"]
        assert tenants["alice"]["submitted"] >= 1
        assert tenants["alice"]["completed"] >= 1
        assert "burst_score" in tenants["alice"]

    def test_restart_on_same_store_dir_serves_old_results(self, tmp_path,
                                                            clients):
        def start():
            server = make_server("127.0.0.1", 0, tenants=REGISTRY,
                                 store_dir=str(tmp_path))
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            host, port = server.server_address[:2]
            return server, thread, f"http://{host}:{port}"

        server, thread, url = start()
        alice = clients(url, api_key="ak-alice")
        ticket = alice.submit_async(RD53)
        before = alice.wait_for(ticket, timeout=60)
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

        server, thread, url = start()
        try:
            after = clients(url, api_key="ak-alice").poll(ticket)
            assert json.dumps(after, sort_keys=True) \
                == json.dumps(before, sort_keys=True)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

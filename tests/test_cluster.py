"""Tests for repro.cluster and the streaming per-entry pipeline.

Covers three layers:

* the queue/server/client streaming surface (`QueuedJob.entries_since`,
  `GET /jobs/<id>/entries`, `ServiceClient.iter_entries`) — including
  the cursor invariant: never skip, never duplicate;
* the cluster building blocks (sharding determinism and stability,
  topology probing) plus the fleet executor's failure paths, driven
  through deterministic fake worker clients (worker killed mid-sweep
  re-dispatches, back-pressured worker sheds to siblings, exhaustion
  raises `ClusterError`);
* real-HTTP integration: a sweep sharded across two live servers
  exports byte-identical JSON/CSV to a serial single-session run, also
  after one server is killed mid-sweep, and warm reruns stay on the
  same workers' caches.
"""

import itertools
import json
import threading
import time

import pytest

from repro.exceptions import (
    BackPressureError,
    ClusterError,
    ServiceError,
    UnknownJobError,
)
from repro.api import CompileJob, MachineSpec, Session, SweepSpec
from repro.cluster import (
    ClusterTopology,
    FleetExecutor,
    WorkerEndpoint,
    assign_endpoint,
    shard_jobs,
)
from repro.core.result import CompilationResult, JobFailure
from repro.queue import DONE, JobManager, QueuedJob
from repro.service import DiskCache, ServiceClient, make_server

GRID = MachineSpec.nisq_grid(5, 5)
SPEC = (SweepSpec()
        .with_benchmarks("RD53", "ADDER4", "6SYM", "2OF5")
        .with_machines(GRID)
        .with_policies("lazy", "square")
        .with_scales("quick"))

#: Fixed fake-worker URLs: the rendezvous hash over (fingerprint, url)
#: is salt-free, so the SPEC x URLS shard layout is a constant of the
#: test suite — both workers always draw several jobs (asserted below).
URLS = ("http://worker-a:1", "http://worker-b:2")


def spec_pairs(spec=SPEC):
    """The (fingerprint, job) pairs of a spec, in sweep order."""
    jobs = spec.jobs()
    return [(job.fingerprint(), job) for job in jobs]


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------
class TestSharding:
    def test_assignment_is_deterministic(self):
        pairs = spec_pairs()
        first = {fp: assign_endpoint(fp, URLS) for fp, _ in pairs}
        second = {fp: assign_endpoint(fp, URLS) for fp, _ in pairs}
        assert first == second

    def test_shards_cover_every_job_exactly_once(self):
        pairs = spec_pairs()
        shards = shard_jobs(pairs, URLS)
        fingerprints = [fp for shard in shards.values() for fp, _ in shard]
        assert sorted(fingerprints) == sorted(fp for fp, _ in pairs)

    def test_both_workers_draw_jobs_from_the_suite_spec(self):
        # The fixed URLS are chosen so the failure-path tests below can
        # rely on both workers owning part of the sweep.
        shards = shard_jobs(spec_pairs(), URLS)
        assert len(shards) == 2
        assert all(len(shard) >= 2 for shard in shards.values())

    def test_removing_an_endpoint_only_moves_its_jobs(self):
        pairs = spec_pairs()
        before = {fp: assign_endpoint(fp, URLS) for fp, _ in pairs}
        survivors = (URLS[0],)
        after = {fp: assign_endpoint(fp, survivors) for fp, _ in pairs}
        for fp, endpoint in before.items():
            if endpoint == URLS[0]:
                assert after[fp] == URLS[0]  # survivor's jobs stay put

    def test_shard_preserves_input_order(self):
        pairs = spec_pairs()
        shards = shard_jobs(pairs, URLS)
        order = {fp: index for index, (fp, _) in enumerate(pairs)}
        for shard in shards.values():
            indices = [order[fp] for fp, _ in shard]
            assert indices == sorted(indices)

    def test_no_endpoints_raises(self):
        with pytest.raises(ClusterError):
            assign_endpoint("abc", ())
        with pytest.raises(ClusterError):
            assign_endpoint("abc", {})

    def test_uniform_weights_match_legacy_placement(self):
        # weight=1 scores are a monotonic transform of the raw hash, so
        # existing fleets (and their warm cache layouts) see the exact
        # placement they had before weights existed.
        pairs = spec_pairs()
        unweighted = shard_jobs(pairs, URLS)
        weighted = shard_jobs(pairs, {url: 1.0 for url in URLS})
        assert {url: [fp for fp, _ in shard]
                for url, shard in unweighted.items()} == \
               {url: [fp for fp, _ in shard]
                for url, shard in weighted.items()}

    def test_heavier_endpoints_draw_proportionally_more(self):
        fingerprints = [f"synthetic-{index:05d}" for index in range(2000)]
        weights = {URLS[0]: 3.0, URLS[1]: 1.0}
        counts = {url: 0 for url in URLS}
        for fingerprint in fingerprints:
            counts[assign_endpoint(fingerprint, weights)] += 1
        assert sum(counts.values()) == len(fingerprints)
        ratio = counts[URLS[0]] / counts[URLS[1]]
        assert 2.0 < ratio < 4.5, \
            f"a 3x-weighted endpoint should draw ~3x the jobs: {counts}"
        # Determinism: the weighted assignment is a pure function.
        assert [assign_endpoint(fp, weights) for fp in fingerprints[:50]] \
            == [assign_endpoint(fp, weights) for fp in fingerprints[:50]]

    def test_non_positive_weights_are_rejected(self):
        from repro.cluster import shard_score

        with pytest.raises(ClusterError, match="weight"):
            shard_score("abc", URLS[0], weight=0.0)
        with pytest.raises(ClusterError, match="weight"):
            assign_endpoint("abc", {URLS[0]: -1.0})
        with pytest.raises(ClusterError, match="weight"):
            WorkerEndpoint(URLS[0], client=object(), weight=0)


# ----------------------------------------------------------------------
# QueuedJob / JobManager streaming primitives
# ----------------------------------------------------------------------
class TestEntryStream:
    def test_add_entry_then_slice(self):
        job = QueuedJob("job-1", "sweep", {})
        job.add_entry({"n": 0})
        job.add_entry({"n": 1})
        state, entries, total = job.entries_since(0, timeout=0)
        assert state == "QUEUED" and total == 2
        assert [e["n"] for e in entries] == [0, 1]
        state, entries, total = job.entries_since(1, timeout=0)
        assert [e["n"] for e in entries] == [1]

    def test_negative_cursor_rejected(self):
        job = QueuedJob("job-1", "sweep", {})
        with pytest.raises(ServiceError):
            job.entries_since(-1)

    def test_long_poll_wakes_on_new_entry(self):
        job = QueuedJob("job-1", "sweep", {})
        threading.Timer(0.05, lambda: job.add_entry({"n": 0})).start()
        started = time.monotonic()
        state, entries, _ = job.entries_since(0, timeout=5)
        assert [e["n"] for e in entries] == [0]
        assert time.monotonic() - started < 4, "must wake early"

    def test_long_poll_wakes_on_terminal_transition(self):
        manager = JobManager(lambda job: {"ok": True}, workers=1)
        try:
            ticket = manager.submit("compile", {"job": {}})
            manager.wait(ticket.job_id, timeout=10)
            payload = manager.entries_since(ticket.job_id, since=5,
                                            timeout=5)
            # Cursor beyond the stream: terminal state ends the poll
            # with an empty slice instead of blocking out the timeout.
            assert payload["state"] == DONE and payload["entries"] == []
        finally:
            manager.close()

    def test_cursor_never_skips_or_duplicates_under_concurrency(self):
        job = QueuedJob("job-1", "sweep", {})
        produced = 40

        def producer():
            for n in range(produced):
                job.add_entry({"n": n})
                if n % 7 == 0:
                    time.sleep(0.002)
            job.transition("RUNNING")
            job.transition("DONE")

        thread = threading.Thread(target=producer)
        thread.start()
        seen = []
        cursor = 0
        while True:
            state, entries, _ = job.entries_since(cursor, timeout=5)
            seen.extend(e["n"] for e in entries)
            cursor += len(entries)
            if state == DONE and not entries:
                break
        thread.join()
        assert seen == list(range(produced))

    def test_manager_jobs_limit_filter(self):
        manager = JobManager(lambda job: {"ok": True}, workers=1)
        try:
            tickets = [manager.submit("compile", {"job": {}})
                       for _ in range(5)]
            for ticket in tickets:
                manager.wait(ticket.job_id, timeout=10)
            newest = manager.jobs(limit=2)
            assert [job.job_id for job in newest] == \
                   [tickets[-2].job_id, tickets[-1].job_id]
            assert manager.jobs(limit=0) == []
            assert len(manager.jobs(state=DONE, limit=3)) == 3
            with pytest.raises(ServiceError):
                manager.jobs(limit=-1)
        finally:
            manager.close()


# ----------------------------------------------------------------------
# Streaming + filters over real HTTP
# ----------------------------------------------------------------------
@pytest.fixture(scope="class")
def live_server():
    server = make_server("127.0.0.1", 0, workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServiceClient(f"http://{host}:{port}")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestStreamingHTTP:
    def test_iter_entries_streams_every_entry_once_in_order(
            self, live_server):
        client = live_server
        ticket = client.submit_async(SPEC)
        indices, records = [], []
        for index, record in client.iter_entries(ticket):
            indices.append(index)
            records.append(record)
        assert indices == list(range(len(SPEC)))
        jobs = SPEC.jobs()
        assert [r["benchmark"] for r in records] == \
               [job.program_label for job in jobs]
        assert all(r["ok"] for r in records)

    def test_cursor_resume_matches_full_stream(self, live_server):
        client = live_server
        ticket = client.submit_async(SPEC)
        client.wait_for(ticket, timeout=120)
        full = client.entries_since(ticket, since=0)
        assert full["state"] == "DONE" and full["next"] == len(SPEC)
        resumed = client.entries_since(ticket, since=3)
        assert resumed["entries"] == full["entries"][3:]
        assert resumed["next"] == full["total"] == len(SPEC)

    def test_entry_count_in_status_record(self, live_server):
        client = live_server
        ticket = client.submit_async(SPEC)
        record = client.wait_for(ticket, timeout=120)
        assert record["entry_count"] == len(SPEC)

    def test_bad_cursor_and_unknown_job(self, live_server):
        client = live_server
        ticket = client.submit_async(SPEC)
        client.wait_for(ticket, timeout=120)
        with pytest.raises(ServiceError):
            client.entries_since(ticket, since=-2)
        with pytest.raises(UnknownJobError):
            client.entries_since("job-999999")
        with pytest.raises(ServiceError):
            client._get(f"/jobs/{ticket}/entries?since=junk")

    def test_jobs_listing_limit_and_status_filters(self, live_server):
        client = live_server
        ticket = client.submit_async(SPEC)
        client.wait_for(ticket, timeout=120)
        everything = client.jobs()
        assert len(everything) >= 2
        limited = client.jobs(limit=1)
        assert len(limited) == 1
        assert limited[0]["job_id"] == everything[-1]["job_id"]
        done = client.jobs(state="DONE", limit=2)
        assert all(record["state"] == "DONE" for record in done)
        # `state=` stays accepted as an alias for `status=`.
        via_alias = client._get("/jobs?state=DONE")
        assert via_alias["count"] == len(client.jobs(state="DONE"))
        with pytest.raises(ServiceError):
            client.jobs(limit=-1)
        with pytest.raises(ServiceError):
            client._get("/jobs?limit=three")


class TestWaitForBackoff:
    def test_interval_grows_to_cap(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:9")
        states = iter(["QUEUED"] * 6 + ["DONE"])
        monkeypatch.setattr(client, "poll",
                            lambda job_id: {"state": next(states)})
        sleeps = []
        monkeypatch.setattr("repro.service.client.time.sleep",
                            sleeps.append)
        record = client.wait_for("job-1", interval=0.05, max_interval=0.4)
        assert record["state"] == "DONE"
        assert len(sleeps) == 6
        assert sleeps[0] == pytest.approx(0.05)
        assert all(b >= a for a, b in zip(sleeps, sleeps[1:]))
        assert sleeps[-1] == pytest.approx(0.4)

    def test_timeout_still_raises(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:9")
        monkeypatch.setattr(client, "poll",
                            lambda job_id: {"state": "RUNNING"})
        monkeypatch.setattr("repro.service.client.time.sleep",
                            lambda delay: None)
        with pytest.raises(ServiceError, match="timed out"):
            client.wait_for("job-1", timeout=0.05, interval=0.01)

    def test_iter_entries_clamps_long_poll_to_remaining_budget(
            self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:9")
        parks = []

        def stuck(job_id, since=0, poll_timeout=None):
            parks.append(poll_timeout)
            return {"state": "QUEUED", "entries": [],
                    "since": since, "next": since}

        monkeypatch.setattr(client, "entries_since", stuck)
        with pytest.raises(ServiceError, match="timed out"):
            list(client.iter_entries("job-1", timeout=0.05,
                                     poll_timeout=10.0))
        # Every long-poll was clamped to the remaining overall budget —
        # a 0.05s timeout must never park a request for 10s.
        assert parks and max(parks) <= 0.05


# ----------------------------------------------------------------------
# DiskCache orphan GC
# ----------------------------------------------------------------------
class TestGcOrphans:
    @staticmethod
    def warm(cache):
        session = Session(disk_cache=cache)
        session.compile("RD53", machine=GRID, policy="lazy")
        return cache.fingerprints()[0]

    def test_removes_tmp_corrupt_and_uncommitted(self, tmp_path):
        cache = DiskCache(tmp_path)
        committed = self.warm(cache)
        results = tmp_path / "results"
        payload = json.loads((results / f"{committed}.json").read_text())
        # A self-consistent payload no session wrote is still a valid
        # entry: the payload file is the only record, so it survives.
        payload["fingerprint"] = "f" * 64
        (results / ("f" * 64 + ".json")).write_text(json.dumps(payload))
        (results / "x.json.123.tmp").write_text("partial write")
        (results / ("a" * 64 + ".json")).write_text("{corrupt")
        mislabelled = dict(payload, fingerprint="nope")
        (results / ("b" * 64 + ".json")).write_text(json.dumps(mislabelled))

        # Freshly written files are protected by the age threshold: a
        # sibling writer mid-``os.replace`` must never lose its temp
        # file.
        assert cache.gc_orphans() == 0
        assert cache.gc_orphans(min_age_seconds=0) == 3
        assert cache.fingerprints() == sorted([committed, "f" * 64])
        assert cache.stats()["orphans_removed"] == 3
        assert cache.get(committed) is not None
        # Idempotent, and a reload sees a clean directory.
        assert cache.gc_orphans(min_age_seconds=0) == 0
        assert DiskCache(tmp_path).gc_orphans(min_age_seconds=0) == 0

    def test_preserves_entries_committed_by_other_writers(self, tmp_path):
        ours = DiskCache(tmp_path)
        self.warm(ours)
        # A sibling server sharing the directory commits its own entry
        # after ours was opened.
        theirs = DiskCache(tmp_path)
        session = Session(disk_cache=theirs)
        session.compile("ADDER4", machine=GRID, policy="square")
        assert len(ours) == 2
        # The sibling's payload validates, so it survives our GC even
        # with the age threshold disabled.
        assert ours.gc_orphans(min_age_seconds=0) == 0
        assert len(ours) == 2

    @staticmethod
    def backdate(path, seconds=3600):
        """Make a file look ``seconds`` old (bypass the age threshold)."""
        import os

        old = time.time() - seconds
        os.utime(path, (old, old))

    @staticmethod
    def put_one(cache, benchmark="ADDER4"):
        """One direct ``put()``: the whole commit of an entry."""
        result = Session().compile(benchmark, machine=GRID, policy="square")
        job = CompileJob.for_benchmark(benchmark, GRID, "square")
        cache.put(job.fingerprint(), result, job=job)
        return job.fingerprint()

    def test_two_writers_sibling_inflight_files_survive(self, tmp_path):
        # Writer A runs GC while writer B is mid-write in the same
        # directory: B's temp file (mkstemp done, os.replace pending)
        # is *fresh*, so the age threshold protects it.
        ours = DiskCache(tmp_path)
        committed = self.warm(ours)
        theirs = DiskCache(tmp_path)
        sibling = self.put_one(theirs)
        inflight_tmp = tmp_path / "results" / "pending.json.777.tmp"
        inflight_tmp.write_text("half-written payload")
        assert ours.gc_orphans() == 0, \
            "fresh sibling files must survive a default-threshold GC"
        assert inflight_tmp.exists()
        assert sorted(theirs.fingerprints()) == sorted([committed, sibling])
        # With the threshold disabled only the temp file goes: B's
        # payload is valid, so it is safe at any age from A's side.
        assert ours.gc_orphans(min_age_seconds=0) == 1
        assert sorted(ours.fingerprints()) == sorted([committed, sibling])

    def test_two_writers_committed_entries_never_reclaimed(self, tmp_path):
        # Both writers commit; every payload then ages far past the
        # threshold.  GC from either side must reclaim nothing: age
        # only *permits* collection, validity is what protects.
        ours = DiskCache(tmp_path)
        committed = self.warm(ours)
        theirs = DiskCache(tmp_path)
        session = Session(disk_cache=theirs)
        session.compile("ADDER4", machine=GRID, policy="square")
        for path in (tmp_path / "results").glob("*.json"):
            self.backdate(path)
        assert ours.gc_orphans() == 0
        assert theirs.gc_orphans() == 0
        assert len(ours) == 2
        assert ours.get(committed) is not None

    def test_two_writers_crashed_writers_payload_survives(self, tmp_path):
        # A sibling that died right after a put() leaves a valid payload
        # and a stale temp file from a second, interrupted write.  Once
        # both are old, a long-lived cache and a freshly opened one
        # agree: the temp file goes, the valid payload stays.
        ours = DiskCache(tmp_path)
        committed = self.warm(ours)
        crashed = DiskCache(tmp_path)
        orphaned = self.put_one(crashed)
        del crashed  # the "crash"
        stale_tmp = tmp_path / "results" / "dead.json.1.tmp"
        stale_tmp.write_text("orphaned temp file")
        for path in (tmp_path / "results").iterdir():
            self.backdate(path)
        assert ours.gc_orphans() == 1  # the temp file
        assert not stale_tmp.exists()
        fresh = DiskCache(tmp_path)
        assert fresh.gc_orphans() == 0
        for cache in (ours, fresh):
            assert cache.fingerprints() == sorted([committed, orphaned])
            assert cache.get(committed) is not None
            assert cache.get(orphaned) is not None

    def test_concurrent_writers_readers_and_gc_share_one_directory(
            self, tmp_path):
        # Four caches over one directory, one per thread, overwrite and
        # read the same fingerprints while a fifth runs GC.  The rename
        # is their only coordination, so no read may see a partial
        # payload and GC may never take a valid one.
        import sys

        result = Session().compile("RD53", machine=GRID, policy="lazy")
        fingerprints = [f"{index:064x}" for index in range(8)]
        writers = [DiskCache(tmp_path) for _ in range(4)]
        janitor = DiskCache(tmp_path)
        errors = []

        def churn(cache):
            try:
                for _ in range(5):
                    for fingerprint in fingerprints:
                        cache.put(fingerprint, result)
                        if cache.get(fingerprint) != result:
                            errors.append(f"bad read of {fingerprint}")
            except Exception as exc:  # surfaced by the assertion below
                errors.append(repr(exc))

        threads = [threading.Thread(target=churn, args=(cache,), daemon=True)
                   for cache in writers]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 60
            while any(thread.is_alive() for thread in threads) \
                    and time.monotonic() < deadline:
                janitor.gc_orphans()
            for thread in threads:
                thread.join(timeout=5)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sum(cache.corrupt for cache in writers) == 0
        assert janitor.orphans_removed == 0
        fresh = DiskCache(tmp_path)
        assert fresh.fingerprints() == fingerprints
        assert all(fresh.get(fingerprint) == result
                   for fingerprint in fingerprints)
        assert not list((tmp_path / "results").glob("*.tmp"))


# ----------------------------------------------------------------------
# Deterministic fake workers for fleet executor failure paths
# ----------------------------------------------------------------------
class FakeWorkerClient:
    """Stands in for ServiceClient against an in-memory 'server'.

    Implements exactly the surface the fleet executor uses (health,
    submit_async, iter_entries, poll) with deterministic failure knobs:
    ``reject_submits`` answers the next N submissions with 503
    back-pressure; ``die_after`` kills the worker (transport-wise) once
    it has delivered that many entries; ``fail_job_after`` ends the
    current shard job FAILED server-side (worker stays reachable) once
    that many entries have been delivered.
    """

    def __init__(self, url, *, reject_submits=0, die_after=None,
                 fail_job_after=None):
        self.url = url
        self.session = Session(isolate_failures=True)
        self.reject_submits = reject_submits
        self.die_after = die_after
        self.fail_job_after = fail_job_after
        self.dead = False
        self.delivered = 0
        self.submissions = 0
        self._jobs = {}
        self._done = set()
        self._failed = set()
        self._ids = itertools.count(1)

    def _check_alive(self):
        if self.dead:
            raise ServiceError(f"cannot reach {self.url}: connection refused")

    def health(self):
        self._check_alive()
        return {"status": "ok"}

    def submit_async(self, payload):
        self._check_alive()
        self.submissions += 1
        if self.reject_submits > 0:
            self.reject_submits -= 1
            raise BackPressureError("queue full", depth=1, capacity=1)
        job_id = f"{self.url}/job-{next(self._ids)}"
        self._jobs[job_id] = [CompileJob.from_dict(descriptor)
                              for descriptor in payload["jobs"]]
        return job_id

    def iter_entries(self, job_id, since=0, timeout=None, poll_timeout=10.0):
        for index, job in enumerate(self._jobs[job_id][since:], start=since):
            self._check_alive()
            if self.die_after is not None and self.delivered >= self.die_after:
                self.dead = True
                raise ServiceError(f"{self.url} reset mid-stream")
            if self.fail_job_after is not None \
                    and self.delivered >= self.fail_job_after:
                # Server-side job failure: the stream ends early but the
                # worker itself stays perfectly reachable.
                self._failed.add(job_id)
                return
            entry = self.session.run([job])[0]
            self.delivered += 1
            yield index, entry.to_record()
        self._done.add(job_id)

    def poll(self, job_id):
        self._check_alive()
        if job_id in self._failed:
            return {"state": "FAILED"}
        return {"state": "DONE" if job_id in self._done else "RUNNING"}

    def stats(self):
        self._check_alive()
        return {
            "service": {"queue_depth": 0, "queue_capacity": 64,
                        "workers": 1, "busy_workers": 0,
                        "requests": self.submissions,
                        "jobs_run": self.delivered, "job_failures": 0},
            "session": dict(self.session.stats(), disk_cache=None),
        }


class TestFleetExecutorFailurePaths:
    @staticmethod
    def fleet(fakes, **kwargs):
        registry = {fake.url: fake for fake in fakes}
        kwargs.setdefault("retry_delay", 0.01)
        return FleetExecutor(
            list(registry), client_factory=registry.__getitem__, **kwargs)

    @staticmethod
    def sweep(fleet, work, **kwargs):
        return Session(fleet, isolate_failures=True, **kwargs).run(work)

    def test_clean_two_worker_sweep_matches_serial(self):
        serial = Session().run(SPEC, isolate_failures=True)
        fakes = [FakeWorkerClient(url) for url in URLS]
        arrivals = []
        fleet = self.fleet(fakes, on_outcome=lambda job, outcome:
                           arrivals.append(job.fingerprint()))
        sweep = self.sweep(fleet, SPEC)
        assert sweep.to_json() == serial.to_json()
        assert sweep.to_csv() == serial.to_csv()
        assert sorted(arrivals) == sorted(fp for fp, _ in spec_pairs())
        # Both workers compiled their own shard — a genuine split.
        assert all(fake.delivered >= 2 for fake in fakes)
        assert fleet.stats()["rounds_run"] == 1

    def test_worker_killed_mid_sweep_redispatches_unfinished(self):
        serial = Session().run(SPEC, isolate_failures=True)
        shards = shard_jobs(spec_pairs(), URLS)
        victim_shard = len(shards[URLS[1]])
        assert victim_shard >= 2, "suite spec must give the victim >1 job"
        fakes = [FakeWorkerClient(URLS[0]),
                 FakeWorkerClient(URLS[1], die_after=1)]
        fleet = self.fleet(fakes)
        sweep = self.sweep(fleet, SPEC)
        assert sweep.to_json() == serial.to_json()
        assert sweep.to_csv() == serial.to_csv()
        stats = fleet.stats()
        assert stats["redispatched_jobs"] == victim_shard - 1
        assert stats["rounds_run"] == 2
        # The survivor picked up the dead worker's unfinished jobs.
        assert fakes[0].delivered == len(shards[URLS[0]]) + victim_shard - 1
        dead = [s for s in stats["topology"]["endpoints"]
                if s["url"] == URLS[1]][0]
        assert not dead["alive"] and "mid-stream" in dead["last_error"]

    def test_failed_shard_job_retries_on_alternate_worker(self):
        # Worker B's shard job dies FAILED server-side after one entry;
        # B itself stays reachable.  The executor must not hand the
        # remainder straight back to B's sick queue: the next round
        # excludes B, so the jobs retry on A — and the merged result is
        # still byte-identical to a serial run.
        serial = Session().run(SPEC, isolate_failures=True)
        shards = shard_jobs(spec_pairs(), URLS)
        victim_shard = len(shards[URLS[1]])
        assert victim_shard >= 2
        fakes = [FakeWorkerClient(URLS[0]),
                 FakeWorkerClient(URLS[1], fail_job_after=1)]
        fleet = self.fleet(fakes)
        sweep = self.sweep(fleet, SPEC)
        assert sweep.to_json() == serial.to_json()
        assert sweep.to_csv() == serial.to_csv()
        stats = fleet.stats()
        assert stats["failed_shard_retries"] == victim_shard - 1
        assert stats["redispatched_jobs"] == victim_shard - 1
        assert stats["rounds_run"] == 2
        # The failing worker was excluded from the retry round (exactly
        # one submission ever reached it) yet is still alive.
        assert fakes[1].submissions == 1
        assert stats["topology"]["alive"] == 2
        assert fakes[0].delivered == len(shards[URLS[0]]) + victim_shard - 1

    def test_weighted_endpoints_shard_proportionally_and_merge_identically(
            self):
        serial = Session().run(SPEC, isolate_failures=True)
        fakes = {url: FakeWorkerClient(url) for url in URLS}
        heavy = WorkerEndpoint(URLS[0], client=fakes[URLS[0]], weight=64.0)
        light = WorkerEndpoint(URLS[1], client=fakes[URLS[1]], weight=1.0)
        fleet = FleetExecutor([heavy, light], retry_delay=0.01)
        sweep = self.sweep(fleet, SPEC)
        assert sweep.to_json() == serial.to_json()
        assert fakes[URLS[0]].delivered > fakes[URLS[1]].delivered, \
            "the weight-64 endpoint must draw the bulk of the sweep"

    def test_back_pressured_worker_sheds_load_to_sibling(self):
        serial = Session().run(SPEC, isolate_failures=True)
        shards = shard_jobs(spec_pairs(), URLS)
        fakes = [FakeWorkerClient(URLS[0]),
                 FakeWorkerClient(URLS[1], reject_submits=1)]
        fleet = self.fleet(fakes)
        sweep = self.sweep(fleet, SPEC)
        assert sweep.to_json() == serial.to_json()
        stats = fleet.stats()
        assert stats["shed_jobs"] == len(shards[URLS[1]])
        assert stats["rounds_run"] == 2
        # The saturated worker ran nothing; the sibling absorbed it all,
        # and the worker is still considered alive for future sweeps.
        assert fakes[1].delivered == 0
        assert fakes[0].delivered == len(SPEC.jobs())
        assert stats["topology"]["alive"] == 2

    def test_every_worker_dead_raises_cluster_error(self):
        fakes = [FakeWorkerClient(url, die_after=0) for url in URLS]
        fleet = self.fleet(fakes)
        with pytest.raises(ClusterError, match="no live worker"):
            self.sweep(fleet, SPEC)

    def test_round_budget_exhaustion_raises_cluster_error(self):
        fakes = [FakeWorkerClient(URLS[0], reject_submits=99)]
        fleet = self.fleet(fakes, max_rounds=3)
        with pytest.raises(ClusterError, match="3 dispatch round"):
            self.sweep(fleet, SPEC)

    def test_deterministic_400_rejection_does_not_mark_worker_dead(self):
        class Rejecting(FakeWorkerClient):
            def submit_async(self, payload):
                error = ServiceError("/jobs failed with HTTP 400: "
                                     "unknown benchmark 'CUSTOM'")
                error.http_status = 400
                raise error

        fakes = [Rejecting(URLS[0])]
        fleet = self.fleet(fakes)
        with pytest.raises(ClusterError, match="rejected the shard"):
            self.sweep(fleet, SPEC)
        # The worker answered; it is not dead, and no healing round was
        # burned pretending it was.
        assert fleet.stats()["topology"]["alive"] == 1

    def test_duplicate_jobs_compile_once_and_merge_as_cache_hits(self):
        job = CompileJob.for_benchmark("RD53", GRID, "square")
        fakes = [FakeWorkerClient(url) for url in URLS]
        sweep = self.sweep(self.fleet(fakes), [job, job, job])
        assert len(sweep) == 3
        assert sum(fake.delivered for fake in fakes) == 1
        assert [entry.cached for entry in sweep] == [False, True, True]
        # Identical to what one serial session reports for the batch.
        serial = Session().run([job, job, job], isolate_failures=True)
        assert [e.cached for e in serial] == [e.cached for e in sweep]
        assert sweep.to_json() == serial.to_json()

    def test_job_failures_are_entries_not_cluster_errors(self):
        impossible = CompileJob.for_benchmark("RD53", MachineSpec.nisq(2),
                                              "square")
        good = CompileJob.for_benchmark("RD53", GRID, "square")
        fakes = [FakeWorkerClient(url) for url in URLS]
        sweep = self.sweep(self.fleet(fakes), [good, impossible])
        assert [entry.ok for entry in sweep] == [True, False]
        serial = Session().run([good, impossible], isolate_failures=True)
        assert sweep.to_json() == serial.to_json()

    def test_empty_work_returns_empty_result(self):
        fakes = [FakeWorkerClient(URLS[0])]
        assert len(self.sweep(self.fleet(fakes), [])) == 0

    def test_on_outcome_exception_propagates_to_caller(self):
        # A bug in the caller's callback is not worker death: it must
        # surface as itself, not burn healing rounds and end in a
        # misleading ClusterError about unfinished jobs.
        fakes = [FakeWorkerClient(url) for url in URLS]
        def broken(job, outcome):
            raise KeyError("typo in callback")
        fleet = self.fleet(fakes, on_outcome=broken)
        with pytest.raises(KeyError, match="typo in callback"):
            self.sweep(fleet, SPEC)
        assert fleet.stats()["topology"]["alive"] == 2

    def test_on_outcome_fires_once_per_unique_job(self):
        job = CompileJob.for_benchmark("RD53", GRID, "square")
        other = CompileJob.for_benchmark("ADDER4", GRID, "square")
        fakes = [FakeWorkerClient(url) for url in URLS]
        arrivals = []
        fleet = self.fleet(fakes, on_outcome=lambda ran, outcome:
                           arrivals.append((ran.program_label,
                                            outcome.program_name)))
        self.sweep(fleet, [job, job, other])
        assert sorted(arrivals) == [("ADDER4", "ADDER4"), ("RD53", "RD53")]

    def test_run_returns_one_outcome_per_job_in_order(self):
        # The executor contract, without a session around it: duplicate
        # jobs go out once but each job gets its own outcome back.
        a = CompileJob.for_benchmark("RD53", GRID, "square")
        b = CompileJob.for_benchmark("ADDER4", GRID, "square")
        impossible = CompileJob.for_benchmark("RD53", MachineSpec.nisq(2),
                                              "square")
        fakes = [FakeWorkerClient(url) for url in URLS]
        fleet = self.fleet(fakes)
        outcomes = fleet.run([a, a, b, impossible])
        assert [type(outcome) for outcome in outcomes] == \
            [CompilationResult, CompilationResult, CompilationResult,
             JobFailure]
        assert [outcome.program_name for outcome in outcomes] == \
            ["RD53", "RD53", "ADDER4", "RD53"]
        assert outcomes[0] is outcomes[1]
        assert sum(fake.delivered for fake in fakes) == 3

    def test_run_of_no_jobs_submits_nothing(self):
        fakes = [FakeWorkerClient(url) for url in URLS]
        assert self.fleet(fakes).run([]) == []
        assert sum(fake.submissions for fake in fakes) == 0

    def test_fresh_session_on_the_same_disk_cache_submits_nothing(
            self, tmp_path):
        # The tiers Session owns now front the fleet too: a second
        # process on the same cache directory is served from disk.
        serial = Session().run(SPEC, isolate_failures=True)
        fakes = [FakeWorkerClient(url) for url in URLS]
        cold = self.sweep(self.fleet(fakes), SPEC, cache_dir=str(tmp_path))
        assert not any(entry.disk_hit for entry in cold)
        submitted = sum(fake.submissions for fake in fakes)
        warm = self.sweep(self.fleet(fakes), SPEC, cache_dir=str(tmp_path))
        assert all(entry.disk_hit for entry in warm)
        assert sum(fake.submissions for fake in fakes) == submitted
        assert warm.to_csv() == serial.to_csv()


class TestTopology:
    def test_urls_normalize_and_dedup(self):
        fake = FakeWorkerClient("http://worker-a:1")
        topology = ClusterTopology(
            ["http://worker-a:1/", "http://worker-a:1"],
            client_factory=lambda url: fake)
        assert len(topology) == 1
        assert topology.get("http://worker-a:1/").client is fake

    def test_probe_marks_dead_and_revives(self):
        fake = FakeWorkerClient(URLS[0])
        topology = ClusterTopology([URLS[0]],
                                   client_factory=lambda url: fake)
        assert [e.url for e in topology.probe_all()] == [URLS[0]]
        fake.dead = True
        assert topology.probe_all() == []
        assert not topology.get(URLS[0]).alive
        fake.dead = False
        assert len(topology.probe_all()) == 1, "recovered workers rejoin"

    def test_needs_at_least_one_endpoint(self):
        with pytest.raises(ClusterError):
            ClusterTopology([])

    def test_unknown_endpoint_lookup(self):
        topology = ClusterTopology([URLS[0]],
                                   client_factory=FakeWorkerClient)
        with pytest.raises(ClusterError):
            topology.get("http://nowhere:1")

    def test_fleet_stats_aggregates_and_flags_unreachable(self):
        fakes = {url: FakeWorkerClient(url) for url in URLS}
        topology = ClusterTopology(list(URLS),
                                   client_factory=fakes.__getitem__)
        job = CompileJob.for_benchmark("RD53", GRID, "square")
        ticket = fakes[URLS[0]].submit_async({"jobs": [job.to_dict()]})
        list(fakes[URLS[0]].iter_entries(ticket))
        stats = topology.fleet_stats()
        assert stats["registered"] == stats["reachable"] == 2
        by_url = {row["url"]: row for row in stats["workers"]}
        assert by_url[URLS[0]]["jobs_run"] == 1
        assert by_url[URLS[1]]["jobs_run"] == 0
        assert stats["fleet"]["jobs_run"] == 1
        assert stats["fleet"]["cache_misses"] == 1
        assert stats["fleet"]["queue_capacity"] == 128
        # A dead worker still gets a row (so the dashboard shows the
        # hole) but contributes nothing to the totals.
        fakes[URLS[1]].dead = True
        partial = topology.fleet_stats()
        assert partial["reachable"] == 1 and partial["registered"] == 2
        down = {row["url"]: row for row in partial["workers"]}[URLS[1]]
        assert down["reachable"] is False and "refused" in down["error"]
        assert partial["fleet"]["queue_capacity"] == 64

    def test_endpoint_stats_carry_weight(self):
        endpoint = WorkerEndpoint(URLS[0], client=object(), weight=2.5)
        assert endpoint.stats()["weight"] == 2.5
        assert WorkerEndpoint(URLS[0], client=object()).weight == 1.0


# ----------------------------------------------------------------------
# Real-HTTP integration: two live servers
# ----------------------------------------------------------------------
def start_cluster(count, tmp_path=None):
    servers, urls = [], []
    for index in range(count):
        cache_dir = str(tmp_path / f"cache-{index}") if tmp_path else None
        server = make_server("127.0.0.1", 0, workers=1,
                             cache_dir=cache_dir)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        urls.append("http://%s:%s" % server.server_address[:2])
    return servers, urls


def stop(server):
    server.shutdown()
    server.server_close()


class TestClusterHTTPIntegration:
    def test_two_server_sweep_is_byte_identical_and_warm_on_rerun(
            self, tmp_path):
        serial = Session().run(SPEC, isolate_failures=True)
        servers, urls = start_cluster(2, tmp_path)
        try:
            fleet = FleetExecutor(urls)
            cold = Session(fleet, isolate_failures=True).run(SPEC)
            assert cold.to_json() == serial.to_json()
            assert cold.to_csv() == serial.to_csv()
            before = fleet.topology.fleet_stats()["fleet"]
            # Same sweep again from a fresh session: fingerprint
            # affinity keeps every job on the server that already
            # cached it, so no worker compiles anything new.
            warm = Session(FleetExecutor(urls),
                           isolate_failures=True).run(SPEC)
            after = fleet.topology.fleet_stats()["fleet"]
            assert after["cache_misses"] == before["cache_misses"]
            assert after["cache_hits"] == before["cache_hits"] + len(SPEC)
            assert warm.to_json() == serial.to_json()
        finally:
            for server in servers:
                stop(server)

    def test_completes_after_one_server_killed_mid_sweep(self, tmp_path):
        spec = SPEC.with_policies("eager", "square-laa")
        serial = Session().run(spec, isolate_failures=True)
        servers, urls = start_cluster(2, tmp_path)
        killed = []

        def kill_second_server(job, outcome):
            if not killed:
                killed.append(True)
                threading.Thread(target=stop, args=(servers[1],),
                                 daemon=True).start()

        try:
            fleet = FleetExecutor(urls, retry_delay=0.05,
                                  on_outcome=kill_second_server)
            sweep = Session(fleet, isolate_failures=True).run(spec)
            assert sweep.to_json() == serial.to_json()
            assert sweep.to_csv() == serial.to_csv()
        finally:
            stop(servers[0])

    def test_cli_cluster_sweep_matches_serial_cli_sweep(self, tmp_path):
        from repro.experiments.__main__ import main

        servers, urls = start_cluster(2)
        cluster_path = tmp_path / "cluster.json"
        serial_path = tmp_path / "serial.json"
        common = ["RD53", "ADDER4", "--policies", "lazy", "square",
                  "--grid", "5", "5", "--scale", "quick"]
        try:
            assert main(["cluster-sweep", *common,
                         "--endpoint", urls[0], "--endpoint", urls[1],
                         "--export", str(cluster_path)]) == 0
        finally:
            for server in servers:
                stop(server)
        assert main(["sweep", *common, "--export", str(serial_path)]) == 0
        assert cluster_path.read_bytes() == serial_path.read_bytes()

    def test_cli_cluster_stats_aggregates_live_fleet(self, capsys):
        from repro.experiments.__main__ import main

        servers, urls = start_cluster(2)
        try:
            ServiceClient(urls[0]).compile("RD53", machine=GRID,
                                           policy="square")
            assert main(["cluster-stats", "--endpoint", urls[0],
                         "--endpoint", urls[1]]) == 0
            out = capsys.readouterr().out
            assert "2/2 worker(s) reachable" in out
            assert "FLEET TOTAL" in out
        finally:
            for server in servers:
                stop(server)
        # The fleet stays inspectable with a hole in it.
        assert main(["cluster-stats", "--endpoint", urls[0]]) == 0
        out = capsys.readouterr().out
        assert "0/1 worker(s) reachable" in out and "DOWN" in out

    def test_cli_validation(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["cluster-sweep", "RD53"])  # no endpoints
        with pytest.raises(SystemExit):
            main(["sweep", "RD53", "--endpoint", "http://x:1"])
        with pytest.raises(SystemExit):
            main(["cluster-sweep", "RD53", "--endpoint", "http://x:1",
                  "--jobs", "4"])

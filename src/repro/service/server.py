"""HTTP compilation service: the `repro.api` Session over a network endpoint.

Pure stdlib (:class:`http.server.ThreadingHTTPServer`), HTTP/1.1 with
persistent connections.  Work flows through one
:class:`~repro.queue.manager.JobManager`: submissions enqueue onto a
bounded priority queue and a :class:`~repro.queue.workers.WorkerPool`
drains it into one shared thread-safe memoizing
:class:`~repro.api.session.Session` (optionally backed by a persistent
:class:`~repro.service.cache.DiskCache`).  A large sweep therefore
occupies one worker while other workers keep serving small requests —
nothing serializes behind a single lock any more.  The one exception is
a ``/compile`` whose job is already in the session's memory tier: the
handler thread answers it at once, with no job record, no queue and no
worker (see :meth:`CompilationService.compile`).  Jobs always run with
failure isolation: a request for an impossible machine comes back as a
structured error entry, never as a dead batch or a dead server.

Endpoints (all JSON):

* ``GET  /health``            — liveness probe.
* ``GET  /stats``             — service/queue/session/cache counters.
* ``GET  /metrics``           — the same snapshot as ``/stats``,
  rendered as Prometheus text exposition (compile-phase histograms,
  queue/worker/cache gauges, per-tenant counters); scrape it.
* ``GET  /trace/<id>``        — every span recorded under one trace id
  (handler, queue wait, worker execution, cache tiers, compile
  phases); the ``trace`` CLI renders the payload as a waterfall and
  :meth:`~repro.cluster.topology.ClusterTopology.fleet_trace` merges
  it across shards.
* ``GET  /registry``          — benchmarks, policies, machine kinds,
  scales.
* ``POST /compile``           — one job descriptor, synchronous: a
  memory hit is answered on the handler thread, anything else is
  submitted and waited for; returns the result payload plus
  ``cached``/``disk_hit`` provenance flags.
* ``POST /sweep``             — sweep descriptor or explicit job list,
  synchronous: per-entry payloads, table rows, cache stats.
* ``POST /jobs``              — asynchronous submission: the same
  ``/compile``/``/sweep`` payload shapes (plus optional ``priority``);
  returns a ticket immediately.  503 + ``BackPressureError`` when the
  queue is full.
* ``GET  /jobs``              — list job records (``?status=QUEUED``
  filters by lifecycle state — ``state=`` is accepted as an alias — and
  ``?limit=N`` keeps only the N most recently submitted records).
* ``GET  /jobs/<id>``         — status; carries the full response
  payload once DONE, the error record once FAILED.  404 for unknown or
  garbage-collected ids.
* ``GET  /jobs/<id>/entries`` — per-entry result stream: long-polls
  (``?since=N&timeout=S``) until entries beyond the ``since`` cursor
  exist or the job is terminal, then returns the slice with the job's
  state; workers publish each sweep entry as it finishes, so clients
  consume results long before the whole batch completes.
* ``POST /jobs/<id>/cancel``  — cancel; only QUEUED jobs cancel (a
  cancelled job never runs), later states are reported back unchanged.

Multi-tenancy (see :mod:`repro.tenancy`): every request may carry an
``X-Repro-Key`` header, resolved against the server's
:class:`~repro.tenancy.tenants.TenantRegistry` (``--tenants`` file, the
``REPRO_TENANTS`` env var, or programmatic).  Keyless requests map to
the registry's default (anonymous) tenant, so pre-tenancy clients keep
working unchanged; an *unknown* key is a 401.  Submissions run under
fair-share scheduling (role weight + age + deadline urgency − decaying
burst score), one tenant at its ``max_queued`` cap gets a 429
(``QuotaExceededError``) while everyone else keeps submitting, and
``/stats`` grows a per-tenant section.  With ``--store-dir`` every job
lifecycle event is journaled to an append-only WAL and replayed on
restart: QUEUED work resumes, orphaned RUNNING jobs requeue, finished
results are served byte-identically.

Tracing: every request may carry an ``X-Repro-Trace`` id (client-minted
by :class:`~repro.service.client.ServiceClient`); invalid or missing
ids are replaced by a server-minted one.  The id is echoed on the
response, attached to the job record (and its journal entry), and
prefixed to verbose log lines, so one client request can be followed
from CLI through queue, server and cluster shards.

Start one from the CLI with ``python -m repro.experiments serve`` or
programmatically with :func:`make_server`.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import (
    AuthError,
    BackPressureError,
    QuotaExceededError,
    ReproError,
    ServiceError,
    UnknownJobError,
)
from repro.api.job import CompileJob, MACHINE_KINDS
from repro.api.session import Session
from repro.api.sweep import SweepEntry, SweepResult, SweepSpec
from repro.core.compiler import POLICY_PRESETS
from repro.queue import DONE, FAILED, JobManager, QueuedJob
from repro.tenancy import (
    AUTH_HEADER,
    DEFAULT_HALF_LIFE,
    FairShareScheduler,
    JobStore,
    JsonlJobStore,
    coerce_registry,
)
from repro.telemetry import (
    LEVELS,
    TRACE_HEADER,
    EventLog,
    JsonlSink,
    MetricsRegistry,
    SpanRecorder,
    coerce_trace_id,
    stderr_sink,
    valid_trace_id,
)
from repro.workloads.registry import SCALES, benchmark_names

#: Default TCP port for the compilation service.
DEFAULT_PORT = 8731

#: Default worker-thread and queue-capacity sizing for the service.
DEFAULT_WORKERS = 2
DEFAULT_QUEUE_SIZE = 64

#: Default and ceiling for the ``/jobs/<id>/entries`` long-poll wait, in
#: seconds.  The ceiling keeps a handler thread from parking forever on
#: a client-supplied timeout.
DEFAULT_ENTRY_POLL_SECONDS = 10.0
MAX_ENTRY_POLL_SECONDS = 30.0

#: Streaming chunk size multiplier for process-parallel sessions: a
#: :class:`~repro.api.executors.ParallelExecutor` spins up a fresh
#: process pool per ``run`` call, so sweeps stream in chunks of
#: ``jobs * PARALLEL_CHUNK_ROUNDS`` to amortize pool startup instead of
#: paying it once per entry.
PARALLEL_CHUNK_ROUNDS = 8

#: Seconds one socket read or write of a request handler may block.  A
#: keep-alive connection idle for longer is closed, so an abandoned one
#: does not pin its handler thread.
IDLE_TIMEOUT_SECONDS = 30.0


class CompilationService:
    """The transport-independent service core: queue + workers + session.

    The session is thread-safe with single-flight deduplication, so the
    worker threads share both cache tiers without duplicate compiles;
    the :class:`~repro.queue.manager.JobManager` provides admission
    control (bounded queue, structured back-pressure), job lifecycle
    tracking and graceful shutdown.  The synchronous endpoints are sugar
    over the asynchronous path: submit, wait, unwrap — except a
    ``/compile`` memory hit, which :meth:`compile` answers at once.

    Args:
        session: Explicit session to serve; defaults to a new one.
        jobs: Worker *process* count for the default session's executor.
        cache_dir: Persistent cache directory for the default session.
        cache_max_bytes: Optional size cap for the default session's
            disk cache; overflow evicts least-recently-used entries.
        workers: Worker *threads* draining the job queue.
        queue_size: Queue capacity; submissions beyond it get a 503.
        retention: Finished job records kept for polling before GC.
        tenants: Tenant registry — a
            :class:`~repro.tenancy.tenants.TenantRegistry`, a config
            mapping, or a path to a registry JSON file; None builds an
            anonymous-only registry (and honors ``REPRO_TENANTS``), so
            keyless clients always work.
        store_dir: Directory for the durable
            :class:`~repro.tenancy.store.JsonlJobStore` job journal;
            None keeps job state in memory only (a no-persistence
            :class:`~repro.tenancy.store.JobStore`).
        burst_half_life: Fair-share burst-score half-life, seconds.
        verify: When True the session runs the static compilation
            verifier over every result; entry records and ``/compile``
            responses carry a ``verification`` report payload and
            ``/stats`` grows verifier counters.  Opt-in because the
            extra pass costs a fraction of compile time on every job.
        clock: Monotonic time source for uptime, fair-share decay and
            the entries/sec EWMA; injectable so frozen-clock tests can
            assert two ``/metrics`` scrapes byte-identical.
    """

    def __init__(self, session: Optional[Session] = None, *, jobs: int = 1,
                 cache_dir: Optional[str] = None,
                 cache_max_bytes: Optional[int] = None,
                 workers: int = DEFAULT_WORKERS,
                 queue_size: int = DEFAULT_QUEUE_SIZE,
                 retention: int = 256,
                 tenants=None, store_dir: Optional[str] = None,
                 burst_half_life: float = DEFAULT_HALF_LIFE,
                 verify: bool = False,
                 log_path: Optional[str] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if session is None:
            if cache_dir is not None:
                from repro.service.cache import DiskCache

                disk_cache = DiskCache(cache_dir,
                                       max_bytes=cache_max_bytes)
                session = Session(jobs=jobs, disk_cache=disk_cache,
                                  verify=verify)
            else:
                session = Session(jobs=jobs, verify=verify)
        elif verify:
            session.verify = True
        self.session = session
        self.metrics = MetricsRegistry()
        # Per-service span ring buffer (not process-global): in-process
        # multi-server tests must never see each other's traces.
        self.spans = SpanRecorder()
        # Per-service event log for the same reason; sinks (stderr,
        # JSONL file) are attached by make_server / the CLI.
        self.events = EventLog()
        self._log_sink = JsonlSink(log_path) if log_path else None
        if self._log_sink is not None:
            self.events.add_sink(self._log_sink)
        if getattr(session, "metrics", None) is None:
            # The session observes compile-phase histograms straight
            # into the service registry; /metrics serves them live.
            session.metrics = self.metrics
        if getattr(session, "events", None) is None:
            # Cache-tier and verifier events narrate into the service
            # log, correlated through the worker's job.run span.
            session.events = self.events
        self.clock = clock
        self.tenants = coerce_registry(tenants)
        self.scheduler = FairShareScheduler(half_life=burst_half_life,
                                            clock=clock)
        self.store = JsonlJobStore(store_dir) if store_dir else JobStore()
        self.manager = JobManager(self._run_job, workers=workers,
                                  queue_size=queue_size,
                                  retention=retention, name="repro-service",
                                  scheduler=self.scheduler, store=self.store,
                                  events=self.events,
                                  clock=clock)
        self._counters = threading.Lock()
        # Monotonic: uptime must survive wall-clock jumps (NTP, DST).
        self.started_at = clock()
        self.requests = 0
        self.jobs_run = 0
        self.job_failures = 0

    def close(self, drain: bool = False, hard: bool = False) -> None:
        """Shut the queue and worker pool down (idempotent).

        ``hard=True`` simulates a crash instead (test/demo seam): the
        job journal freezes first and nothing is drained, cancelled or
        joined — see :meth:`~repro.queue.manager.JobManager.crash`.
        """
        if hard:
            self.manager.crash()
        else:
            self.manager.close(drain=drain)
        if self._log_sink is not None:
            self._log_sink.close()

    # ------------------------------------------------------------------
    # Authentication
    # ------------------------------------------------------------------
    def authenticate(self, api_key: Optional[str]):
        """Resolve an ``X-Repro-Key`` header value to a Tenant.

        A missing/empty key resolves to the registry's default
        (anonymous) tenant; an unknown key raises
        :class:`~repro.exceptions.AuthError` (401 on the wire).
        """
        try:
            return self.tenants.resolve(api_key)
        except AuthError:
            self.events.warning("auth rejected: unknown api key",
                                component="tenancy")
            raise

    # ------------------------------------------------------------------
    # Request admission: validation + classification
    # ------------------------------------------------------------------
    def _count_request(self) -> None:
        with self._counters:
            self.requests += 1

    @staticmethod
    def _parse_submission(payload: Mapping[str, object],
                          kind: Optional[str] = None
                          ) -> Tuple[str, Dict[str, object], int,
                                     Optional[float], Optional[CompileJob]]:
        """Validate a submission payload; returns
        ``(kind, work, priority, deadline_seconds, job)``, ``job`` being
        the parsed :class:`CompileJob` of a compile submission (None for
        a sweep).

        Descriptors are fully parsed here so malformed requests fail
        fast with a 400 at submission time — never later inside a
        worker.  The *raw* descriptor dict is what travels through the
        queue (JSON-compatible end to end); workers re-parse it.
        """
        priority = payload.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise ServiceError(f"'priority' must be an integer, "
                               f"got {priority!r}")
        deadline = payload.get("deadline_seconds")
        if deadline is not None:
            if isinstance(deadline, bool) \
                    or not isinstance(deadline, (int, float)) \
                    or not deadline > 0:
                raise ServiceError(f"'deadline_seconds' must be a positive "
                                   f"number, got {deadline!r}")
            deadline = float(deadline)
        declared = payload.get("kind")
        job = None
        if declared is not None and declared not in ("compile", "sweep"):
            raise ServiceError(f"unknown job kind {declared!r}; "
                               f"expected 'compile' or 'sweep'")

        if "jobs" in payload:
            descriptors = payload["jobs"]
            if not isinstance(descriptors, list):
                raise ServiceError("'jobs' must be a list of job descriptors")
            for descriptor in descriptors:
                if not isinstance(descriptor, Mapping):
                    raise ServiceError("every entry in 'jobs' must be a "
                                       "job descriptor object")
                CompileJob.from_dict(descriptor)
            inferred, work = "sweep", {"jobs": list(descriptors)}
        elif "spec" in payload:
            spec = payload["spec"]
            if not isinstance(spec, Mapping):
                raise ServiceError("'spec' must be a sweep descriptor object")
            SweepSpec.from_dict(spec)
            inferred, work = "sweep", {"spec": dict(spec)}
        else:
            descriptor = payload.get("job", payload)
            if not isinstance(descriptor, Mapping):
                raise ServiceError("'job' must be a job descriptor object")
            descriptor = {key: value for key, value in descriptor.items()
                          if key not in ("kind", "priority",
                                         "deadline_seconds")}
            job = CompileJob.from_dict(descriptor)
            inferred, work = "compile", {"job": descriptor}
        if declared is not None and declared != inferred:
            raise ServiceError(
                f"payload shape says kind={inferred!r} but the request "
                f"declared kind={declared!r}")
        return inferred, work, priority, deadline, job

    # ------------------------------------------------------------------
    # Worker side: executing queued payloads against the session
    # ------------------------------------------------------------------
    def _run_job(self, queued: QueuedJob) -> Dict[str, object]:
        """Worker entry point: record queue wait, then dispatch by kind.

        Runs on a worker thread, so the submitting handler's span (if
        any) is linked through the ``span_parent`` id stamped on the job
        at submission — contextvars do not cross the queue.  The queue
        wait itself is reconstructed here as a pre-finished span (the
        job was not *doing* anything, so there was nothing to close) and
        observed into the ``repro_queue_wait_seconds`` histogram at
        event time.
        """
        trace = coerce_trace_id(queued.trace_id)
        parent = queued.span_parent
        wait = queued.wait_seconds
        if wait is not None:
            self.metrics.histogram(
                "repro_queue_wait_seconds",
                "Seconds between enqueue and worker pickup.").observe(wait)
            self.spans.add("queue.wait", trace_id=trace, parent_id=parent,
                           start_mono=time.perf_counter() - wait,
                           duration=wait,
                           labels={"job_id": queued.job_id})
        tenant = queued.tenant
        labels = {"job_id": queued.job_id, "kind": queued.kind}
        if tenant is not None:
            labels["tenant"] = tenant.name
        with self.spans.span("job.run", trace_id=trace, parent_id=parent,
                             labels=labels):
            # trace/span/tenant/job correlation rides the active span.
            self.events.info("worker picked up job", component="worker",
                             fields={"kind": queued.kind,
                                     "wait_seconds": round(wait or 0.0, 6)})
            if queued.kind == "compile":
                return self._execute_compile(queued)
            if queued.kind == "sweep":
                return self._execute_sweep(queued)
            raise ServiceError(f"unknown job kind {queued.kind!r}")

    def _execute_compile(self, queued: QueuedJob) -> Dict[str, object]:
        job = CompileJob.from_dict(queued.payload["job"])
        entry = self.session.run([job], isolate_failures=True)[0]
        response = self._compile_response(job.fingerprint(), entry)
        self.manager.record_entry(queued, entry.to_record())
        return response

    def _compile_response(self, fingerprint: str,
                          entry: SweepEntry) -> Dict[str, object]:
        """Count one executed compile job and build its ``/compile`` reply.

        The one builder for queued jobs and inline memory hits, so the
        two replies are byte-identical.
        """
        with self._counters:
            self.jobs_run += 1
            if not entry.ok:
                self.job_failures += 1
        response: Dict[str, object] = {
            "ok": entry.ok,
            "fingerprint": fingerprint,
            "cached": entry.cached,
            "disk_hit": entry.disk_hit,
        }
        if entry.ok:
            response["result"] = entry.result.to_dict()
            response["row"] = entry.row()
            if entry.verification is not None:
                response["verification"] = entry.verification.to_dict()
        else:
            response["error"] = entry.error.to_dict()
        return response

    def _execute_sweep(self, queued: QueuedJob) -> Dict[str, object]:
        """Execute a sweep incrementally, streaming per-entry records.

        Jobs run through the session in chunks — one at a time under the
        default serial executor, ``jobs * PARALLEL_CHUNK_ROUNDS`` under
        a process-parallel executor (which pays pool startup per ``run``
        call) — and every finished entry is published on the queued
        job's entry stream immediately, so ``GET /jobs/<id>/entries``
        long-pollers see results while later chunks are still
        compiling.  Session memoization makes the chunked execution
        equivalent to one batch: in-sweep duplicates still compile
        once, and cached/disk-hit provenance flags come out identical.
        """
        payload = queued.payload
        if "jobs" in payload:
            work = [CompileJob.from_dict(descriptor)
                    for descriptor in payload["jobs"]]
        else:
            work = SweepSpec.from_dict(payload["spec"]).jobs()
        width = max(1, getattr(self.session.executor, "jobs", 1))
        chunk = width if width == 1 else width * PARALLEL_CHUNK_ROUNDS
        entries = []
        records: List[Dict[str, object]] = []
        for start in range(0, len(work), chunk):
            batch = self.session.run(work[start:start + chunk],
                                     isolate_failures=True)
            for entry in batch:
                entries.append(entry)
                record = entry.to_record()
                records.append(record)
                self.manager.record_entry(queued, record)
        sweep = SweepResult(entries)
        with self._counters:
            self.jobs_run += len(sweep)
            self.job_failures += len(sweep.failures())
        return {
            "ok": sweep.ok,
            "count": len(sweep),
            "cache_hits": sweep.cache_hits,
            "disk_hits": sum(1 for entry in sweep if entry.disk_hit),
            "entries": records,
            "rows": sweep.rows(),
        }

    # ------------------------------------------------------------------
    # Synchronous endpoints (submit + wait over the async path)
    # ------------------------------------------------------------------
    def _submit_and_wait(self, kind: str, work: Dict[str, object],
                         priority: int, tenant=None,
                         deadline: Optional[float] = None,
                         trace_id: Optional[str] = None
                         ) -> Dict[str, object]:
        ticket = self.manager.submit(kind, work, priority=priority,
                                     tenant=tenant,
                                     deadline_seconds=deadline,
                                     trace_id=trace_id)
        ticket.wait()
        if ticket.state == DONE:
            return ticket.response
        if ticket.state == FAILED:
            raise self.manager.failure_exception(ticket)
        raise ServiceError(
            f"job {ticket.job_id} was cancelled before completing "
            f"(service shutting down?)")

    def compile(self, payload: Mapping[str, object],
                tenant=None, trace_id: Optional[str] = None
                ) -> Dict[str, object]:
        """Run one job descriptor synchronously; job-level failures ride
        inside the 200 response as structured error entries.

        Accepts either a bare :meth:`~repro.api.job.CompileJob.from_dict`
        descriptor or ``{"job": {...}}``.

        A job already in the session's memory tier is answered on the
        calling thread (:meth:`~repro.api.session.Session.recall`): it
        creates no job record, is not journaled, is not charged to the
        tenant's fair-share burst and cannot be refused with a 429 or
        503.  It counts in ``jobs_run`` and the session's cache hits
        like a queued hit.  A miss or a disk hit is submitted and
        waited for.
        """
        self._count_request()
        kind, work, priority, deadline, job = self._parse_submission(payload)
        if kind != "compile":
            raise ServiceError("/compile takes a single job descriptor; "
                               "POST sweeps to /sweep or /jobs")
        fingerprint = job.fingerprint()
        entry = self.session.recall(job, fingerprint)
        if entry is not None:
            return self._compile_response(fingerprint, entry)
        return self._submit_and_wait(kind, work, priority,
                                     tenant=tenant, deadline=deadline,
                                     trace_id=trace_id)

    def sweep(self, payload: Mapping[str, object],
              tenant=None, trace_id: Optional[str] = None
              ) -> Dict[str, object]:
        """Run a sweep descriptor or explicit job list synchronously."""
        self._count_request()
        if "jobs" not in payload and "spec" not in payload:
            payload = {"spec": payload.get("spec", payload)}
        kind, work, priority, deadline, _ = self._parse_submission(payload)
        return self._submit_and_wait(kind, work, priority,
                                     tenant=tenant, deadline=deadline,
                                     trace_id=trace_id)

    # ------------------------------------------------------------------
    # Asynchronous endpoints
    # ------------------------------------------------------------------
    def submit_job(self, payload: Mapping[str, object],
                   tenant=None, trace_id: Optional[str] = None
                   ) -> Dict[str, object]:
        """``POST /jobs``: validate, enqueue, return the ticket at once."""
        self._count_request()
        kind, work, priority, deadline, _ = self._parse_submission(payload)
        ticket = self.manager.submit(kind, work, priority=priority,
                                     tenant=tenant,
                                     deadline_seconds=deadline,
                                     trace_id=trace_id)
        return {
            "ok": True,
            "job_id": ticket.job_id,
            "kind": ticket.kind,
            "state": ticket.state,
            "priority": ticket.priority,
            "tenant": ticket.tenant.name if ticket.tenant else None,
            "trace_id": ticket.trace_id,
            "queue_depth": len(self.manager.queue),
        }

    def job_status(self, job_id: str) -> Dict[str, object]:
        """``GET /jobs/<id>``: lifecycle record, result inline once DONE."""
        self._count_request()
        return self.manager.status(job_id)

    def job_entries(self, job_id: str, since: int = 0,
                    timeout: Optional[float] = None) -> Dict[str, object]:
        """``GET /jobs/<id>/entries``: long-poll the per-entry stream.

        Blocks up to ``timeout`` seconds (default
        :data:`DEFAULT_ENTRY_POLL_SECONDS`, capped at
        :data:`MAX_ENTRY_POLL_SECONDS`) for entries beyond the ``since``
        cursor; a terminal ``state`` in the response means the returned
        slice completes the stream.
        """
        self._count_request()
        if timeout is None:
            timeout = DEFAULT_ENTRY_POLL_SECONDS
        timeout = max(0.0, min(timeout, MAX_ENTRY_POLL_SECONDS))
        return self.manager.entries_since(job_id, since=since,
                                          timeout=timeout)

    def list_jobs(self, state: Optional[str] = None,
                  limit: Optional[int] = None) -> Dict[str, object]:
        """``GET /jobs[?status=...&limit=N]``: compact job listing."""
        self._count_request()
        records = self.manager.jobs(state=state, limit=limit)
        return {
            "count": len(records),
            "jobs": [{
                "job_id": job.job_id,
                "kind": job.kind,
                "state": job.state,
                "priority": job.priority,
                "tenant": job.tenant.name if job.tenant else None,
                "submitted_at": job.submitted_at,
            } for job in records],
        }

    def cancel_job(self, job_id: str) -> Dict[str, object]:
        """``POST /jobs/<id>/cancel``: cancel a QUEUED job."""
        self._count_request()
        job, cancelled = self.manager.cancel(job_id)
        return {"ok": True, "job_id": job.job_id, "cancelled": cancelled,
                "state": job.state}

    # ------------------------------------------------------------------
    # Introspection endpoints
    # ------------------------------------------------------------------
    def _collect(self) -> Dict[str, object]:
        """One stats snapshot — the single source for ``/stats`` *and*
        ``/metrics``, so the two surfaces can never disagree about what
        the service looked like at collection time."""
        manager = self.manager.stats()
        with self._counters:
            service = {
                "uptime_seconds": self.clock() - self.started_at,
                "requests": self.requests,
                "jobs_run": self.jobs_run,
                "job_failures": self.job_failures,
                "verify_enabled": self.session.verify,
                "queue_depth": manager["queue"]["depth"],
                "queue_capacity": manager["queue"]["capacity"],
                "workers": manager["pool"]["workers"],
                "busy_workers": manager["pool"]["busy"],
                "worker_utilization": manager["pool"]["utilization"],
            }
        return {
            "service": service,
            "queue": manager,
            "session": self.session.stats(),
            "tenants": self._tenant_stats(manager),
            "events": self.events.stats(),
        }

    def stats(self) -> Dict[str, object]:
        """Telemetry snapshot: service + queue/worker + session stats."""
        self._count_request()
        return self._collect()

    def metrics_text(self) -> str:
        """``GET /metrics``: Prometheus text exposition of the registry.

        Samples the authoritative counters (the same :meth:`_collect`
        snapshot ``/stats`` serves) into the registry, then renders it
        together with the live compile-phase histograms the session
        observes directly.  Scrapes are deliberately *not* counted as
        service requests: a scrape must not perturb what it measures,
        which is also what makes two frozen-clock scrapes byte-identical.
        """
        snapshot = self._collect()
        self._sample_metrics(snapshot)
        return self.metrics.render()

    def _sample_metrics(self, snapshot: Mapping[str, object]) -> None:
        """Project one stats snapshot onto the metrics registry.

        Counters are *sampled* (``Counter.set`` clamps monotonically)
        rather than incremented at every site, so the manager/queue/
        session counters stay authoritative and the registry can never
        drift from what ``/stats`` reports.
        """
        service = snapshot["service"]
        manager = snapshot["queue"]
        session = snapshot["session"]
        queue = manager["queue"]
        counter, gauge = self.metrics.counter, self.metrics.gauge

        gauge("repro_uptime_seconds",
              "Service uptime (monotonic clock).").set(
            service["uptime_seconds"])
        counter("repro_requests_total",
                "HTTP requests served (scrapes excluded).").set(
            service["requests"])
        counter("repro_jobs_run_total",
                "Compile jobs executed by the workers.").set(
            service["jobs_run"])
        counter("repro_job_failures_total",
                "Compile jobs that ended in a structured failure.").set(
            service["job_failures"])

        gauge("repro_queue_depth", "Jobs waiting in the queue.").set(
            queue["depth"])
        gauge("repro_queue_capacity",
              "Queue back-pressure threshold.").set(queue["capacity"])
        counter("repro_queue_pushed_total",
                "Jobs accepted onto the queue.").set(queue["pushed"])
        counter("repro_queue_rejected_total",
                "Submissions rejected by global back-pressure.").set(
            queue["rejected"])
        counter("repro_queue_quota_rejected_total",
                "Submissions rejected by per-tenant quotas.").set(
            queue["quota_rejected"])
        gauge("repro_workers", "Worker threads draining the queue.").set(
            service["workers"])
        gauge("repro_workers_busy",
              "Worker threads currently running a job.").set(
            service["busy_workers"])

        counter("repro_jobs_submitted_total",
                "Jobs registered by the manager.").set(manager["submitted"])
        counter("repro_jobs_completed_total",
                "Jobs that reached DONE.").set(manager["completed"])
        counter("repro_jobs_failed_total",
                "Jobs that reached FAILED.").set(manager["failed"])
        counter("repro_jobs_cancelled_total",
                "Jobs that reached CANCELLED.").set(manager["cancelled"])
        counter("repro_entries_recorded_total",
                "Per-entry sweep records streamed to clients.").set(
            manager["entries_recorded"])
        gauge("repro_entries_per_second",
              "Half-life-decayed EWMA of entry completion rate.").set(
            manager["entries_per_second"])

        hits = counter("repro_cache_hits_total",
                       "Result-cache hits by tier.", labelnames=("tier",))
        misses = counter("repro_cache_misses_total",
                         "Result-cache misses by tier.",
                         labelnames=("tier",))
        entries = gauge("repro_cache_entries",
                        "Result-cache entries by tier.",
                        labelnames=("tier",))
        hits.labels(tier="memory").set(session["cache_hits"])
        misses.labels(tier="memory").set(session["cache_misses"])
        entries.labels(tier="memory").set(session["cache_size"])
        disk = session.get("disk_cache")
        if disk:
            hits.labels(tier="disk").set(disk["hits"])
            misses.labels(tier="disk").set(disk["misses"])
            entries.labels(tier="disk").set(disk["size"])
            gauge("repro_cache_bytes", "Result-cache bytes by tier.",
                  labelnames=("tier",)).labels(tier="disk").set(
                disk["bytes"])
            counter("repro_cache_evictions_total",
                    "Cache entries evicted by the size cap.",
                    labelnames=("tier",)).labels(tier="disk").set(
                disk["evictions"])
            counter("repro_cache_orphans_removed_total",
                    "Orphaned cache files removed by gc.",
                    labelnames=("tier",)).labels(tier="disk").set(
                disk["orphans_removed"])

        events = snapshot.get("events")
        if events:
            per_level = counter("repro_log_events_total",
                                "Structured log events recorded, by level.",
                                labelnames=("level",))
            for level in LEVELS:
                per_level.labels(level=level).set(
                    events["by_level"].get(level, 0))
            counter("repro_log_events_dropped_total",
                    "Structured log events evicted from the ring.").set(
                events["dropped"])

        verify = session.get("verify")
        if verify:
            counter("repro_verify_results_total",
                    "Results checked by the static verifier.").set(
                verify["verified_results"])
            counter("repro_verify_findings_total",
                    "Findings raised by the static verifier.").set(
                verify["findings"])

        tenant_families = {
            key: counter(f"repro_tenant_{key}_total",
                         f"Jobs {key} per tenant.", labelnames=("tenant",))
            for key in ("submitted", "completed", "failed", "cancelled",
                        "rejected")}
        queued = gauge("repro_tenant_queued",
                       "Jobs waiting in the queue per tenant.",
                       labelnames=("tenant",))
        burst = gauge("repro_tenant_burst_score",
                      "Decayed fair-share burst score per tenant.",
                      labelnames=("tenant",))
        for name, bucket in snapshot["tenants"].items():
            for key, family in tenant_families.items():
                if key in bucket:
                    family.labels(tenant=name).set(bucket[key])
            queued.labels(tenant=name).set(bucket.get("queued", 0))
            if "burst_score" in bucket:
                burst.labels(tenant=name).set(bucket["burst_score"])

    @staticmethod
    def _tenant_stats(manager: Dict[str, object]) -> Dict[str, object]:
        """Per-tenant ``/stats`` section: lifecycle counters joined with
        the live queue depth and current (decayed) burst score."""
        tenants: Dict[str, Dict[str, object]] = {
            name: dict(counters)
            for name, counters in manager.get("tenants", {}).items()}
        for name, depth in manager["queue"].get("tenant_depths",
                                                {}).items():
            tenants.setdefault(name, {})["queued"] = depth
        for name, score in manager["fair_share"]["burst_scores"].items():
            tenants.setdefault(name, {})["burst_score"] = score
        return tenants

    def trace(self, trace_id: str) -> Dict[str, object]:
        """``GET /trace/<id>``: every recorded span of one trace.

        Spans come back deterministically ordered (start, name,
        span_id) in their ``to_dict`` wire form; the ``trace`` CLI
        renders them as a waterfall and the cluster topology merges
        payloads from every shard of a fan-out (same trace id, disjoint
        span ids).  An unknown-but-valid id returns an empty list — the
        ring buffer may simply have evicted it.
        """
        self._count_request()
        if not valid_trace_id(trace_id):
            raise ServiceError(f"invalid trace id {trace_id!r}")
        spans = self.spans.for_trace(trace_id)
        return {"trace_id": trace_id, "count": len(spans),
                "spans": [span.to_dict() for span in spans]}

    def logs(self, *, trace: Optional[str] = None,
             tenant: Optional[str] = None,
             level: Optional[str] = None,
             since: Optional[float] = None,
             limit: Optional[int] = None) -> Dict[str, object]:
        """``GET /logs``: filtered structured events from the ring.

        Filters compose (AND): ``trace=`` an exact trace id, ``tenant=``
        an exact tenant name, ``level=`` a *minimum* severity, ``since=``
        a wall-clock lower bound (exclusive), ``limit=`` keeps the
        newest N matches.  Events come back deterministically ordered by
        ``(ts, event_id)`` in their ``to_dict`` wire form; the cluster
        topology merges payloads from every shard, deduping on
        ``(worker, event_id)``.
        """
        self._count_request()
        if trace is not None and not valid_trace_id(trace):
            raise ServiceError(f"invalid trace id {trace!r}")
        if level is not None and str(level).upper() not in LEVELS:
            raise ServiceError(f"unknown log level {level!r}; "
                               f"expected one of {list(LEVELS)}")
        if limit is not None and limit < 0:
            raise ServiceError(f"limit must be >= 0, got {limit}")
        events = self.events.events(trace=trace, tenant=tenant,
                                    level=level, since=since, limit=limit)
        return {"count": len(events),
                "events": [event.to_dict() for event in events]}

    def registry(self) -> Dict[str, object]:
        """What the service can compile: benchmarks, policies, machines."""
        self._count_request()
        return {
            "benchmarks": list(benchmark_names()),
            "policies": sorted(POLICY_PRESETS),
            "machine_kinds": list(MACHINE_KINDS),
            "scales": list(SCALES),
        }

    def health(self) -> Dict[str, object]:
        """Liveness payload (includes worker liveness for probes)."""
        self._count_request()
        return {"status": "ok",
                "uptime_seconds": self.clock() - self.started_at,
                "workers_alive": self.manager.pool.alive}


class ServiceHTTPHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the owning server's :class:`CompilationService`.

    Error mapping: malformed requests (bad JSON, bad descriptors, unknown
    benchmarks/policies — any :class:`~repro.exceptions.ReproError`) are
    400s; an unknown ``X-Repro-Key`` 401; unknown paths and job ids 404;
    a tenant at its queued-job quota 429 (with ``tenant``/``depth``/
    ``capacity`` in the error record); a full queue 503 (with ``depth``/
    ``capacity``); unexpected exceptions 500.  Job failures are *not*
    HTTP errors — they ride inside 200 responses as structured entries.
    """

    server_version = "ReproCompilationService/2.0"
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_SECONDS
    # With Nagle on, a reply written in two parts (headers, then body)
    # would wait ~40 ms for the client's delayed ACK before its second
    # part left.  ``_send_body`` writes one part; this covers the rest.
    disable_nagle_algorithm = True

    _KNOWN = ["GET /health", "GET /stats", "GET /metrics", "GET /registry",
              "GET /trace/<id>", "GET /logs",
              "GET /jobs", "GET /jobs/<id>", "GET /jobs/<id>/entries",
              "POST /compile", "POST /sweep", "POST /jobs",
              "POST /jobs/<id>/cancel"]

    #: Prometheus text exposition content type (``GET /metrics``).
    _METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

    #: The request's coerced trace id (set per request in ``_route``).
    _trace_id: Optional[str] = None

    #: True while handling an observability read (no access-log event).
    _quiet: bool = False

    #: The request's body, read in ``_route`` before any reply; None
    #: when its declared extent is unknown.
    _body: Optional[bytes] = b""

    @staticmethod
    def _query_int(params: Dict[str, List[str]], name: str):
        """Parse an optional integer query parameter (400 on junk)."""
        raw = params.get(name, [None])[0]
        if raw is None:
            return None
        try:
            return int(raw)
        except ValueError:
            raise ServiceError(
                f"query parameter {name}={raw!r} is not an integer")

    @staticmethod
    def _query_float(params: Dict[str, List[str]], name: str):
        """Parse an optional float query parameter (400 on junk)."""
        raw = params.get(name, [None])[0]
        if raw is None:
            return None
        try:
            return float(raw)
        except ValueError:
            raise ServiceError(
                f"query parameter {name}={raw!r} is not a number")

    # ------------------------------------------------------------------
    def _send_body(self, status: int, body: bytes,
                   content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._trace_id:
            # Echo the (possibly server-minted) trace id, so a client
            # that sent none learns the id its job records carry.
            self.send_header(TRACE_HEADER, self._trace_id)
        # end_headers() would send the header block on its own; status,
        # headers and body leave in one write instead.
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _send_json(self, status: int, payload: Mapping[str, object]) -> None:
        self._send_body(status, json.dumps(payload).encode("utf-8"),
                        "application/json")

    def _send_text(self, status: int, text: str) -> None:
        self._send_body(status, text.encode("utf-8"),
                        self._METRICS_CONTENT_TYPE)

    def _send_error_json(self, status: int, error: Exception) -> None:
        record: Dict[str, object] = {
            "type": type(error).__name__, "message": str(error),
        }
        if isinstance(error, BackPressureError):
            record["depth"] = error.depth
            record["capacity"] = error.capacity
        if isinstance(error, QuotaExceededError):
            record["tenant"] = error.tenant
        self._send_json(status, {"ok": False, "error": record})

    def _read_body(self) -> Optional[bytes]:
        """Consume the request's declared body, whatever the reply.

        Every request reads its body here, before routing, so a reply
        that never looks at it (401, 404, cancel) leaves the connection
        at the next request.  A body of unknown extent (an invalid
        ``Content-Length``, or chunked) cannot be skipped: the
        connection closes after the reply and None is returned.
        """
        header = self.headers.get("Content-Length")
        if header is None:
            if self.headers.get("Transfer-Encoding"):
                self.close_connection = True
            return b""
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            return None
        return self.rfile.read(length) if length else b""

    def _read_payload(self) -> Mapping[str, object]:
        body = self._body
        if body is None:
            raise ServiceError(f"invalid Content-Length "
                               f"{self.headers.get('Content-Length')!r}")
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except ValueError as error:
            raise ServiceError(f"request body is not valid JSON: {error}")
        if not isinstance(payload, Mapping):
            raise ServiceError("request body must be a JSON object")
        return payload

    # ------------------------------------------------------------------
    def _resolve(self, method: str, path: str, query: str, tenant):
        """Map (method, path) to a zero-argument service call.

        ``tenant`` is the already-authenticated request principal; only
        the submission endpoints consume it (reads are tenant-blind).
        A call returning a string is sent as Prometheus text exposition
        instead of JSON (the ``/metrics`` surface).
        """
        service: CompilationService = self.server.service
        trace = self._trace_id
        parts = [part for part in path.split("/") if part]
        if method == "GET":
            if path == "/health":
                return service.health
            if path == "/stats":
                return service.stats
            if path == "/metrics":
                return service.metrics_text
            if path == "/registry":
                return service.registry
            if path == "/jobs":
                params = urllib.parse.parse_qs(query)
                # ``status`` is the documented filter name; ``state`` is
                # kept as an alias for older clients.
                state = params.get("status", params.get("state", [None]))[0]
                return lambda: service.list_jobs(
                    state=state, limit=self._query_int(params, "limit"))
            if path == "/logs":
                params = urllib.parse.parse_qs(query)
                return lambda: service.logs(
                    trace=params.get("trace", [None])[0],
                    tenant=params.get("tenant", [None])[0],
                    level=params.get("level", [None])[0],
                    since=self._query_float(params, "since"),
                    limit=self._query_int(params, "limit"))
            if len(parts) == 2 and parts[0] == "trace":
                return lambda: service.trace(parts[1])
            if len(parts) == 2 and parts[0] == "jobs":
                return lambda: service.job_status(parts[1])
            if len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "entries":
                params = urllib.parse.parse_qs(query)
                return lambda: service.job_entries(
                    parts[1],
                    since=self._query_int(params, "since") or 0,
                    timeout=self._query_float(params, "timeout"))
        else:
            if path == "/compile":
                return lambda: service.compile(self._read_payload(), tenant,
                                               trace_id=trace)
            if path == "/sweep":
                return lambda: service.sweep(self._read_payload(), tenant,
                                             trace_id=trace)
            if path == "/jobs":
                return lambda: service.submit_job(self._read_payload(),
                                                  tenant, trace_id=trace)
            if len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "cancel":
                return lambda: service.cancel_job(parts[1])
        return None

    def _route(self, method: str) -> None:
        path, _, query = self.path.partition("?")
        # Valid inbound trace ids propagate; anything else (including
        # absence) gets a fresh server-minted id, so every job record
        # and verbose log line carries one.
        self._trace_id = coerce_trace_id(self.headers.get(TRACE_HEADER))
        # Observability reads must not perturb what they observe: no
        # access-log event for scrapes/log fetches (the same reason
        # they are not counted as requests).
        self._quiet = path in ("/metrics", "/logs")
        self._body = self._read_body()
        try:
            service: CompilationService = self.server.service
            tenant = service.authenticate(self.headers.get(AUTH_HEADER))
            call = self._resolve(method, path, query, tenant)
            if call is None:
                self._send_error_json(404, ServiceError(
                    f"unknown endpoint {method} {path!r}; "
                    f"available: {self._KNOWN}"))
                return
            if method == "POST":
                # Submissions get a handler span: the queue worker
                # links its spans back to it through the job's
                # ``span_parent`` id.  GET traffic (status polls,
                # scrapes, trace fetches) stays span-free so a sweep's
                # waterfall is not buried under its own polling.
                with service.spans.span("server.handle",
                                        trace_id=self._trace_id,
                                        labels={"method": method,
                                                "path": path}):
                    response = call()
            else:
                response = call()
        except AuthError as error:
            self._send_error_json(401, error)
        except QuotaExceededError as error:
            self._send_error_json(429, error)
        except BackPressureError as error:
            self._send_error_json(503, error)
        except UnknownJobError as error:
            self._event(404, method, path, error)
            self._send_error_json(404, error)
        except ReproError as error:
            self._event(400, method, path, error)
            self._send_error_json(400, error)
        except Exception as error:  # pragma: no cover - defensive 500
            self._event(500, method, path, error)
            self._send_error_json(500, error)
        else:
            if isinstance(response, str):
                self._send_text(200, response)
            else:
                self._send_json(200, response)

    def _event(self, status: int, method: str, path: str,
               error: Exception) -> None:
        """Narrate a request failure into the service event log.

        401/429/503 are *not* emitted here — their sources (tenancy
        auth, quota shed, queue back-pressure) already emit richer
        structured events; double-logging them would skew the counts.
        """
        service = getattr(self.server, "service", None)
        if service is None:
            return
        service.events.warning(
            f"request failed: {type(error).__name__}: {error}",
            component="server", trace_id=self._trace_id,
            fields={"method": method, "path": path, "status": status})

    # ------------------------------------------------------------------
    def parse_request(self) -> bool:
        self.server.request_started(self.connection)
        return super().parse_request()

    def handle_one_request(self) -> None:
        super().handle_one_request()
        if not self.server.request_finished(self.connection):
            self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._route("POST")

    def log_message(self, format: str, *args) -> None:
        """The classic http.server access line, as a structured event.

        Every line lands in the service event log carrying the
        request's trace id (and tenant/job ids when a span is active);
        the human-readable stderr form is produced by the
        :func:`~repro.telemetry.events.stderr_sink` that ``make_server``
        attaches for verbose servers — so ``serve --verbose`` output
        looks like before, but now greps by ``trace=``.
        """
        service = getattr(self.server, "service", None)
        if service is None:  # pragma: no cover - bare handler use
            if getattr(self.server, "verbose", False):
                BaseHTTPRequestHandler.log_message(self, format, *args)
            return
        if getattr(self, "_quiet", False):
            return
        service.events.debug(format % args, component="http",
                             trace_id=self._trace_id,
                             fields={"client": self.address_string()})


class CompilationHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server that owns a :class:`CompilationService`.

    Connections persist, so stopping must reach them too: from the
    moment ``shutdown()`` is called no new request is served, as when
    every request came on a new connection.  Idle connections are shut
    down at once, a busy one closes after its current reply, and a new
    one is closed on accept.  ``server_close`` does the same and then
    closes the service's worker pool, so the ``shutdown()`` +
    ``server_close()`` idiom used by tests and the CLI leaks no handler
    or worker threads and strands no queued jobs.
    """

    service: CompilationService

    def __init__(self, *args, **kwargs) -> None:
        # Open client connections -> True while one waits for a request.
        self._connections: Dict[socket.socket, bool] = {}
        self._connections_lock = threading.Lock()
        self._stopping = False
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        # Registered before the handler thread starts, so a stop racing
        # the accept still reaches the connection.
        with self._connections_lock:
            stopping = self._stopping
            if not stopping:
                self._connections[request] = True
        if stopping:
            self.shutdown_request(request)
            return
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.pop(request, None)
        super().shutdown_request(request)

    def request_started(self, connection: socket.socket) -> None:
        """A request arrived on ``connection``: it is busy until its reply."""
        with self._connections_lock:
            if connection in self._connections:
                self._connections[connection] = False

    def request_finished(self, connection: socket.socket) -> bool:
        """``connection`` is idle again; False when it must close instead."""
        with self._connections_lock:
            if self._stopping:
                return False
            if connection in self._connections:
                self._connections[connection] = True
            return True

    def _hang_up(self) -> None:
        """Stop serving: shut the idle connections down now (their
        handlers read EOF and exit; their clients see the close)."""
        with self._connections_lock:
            self._stopping = True
            idle = [connection for connection, waiting
                    in self._connections.items() if waiting]
        for connection in idle:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def shutdown(self) -> None:
        self._hang_up()
        super().shutdown()

    def server_close(self) -> None:
        super().server_close()
        self._hang_up()
        service = getattr(self, "service", None)
        if service is not None:
            service.close()


def make_server(host: str = "127.0.0.1", port: int = DEFAULT_PORT, *,
                service: Optional[CompilationService] = None,
                session: Optional[Session] = None,
                jobs: int = 1, cache_dir: Optional[str] = None,
                cache_max_bytes: Optional[int] = None,
                workers: int = DEFAULT_WORKERS,
                queue_size: int = DEFAULT_QUEUE_SIZE,
                tenants=None, store_dir: Optional[str] = None,
                burst_half_life: Optional[float] = None,
                verify: bool = False,
                log_path: Optional[str] = None,
                verbose: bool = False) -> CompilationHTTPServer:
    """Build a ready-to-serve compilation service HTTP server.

    The caller owns the life cycle: call ``serve_forever()`` (typically
    on a background thread in tests), and ``shutdown()`` +
    ``server_close()`` when done (``server_close`` also stops the worker
    pool).  Pass ``port=0`` to bind an ephemeral port (read it back from
    ``server.server_address``).  ``verbose`` attaches the human-readable
    stderr sink to the service event log; ``log_path`` a rotating JSONL
    sink.
    """
    server = CompilationHTTPServer((host, port), ServiceHTTPHandler)
    server.service = service or CompilationService(
        session=session, jobs=jobs, cache_dir=cache_dir,
        cache_max_bytes=cache_max_bytes,
        workers=workers, queue_size=queue_size,
        tenants=tenants, store_dir=store_dir,
        burst_half_life=(DEFAULT_HALF_LIFE if burst_half_life is None
                         else burst_half_life),
        verify=verify, log_path=log_path)
    server.verbose = verbose
    if verbose:
        server.service.events.add_sink(stderr_sink())
    return server


def serve(host: str = "127.0.0.1", port: int = DEFAULT_PORT, *,
          jobs: int = 1, cache_dir: Optional[str] = None,
          cache_max_bytes: Optional[int] = None,
          workers: int = DEFAULT_WORKERS,
          queue_size: int = DEFAULT_QUEUE_SIZE,
          tenants=None, store_dir: Optional[str] = None,
          burst_half_life: Optional[float] = None,
          verify: bool = False,
          log_path: Optional[str] = None,
          verbose: bool = True) -> None:
    """Run the service in the foreground until interrupted (CLI helper)."""
    server = make_server(host, port, jobs=jobs, cache_dir=cache_dir,
                         cache_max_bytes=cache_max_bytes,
                         workers=workers, queue_size=queue_size,
                         tenants=tenants, store_dir=store_dir,
                         burst_half_life=burst_half_life,
                         verify=verify, log_path=log_path,
                         verbose=verbose)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro compilation service on http://{bound_host}:{bound_port} "
          f"(workers={workers}, queue_size={queue_size}, jobs={jobs}, "
          f"cache_dir={cache_dir or 'none'}, "
          f"store_dir={store_dir or 'none'}, "
          f"verify={'on' if verify else 'off'}) — Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()

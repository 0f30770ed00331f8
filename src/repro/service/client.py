"""Thin HTTP client for the compilation service.

:class:`ServiceClient` mirrors the :class:`~repro.api.session.Session`
surface — ``compile``/``submit``/``run`` — but executes on a remote
service, so an experiment script can switch between in-process and
remote compilation by swapping one object::

    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8731")
    result = client.compile("RD53", policy="square")
    sweep = client.run(SweepSpec().with_benchmarks("RD53", "ADDER4"))

On top of the synchronous surface sits the asynchronous job API:
``submit_async`` returns a ticket id immediately (the server queues the
work), ``poll``/``wait_for`` watch it to a terminal state (polling with
adaptive backoff so long compilations don't hammer the server),
``cancel`` withdraws a still-queued job, ``result_of`` unwraps a
finished ticket into the usual result objects, and ``iter_entries``
streams a sweep's per-entry results as workers finish them — the feed
the :class:`~repro.cluster.FleetExecutor` gathers across servers.

Pure stdlib (:mod:`http.client`).  Each thread that uses a client
keeps one persistent HTTP/1.1 connection to the service, so a request
costs one round trip, not a connect; a connection the server has
closed (restart, idle timeout) is noticed before the next request and
reopened.  ``close()`` or a ``with`` block closes them all.

Transport and protocol problems raise
:class:`~repro.exceptions.ServiceError` — except a full server queue,
which raises the structured
:class:`~repro.exceptions.BackPressureError` so callers can tell
"retry later" from "bad request".  Idempotent GETs (health, stats,
polling) retry with exponential backoff on connection refused/reset, so
a poll loop survives a server restart; a POST is sent at most once.  A
job that failed on the server re-raises client-side as its original
library exception type (via
:meth:`~repro.core.result.JobFailure.to_exception`), exactly like a
local session would.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
import urllib.parse
import weakref
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.exceptions import (
    AuthError,
    BackPressureError,
    QuotaExceededError,
    ServiceError,
    UnknownJobError,
)
from repro.api.job import CompileJob, MachineSpec
from repro.api.sweep import SweepEntry, SweepResult, SweepSpec
from repro.core.compiler import preset
from repro.core.result import CompilationResult, JobFailure
from repro.telemetry import TRACE_HEADER, SpanRecorder, coerce_trace_id

#: Job states a ticket can never leave (mirror of repro.queue).
_TERMINAL_STATES = ("DONE", "FAILED", "CANCELLED")

_CONNECTION_TYPES = {"http": http.client.HTTPConnection,
                     "https": http.client.HTTPSConnection}


def _readable(sock) -> bool:
    """True when ``sock`` has something to read right now.

    Between requests a keep-alive connection has nothing to read, so a
    readable one was closed by the server (EOF) or is out of step.
    """
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    readable, _, _ = select.select([sock], [], [], 0)
    return bool(readable)


class _ThreadGuard:
    """Lives in one thread's local storage, so it is freed when that
    thread ends; a finalizer on it closes the thread's connection."""


class ServiceClient:
    """Talks JSON to a running compilation service endpoint.

    Args:
        base_url: Service root, e.g. ``"http://127.0.0.1:8731"``;
            ``https://`` connects over TLS.
        timeout: Per-request timeout in seconds.  Synchronous
            compilation happens inside the request, so size this to the
            largest job you submit (async submissions return at once
            and are not affected).
        retries: Connection-level retries for idempotent GET requests
            (POSTs are never retried — a submission must not double).
        backoff: Base delay between GET retries; doubles each attempt.
        api_key: Tenant credential sent as the ``X-Repro-Key`` header on
            every request; None (default) makes keyless requests, which
            the server maps to its anonymous tenant.
        trace_id: Request-trace correlation id sent as the
            ``X-Repro-Trace`` header on every request; None (default)
            mints a fresh id at construction, so all of one client's
            requests — and the job records they create, on every
            cluster shard — share one id.
        spans: Optional :class:`~repro.telemetry.SpanRecorder`.  When
            attached, every request records a client-side
            ``client.request`` span under the client's trace id — the
            client end of the waterfall whose server end ``GET
            /trace/<id>`` returns.  None (default) records nothing and
            costs nothing.
    """

    def __init__(self, base_url: str, timeout: float = 300.0, *,
                 retries: int = 3, backoff: float = 0.2,
                 api_key: Optional[str] = None,
                 trace_id: Optional[str] = None,
                 spans: Optional[SpanRecorder] = None) -> None:
        self.base_url = base_url.rstrip("/")
        url = urllib.parse.urlsplit(self.base_url)
        try:
            self._connection_type = _CONNECTION_TYPES[url.scheme]
            self._port = url.port
            if not url.hostname:
                raise ValueError("no host")
        except (KeyError, ValueError):
            raise ServiceError(f"service URL must be http://host[:port] or "
                               f"https://host[:port], got {base_url!r}"
                               ) from None
        self._host = url.hostname
        self._prefix = url.path
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.api_key = api_key
        self.trace_id = coerce_trace_id(trace_id)
        self.spans = spans
        # One connection per thread, closed when the thread ends (its
        # guard's finalizer); _open reaches every live one for close().
        self._local = threading.local()
        self._open: "weakref.WeakSet[http.client.HTTPConnection]" = \
            weakref.WeakSet()
        self._open_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str,
                 payload: Optional[Mapping[str, object]] = None,
                 raw: bool = False):
        if self.spans is None:
            return self._send(method, path, payload, raw)
        with self.spans.span("client.request", trace_id=self.trace_id,
                             labels={"method": method,
                                     "path": path.partition("?")[0]}):
            return self._send(method, path, payload, raw)

    def _connect(self) -> http.client.HTTPConnection:
        """Open a new connection to the service (the transport seam)."""
        connection = self._connection_type(self._host, self._port,
                                           timeout=self.timeout)
        connection.connect()
        return connection

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's open connection, reopened if the server closed it."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            if connection.sock is not None and not _readable(connection.sock):
                return connection
            self._drop()
        connection = self._connect()
        self._local.connection = connection
        self._local.guard = _ThreadGuard()
        weakref.finalize(self._local.guard, connection.close)
        with self._open_lock:
            self._open.add(connection)
        return connection

    def _drop(self) -> None:
        """Close and forget this thread's connection."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            self._local.connection = None
            with self._open_lock:
                self._open.discard(connection)
            connection.close()

    def close(self) -> None:
        """Close every thread's connection; later requests reopen one."""
        with self._open_lock:
            connections = list(self._open)
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _send(self, method: str, path: str,
              payload: Optional[Mapping[str, object]] = None,
              raw: bool = False):
        data = None
        headers = {"Accept": "application/json",
                   TRACE_HEADER: self.trace_id}
        if self.api_key:
            headers["X-Repro-Key"] = self.api_key
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        attempts = 1 + (self.retries if method == "GET" else 0)
        for attempt in range(attempts):
            connection = None
            try:
                connection = self._connection()
                connection.request(method, self._prefix + path, body=data,
                                   headers=headers)
                response = connection.getresponse()
                body = response.read()
                break
            except (OSError, http.client.HTTPException) as error:
                self._drop()
                # A refused/reset connect, or a connection dropped
                # mid-request, is what a server restart looks like.  A
                # GET is safe to reissue (a died long-poll included); a
                # POST may have been acted on, so it is sent once.
                if (method == "GET" and attempt + 1 < attempts
                        and isinstance(error, (ConnectionError,
                                               http.client.HTTPException))):
                    time.sleep(self.backoff * (2 ** attempt))
                    continue
                if connection is None:
                    raise ServiceError(
                        f"cannot reach compilation service at "
                        f"{self.base_url}: {error}") from None
                raise ServiceError(
                    f"connection to {self.base_url} failed mid-request "
                    f"on {path}: {error!r}"
                ) from None
            except BaseException:
                # Interrupted mid-exchange: the connection cannot carry
                # another request.
                self._drop()
                raise
        if response.status >= 400:
            raise self._http_error(path, response.status, body)
        if raw:
            return body.decode("utf-8")
        try:
            decoded = json.loads(body)
        except ValueError as error:
            raise ServiceError(
                f"{path} returned invalid JSON: {error}"
            ) from None
        if not isinstance(decoded, dict):
            raise ServiceError(f"{path} returned a non-object JSON payload")
        return decoded

    @staticmethod
    def _http_error(path: str, status: int, body: bytes) -> ServiceError:
        """Rebuild the service-side error as the right client exception.

        The returned exception carries the HTTP status as
        ``http_status``, so callers (e.g. the fleet executor) can
        tell a deterministic rejection (4xx: the request is bad on any
        server) from a transport-level failure (no status at all).
        """
        detail = ""
        record: Dict[str, object] = {}
        try:
            payload = json.loads(body)
            record = payload["error"]
            detail = record["message"]
        except Exception:
            pass
        suffix = f": {detail}" if detail else ""
        message = f"{path} failed with HTTP {status}{suffix}"
        if record.get("type") == "QuotaExceededError":
            rebuilt: ServiceError = QuotaExceededError(
                message, tenant=str(record.get("tenant", "")),
                depth=int(record.get("depth", 0)),
                capacity=int(record.get("capacity", 0)))
        elif record.get("type") == "BackPressureError":
            rebuilt = BackPressureError(
                message, depth=int(record.get("depth", 0)),
                capacity=int(record.get("capacity", 0)))
        elif record.get("type") == "AuthError":
            rebuilt = AuthError(message)
        elif record.get("type") == "UnknownJobError":
            rebuilt = UnknownJobError(message)
        else:
            rebuilt = ServiceError(message)
        rebuilt.http_status = status
        return rebuilt

    def _get(self, path: str) -> Dict:
        return self._request("GET", path)

    def _post(self, path: str, payload: Mapping[str, object]) -> Dict:
        return self._request("POST", path, payload)

    # ------------------------------------------------------------------
    def health(self) -> Dict:
        """``GET /health`` payload."""
        return self._get("/health")

    def stats(self) -> Dict:
        """``GET /stats`` payload (session/cache/telemetry counters)."""
        return self._get("/stats")

    def metrics_text(self) -> str:
        """``GET /metrics``: the raw Prometheus text exposition.

        Returned verbatim (not parsed), so a fleet merge or a file dump
        preserves the worker's exact bytes; parse it client-side with
        :func:`repro.telemetry.parse_exposition` when needed.
        """
        return self._request("GET", "/metrics", raw=True)

    def registry(self) -> Dict:
        """``GET /registry`` payload (benchmarks, policies, machines)."""
        return self._get("/registry")

    def trace(self, trace_id: Optional[str] = None) -> Dict:
        """``GET /trace/<id>``: the server's recorded spans for one
        trace (defaults to this client's own trace id)."""
        return self._get(f"/trace/{trace_id or self.trace_id}")

    def logs(self, trace: Optional[str] = None, *,
             tenant: Optional[str] = None,
             level: Optional[str] = None,
             since: Optional[float] = None,
             limit: Optional[int] = None) -> Dict:
        """``GET /logs``: the server's structured events, filtered.

        ``trace`` defaults to this client's own trace id; pass
        ``trace=""`` explicitly to fetch events across all traces.
        Filters compose (AND); ``level`` is a minimum severity.
        """
        if trace is None:
            trace = self.trace_id
        params = []
        if trace:
            params.append(f"trace={trace}")
        if tenant:
            params.append(f"tenant={urllib.parse.quote(tenant)}")
        if level:
            params.append(f"level={level}")
        if since is not None:
            params.append(f"since={since}")
        if limit is not None:
            params.append(f"limit={limit}")
        suffix = f"?{'&'.join(params)}" if params else ""
        return self._get(f"/logs{suffix}")

    # ------------------------------------------------------------------
    def compile_job(self, job: Union[CompileJob, Mapping[str, object]]
                    ) -> Dict:
        """``POST /compile`` one job; returns the raw response payload.

        The payload keeps the provenance flags (``cached``,
        ``disk_hit``) alongside the serialized result or error — use
        :meth:`submit` when only the result matters.
        """
        descriptor = job.to_dict() if isinstance(job, CompileJob) else job
        return self._post("/compile", {"job": descriptor})

    def submit(self, job: Union[CompileJob, Mapping[str, object]]
               ) -> CompilationResult:
        """Compile one job remotely, raising its error on failure."""
        response = self.compile_job(job)
        if not response.get("ok"):
            raise JobFailure.from_dict(response["error"]).to_exception()
        return CompilationResult.from_dict(response["result"])

    def compile(self, benchmark: str,
                machine: Optional[MachineSpec] = None,
                policy: str = "square",
                overrides: Optional[Dict[str, object]] = None,
                **config_overrides) -> CompilationResult:
        """Convenience single compilation, mirroring ``Session.compile``.

        Only registered benchmark names work remotely — in-memory
        programs cannot cross the service boundary.
        """
        job = CompileJob(
            benchmark=benchmark,
            machine=machine or MachineSpec.nisq_autosize(),
            config=preset(policy, **config_overrides),
            overrides=tuple(sorted((overrides or {}).items())),
        )
        return self.submit(job)

    def run(self, work: Union[SweepSpec, Sequence[CompileJob]]
            ) -> SweepResult:
        """Execute a sweep spec or job list remotely, like ``Session.run``.

        Failed jobs come back as failure entries (the service always
        isolates), so one impossible job never loses the rest of the
        batch.
        """
        if isinstance(work, SweepSpec):
            jobs = work.jobs()
            response = self._post("/sweep", {"spec": work.to_dict()})
        else:
            jobs = list(work)
            response = self._post(
                "/sweep", {"jobs": [job.to_dict() for job in jobs]})
        records = response.get("entries")
        if not isinstance(records, list) or len(records) != len(jobs):
            got = len(records) if isinstance(records, list) else "no"
            raise ServiceError(
                f"/sweep returned {got} entries for {len(jobs)} submitted "
                f"job(s)"
            )
        return SweepResult([SweepEntry.from_record(job, record)
                            for job, record in zip(jobs, records)])

    # ------------------------------------------------------------------
    # Asynchronous job API
    # ------------------------------------------------------------------
    def submit_async(self,
                     work: Union[CompileJob, SweepSpec,
                                 Sequence[CompileJob], Mapping[str, object]],
                     priority: int = 0,
                     deadline_seconds: Optional[float] = None) -> str:
        """``POST /jobs``: enqueue work, return its ticket id at once.

        Accepts the same shapes as the synchronous surface — a
        :class:`CompileJob` (or raw descriptor), a :class:`SweepSpec`,
        or a job list.  The server replies before compiling anything;
        poll the returned id with :meth:`poll`/:meth:`wait_for`.
        ``deadline_seconds`` declares a time budget the server's
        fair-share scheduler treats as growing urgency.

        Raises:
            QuotaExceededError: This client's tenant is at its
                queued-job cap; other tenants are unaffected.
            BackPressureError: The server queue is full; retry later.
        """
        payload: Dict[str, object]
        if isinstance(work, CompileJob):
            payload = {"job": work.to_dict()}
        elif isinstance(work, SweepSpec):
            payload = {"spec": work.to_dict()}
        elif isinstance(work, Mapping):
            payload = dict(work)
        else:
            payload = {"jobs": [job.to_dict() for job in work]}
        if priority:
            payload["priority"] = priority
        if deadline_seconds is not None:
            payload["deadline_seconds"] = deadline_seconds
        response = self._post("/jobs", payload)
        job_id = response.get("job_id")
        if not isinstance(job_id, str):
            raise ServiceError(f"/jobs returned no job id: {response}")
        return job_id

    def poll(self, job_id: str) -> Dict:
        """``GET /jobs/<id>``: one status snapshot (result inline once
        DONE, error record once FAILED)."""
        return self._get(f"/jobs/{job_id}")

    def wait_for(self, job_id: str, timeout: Optional[float] = None,
                 interval: float = 0.05, max_interval: float = 2.0) -> Dict:
        """Poll until the job is terminal; returns the final record.

        The poll interval backs off adaptively: it starts at
        ``interval`` and grows geometrically to ``max_interval``, so a
        quick job is noticed within milliseconds while a long
        compilation costs the server a few polls per second at most.

        Args:
            job_id: Ticket from :meth:`submit_async`.
            timeout: Give up (with :class:`ServiceError`) after this
                many seconds; None waits forever.
            interval: Initial seconds between polls.
            max_interval: Ceiling the growing interval never exceeds.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = max(0.0, interval)
        while True:
            record = self.poll(job_id)
            if record.get("state") in _TERMINAL_STATES:
                return record
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout}s waiting for {job_id} "
                    f"(state={record.get('state')})")
            if deadline is not None:
                delay = min(delay, max(0.0, deadline - time.monotonic()))
            time.sleep(delay)
            delay = min(max(delay, 0.001) * 1.6, max_interval)

    def entries_since(self, job_id: str, since: int = 0,
                      poll_timeout: Optional[float] = None) -> Dict:
        """``GET /jobs/<id>/entries``: one long-poll for the entry stream.

        Returns the raw payload: ``entries`` past the ``since`` cursor,
        the job ``state`` (terminal means the slice completes the
        stream) and ``next``, the cursor to resume from.
        """
        suffix = f"/jobs/{job_id}/entries?since={since}"
        if poll_timeout is not None:
            suffix += f"&timeout={poll_timeout}"
        return self._get(suffix)

    def iter_entries(self, job_id: str, since: int = 0,
                     timeout: Optional[float] = None,
                     poll_timeout: float = 10.0):
        """Stream a job's per-entry results as the server finishes them.

        Yields ``(index, record)`` pairs in entry order, long-polling
        ``GET /jobs/<id>/entries`` under the hood; the generator ends
        when the job reaches a terminal state, after every published
        entry has been yielded exactly once.  For a sweep submitted as N
        jobs, entry ``index`` corresponds to the N-th submitted job, so
        the first results arrive long before the batch completes.

        Check the job's final state with :meth:`poll` afterwards when it
        matters: a FAILED or CANCELLED job ends the stream the same way,
        just with fewer entries than submitted jobs.

        Args:
            job_id: Ticket from :meth:`submit_async`.
            since: Entry cursor to start from (0 = first entry).
            timeout: Overall deadline in seconds; ``ServiceError`` when
                exceeded.  None streams until the job is terminal.
            poll_timeout: Seconds each underlying long-poll is allowed
                to park on the server before returning empty-handed.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        cursor = since
        while True:
            # Clamp each long-poll to the remaining budget so the
            # overall timeout cannot overshoot by a poll_timeout.
            park = poll_timeout
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceError(
                        f"timed out after {timeout}s streaming entries "
                        f"of {job_id} (got {cursor - since} so far)")
                park = min(poll_timeout, remaining)
            payload = self.entries_since(job_id, since=cursor,
                                         poll_timeout=park)
            records = payload.get("entries")
            if not isinstance(records, list):
                raise ServiceError(
                    f"/jobs/{job_id}/entries returned no entry list: "
                    f"{payload}")
            for record in records:
                yield cursor, record
                cursor += 1
            if payload.get("state") in _TERMINAL_STATES:
                return

    def result_of(self, job_id: str, timeout: Optional[float] = None) -> Dict:
        """Wait for a job and unwrap its response payload.

        DONE jobs return the same payload the synchronous endpoint
        would have (``/compile`` or ``/sweep`` shape); FAILED jobs
        re-raise their original library exception; CANCELLED jobs raise
        :class:`ServiceError`.
        """
        record = self.wait_for(job_id, timeout=timeout)
        state = record.get("state")
        if state == "DONE":
            return record["response"]
        if state == "FAILED" and isinstance(record.get("error"), dict):
            raise JobFailure.from_dict(record["error"]).to_exception()
        raise ServiceError(f"job {job_id} ended {state} without a result")

    def cancel(self, job_id: str) -> Dict:
        """``POST /jobs/<id>/cancel``: cancel a still-queued job.

        Returns the cancellation record; ``record["cancelled"]`` is
        False when the job had already started (or finished).
        """
        return self._post(f"/jobs/{job_id}/cancel", {})

    def jobs(self, state: Optional[str] = None,
             limit: Optional[int] = None) -> List[Dict]:
        """``GET /jobs``: job records, filtered server-side.

        Args:
            state: Keep only records in this lifecycle state.
            limit: Keep only the most recently submitted ``limit``
                records (applied after the state filter).
        """
        params = []
        if state:
            # Sent as `state=`: both the old filter name and the new
            # `status=` alias parse on 1.2+ servers, but only `state=`
            # is understood by pre-1.2 servers in a mixed-version fleet.
            params.append(f"state={state}")
        if limit is not None:
            params.append(f"limit={limit}")
        suffix = f"?{'&'.join(params)}" if params else ""
        response = self._get(f"/jobs{suffix}")
        records = response.get("jobs")
        if not isinstance(records, list):
            raise ServiceError(f"/jobs returned no record list: {response}")
        return records

    def __repr__(self) -> str:
        return f"ServiceClient(base_url={self.base_url!r})"

"""Network compilation service: HTTP endpoint + persistent result cache.

Everything the in-process :mod:`repro.api` session does, served over
HTTP with results that survive restarts:

* :class:`DiskCache` — persistent on-disk result store keyed by job
  fingerprint; plugs into :class:`~repro.api.session.Session` as the
  second cache tier behind the in-memory memo, with an optional
  ``max_bytes`` size cap enforced by LRU eviction.
* :class:`CompilationService` / :func:`make_server` / :func:`serve` —
  the stdlib-only HTTP endpoint mounting a
  :class:`~repro.queue.manager.JobManager` (bounded priority queue +
  worker pool) over one shared thread-safe memoizing session:
  synchronous ``/compile``/``/sweep``, asynchronous ``/jobs`` with
  polling and cancellation, structured 503 back-pressure when full —
  plus multi-tenancy (see :mod:`repro.tenancy`): ``X-Repro-Key``
  authentication against a tenant registry, fair-share scheduling,
  per-tenant 429 quotas, and an optional ``store_dir`` job journal
  that survives restarts (QUEUED resumes, DONE serves byte-identically).
* :class:`ServiceClient` — session-shaped client with both synchronous
  calls and the async ``submit_async``/``poll``/``wait_for``/``cancel``
  surface, plus ``iter_entries`` streaming a sweep's per-entry results
  as workers finish them (the feed
  :class:`~repro.cluster.FleetExecutor` shards over a fleet); one
  persistent connection per calling thread, and idempotent GETs retry
  with exponential backoff, so poll loops survive server restarts.

Quick start (one process)::

    from repro.service import ServiceClient, make_server
    import threading

    server = make_server("127.0.0.1", 0, cache_dir="/tmp/repro-cache",
                         workers=4)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]

    client = ServiceClient(f"http://{host}:{port}")
    result = client.compile("RD53", policy="square")   # synchronous

    ticket = client.submit_async(big_sweep_spec)       # returns at once
    record = client.wait_for(ticket)                   # poll to DONE
    rows = record["response"]["rows"]

Or from the command line: ``python -m repro.experiments serve
--cache-dir /tmp/repro-cache --workers 4 --queue-size 128``.
"""

from repro.service.cache import CACHE_VERSION, DiskCache
from repro.service.client import ServiceClient
from repro.service.server import (
    DEFAULT_PORT,
    DEFAULT_QUEUE_SIZE,
    DEFAULT_WORKERS,
    CompilationHTTPServer,
    CompilationService,
    ServiceHTTPHandler,
    make_server,
    serve,
)

__all__ = [
    "CACHE_VERSION",
    "CompilationHTTPServer",
    "CompilationService",
    "DEFAULT_PORT",
    "DEFAULT_QUEUE_SIZE",
    "DEFAULT_WORKERS",
    "DiskCache",
    "ServiceClient",
    "ServiceHTTPHandler",
    "make_server",
    "serve",
]

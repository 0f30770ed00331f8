"""Cluster membership: worker endpoints, health probes, liveness state.

A :class:`ClusterTopology` is the coordinator's view of the fleet: an
ordered, deduplicated set of :class:`WorkerEndpoint` records, each
wrapping a :class:`~repro.service.client.ServiceClient` plus liveness
bookkeeping.  Probing is active (``GET /health``), and the coordinator
additionally marks endpoints dead when their transport fails mid-sweep;
a dead endpoint stays registered — :meth:`ClusterTopology.probe_all`
revives it if a later probe succeeds, so a restarted server rejoins the
fleet without reconfiguration.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.exceptions import ClusterError, ServiceError
from repro.service.client import ServiceClient
from repro.telemetry import (MetricsRegistry, coerce_trace_id,
                             merge_expositions)


class WorkerEndpoint:
    """One compile server in the fleet, plus its liveness record.

    Attributes:
        url: Normalized service root (no trailing slash) — also the
            endpoint's sharding key.
        client: The HTTP client used for every call to this server.
        weight: Relative sharding capacity (> 0, default 1.0): a
            weight-2 endpoint draws about twice the jobs of a weight-1
            sibling under the coordinator's weighted rendezvous
            hashing, so heterogeneous fleets shard proportionally.
        alive: Current liveness belief (probe result or mid-sweep
            transport failure).
        last_error: Message of the failure that last marked the
            endpoint dead, or None.
        probes / failures: Lifetime counters for telemetry.

    ``api_key`` is the coordinator's tenant credential, forwarded to
    the shard on every request (each worker resolves it against its own
    registry), so a cluster sweep runs as the same principal end to
    end.  Ignored when an explicit ``client`` or ``client_factory`` is
    supplied — those own their credentials.
    """

    def __init__(self, url: str, client=None, *,
                 client_factory: Callable[[str], ServiceClient] = None,
                 weight: float = 1.0,
                 api_key: Optional[str] = None,
                 trace_id: Optional[str] = None) -> None:
        self.url = url.rstrip("/")
        if not weight > 0:
            raise ClusterError(
                f"endpoint {self.url!r} needs a weight > 0, got {weight!r}")
        self.weight = float(weight)
        if client is None:
            if client_factory is not None:
                client = client_factory(self.url)
            else:
                client = ServiceClient(self.url, api_key=api_key,
                                       trace_id=trace_id)
        self.client = client
        self.alive = True
        self.last_error: Optional[str] = None
        self.last_probe_at: Optional[float] = None
        self.probes = 0
        self.failures = 0

    # ------------------------------------------------------------------
    def probe(self) -> bool:
        """One ``GET /health`` round trip; updates and returns liveness."""
        self.probes += 1
        self.last_probe_at = time.time()  # lint: wall-clock (telemetry)
        try:
            payload = self.client.health()
        except ServiceError as error:
            self.mark_dead(f"health probe failed: {error}")
            return False
        if payload.get("status") != "ok":
            self.mark_dead(f"health probe returned {payload!r}")
            return False
        self.alive = True
        self.last_error = None
        return True

    def mark_dead(self, reason: str) -> None:
        """Record a liveness failure (probe or mid-sweep transport)."""
        self.alive = False
        self.last_error = reason
        self.failures += 1

    def stats(self) -> Dict[str, object]:
        """JSON-compatible liveness telemetry."""
        return {
            "url": self.url,
            "alive": self.alive,
            "weight": self.weight,
            "last_error": self.last_error,
            "last_probe_at": self.last_probe_at,
            "probes": self.probes,
            "failures": self.failures,
        }

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"WorkerEndpoint({self.url!r}, {state})"


class ClusterTopology:
    """The ordered fleet of worker endpoints a coordinator drives.

    Args:
        endpoints: Service root URLs (or prebuilt
            :class:`WorkerEndpoint` records); duplicates collapse to
            one, order is preserved.
        client_factory: ``factory(url) -> client`` override, used by
            tests to inject deterministic fake workers.
        api_key: Tenant credential every built client sends as its
            ``X-Repro-Key`` header (the coordinator's principal,
            forwarded to each shard); ignored for prebuilt endpoints
            and when ``client_factory`` is given.
        trace_id: Trace id every built client sends as its
            ``X-Repro-Trace`` header, so one cluster sweep's job
            records share an id across every shard; same overrides as
            ``api_key``.
    """

    def __init__(self,
                 endpoints: Sequence[Union[str, WorkerEndpoint]], *,
                 client_factory: Callable[[str], ServiceClient] = None,
                 api_key: Optional[str] = None,
                 trace_id: Optional[str] = None) -> None:
        self._endpoints: "OrderedDict[str, WorkerEndpoint]" = OrderedDict()
        self._lock = threading.Lock()
        # Minted here (not per endpoint) so every shard of a fan-out
        # carries the same id even when the caller passed none.
        self.trace_id = coerce_trace_id(trace_id)
        for endpoint in endpoints:
            if not isinstance(endpoint, WorkerEndpoint):
                endpoint = WorkerEndpoint(endpoint,
                                          client_factory=client_factory,
                                          api_key=api_key,
                                          trace_id=self.trace_id)
            self._endpoints.setdefault(endpoint.url, endpoint)
        if not self._endpoints:
            raise ClusterError("a cluster needs at least one worker "
                               "endpoint URL")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._endpoints)

    def __iter__(self):
        return iter(self._endpoints.values())

    def get(self, url: str) -> WorkerEndpoint:
        """The endpoint registered under ``url``.

        Raises:
            ClusterError: Unknown endpoint URL.
        """
        endpoint = self._endpoints.get(url.rstrip("/"))
        if endpoint is None:
            raise ClusterError(f"unknown worker endpoint {url!r}; "
                               f"registered: {list(self._endpoints)}")
        return endpoint

    def alive(self) -> List[WorkerEndpoint]:
        """Endpoints currently believed alive, in registration order."""
        return [endpoint for endpoint in self if endpoint.alive]

    def probe_all(self) -> List[WorkerEndpoint]:
        """Probe every endpoint (reviving recovered ones); returns the
        alive list."""
        for endpoint in self:
            endpoint.probe()
        return self.alive()

    def mark_dead(self, endpoint: WorkerEndpoint, reason: str) -> None:
        """Record an endpoint death observed outside a probe."""
        with self._lock:
            endpoint.mark_dead(reason)

    def stats(self) -> Dict[str, object]:
        """JSON-compatible fleet telemetry."""
        return {
            "endpoints": [endpoint.stats() for endpoint in self],
            "registered": len(self),
            "alive": len(self.alive()),
        }

    # ------------------------------------------------------------------
    #: Per-worker counters fleet_stats aggregates into fleet totals.
    FLEET_COUNTERS = (
        "queue_depth", "queue_capacity", "workers", "busy_workers",
        "requests", "jobs_run", "job_failures",
        "cache_hits", "cache_misses", "disk_hits",
        "disk_entries", "disk_bytes", "disk_evictions", "disk_orphans",
    )

    def fleet_stats(self) -> Dict[str, object]:
        """One ``GET /stats`` round trip per endpoint, aggregated.

        Each worker contributes a flat row — queue depth/capacity,
        worker threads (total and busy), request/job counters, session
        cache hits/misses, and disk-cache size/eviction/orphan counters
        — and the ``fleet`` entry sums every counter across the
        *reachable* workers.  An unreachable endpoint still gets a row
        (``reachable: False`` plus the error message) so a dashboard
        shows the hole in the fleet instead of silently shrinking it;
        it contributes nothing to the totals.
        """
        rows: List[Dict[str, object]] = []
        totals: Dict[str, int] = {key: 0 for key in self.FLEET_COUNTERS}
        reachable = 0
        for endpoint in self:
            row: Dict[str, object] = {"url": endpoint.url,
                                      "weight": endpoint.weight}
            try:
                payload = endpoint.client.stats()
            except ServiceError as error:
                row["reachable"] = False
                row["error"] = str(error)
                rows.append(row)
                continue
            reachable += 1
            service = payload.get("service") or {}
            session = payload.get("session") or {}
            disk = session.get("disk_cache") or {}
            row.update({
                "reachable": True,
                "queue_depth": service.get("queue_depth", 0),
                "queue_capacity": service.get("queue_capacity", 0),
                "workers": service.get("workers", 0),
                "busy_workers": service.get("busy_workers", 0),
                "requests": service.get("requests", 0),
                "jobs_run": service.get("jobs_run", 0),
                "job_failures": service.get("job_failures", 0),
                "cache_hits": session.get("cache_hits", 0),
                "cache_misses": session.get("cache_misses", 0),
                "disk_hits": session.get("disk_hits", 0),
                "disk_entries": disk.get("size", 0),
                "disk_bytes": disk.get("bytes", 0),
                "disk_evictions": disk.get("evictions", 0),
                "disk_orphans": disk.get("orphans_removed", 0),
            })
            for key in self.FLEET_COUNTERS:
                totals[key] += row[key]
            rows.append(row)
        return {
            "workers": rows,
            "fleet": totals,
            "registered": len(self),
            "reachable": reachable,
        }

    def fleet_metrics(self) -> str:
        """One ``GET /metrics`` scrape per endpoint, merged.

        Every worker's exposition is merged into one (each sample
        gains a ``worker="<url>"`` label; see
        :func:`repro.telemetry.merge_expositions`), plus a synthesized
        ``repro_worker_up`` gauge: 1 for workers that answered the
        scrape, 0 for unreachable ones — so the merged exposition shows
        a hole in the fleet instead of silently shrinking it.
        """
        texts: Dict[str, str] = {}
        synth = MetricsRegistry()
        up = synth.gauge("repro_worker_up",
                         "1 when the worker answered the metrics scrape.",
                         labelnames=("worker",))
        for endpoint in self:
            scrape = getattr(endpoint.client, "metrics_text", None)
            try:
                if scrape is None:
                    raise ServiceError(
                        f"client for {endpoint.url} has no metrics_text()")
                texts[endpoint.url] = scrape()
            except ServiceError:
                up.labels(worker=endpoint.url).set(0)
                continue
            up.labels(worker=endpoint.url).set(1)
        return merge_expositions(texts) + synth.render()

    def fleet_trace(self, trace_id: Optional[str] = None) -> Dict[str, object]:
        """One ``GET /trace/<id>`` fetch per endpoint, merged.

        Every worker's span records for ``trace_id`` (default: the
        fleet's own trace id) merge into one list: each record gains a
        ``worker`` label naming the shard that recorded it, duplicates
        (same span id from the same worker) collapse, and the merged
        list sorts deterministically by (start, name, span id) — ready
        for :func:`repro.telemetry.render_waterfall`.  Workers that
        cannot answer (unreachable, or a pre-span server) appear in the
        ``workers`` map with ``reachable: False`` so the merged
        waterfall shows the hole in the fleet instead of silently
        shrinking it.
        """
        trace_id = coerce_trace_id(trace_id or self.trace_id)
        return self._fan_out(
            "trace", trace_id, lambda fetch: fetch(trace_id), "spans",
            "span_id", lambda record: (record.get("start") or 0.0,
                                       record.get("name") or "",
                                       record.get("span_id") or ""))

    def fleet_logs(self, trace: Optional[str] = None, *,
                   tenant: Optional[str] = None,
                   level: Optional[str] = None,
                   since: Optional[float] = None,
                   limit: Optional[int] = None) -> Dict[str, object]:
        """One ``GET /logs`` fetch per endpoint, merged.

        Every worker's filtered events merge into one list: each record
        gains a ``worker`` key naming the shard that emitted it,
        duplicates (same event id from the same worker) collapse on
        ``(worker, event_id)``, and the merged list sorts
        deterministically by (ts, event_id) — one fleet-wide narrative
        per trace.  Workers that cannot answer (unreachable, or a
        pre-logs server) appear in the ``workers`` map with
        ``reachable: False``.  ``trace`` defaults to the fleet's own
        trace id; pass ``trace=""`` for events across all traces.
        """
        if trace is None:
            trace = self.trace_id
        return self._fan_out(
            "logs", trace or None,
            lambda fetch: fetch(trace, tenant=tenant, level=level,
                                since=since, limit=limit),
            "events", "event_id",
            lambda record: (record.get("ts") or 0.0,
                            record.get("event_id") or ""))

    def _fan_out(self, method: str, trace_id: Optional[str],
                 call: Callable, list_key: str, id_key: str,
                 sort_key: Callable) -> Dict[str, object]:
        """``call(client.<method>)`` on every endpoint, merging the
        payloads' ``list_key`` records as fleet_trace/fleet_logs say."""
        merged: Dict[tuple, Dict[str, object]] = {}
        workers: Dict[str, Dict[str, object]] = {}
        for endpoint in self:
            fetch = getattr(endpoint.client, method, None)
            try:
                if fetch is None:
                    raise ServiceError(
                        f"client for {endpoint.url} has no {method}()")
                payload = call(fetch)
            except ServiceError as error:
                workers[endpoint.url] = {"reachable": False,
                                         "error": str(error)}
                continue
            records = payload.get(list_key) or []
            workers[endpoint.url] = {"reachable": True,
                                     list_key: len(records)}
            for record in records:
                record = dict(record)
                # Top-level key, not a label: render_waterfall shows it
                # as an `@worker` suffix on every merged line.
                record.setdefault("worker", endpoint.url)
                merged[(endpoint.url, record.get(id_key))] = record
        ordered = sorted(merged.values(), key=sort_key)
        return {"trace_id": trace_id, "count": len(ordered),
                list_key: ordered, "workers": workers}

    def __repr__(self) -> str:
        return (f"ClusterTopology(registered={len(self)}, "
                f"alive={len(self.alive())})")

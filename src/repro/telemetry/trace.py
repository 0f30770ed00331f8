"""Trace-id minting and propagation (`X-Repro-Trace`).

A trace id is minted once at the outermost client — a
:class:`~repro.service.client.ServiceClient` or a cluster
topology — and rides the ``X-Repro-Trace`` header on every request,
onto every queued job record (journaled, so it survives restarts), and
through the fleet executor to every shard a sweep fans out to.  One id
therefore stitches together the log lines and job records of a request
across the whole fleet.
"""

from __future__ import annotations

import re
import uuid
from typing import Optional

#: HTTP header carrying the trace id end to end.
TRACE_HEADER = "X-Repro-Trace"

#: Accepted wire format: short, printable, header/JSON/log-safe.
_TRACE_RE = re.compile(r"^[A-Za-z0-9_.\-]{1,64}$")


def new_trace_id() -> str:
    """Mint a fresh 16-hex-digit trace id."""
    return uuid.uuid4().hex[:16]


def valid_trace_id(value: object) -> bool:
    return isinstance(value, str) and bool(_TRACE_RE.match(value))


def coerce_trace_id(value: Optional[str]) -> str:
    """Return ``value`` when it is a well-formed trace id, else mint.

    Servers call this on the inbound header: a missing or malformed id
    never fails the request — the server just starts a fresh trace.
    """
    if value is not None and valid_trace_id(value):
        return value
    return new_trace_id()

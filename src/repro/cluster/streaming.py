"""Shard stream consumption: one thread per worker, entries as they land.

A :class:`ShardConsumer` owns the client side of one submitted shard: it
iterates the worker's ``GET /jobs/<id>/entries`` long-poll stream
(:meth:`~repro.service.client.ServiceClient.iter_entries`), reports each
record upward the moment it arrives, and classifies how the stream ended
— completed, job failed/cancelled server-side, or transport death.  The
fleet executor runs one consumer thread per shard and re-dispatches
whatever a dead or unfinished shard left behind.

The crucial accounting rule: ``received`` counts entries actually
*delivered to this process*.  A worker may have compiled further entries
before dying, but anything not received is treated as unfinished and
re-dispatched — duplicating a little deterministic work is safe (equal
fingerprints mean equal results), losing entries is not.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Tuple

from repro.exceptions import ServiceError
from repro.api.job import CompileJob
from repro.cluster.topology import WorkerEndpoint

#: Stream outcome classifications.
COMPLETED = "completed"      # job DONE, every shard entry received
UNFINISHED = "unfinished"    # job ended FAILED/CANCELLED with entries missing
DIED = "died"                # transport to the worker failed mid-stream
CRASHED = "crashed"          # non-transport exception (e.g. callback bug)


class ShardConsumer:
    """Consumes one shard's entry stream on a dedicated thread.

    Args:
        endpoint: The worker serving the shard.
        job_id: Ticket of the submitted shard sweep.
        shard: The ``(fingerprint, job)`` pairs submitted, in order —
            entry ``i`` of the stream corresponds to ``shard[i]``.
        on_record: ``on_record(fingerprint, job, record)`` called for
            every received entry, from this consumer's thread; the
            callee handles its own locking.
    """

    def __init__(self, endpoint: WorkerEndpoint, job_id: str,
                 shard: List[Tuple[str, CompileJob]],
                 on_record: Callable[[str, CompileJob, dict], None]) -> None:
        self.endpoint = endpoint
        self.job_id = job_id
        self.shard = list(shard)
        self.on_record = on_record
        self.received = 0
        self.outcome: Optional[str] = None
        self.error: Optional[str] = None
        self.exception: Optional[BaseException] = None
        self.final_state: Optional[str] = None
        self._thread = threading.Thread(
            target=self._consume, daemon=True,
            name=f"repro-cluster-{endpoint.url.rsplit(':', 1)[-1]}")

    # ------------------------------------------------------------------
    def start(self) -> "ShardConsumer":
        self._thread.start()
        return self

    def join(self, timeout: Optional[float] = None) -> None:
        self._thread.join(timeout)

    def unfinished(self) -> List[Tuple[str, CompileJob]]:
        """The shard suffix never received — what must re-dispatch."""
        return self.shard[self.received:]

    # ------------------------------------------------------------------
    def _consume(self) -> None:
        client = self.endpoint.client
        try:
            for index, record in client.iter_entries(self.job_id):
                if index >= len(self.shard):
                    raise ServiceError(
                        f"worker {self.endpoint.url} streamed entry "
                        f"{index} for a {len(self.shard)}-job shard")
                fingerprint, job = self.shard[index]
                self.received = index + 1
                self.on_record(fingerprint, job, record)
            if self.received == len(self.shard):
                # The stream only ends on a terminal state, and a sweep
                # that delivered every entry can only have ended DONE —
                # no follow-up poll whose transient failure would
                # misclassify a healthy worker as dead.
                self.final_state = "DONE"
                self.outcome = COMPLETED
                return
            # Under-delivered: one poll to learn why (FAILED/CANCELLED
            # server-side); a failure here is genuine unreachability.
            self.final_state = client.poll(self.job_id).get("state")
        except ServiceError as error:
            self.outcome = DIED
            self.error = str(error)
            return
        except Exception as error:
            # Not a transport problem — e.g. the caller's on_record
            # callback raised, or a record failed to deserialize.
            # Re-dispatching would just hit it again; keep the original
            # exception so the executor can surface it to the caller.
            self.outcome = CRASHED
            self.error = repr(error)
            self.exception = error
            return
        # The un-received suffix is re-dispatched either way.
        self.outcome = UNFINISHED
        self.error = f"shard ended {self.final_state} after " \
                     f"{self.received}/{len(self.shard)} entries"

    def __repr__(self) -> str:
        return (f"ShardConsumer(endpoint={self.endpoint.url!r}, "
                f"job_id={self.job_id!r}, received={self.received}/"
                f"{len(self.shard)}, outcome={self.outcome})")

"""Exception hierarchy for the SQUARE reproduction library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class IRError(ReproError):
    """Raised for malformed circuits, modules, or programs."""


class UnknownGateError(IRError):
    """Raised when a gate name is not part of the supported gate set."""


class NonClassicalGateError(IRError):
    """Raised when a classical-only operation meets a non-classical gate.

    Classical reversible simulation and automatic uncomputation only make
    sense for circuits built from NOT / CNOT / Toffoli / SWAP gates (see
    Section II-D of the paper).
    """


class IrreversibleBlockError(IRError):
    """Raised when a block that must be invertible contains a measurement."""


class QubitBindingError(IRError):
    """Raised when a statement references a qubit that is not in scope."""


class ValidationError(IRError):
    """Raised when a module or program fails structural validation."""


class ArchitectureError(ReproError):
    """Raised for invalid machine topologies or placement requests."""


class RoutingError(ArchitectureError):
    """Raised when a route between two physical sites cannot be found."""


class ResourceExhaustedError(ReproError):
    """Raised when a program needs more qubits than the machine provides."""


class CompilationError(ReproError):
    """Raised when the SQUARE compiler cannot process a program."""


class SimulationError(ReproError):
    """Raised by the state-vector or classical simulators."""


class ExperimentError(ReproError):
    """Raised when an experiment harness is misconfigured."""


class ServiceError(ReproError):
    """Raised when the compilation service (client or server) fails.

    Covers transport problems (service unreachable), protocol problems
    (malformed request/response payloads) and server-side faults reported
    over HTTP.  Compile-job failures themselves are *not* service errors:
    they come back as structured :class:`repro.core.result.JobFailure`
    entries and re-raise as the original library exception type.
    """


class BackPressureError(ServiceError):
    """Raised when the job queue rejects a submission because it is full.

    This is the service's structured back-pressure signal (HTTP 503 on
    the wire): the request was well-formed but the server is saturated,
    so the client should retry later rather than treat it as a bad
    request.

    Attributes:
        depth: Number of jobs waiting in the queue at rejection time.
        capacity: The queue's configured maximum depth.
    """

    def __init__(self, message: str, *, depth: int = 0,
                 capacity: int = 0) -> None:
        super().__init__(message)
        self.depth = depth
        self.capacity = capacity


class AuthError(ServiceError):
    """Raised when a request's API key resolves to no known tenant.

    The ``X-Repro-Key`` header named a credential the server's
    :class:`repro.tenancy.tenants.TenantRegistry` does not know.  Maps
    to HTTP 401 on the wire.  Requests *without* a key are not an
    error: they resolve to the registry's default (anonymous) tenant.
    """


class QuotaExceededError(BackPressureError):
    """Raised when one tenant's queued-job quota rejects a submission.

    The per-tenant twin of :class:`BackPressureError` (HTTP 429 on the
    wire, not 503): the *server* has capacity, but this tenant already
    has ``max_queued`` jobs waiting.  Other tenants keep submitting —
    which is the point: one noisy tenant's flood back-pressures only
    itself.

    Attributes:
        tenant: Name of the tenant whose quota rejected the push.
        depth: The tenant's waiting-job count at rejection time.
        capacity: The tenant's configured ``max_queued`` cap.
    """

    def __init__(self, message: str, *, tenant: str = "",
                 depth: int = 0, capacity: int = 0) -> None:
        super().__init__(message, depth=depth, capacity=capacity)
        self.tenant = tenant


class ClusterError(ServiceError):
    """Raised when a multi-server sweep cannot be completed.

    Signals cluster-level exhaustion — no live workers remain, or the
    re-dispatch budget ran out with jobs still unfinished — rather than
    any single job's failure (those stay structured
    :class:`repro.core.result.JobFailure` entries, exactly as in a
    single-server sweep).
    """


class TunerError(ReproError):
    """Raised when a tuning run is misconfigured or cannot proceed.

    Covers malformed search spaces (unknown config fields, empty
    ranges), objective specs naming unknown metrics, a session that is
    not a :class:`repro.api.session.Session`, and runs that end with no
    successful candidate to report.  Failures of *individual
    trials* are not tuner errors: they come back as structured
    :class:`repro.core.result.JobFailure` records and simply disqualify
    their candidate.
    """


class BenchError(ReproError):
    """Raised when a benchmark record or history journal is unusable.

    Covers malformed ``BENCH_*.json`` payloads (no recognisable suite
    or metrics mapping), records claiming a schema version newer than
    this library understands, and compare requests whose baseline
    cannot be located.  Noisy-but-parseable history lines are *not*
    errors: the journal reader skips torn tails and reports how many
    lines it dropped, mirroring the telemetry event-log reader.
    """


class UnknownJobError(ServiceError):
    """Raised when a job id does not name a live queued-job record.

    The id may never have existed, or the record may already have been
    garbage-collected by the manager's finished-job retention policy.
    Maps to HTTP 404 on the wire.
    """

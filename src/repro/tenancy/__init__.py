"""Multi-tenant production scheduling + durable job state.

The subsystem that turns the per-user compilation service into a
shared one:

* :mod:`repro.tenancy.tenants` — :class:`Tenant` principals (name,
  role, API key, quota caps) and the :class:`TenantRegistry` resolving
  the ``X-Repro-Key`` request header; keyless requests map to a default
  tenant, so anonymous clients keep working.
* :mod:`repro.tenancy.fairshare` — :class:`FairShareScheduler`, the
  job queue's only pop order: a composite score (role weight + job age
  + deadline urgency − exponentially-decaying per-tenant
  :class:`BurstScoreManager` score), so one tenant's 500-job burst
  cannot starve a quiet tenant's fresh submission, while one tenant's
  equal-priority jobs still run in submission order.
* :mod:`repro.tenancy.store` — :class:`JobStore` job state: the base
  class persists nothing; :class:`JsonlJobStore` journals every
  lifecycle transition (a terminal one with its sweep-entry records)
  to an append-only, auto-compacting JSONL WAL, so a restarted server
  re-enqueues QUEUED work, requeues orphaned RUNNING jobs exactly once,
  and serves pre-crash DONE results byte-identically.

Every :class:`~repro.queue.manager.JobManager` holds a scheduler and a
store; :mod:`repro.service` wires them to HTTP
(``--tenants``/``--store-dir``, 401/429 error mapping, per-tenant
``/stats``); the
:class:`~repro.service.client.ServiceClient` and
:mod:`repro.cluster` fleet executor carry the API key end to end.
"""

from repro.tenancy.fairshare import (
    DEFAULT_HALF_LIFE,
    BurstScoreManager,
    FairShareScheduler,
)
from repro.tenancy.store import (
    DEFAULT_COMPACT_THRESHOLD,
    STORE_VERSION,
    JobStore,
    JsonlJobStore,
    job_snapshot,
)
from repro.tenancy.tenants import (
    ANONYMOUS,
    AUTH_HEADER,
    DEFAULT_ROLE,
    ROLE_WEIGHTS,
    TENANTS_ENV,
    Tenant,
    TenantRegistry,
    coerce_registry,
)

__all__ = [
    "ANONYMOUS",
    "AUTH_HEADER",
    "BurstScoreManager",
    "DEFAULT_COMPACT_THRESHOLD",
    "DEFAULT_HALF_LIFE",
    "DEFAULT_ROLE",
    "FairShareScheduler",
    "JobStore",
    "JsonlJobStore",
    "ROLE_WEIGHTS",
    "STORE_VERSION",
    "TENANTS_ENV",
    "Tenant",
    "TenantRegistry",
    "coerce_registry",
    "job_snapshot",
]

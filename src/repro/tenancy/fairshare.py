"""Fair-share scheduling: burst-score decay + composite pop priority.

Popping by raw priority int lets one tenant submitting 500 jobs starve
everyone behind it for the whole backlog.  The
:class:`FairShareScheduler`, the job queue's only pop order, ranks
waiting jobs by a composite score instead, modeled on the
mqc3-scheduler job manager's factor-weight design:

``score(job) = priority·W_p + role_weight·W_r + age·W_a + urgency
− burst·W_b``

* **priority** — the client-supplied int, still honored (ties between
  equally-situated tenants resolve exactly as before).
* **role weight** — the tenant's :data:`~repro.tenancy.tenants.ROLE_WEIGHTS`
  entry: admin work outranks standard outranks batch.
* **age** — seconds since enqueue, so nothing starves forever.
* **urgency** — grows as a job with a ``deadline_seconds`` budget burns
  through it, up to :data:`URGENCY_WEIGHT` at the deadline.
* **burst** — the tenant's :class:`BurstScoreManager` score: every
  submission adds its cost, and the sum decays exponentially with a
  configurable half-life.  A tenant that just burst 500 jobs scores
  ~500 lower than a quiet tenant's fresh submission — and, half-life by
  half-life, decays back to parity instead of being punished forever.

The weights are the module constants below.  All time flows through
one injectable ``clock`` (default ``time.monotonic``), so fairness
tests run on a deterministic fake clock with no sleeps.  A pop scores
every waiting job at one ``now``, so the score is a pure function of
``(job, now)``: jobs of one tenant with equal priority and role pop in
submission order.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.exceptions import ServiceError
from repro.telemetry.timing import half_life_decay

#: Default burst-score half-life, seconds.  After one half-life of
#: silence a tenant's accumulated burst penalty halves.
DEFAULT_HALF_LIFE = 30.0

#: Composite-score weights (``W_p``, ``W_r``, ``W_a``, the urgency
#: ceiling, ``W_b``).  ``AGE_WEIGHT`` of 0.01/s means ~100 s of waiting
#: outranks one priority point.
PRIORITY_WEIGHT = 1.0
ROLE_WEIGHT = 1.0
AGE_WEIGHT = 0.01
URGENCY_WEIGHT = 2.0
BURST_WEIGHT = 1.0

#: Burst contributions below this are treated as fully decayed, so the
#: score table cannot grow one stale float per tenant forever.
_BURST_EPSILON = 1e-9


class BurstScoreManager:
    """Per-tenant activity scores with exponential half-life decay.

    Each recorded submission adds its ``cost`` to the tenant's score;
    between observations the score decays by ``0.5 ** (dt / half_life)``.
    The decay is applied lazily on read/write, so the manager is O(1)
    per operation regardless of history length.
    """

    def __init__(self, half_life: float = DEFAULT_HALF_LIFE, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if not half_life > 0:
            raise ServiceError(f"burst half-life must be > 0, "
                               f"got {half_life}")
        self.half_life = half_life
        self._clock = clock
        self._lock = threading.Lock()
        #: tenant name -> (score at `at`, `at`).
        self._scores: Dict[str, Tuple[float, float]] = {}
        self.recorded = 0

    def _decayed(self, tenant: str, now: float) -> float:
        score, at = self._scores.get(tenant, (0.0, now))
        if score <= 0.0:
            return 0.0
        return score * half_life_decay(now - at, self.half_life)

    # ------------------------------------------------------------------
    def record(self, tenant: str, cost: float = 1.0) -> float:
        """Charge one submission (``cost`` ~ job count) to ``tenant``;
        returns the tenant's new score."""
        if cost < 0:
            raise ServiceError(f"burst cost must be >= 0, got {cost}")
        now = self._clock()
        with self._lock:
            score = self._decayed(tenant, now) + cost
            self._scores[tenant] = (score, now)
            self.recorded += 1
            return score

    def score(self, tenant: str, now: Optional[float] = None) -> float:
        """The tenant's decayed score at ``now`` (default: the clock's
        current reading); 0.0 when never seen."""
        if now is None:
            now = self._clock()
        with self._lock:
            return self._decayed(tenant, now)

    def scores(self) -> Dict[str, float]:
        """Snapshot of every tracked tenant's current score, dropping
        fully-decayed entries from the table as a side effect."""
        now = self._clock()
        with self._lock:
            fresh = {tenant: self._decayed(tenant, now)
                     for tenant in self._scores}
            self._scores = {tenant: (score, now)
                            for tenant, score in fresh.items()
                            if score > _BURST_EPSILON}
            return {tenant: score for tenant, score in fresh.items()
                    if score > _BURST_EPSILON}

    def restore(self, scores: Mapping[str, float],
                elapsed: float = 0.0) -> Dict[str, float]:
        """Re-seed journaled scores after a restart, decayed by downtime.

        ``elapsed`` is the *wall-clock* seconds since the snapshot was
        journaled — the monotonic clock does not survive a restart, so
        the decay earned while the server was down is applied here,
        once, before the scores re-enter the monotonic domain.  Entries
        decayed below the epsilon stay out of the table; returns what
        was actually restored.  A flooding tenant's penalty therefore
        survives a crash but still ages out on the normal half-life
        schedule.
        """
        now = self._clock()
        factor = half_life_decay(max(0.0, elapsed), self.half_life)
        restored: Dict[str, float] = {}
        with self._lock:
            for tenant, score in scores.items():
                decayed = float(score) * factor
                if decayed > _BURST_EPSILON:
                    self._scores[tenant] = (decayed, now)
                    restored[tenant] = decayed
        return restored

    def __repr__(self) -> str:
        return (f"BurstScoreManager(half_life={self.half_life}, "
                f"tenants={len(self._scores)})")


class FairShareScheduler:
    """Composite pop-priority over queued jobs.

    Every :class:`~repro.queue.queue.JobQueue` holds one, and ``pop``
    returns the highest-*scoring* waiting job; scores are computed at
    pop time, so burst decay and aging keep reordering the backlog
    while it waits.

    Args:
        half_life: Burst-score half-life, seconds.
        clock: Time source for age, urgency, and burst decay.
    """

    def __init__(self, *, half_life: float = DEFAULT_HALF_LIFE,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.burst = BurstScoreManager(half_life, clock=clock)

    # ------------------------------------------------------------------
    def on_push(self, job, record_burst: bool = True) -> None:
        """Queue hook: stamp the enqueue time and charge the burst.

        ``record_burst=False`` is the store-recovery path — re-enqueuing
        a restart's surviving backlog must not penalize its tenants as
        if they had just submitted it all again.
        """
        job.enqueued_at = self.clock()
        if record_burst:
            self.burst.record(self._tenant_name(job), self._cost(job))

    @staticmethod
    def _tenant_name(job) -> str:
        return job.tenant.name if job.tenant is not None else "anonymous"

    @staticmethod
    def _cost(job) -> float:
        """Burst cost of one submission: the number of compile jobs it
        expands to (a 500-entry sweep is 500 units of burst, not 1)."""
        jobs = job.payload.get("jobs")
        if isinstance(jobs, list) and jobs:
            return float(len(jobs))
        spec = job.payload.get("spec")
        if isinstance(spec, dict):
            benchmarks = spec.get("benchmarks") or [None]
            machines = spec.get("machines") or [None]
            policies = spec.get("policies") or [None]
            scales = spec.get("scales") or [None]
            return float(max(1, len(benchmarks) * len(machines)
                             * len(policies) * len(scales)))
        return 1.0

    def restore_burst(self, scores: Mapping[str, float],
                      elapsed: float = 0.0) -> Dict[str, float]:
        """Recovery hook: re-seed a journaled burst-score snapshot (see
        :meth:`BurstScoreManager.restore`)."""
        return self.burst.restore(scores, elapsed)

    # ------------------------------------------------------------------
    def score(self, job, now: float) -> float:
        """A queued job's composite pop priority at ``now``; higher pops
        first.  Every term, the burst penalty included, is read at that
        one ``now``."""
        weight = job.tenant.role_weight if job.tenant is not None else 1.0
        age = max(0.0, now - job.enqueued_at)
        score = (PRIORITY_WEIGHT * job.priority + ROLE_WEIGHT * weight
                 + AGE_WEIGHT * age)
        if job.deadline_seconds:
            score += URGENCY_WEIGHT * min(1.0, age / job.deadline_seconds)
        score -= BURST_WEIGHT * self.burst.score(self._tenant_name(job), now)
        return score

    def stats(self) -> Dict[str, object]:
        """JSON-compatible knob + burst telemetry."""
        return {
            "half_life": self.burst.half_life,
            "weights": {
                "priority": PRIORITY_WEIGHT,
                "role": ROLE_WEIGHT,
                "age": AGE_WEIGHT,
                "urgency": URGENCY_WEIGHT,
                "burst": BURST_WEIGHT,
            },
            "burst_scores": {tenant: round(score, 6) for tenant, score
                             in sorted(self.burst.scores().items())},
        }

    def __repr__(self) -> str:
        return f"FairShareScheduler(half_life={self.burst.half_life})"

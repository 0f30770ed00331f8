"""Job executors: serial and multiprocessing-parallel batch execution.

An executor has one method, ``run(jobs)``: it turns an ordered list of
:class:`~repro.api.job.CompileJob` into the matching ordered list of
outcomes, one :class:`~repro.core.result.CompilationResult` or
:class:`~repro.core.result.JobFailure` per job.  A failing job never
kills its batch here; the :class:`~repro.api.session.Session` decides
whether to keep the failure as an entry or raise it.  Both executors
run every job through :func:`~repro.api.job.execute_job_payload`, so
for a deterministic compiler (and the SQUARE walk is deterministic)
they produce identical results — the parallel executor only changes
wall-clock time, never numbers.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import List, Optional, Sequence, Union

from repro.api.job import CompileJob, execute_job_payload
from repro.core.result import CompilationResult, JobFailure

#: What an executor yields per job.
JobOutcome = Union[CompilationResult, JobFailure]


def _outcome_from_payload(payload: dict) -> JobOutcome:
    """Decode one :func:`~repro.api.job.execute_job_payload` payload."""
    if payload["ok"]:
        result = CompilationResult.from_dict(payload["result"])
        # Re-attach the envelope-carried phase profile (to_dict() stays
        # timing-free on purpose; see CompilationResult.phase_seconds).
        result.phase_seconds.update(payload.get("phase_seconds") or {})
        return result
    return JobFailure.from_dict(payload["failure"])


class SerialExecutor:
    """Run jobs one after another in the calling process."""

    def run(self, jobs: Sequence[CompileJob]) -> List[JobOutcome]:
        """Execute every job in order, capturing library failures per job."""
        return [_outcome_from_payload(execute_job_payload(job))
                for job in jobs]

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor:
    """Fan jobs out over a pool of worker processes.

    Compilation releases no GIL, so process-level parallelism is the only
    way to overlap policy x benchmark sweeps; a full Figure 9/10 sweep
    speeds up near-linearly in the worker count.  Results cross the
    process boundary via
    :meth:`~repro.core.result.CompilationResult.to_dict`, which is cheap
    when ``record_schedule=False`` (the default for sweeps).

    Worker processes import ``repro`` afresh, so benchmarks and policies
    registered at module import time are available in workers; with the
    ``spawn`` start method, registrations done only inside
    ``if __name__ == "__main__":`` are not.

    Args:
        jobs: Worker process count; defaults to the machine's CPU count.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"need at least one worker, got {jobs}")
        self.jobs = jobs or os.cpu_count() or 1

    def run(self, jobs: Sequence[CompileJob]) -> List[JobOutcome]:
        """Execute every job, preserving submission order in the outcomes.

        Workers return tagged payloads rather than raising, so a failing
        job's :class:`~repro.core.result.JobFailure` keeps its
        benchmark/policy/machine across the ``pool.map`` boundary.
        """
        jobs = list(jobs)
        if len(jobs) <= 1 or self.jobs == 1:
            return SerialExecutor().run(jobs)
        workers = min(self.jobs, len(jobs))
        with multiprocessing.Pool(processes=workers) as pool:
            payloads = pool.map(execute_job_payload, jobs)
        return [_outcome_from_payload(payload) for payload in payloads]

    def __repr__(self) -> str:
        return f"ParallelExecutor(jobs={self.jobs})"

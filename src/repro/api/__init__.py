"""Unified compilation service API.

The single front door for compilation at any scale: describe work as
:class:`CompileJob` objects (or let :class:`SweepSpec` expand a
benchmarks x machines x policies x scales product into them), then run
them through a :class:`Session`, which memoizes by job fingerprint and
executes through a pluggable executor — :class:`SerialExecutor` in
process, or :class:`ParallelExecutor` across worker processes.  An
executor has one method, ``run(jobs)``, returning one result or
:class:`~repro.core.result.JobFailure` per job, in order.  The
resulting :class:`SweepResult` filters, tabulates and exports to
JSON/CSV.

Jobs, machine specs and sweep specs all serialize to JSON descriptors
(``to_dict``/``from_dict``), and a :class:`Session` can be backed by a
persistent disk cache — the pieces :mod:`repro.service` assembles into a
network endpoint.

Every experiment module, the ``python -m repro.experiments`` CLI and the
examples sit on top of this package.
"""

from repro.api.executors import JobOutcome, ParallelExecutor, SerialExecutor
from repro.api.job import (
    MACHINE_KINDS,
    CompileJob,
    MachineSpec,
    autosize_compile,
    config_from_dict,
    config_to_dict,
    execute_job,
    execute_job_payload,
    job_failure,
)
from repro.api.session import Session
from repro.api.sweep import SweepEntry, SweepResult, SweepSpec

__all__ = [
    "CompileJob",
    "JobOutcome",
    "MACHINE_KINDS",
    "MachineSpec",
    "ParallelExecutor",
    "SerialExecutor",
    "Session",
    "SweepEntry",
    "SweepResult",
    "SweepSpec",
    "autosize_compile",
    "config_from_dict",
    "config_to_dict",
    "execute_job",
    "execute_job_payload",
    "job_failure",
]

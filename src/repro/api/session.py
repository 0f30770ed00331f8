"""The compilation session: the single front door for running jobs.

A :class:`Session` owns an executor and a two-tier result cache keyed by
job fingerprints — an in-memory memo, optionally backed by a persistent
:class:`~repro.service.cache.DiskCache` so repeated sweeps survive
process restarts.  Every consumer — the experiment modules, the CLI, the
examples, the network service — submits work here, so batching, caching
and parallelism live in exactly one place::

    from repro.api import MachineSpec, Session, SweepSpec

    session = Session(jobs=4, cache_dir="~/.cache/repro")
    spec = (SweepSpec()
            .with_benchmarks("RD53", "ADDER4")
            .with_machines(MachineSpec.nisq_grid(5, 5))
            .with_policies("lazy", "eager", "square"))
    sweep = session.run(spec)
    print(sweep.table("NISQ sweep"))
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Union

from repro.exceptions import ExperimentError
from repro.api.executors import ParallelExecutor, SerialExecutor
from repro.api.job import CompileJob, MachineSpec
from repro.api.sweep import SweepEntry, SweepResult, SweepSpec
from repro.core.compiler import preset
from repro.core.result import CompilationResult, JobFailure
from repro.ir.program import Program
from repro.telemetry.spans import (child_span, current_span,
                                   record_compile_spans)


class _Flight:
    """One in-flight compilation, owned by exactly one :meth:`Session.run`.

    Concurrent runs needing the same fingerprint wait on :attr:`event`
    instead of recompiling; the owner settles :attr:`outcome` with the
    result or failure before setting the event.  ``None`` after the event
    fires means the owner died without a structured outcome (executor
    bug, interrupt) and waiters must synthesize a failure.
    """

    __slots__ = ("event", "outcome")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.outcome: Optional[object] = None


class Session:
    """Executes compile jobs with memoization and a pluggable executor.

    Identical jobs (same fingerprint) compile once per session; repeats
    are served from the in-memory cache, which makes overlapping sweeps —
    e.g. the three Figure 8 panels over the same benchmark suite — almost
    free after the first one.  With a disk cache attached, results also
    persist across sessions: a restarted process re-serves earlier
    compilations from disk instead of recompiling.

    Sessions are thread-safe with single-flight semantics: any number of
    threads (e.g. a :class:`~repro.queue.workers.WorkerPool`) may call
    :meth:`run` concurrently, and a fingerprint claimed by one batch is
    never recompiled by another — late arrivals wait for the in-flight
    compilation and share its result.  The lock only guards cache
    bookkeeping; compilation itself runs unlocked, so concurrent batches
    genuinely overlap.

    Args:
        executor: Explicit executor instance; any object with a
            ``run(jobs)`` method that returns one
            :class:`~repro.core.result.CompilationResult` or
            :class:`~repro.core.result.JobFailure` per job, in order.
            The session applies the failure mode: isolation keeps the
            failures as entries, otherwise the first one is raised after
            every result is cached.
        jobs: Shorthand when ``executor`` is None: 1 builds a
            :class:`~repro.api.executors.SerialExecutor`, more builds a
            :class:`~repro.api.executors.ParallelExecutor` with that many
            worker processes.
        disk_cache: Persistent second cache tier; any object with
            ``get(fingerprint)``/``put(fingerprint, result, job=...)``
            works, normally a :class:`~repro.service.cache.DiskCache`.
            Each fresh result is written through by one ``put`` as it
            settles, and that ``put`` is the entry's whole commit.
        cache_dir: Shorthand for ``disk_cache=DiskCache(cache_dir)``.
        isolate_failures: Default failure-handling mode for :meth:`run`:
            when True, a job that raises a library error yields a
            :class:`~repro.core.result.JobFailure` entry instead of
            killing its batch (the mode the network service runs in).
        verify: When True, run the static compilation verifier
            (:func:`repro.verify.verify_result`) over every successful
            result as a post-pass and attach the
            :class:`~repro.verify.diagnostics.VerificationReport` to the
            sweep entry.  Reports are memoized per job fingerprint, so
            cache hits re-attach the existing report instead of
            re-checking.
        metrics: Optional :class:`~repro.telemetry.MetricsRegistry`.
            When attached, every *fresh* compilation (not cache or disk
            hits) observes its per-phase compile seconds into the
            ``repro_compile_phase_seconds{phase=...}`` histograms and
            its total into ``repro_compile_seconds`` — the profiling
            substrate the hot-path work reads from ``/metrics``.  The
            service attaches its registry here automatically.
        events: Optional :class:`~repro.telemetry.events.EventLog`.
            When attached, cache-tier outcomes and verifier findings
            are narrated as structured events (correlated to the
            worker's ``job.run`` span when one is active).  The service
            attaches its event log here automatically.
    """

    def __init__(self, executor=None, jobs: int = 1, *,
                 disk_cache=None, cache_dir: Optional[str] = None,
                 isolate_failures: bool = False,
                 verify: bool = False, metrics=None,
                 events=None) -> None:
        if executor is None:
            executor = SerialExecutor() if jobs <= 1 else ParallelExecutor(jobs)
        if disk_cache is not None and cache_dir is not None:
            raise ExperimentError(
                "pass disk_cache= or cache_dir=, not both"
            )
        if cache_dir is not None:
            # Imported lazily: repro.service sits on top of repro.api.
            from repro.service.cache import DiskCache

            disk_cache = DiskCache(cache_dir)
        self.executor = executor
        self.disk_cache = disk_cache
        self.isolate_failures = isolate_failures
        self.verify = verify
        self.metrics = metrics
        self.events = events
        self._cache: Dict[str, CompilationResult] = {}
        self._verify_cache: Dict[str, object] = {}
        self._lock = threading.Lock()
        self._inflight: Dict[str, _Flight] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.disk_hits = 0
        self.verified_results = 0
        self.verify_findings = 0

    # ------------------------------------------------------------------
    def run(self, work: Union[SweepSpec, Sequence[CompileJob]], *,
            isolate_failures: Optional[bool] = None) -> SweepResult:
        """Execute a sweep spec or an explicit job list.

        Duplicate jobs inside one batch execute once; results come back
        in submission order regardless of executor.

        Args:
            work: A :class:`~repro.api.sweep.SweepSpec` or job sequence.
            isolate_failures: Override the session's default mode for
                this batch; see the class docstring.

        Raises:
            ExperimentError: If the executor returns the wrong number of
                results for the batch.
        """
        isolate = (self.isolate_failures if isolate_failures is None
                   else isolate_failures)
        jobs = work.jobs() if isinstance(work, SweepSpec) else list(work)
        fingerprints = [job.fingerprint() for job in jobs]

        # Partition the batch: already memoized, claimed by this call
        # (``mine`` — we compile, everyone else waits on our flight), or
        # claimed by a concurrent call (``theirs`` — we wait).
        resolved: Dict[str, CompilationResult] = {}
        mine: Dict[str, CompileJob] = {}
        theirs: Dict[str, _Flight] = {}
        # child_span is a no-op unless a span is already active (the
        # service worker's job.run span) — plain library use stays at
        # one contextvar read per tier.
        with child_span("cache.memory") as memo_span:
            with self._lock:
                for job, fingerprint in zip(jobs, fingerprints):
                    if (fingerprint in resolved or fingerprint in mine
                            or fingerprint in theirs):
                        continue
                    hit = self._cache.get(fingerprint)
                    if hit is not None:
                        resolved[fingerprint] = hit
                        continue
                    flight = self._inflight.get(fingerprint)
                    if flight is not None:
                        theirs[fingerprint] = flight
                    else:
                        self._inflight[fingerprint] = _Flight()
                        mine[fingerprint] = job
            if memo_span is not None:
                memo_span.labels["hits"] = str(len(resolved))
                memo_span.labels["misses"] = str(len(mine) + len(theirs))
            if self.events is not None:
                self.events.debug(
                    "cache.memory consulted", component="cache",
                    fields={"tier": "memory", "hits": len(resolved),
                            "misses": len(mine) + len(theirs)})

        failures: Dict[str, JobFailure] = {}
        disk_restored = set()
        fresh = set()
        try:
            if self.disk_cache is not None and mine:
                with child_span("cache.disk") as disk_span:
                    lookups = len(mine)
                    for fingerprint in list(mine):
                        restored = self.disk_cache.get(fingerprint)
                        if restored is not None:
                            resolved[fingerprint] = restored
                            disk_restored.add(fingerprint)
                            with self._lock:
                                self.disk_hits += 1
                            self._settle(fingerprint, restored)
                            del mine[fingerprint]
                    if disk_span is not None:
                        disk_span.labels["lookups"] = str(lookups)
                        disk_span.labels["hits"] = str(len(disk_restored))
                    if self.events is not None:
                        self.events.debug(
                            "cache.disk consulted", component="cache",
                            fields={"tier": "disk", "lookups": lookups,
                                    "hits": len(disk_restored)})
            if mine:
                with child_span("session.compile",
                                labels={"jobs": str(len(mine))}
                                ) as compile_span:
                    outcomes = self.executor.run(list(mine.values()))
                if len(outcomes) != len(mine):
                    raise ExperimentError(
                        f"executor {self.executor!r} returned "
                        f"{len(outcomes)} result(s) for a batch of "
                        f"{len(mine)} job(s); an executor must return "
                        f"exactly one result per job, in order"
                    )
                for fingerprint, outcome in zip(list(mine.keys()), outcomes):
                    if isinstance(outcome, JobFailure):
                        failures[fingerprint] = outcome
                    else:
                        resolved[fingerprint] = outcome
                        if self.disk_cache is not None:
                            self.disk_cache.put(fingerprint, outcome,
                                                job=mine[fingerprint])
                    self._settle(fingerprint, outcome)
                fresh = set(mine)
                if compile_span is not None:
                    # Bridge the PhaseTimer output into the waterfall:
                    # one synthesized compile span per fresh result with
                    # a phase.<name> child per phase — the compiler
                    # itself is never re-instrumented.
                    record_compile_spans(
                        compile_span,
                        [(job.program_label, resolved.get(fingerprint))
                         for fingerprint, job in mine.items()])
                if self.metrics is not None:
                    self._observe_compile_metrics(resolved, fresh)
        finally:
            # Settle whatever this call still owns so concurrent waiters
            # never hang, even when the executor raised out of the batch.
            self._abandon(mine)

        # Wait for fingerprints owned by concurrent batches; their
        # results land in our batch as cache hits, their failures as
        # failure entries (exactly as if this batch had run them).
        for fingerprint, flight in theirs.items():
            flight.event.wait()
            outcome = flight.outcome
            if isinstance(outcome, CompilationResult):
                resolved[fingerprint] = outcome
            elif isinstance(outcome, JobFailure):
                failures[fingerprint] = outcome
            else:
                job = next(j for j, f in zip(jobs, fingerprints)
                           if f == fingerprint)
                failures[fingerprint] = JobFailure(
                    program_name=job.program_label,
                    machine_name=job.machine.describe(),
                    policy_name=job.policy_label,
                    error_type="ExperimentError",
                    message="concurrent compilation of this job died "
                            "without producing a result",
                )

        if failures and not isolate:
            # Completed work is already cached (memory and disk), so
            # a rerun after fixing the bad job resumes warm.
            raise next(iter(failures.values())).to_exception()

        entries: List[SweepEntry] = []
        disk_credit = set(disk_restored)
        with self._lock:
            for job, fingerprint in zip(jobs, fingerprints):
                failed = fingerprint in failures
                # Failures are never cached, so every occurrence of a
                # failed job — including in-batch duplicates — is a miss.
                cached = not failed and fingerprint not in fresh
                if cached:
                    self.cache_hits += 1
                else:
                    self.cache_misses += 1
                    fresh.discard(fingerprint)  # later repeats are hits
                if failed:
                    entries.append(SweepEntry(job=job, result=None,
                                              error=failures[fingerprint],
                                              cached=False))
                else:
                    disk_hit = fingerprint in disk_credit
                    disk_credit.discard(fingerprint)
                    entries.append(SweepEntry(job=job,
                                              result=resolved[fingerprint],
                                              cached=cached,
                                              disk_hit=disk_hit))
        if self.verify:
            entries = self._verify_entries(entries)
        return SweepResult(entries)

    def recall(self, job: CompileJob) -> Optional[SweepEntry]:
        """Answer ``job`` from the in-memory tier alone; None on a miss.

        A hit is accounted as :meth:`run` accounts one: a cache hit, a
        ``cache.memory`` span under the active span, the tier event, and
        the verifier report when :attr:`verify` is on.  A miss records
        nothing, so a caller that falls back to :meth:`run` is counted
        once.  The service answers ``/compile`` memory hits with this on
        the request's own thread.
        """
        fingerprint = job.fingerprint()
        started = time.perf_counter()
        with self._lock:
            result = self._cache.get(fingerprint)
            if result is None:
                return None
            self.cache_hits += 1
        active = current_span()
        if active is not None and active.recorder is not None:
            active.recorder.add(
                "cache.memory", trace_id=active.trace_id,
                parent_id=active.span_id, start_mono=started,
                duration=time.perf_counter() - started,
                labels={"hits": "1", "misses": "0"})
        if self.events is not None:
            self.events.debug("cache.memory consulted", component="cache",
                              fields={"tier": "memory", "hits": 1,
                                      "misses": 0})
        entry = SweepEntry(job=job, result=result, cached=True)
        if self.verify:
            entry = self._verify_entries([entry])[0]
        return entry

    def _observe_compile_metrics(self, resolved: Dict[str, object],
                                 fresh) -> None:
        """Observe fresh compilations into the attached registry.

        Only genuinely compiled results count — cache and disk hits
        would re-observe stale durations and skew the histograms.
        """
        phases = self.metrics.histogram(
            "repro_compile_phase_seconds",
            "Exclusive per-phase compile seconds of fresh compilations.",
            labelnames=("phase",))
        totals = self.metrics.histogram(
            "repro_compile_seconds",
            "End-to-end compile seconds of fresh compilations.")
        for fingerprint in fresh:
            result = resolved.get(fingerprint)
            if result is None:
                continue
            totals.observe(result.compile_seconds)
            for phase, seconds in result.phase_seconds.items():
                phases.labels(phase=phase).observe(seconds)

    def _verify_entries(self,
                        entries: List[SweepEntry]) -> List[SweepEntry]:
        """Attach static-verifier reports to every successful entry.

        Runs outside the session lock (verification is read-only over
        immutable results); the per-fingerprint report memo is guarded
        like the result cache so concurrent batches verify a fingerprint
        at most once in the common case.
        """
        from dataclasses import replace as replace_entry

        from repro.verify import verify_result

        verified: List[SweepEntry] = []
        for entry in entries:
            if entry.result is None:
                verified.append(entry)
                continue
            fingerprint = entry.job.fingerprint()
            with self._lock:
                report = self._verify_cache.get(fingerprint)
            if report is None:
                report = verify_result(entry.result)
                with self._lock:
                    self._verify_cache[fingerprint] = report
                    self.verified_results += 1
                    self.verify_findings += len(report.findings)
                if self.events is not None and report.findings:
                    self.events.warning(
                        "verifier findings", component="verify",
                        fields={"benchmark": entry.job.program_label,
                                "findings": len(report.findings),
                                "rules": sorted({finding.rule for finding
                                                 in report.findings})})
            verified.append(replace_entry(entry, verification=report))
        return verified

    def _settle(self, fingerprint: str, outcome) -> None:
        """Publish an owned fingerprint's outcome and wake its waiters.

        Results enter the memo cache atomically with the flight's removal
        from the in-flight registry, so another batch always sees the
        fingerprint either in flight or cached — never neither.  Failures
        are removed without caching (the next batch retries them).
        """
        with self._lock:
            flight = self._inflight.pop(fingerprint, None)
            if isinstance(outcome, CompilationResult):
                self._cache[fingerprint] = outcome
        if flight is not None:
            flight.outcome = outcome
            flight.event.set()

    def _abandon(self, mine: Dict[str, CompileJob]) -> None:
        """Settle any still-owned flights with no outcome (error unwind)."""
        for fingerprint in mine:
            with self._lock:
                flight = self._inflight.pop(fingerprint, None)
            if flight is not None:
                flight.event.set()

    def submit(self, job: CompileJob) -> CompilationResult:
        """Execute (or recall) a single job.

        Raises the job's library error even when the session defaults to
        failure isolation — a single-job submission has no batch to
        protect.
        """
        entry = self.run([job])[0]
        if entry.error is not None:
            raise entry.error.to_exception()
        return entry.result

    def compile(self, program_or_benchmark: Union[str, Program],
                machine: Optional[MachineSpec] = None,
                policy: str = "square",
                overrides: Optional[Dict[str, object]] = None,
                **config_overrides) -> CompilationResult:
        """Convenience single compilation by benchmark name or program.

        Args:
            program_or_benchmark: Registered benchmark name, or an
                in-memory :class:`~repro.ir.program.Program`.
            machine: Target machine spec; defaults to autosized NISQ.
            policy: Policy preset name.
            overrides: Benchmark size overrides (benchmark jobs only).
            config_overrides: :class:`~repro.core.compiler.CompilerConfig`
                field overrides, e.g. ``decompose_toffoli=True``.
        """
        machine = machine or MachineSpec.nisq_autosize()
        config = preset(policy, **config_overrides)
        if isinstance(program_or_benchmark, str):
            job = CompileJob(benchmark=program_or_benchmark, machine=machine,
                             config=config,
                             overrides=tuple(sorted((overrides or {}).items())))
        else:
            if overrides:
                raise ExperimentError(
                    "overrides= only apply to benchmark names; size an "
                    "in-memory program when you build it"
                )
            job = CompileJob(program=program_or_benchmark, machine=machine,
                             config=config)
        return self.submit(job)

    # ------------------------------------------------------------------
    def clear_cache(self) -> None:
        """Drop every memoized result (the disk tier is left intact)."""
        with self._lock:
            self._cache.clear()

    @property
    def cache_size(self) -> int:
        """Number of results memoized in memory."""
        return len(self._cache)

    def stats(self) -> Dict[str, object]:
        """Cache and executor statistics, JSON-compatible."""
        stats: Dict[str, object] = {
            "executor": repr(self.executor),
            "cache_size": self.cache_size,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "disk_hits": self.disk_hits,
        }
        if self.verify:
            stats["verify"] = {
                "verified_results": self.verified_results,
                "findings": self.verify_findings,
            }
        if self.disk_cache is not None:
            stats["disk_cache"] = self.disk_cache.stats()
        return stats

    def __repr__(self) -> str:
        disk = "" if self.disk_cache is None else f", disk={self.disk_cache!r}"
        return (f"Session(executor={self.executor!r}, "
                f"cached={self.cache_size}, hits={self.cache_hits}, "
                f"misses={self.cache_misses}{disk})")

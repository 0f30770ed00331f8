"""The tuning run: strategy rounds executed through a pluggable backend.

A :class:`TuningRun` wires the tuner's pieces together: it asks its
:class:`~repro.tuner.strategies.SearchStrategy` for rounds of
candidates, turns ``candidate x benchmark x scale`` trials into ordinary
:class:`~repro.api.job.CompileJob` batches, executes them through a
pluggable backend — a :class:`~repro.api.session.Session` (in-process,
or driving a whole fleet through a
:class:`~repro.cluster.executor.FleetExecutor`) or a remote
:class:`~repro.service.client.ServiceClient` — and scores the outcomes
with its :class:`~repro.tuner.objective.MultiObjective`.

Two properties make runs cheap to repeat and safe to kill:

* **Fingerprint memoization.**  Trials are deduplicated by job
  fingerprint across the whole run, so a benchmark whose scale
  overrides do not change between racing rounds (or two candidates
  resolving to the same config) compiles exactly once.
* **An append-only JSONL journal.**  Every executed trial is journaled
  the moment its result lands.  A killed run resumes by pointing a new
  :class:`TuningRun` at the same journal: journaled trials are restored
  instead of recompiled (zero repeat compilations — observable through
  the backend's cache accounting), and the deterministic strategy
  replays the identical rounds from there.  A journal records its run's
  fingerprint, so resuming with a different space/objective/strategy/
  benchmark set fails fast instead of silently mixing runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro import journal
from repro.exceptions import TunerError
from repro.api.job import CompileJob, MachineSpec
from repro.api.session import Session
from repro.api.sweep import SweepEntry
from repro.tuner.objective import (
    MultiObjective,
    Objective,
    metric_values,
)
from repro.tuner.report import (
    CandidateEvaluation,
    RoundResult,
    TuningReport,
)
from repro.tuner.space import Candidate, SearchSpace, candidate_key
from repro.tuner.strategies import Round, SearchStrategy
from repro.workloads.registry import (
    benchmark_overrides,
    canonical_benchmark_name,
)

#: Journal schema version; bump on incompatible record changes.
JOURNAL_VERSION = 1

#: ``on_trial`` callback: one JSON-compatible trial record, fired after
#: the record has been journaled (so a callback that raises — or a
#: process killed inside one — never loses the trial).
TrialCallback = Callable[[Dict[str, object]], None]


@dataclass(frozen=True)
class Trial:
    """One evaluation unit: a candidate on one benchmark at one scale."""

    benchmark: str
    scale: str
    candidate: Candidate
    job: CompileJob
    fingerprint: str


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class _SessionBackend:
    """Runs trial batches through an in-process session."""

    kind = "session"

    def __init__(self, session: Session) -> None:
        self.session = session

    def run(self, jobs: Sequence[CompileJob]) -> Sequence[SweepEntry]:
        return self.session.run(jobs, isolate_failures=True)

    def __repr__(self) -> str:
        return f"_SessionBackend({self.session!r})"


class _RemoteBackend:
    """Runs trial batches through a remote ``run(jobs)`` surface, such
    as a :class:`~repro.service.client.ServiceClient`, which isolates
    job failures into structured entries already."""

    kind = "service"

    def __init__(self, target) -> None:
        self.target = target

    def run(self, jobs: Sequence[CompileJob]) -> Sequence[SweepEntry]:
        return self.target.run(list(jobs))

    def __repr__(self) -> str:
        return f"_RemoteBackend({self.target!r})"


def _resolve_backend(backend):
    """Adapt the caller's backend object (None = a fresh local session)."""
    if backend is None:
        return _SessionBackend(Session())
    if isinstance(backend, Session):
        return _SessionBackend(backend)
    if hasattr(backend, "run"):
        return _RemoteBackend(backend)
    raise TunerError(
        f"backend {backend!r} is not a Session or ServiceClient (nor "
        f"anything with a run(jobs) method)")


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class TrialJournal:
    """Append-only JSONL record of executed trials, keyed by fingerprint.

    Line 1 is a header carrying the owning run's fingerprint; every
    further line is one trial record.  Loading tolerates a torn final
    line (a killed process's wound, cut by the next append; see
    :mod:`repro.journal`) but refuses one naming a different run.
    """

    def __init__(self, path, run_fingerprint: str) -> None:
        self.path = Path(path)
        self.run_fingerprint = run_fingerprint
        self.restored: Dict[str, Dict[str, object]] = {}
        records, torn = journal.read(self.path)
        if records or torn:
            if not records or records[0].get("type") != "header":
                raise TunerError(
                    f"journal {self.path} has no header line; refusing to "
                    f"resume from it (delete it to start fresh)")
            header = records[0]
            if header.get("version") != JOURNAL_VERSION:
                raise TunerError(
                    f"journal {self.path} has schema version "
                    f"{header.get('version')!r}, expected {JOURNAL_VERSION}")
            if header.get("run") != self.run_fingerprint:
                raise TunerError(
                    f"journal {self.path} belongs to run "
                    f"{str(header.get('run'))[:12]}..., not this run "
                    f"({self.run_fingerprint[:12]}...); same space/objective/"
                    f"strategy/benchmarks/machine are required to resume")
            for record in records[1:]:
                if record.get("type") == "trial" and "fingerprint" in record:
                    self.restored[record["fingerprint"]] = record
        # Sorted keys: existing journals start with exactly this line.
        self._header = journal.encode({"run": run_fingerprint,
                                       "type": "header",
                                       "version": JOURNAL_VERSION})
        journal.Journal(self.path, self._header).close()

    def append_trial(self, record: Dict[str, object]) -> None:
        """Persist one executed trial (flushed before returning)."""
        trials = journal.Journal(self.path, self._header)
        try:
            trials.append(dict(record, type="trial"))
        finally:
            trials.close()


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
class TuningRun:
    """One search over a space, executed trial by journaled trial.

    Args:
        space: The candidate space.
        objective: A :class:`~repro.tuner.objective.MultiObjective`, a
            single :class:`~repro.tuner.objective.Objective`, or a CLI
            shorthand string (``"aqv"``, ``"max:..."``).
        strategy: The round planner.
        benchmarks: Registered benchmark names every candidate is
            evaluated on; a candidate's score aggregates (sums) its
            metrics across them.
        machine: Target machine spec for every trial; defaults to
            autosized NISQ.
        backend: A :class:`~repro.api.session.Session` (wrap a
            :class:`~repro.cluster.executor.FleetExecutor` in one to
            tune on a fleet) or a
            :class:`~repro.service.client.ServiceClient`; None builds a
            fresh serial session.
        journal_path: Append-only JSONL trial journal; pass the same
            path again to resume a killed run without recompiling its
            journaled trials.
        on_trial: Callback fired once per *executed* trial, after the
            record hit the journal.

    Attributes:
        trials_total: Trial evaluations requested across all rounds.
        trials_executed: Trials actually compiled through the backend.
        trials_deduped: Trials served from the in-run fingerprint memo
            (racing re-evaluations whose fingerprints did not change,
            in-round duplicates).
        journal_restored: Trials restored from the journal instead of
            executed — the resume path's "zero repeat compilations".
    """

    def __init__(self, space: SearchSpace,
                 objective: Union[MultiObjective, Objective, str],
                 strategy: SearchStrategy,
                 benchmarks: Sequence[str], *,
                 machine: Optional[MachineSpec] = None,
                 backend=None,
                 journal_path=None,
                 on_trial: Optional[TrialCallback] = None) -> None:
        if isinstance(objective, (Objective, str)):
            objective = MultiObjective(objective)
        if not benchmarks:
            raise TunerError("a TuningRun needs at least one benchmark")
        self.space = space
        self.objective = objective
        self.strategy = strategy
        self.benchmarks = tuple(canonical_benchmark_name(name)
                                for name in benchmarks)
        self.machine = machine or MachineSpec.nisq_autosize()
        self.backend = _resolve_backend(backend)
        self.on_trial = on_trial
        self.journal: Optional[TrialJournal] = None
        if journal_path is not None:
            self.journal = TrialJournal(journal_path, self.run_fingerprint())
        #: Fingerprint -> trial record, seeded from the journal.
        self._memo: Dict[str, Dict[str, object]] = \
            dict(self.journal.restored) if self.journal else {}
        self.trials_total = 0
        self.trials_executed = 0
        self.trials_deduped = 0
        self.journal_restored = len(self._memo)

    # ------------------------------------------------------------------
    def run_descriptor(self) -> Dict[str, object]:
        """Everything that determines the run's outcome, as JSON data.

        Deliberately excludes the backend and journal path: a run is
        the same run — same rounds, same trials, same leaderboard — no
        matter where its jobs compile, so a journal written against a
        local session resumes cleanly against a cluster (and vice
        versa).
        """
        return {
            "space": self.space.describe(),
            "objective": self.objective.describe(),
            "strategy": self.strategy.describe(),
            "benchmarks": list(self.benchmarks),
            "machine": self.machine.to_dict(),
        }

    def run_fingerprint(self) -> str:
        """Stable hex digest identifying this run's configuration."""
        canonical = json.dumps(self.run_descriptor(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    def _trials_for(self, round_: Round) -> List[Trial]:
        """Expand one round into its ordered trial list."""
        trials: List[Trial] = []
        for candidate in round_.candidates:
            config = self.space.config_for(candidate)
            for benchmark in self.benchmarks:
                job = CompileJob(
                    benchmark=benchmark,
                    machine=self.machine,
                    config=config,
                    overrides=tuple(sorted(
                        benchmark_overrides(benchmark, round_.scale)
                        .items())),
                )
                trials.append(Trial(
                    benchmark=benchmark, scale=round_.scale,
                    candidate=dict(candidate), job=job,
                    fingerprint=job.fingerprint()))
        return trials

    def _record(self, trial: Trial, entry: SweepEntry) -> Dict[str, object]:
        """Serialize one executed trial to its journal/memo record."""
        record: Dict[str, object] = {
            "fingerprint": trial.fingerprint,
            "benchmark": trial.benchmark,
            "scale": trial.scale,
            "candidate": dict(trial.candidate),
            "ok": entry.ok,
        }
        if entry.ok:
            record["metrics"] = metric_values(entry.result)
        else:
            record["error"] = entry.error.to_dict()
        return record

    def _execute_round(self, round_: Round) -> List[Trial]:
        """Run one round's fresh trials; returns the round's trial list
        with every fingerprint resolved into the memo (restored or
        fresh)."""
        trials = self._trials_for(round_)
        self.trials_total += len(trials)
        pending: "OrderedDict[str, Trial]" = OrderedDict()
        for trial in trials:
            if trial.fingerprint in self._memo:
                self.trials_deduped += 1
            elif trial.fingerprint not in pending:
                pending[trial.fingerprint] = trial
            else:
                self.trials_deduped += 1
        if pending:
            entries = self.backend.run(
                [trial.job for trial in pending.values()])
            if len(entries) != len(pending):
                raise TunerError(
                    f"backend {self.backend!r} returned {len(entries)} "
                    f"entries for {len(pending)} submitted trial(s)")
            for trial, entry in zip(pending.values(), entries):
                record = self._record(trial, entry)
                self._memo[trial.fingerprint] = record
                self.trials_executed += 1
                if self.journal is not None:
                    self.journal.append_trial(record)
                if self.on_trial is not None:
                    self.on_trial(record)
        return trials

    def _evaluate(self, round_: Round) -> List[CandidateEvaluation]:
        """Execute and score one round, one evaluation per candidate."""
        trials = self._execute_round(round_)
        by_candidate: Dict[str, Dict[str, Dict[str, object]]] = {}
        for trial in trials:
            by_candidate.setdefault(
                candidate_key(trial.candidate), {})[trial.benchmark] = \
                self._memo[trial.fingerprint]
        evaluations: List[CandidateEvaluation] = []
        for candidate in round_.candidates:
            records = by_candidate[candidate_key(candidate)]
            per_benchmark: Dict[str, Dict[str, object]] = {}
            aggregate: Dict[str, float] = {}
            ok = True
            for benchmark in self.benchmarks:
                record = records[benchmark]
                if record["ok"]:
                    metrics = record["metrics"]
                    per_benchmark[benchmark] = {"ok": True,
                                                "metrics": dict(metrics)}
                    for key, value in metrics.items():
                        aggregate[key] = aggregate.get(key, 0) + value
                else:
                    ok = False
                    per_benchmark[benchmark] = {"ok": False,
                                                "error": record["error"]}
            evaluations.append(CandidateEvaluation(
                candidate=dict(candidate),
                round_number=round_.number,
                scale=round_.scale,
                ok=ok,
                score=self.objective.scalarize(aggregate) if ok else None,
                metrics=aggregate if ok else None,
                per_benchmark=per_benchmark,
            ))
        return evaluations

    # ------------------------------------------------------------------
    def run(self) -> TuningReport:
        """Drive the strategy to completion; returns the report.

        Deterministic: with a seeded strategy, the same run
        configuration produces a byte-identical
        :meth:`~repro.tuner.report.TuningReport.to_json` export on any
        backend, and a resumed run converges to the same report as an
        uninterrupted one.
        """
        rounds: List[RoundResult] = []
        round_ = self.strategy.first_round(self.space)
        while round_ is not None:
            if not round_.candidates:
                break
            evaluations = self._evaluate(round_)
            rounds.append(RoundResult(number=round_.number,
                                      scale=round_.scale,
                                      evaluations=evaluations))
            scored = [(evaluation.candidate,
                       evaluation.score if evaluation.score is not None
                       else math.inf)
                      for evaluation in evaluations]
            round_ = self.strategy.next_round(self.space, round_, scored)
        if not rounds:
            raise TunerError("the strategy proposed no candidates to try")
        return TuningReport(
            descriptor=self.run_descriptor(),
            objective=self.objective,
            benchmarks=self.benchmarks,
            rounds=rounds,
        )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Run execution counters, JSON-compatible."""
        return {
            "backend": self.backend.kind,
            "trials_total": self.trials_total,
            "trials_executed": self.trials_executed,
            "trials_deduped": self.trials_deduped,
            "journal_restored": self.journal_restored,
            "journal_path": (str(self.journal.path)
                             if self.journal else None),
        }

    def __repr__(self) -> str:
        return (f"TuningRun(space={self.space!r}, "
                f"strategy={self.strategy!r}, "
                f"benchmarks={list(self.benchmarks)}, "
                f"backend={self.backend.kind})")

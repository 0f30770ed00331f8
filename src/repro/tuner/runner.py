"""The tuning run: strategy rounds executed through a session.

A :class:`TuningRun` wires the tuner's pieces together: it asks its
:class:`~repro.tuner.strategies.SearchStrategy` for rounds of
candidates, turns ``candidate x benchmark x scale`` trials into ordinary
:class:`~repro.api.job.CompileJob` batches, runs them through a
:class:`~repro.api.session.Session` (in-process, or driving a whole
fleet through a :class:`~repro.cluster.executor.FleetExecutor`) and
scores the outcomes with its
:class:`~repro.tuner.objective.MultiObjective`.

Two properties make runs cheap to repeat and safe to kill:

* **Fingerprint memoization.**  Trials are deduplicated by job
  fingerprint across the whole run, so a benchmark whose scale
  overrides do not change between racing rounds (or two candidates
  resolving to the same config) compiles exactly once.
* **The session's disk cache is the resume.**  With
  ``Session(cache_dir=...)`` every successful trial is written to the
  content-addressed cache as its result settles.  A killed run resumes
  by running the same search on a new ``Session(cache_dir=same)``: the
  deterministic strategy replays the identical rounds, every trial that
  succeeded before the kill is a disk hit, and only new work counts in
  ``session.cache_misses``.  Failed trials are never cached, so they
  compile again on resume.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

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

#: ``on_trial`` callback: one JSON-compatible trial record, fired after
#: its batch returned from the session (so with a disk cache, a
#: successful trial is already on disk when a callback raises or the
#: process dies inside one).
TrialCallback = Callable[[Dict[str, object]], None]


@dataclass(frozen=True)
class Trial:
    """One evaluation unit: a candidate on one benchmark at one scale."""

    benchmark: str
    scale: str
    candidate: Candidate
    job: CompileJob
    fingerprint: str


class TuningRun:
    """One search over a space, executed batch by batch in a session.

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
        session: The :class:`~repro.api.session.Session` every trial
            batch runs through; ``Session(FleetExecutor(urls))`` tunes
            on a fleet.  Give it a ``cache_dir`` and pass the same
            directory again to resume a killed run: trials that
            succeeded come back as disk hits, failed ones compile
            again.  None builds a fresh serial session.
        on_trial: Callback fired once per *executed* trial, after its
            batch returned from the session.

    Attributes:
        trials_total: Trial evaluations requested across all rounds.
        trials_executed: Trials run through the session: compiled, or
            restored from its cache tiers.
        trials_deduped: Trials served from the in-run fingerprint memo
            (racing re-evaluations whose fingerprints did not change,
            in-round duplicates).
    """

    def __init__(self, space: SearchSpace,
                 objective: Union[MultiObjective, Objective, str],
                 strategy: SearchStrategy,
                 benchmarks: Sequence[str], *,
                 machine: Optional[MachineSpec] = None,
                 session: Optional[Session] = None,
                 on_trial: Optional[TrialCallback] = None) -> None:
        if isinstance(objective, (Objective, str)):
            objective = MultiObjective(objective)
        if not benchmarks:
            raise TunerError("a TuningRun needs at least one benchmark")
        if session is not None and not isinstance(session, Session):
            raise TunerError(
                f"session {session!r} is not a Session (wrap a "
                f"FleetExecutor in one to tune on a fleet)")
        self.space = space
        self.objective = objective
        self.strategy = strategy
        self.benchmarks = tuple(canonical_benchmark_name(name)
                                for name in benchmarks)
        self.machine = machine or MachineSpec.nisq_autosize()
        self.session = session if session is not None else Session()
        self.on_trial = on_trial
        #: Fingerprint -> trial record: the score table, which also
        #: dedups failed trials (the session never caches those).
        self._memo: Dict[str, Dict[str, object]] = {}
        self.trials_total = 0
        self.trials_executed = 0
        self.trials_deduped = 0

    # ------------------------------------------------------------------
    def run_descriptor(self) -> Dict[str, object]:
        """Everything that determines the run's outcome, as JSON data.

        Deliberately excludes the session: a run is the same run — same
        rounds, same trials, same leaderboard — no matter where its jobs
        compile.
        """
        return {
            "space": self.space.describe(),
            "objective": self.objective.describe(),
            "strategy": self.strategy.describe(),
            "benchmarks": list(self.benchmarks),
            "machine": self.machine.to_dict(),
        }

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
        """Serialize one executed trial to its memo record."""
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
        with every fingerprint resolved into the memo."""
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
            entries = self.session.run(
                [trial.job for trial in pending.values()],
                isolate_failures=True)
            if len(entries) != len(pending):
                raise TunerError(
                    f"session {self.session!r} returned {len(entries)} "
                    f"entries for {len(pending)} submitted trial(s)")
            for trial, entry in zip(pending.values(), entries):
                record = self._record(trial, entry)
                self._memo[trial.fingerprint] = record
                self.trials_executed += 1
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
        session, and a resumed run converges to the same report as an
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
        """Run execution counters plus the session's cache accounting,
        JSON-compatible."""
        return {
            "trials_total": self.trials_total,
            "trials_executed": self.trials_executed,
            "trials_deduped": self.trials_deduped,
            "cache_misses": self.session.cache_misses,
            "disk_hits": self.session.disk_hits,
        }

    def __repr__(self) -> str:
        return (f"TuningRun(space={self.space!r}, "
                f"strategy={self.strategy!r}, "
                f"benchmarks={list(self.benchmarks)}, "
                f"session={self.session!r})")

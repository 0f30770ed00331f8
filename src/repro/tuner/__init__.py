"""Search-driven auto-tuning of compiler policies and configuration.

The paper's central observation is that no single ancilla
allocation/reclamation policy wins everywhere — the right choice is
workload-dependent.  This package closes the loop: instead of
hand-picking ``allocation=``/``reclamation=`` names per run, declare a
search space over the policy registries (and any other
:class:`~repro.core.compiler.CompilerConfig` knobs), an objective over
the headline metrics, and let a :class:`TuningRun` find the best
configuration for *your* benchmarks — locally or across a whole
cluster:

* :mod:`repro.tuner.space` — declarative parameter spaces
  (:class:`Choice` / :class:`IntRange` / :class:`FloatRange`),
  deterministic grid and seeded-sample expansion;
  :meth:`SearchSpace.policy_space` reflects the live policy
  registries.
* :mod:`repro.tuner.objective` — single- and multi-objective scoring
  over :class:`~repro.core.result.CompilationResult` headline metrics
  (qubits, gates, active quantum volume, ...), with weighted
  scalarization and Pareto-front computation.
* :mod:`repro.tuner.strategies` — :class:`GridSearch`,
  seeded :class:`RandomSearch`, and :class:`SuccessiveHalving` racing
  that evaluates candidates at small benchmark scales and promotes
  survivors up the scale ladder.
* :mod:`repro.tuner.runner` — :class:`TuningRun`: trials through a
  :class:`~repro.api.session.Session` (local, or over a
  :class:`~repro.cluster.executor.FleetExecutor`) with fingerprint
  deduplication; the session's disk cache makes a killed run
  resumable without recompiling a trial that succeeded.
* :mod:`repro.tuner.report` — :class:`TuningReport`: ranked
  leaderboard, Pareto flags, and best-config export as a
  :func:`~repro.core.compiler.preset`-compatible dict.

Quick start::

    from repro.api import MachineSpec, Session
    from repro.tuner import (MultiObjective, SearchSpace,
                             SuccessiveHalving, TuningRun)

    run = TuningRun(
        SearchSpace.policy_space(),
        MultiObjective("aqv", "gates"),
        SuccessiveHalving(scales=("quick", "laptop"), seed=7),
        benchmarks=["RD53", "MUL32"],
        machine=MachineSpec.nisq_grid(5, 5),
        session=Session(cache_dir="tune-cache"),
    )
    report = run.run()
    print(report.table("policy search"))
    best = report.best_config()          # e.g. {"allocation": "laa", ...}

Or from the command line: ``python -m repro.experiments tune RD53 MUL32
--strategy halving --scales quick laptop --objective aqv``.
"""

from repro.tuner.objective import (
    TUNER_METRICS,
    MultiObjective,
    Objective,
    metric_values,
)
from repro.tuner.report import (
    CandidateEvaluation,
    RoundResult,
    TuningReport,
)
from repro.tuner.runner import Trial, TuningRun
from repro.tuner.space import (
    Choice,
    FloatRange,
    IntRange,
    SearchSpace,
    candidate_key,
    candidate_label,
)
from repro.tuner.strategies import (
    STRATEGIES,
    GridSearch,
    RandomSearch,
    Round,
    SearchStrategy,
    SuccessiveHalving,
)

__all__ = [
    "CandidateEvaluation",
    "Choice",
    "FloatRange",
    "GridSearch",
    "IntRange",
    "MultiObjective",
    "Objective",
    "RandomSearch",
    "Round",
    "RoundResult",
    "STRATEGIES",
    "SearchSpace",
    "SearchStrategy",
    "SuccessiveHalving",
    "TUNER_METRICS",
    "Trial",
    "TuningReport",
    "TuningRun",
    "candidate_key",
    "candidate_label",
    "metric_values",
]

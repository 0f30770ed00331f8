"""Benchmark: tuning-trial throughput through the tuner machinery.

Establishes the tuner-layer performance trajectory: how many trials per
second the strategy → job-expansion → session → scoring pipeline
sustains, separated into

* **warm-session trials** — a grid search whose session memo is already
  warm, so the measurement is the per-trial tuner overhead (fingerprint
  computation, dedup, scoring) rather than compilation, and
* **cache-dir resume** — re-running a finished search on a fresh
  session over the same cache directory, i.e. the path a killed run
  takes: every trial must come back from the disk cache with zero
  compilations.

Both assert a generous throughput floor so a catastrophic regression
(e.g. re-fingerprinting per candidate pair going quadratic, or cache
reads re-parsing the whole directory) fails loudly rather than drifting in the
timings.
"""

from __future__ import annotations

from repro.api import MachineSpec, Session
from repro.tuner import GridSearch, SearchSpace, TuningRun

from benchmarks.conftest import run_once

GRID = MachineSpec.nisq_grid(5, 5)

#: Repeats of the search per measurement, to push trial counts up.
ROUNDS = 20


def tuning_run(session) -> TuningRun:
    """One grid search over the full policy space on one benchmark."""
    run = TuningRun(SearchSpace.policy_space(), "aqv",
                    GridSearch(scale="quick"), ["RD53"],
                    machine=GRID, session=session)
    run.run()
    return run


def repeat_tuning(session, rounds: int) -> int:
    """Re-run the search ``rounds`` times against one warm session."""
    trials = 0
    for _ in range(rounds):
        trials += tuning_run(session).trials_total
    return trials


def test_bench_warm_trial_throughput(benchmark):
    """Per-trial tuner overhead with every compilation memoized."""
    session = Session()
    tuning_run(session)  # warm the memo with every candidate
    trials = run_once(benchmark, repeat_tuning, session, ROUNDS)
    trials_per_second = trials / benchmark.stats.stats.mean
    benchmark.extra_info["trials_per_second"] = round(trials_per_second, 1)
    # Catastrophe floor only (orders of magnitude below observed):
    # this runs in the default pytest collection, so it must never
    # flake on a throttled CI machine.
    assert trials_per_second > 50


def resume_many(cache_dirs) -> int:
    """Resume one finished run per cache directory; returns the trials
    served from disk."""
    restored = 0
    for cache_dir in cache_dirs:
        session = Session(cache_dir=cache_dir)
        tuning_run(session)
        assert session.cache_misses == 0, \
            "a finished run's cache must leave nothing to compile"
        restored += session.disk_hits
    return restored


def test_bench_cache_dir_resume_throughput(benchmark, tmp_path):
    """Resuming a killed run from its cache directory: no compiles."""
    cache_dirs = [str(tmp_path / f"cache-{index}")
                  for index in range(ROUNDS)]
    for cache_dir in cache_dirs:  # cache every trial once
        tuning_run(Session(cache_dir=cache_dir))
    restored = run_once(benchmark, resume_many, cache_dirs)
    assert restored > 0
    trials_per_second = restored / benchmark.stats.stats.mean
    benchmark.extra_info["trials_per_second"] = round(trials_per_second, 1)
    assert trials_per_second > 20  # catastrophe floor, as above

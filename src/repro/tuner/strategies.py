"""Search strategies: how a tuning run walks its candidate space.

A strategy is a deterministic round planner: it proposes an initial
:class:`Round` of candidates at some benchmark scale, then — given the
scored outcome of each round — either proposes the next round or
declares the search finished.  The :class:`~repro.tuner.runner.TuningRun`
drives the loop; strategies never execute anything themselves, which is
what keeps a killed run resumable (replaying the same strategy over
cached trial results reproduces the same rounds).

Three strategies ship:

* :class:`GridSearch` — every candidate once, at one scale.
* :class:`RandomSearch` — a seeded random subset of the grid, at one
  scale.
* :class:`SuccessiveHalving` — the racing strategy: evaluate everyone
  at the *cheapest* benchmark scale, promote the best
  ``1/eta`` fraction to the next scale, and repeat up the scale ladder
  (``quick`` → ``laptop`` → ``paper``), so most of the budget is spent
  on configurations that already proved themselves cheaply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import TunerError
from repro.tuner.space import Candidate, SearchSpace, candidate_key
from repro.workloads.registry import SCALES


@dataclass(frozen=True)
class Round:
    """One planned evaluation round: candidates x a benchmark scale.

    Attributes:
        number: Zero-based round index.
        scale: The benchmark scale every candidate compiles at
            (``"quick"``/``"laptop"``/``"paper"``).
        candidates: The candidates to evaluate, in deterministic order.
    """

    number: int
    scale: str
    candidates: Tuple[Candidate, ...]

    def __len__(self) -> int:
        return len(self.candidates)


#: A scored round outcome: (candidate, scalarized score) pairs aligned
#: with ``Round.candidates``; a failed candidate scores ``math.inf``.
Scored = Sequence[Tuple[Candidate, float]]


def rank_candidates(scored: Scored) -> List[Tuple[Candidate, float]]:
    """Sort scored candidates best-first, deterministically.

    Primary key is the scalarized score (ascending — lower is better),
    ties break on the canonical candidate JSON so equal-scoring
    candidates order identically in every process.
    """
    return sorted(scored,
                  key=lambda pair: (pair[1], candidate_key(pair[0])))


def _check_scale(scale: str) -> str:
    if scale not in SCALES:
        raise TunerError(
            f"unknown benchmark scale {scale!r}; use one of {list(SCALES)}")
    return scale


class SearchStrategy:
    """Interface every strategy implements (see module docstring)."""

    #: Short name used in run descriptors and CLI listings.
    name = "abstract"

    def first_round(self, space: SearchSpace) -> Round:
        """The initial round over ``space``."""
        raise NotImplementedError

    def next_round(self, space: SearchSpace, finished: Round,
                   scored: Scored) -> Optional[Round]:
        """The round after ``finished`` given its scores, or None."""
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """JSON-compatible description (part of the run fingerprint)."""
        raise NotImplementedError


class GridSearch(SearchStrategy):
    """Exhaustive single-round search: the full grid at one scale."""

    name = "grid"

    def __init__(self, scale: str = "laptop") -> None:
        self.scale = _check_scale(scale)

    def first_round(self, space: SearchSpace) -> Round:
        return Round(0, self.scale, tuple(space.grid()))

    def next_round(self, space: SearchSpace, finished: Round,
                   scored: Scored) -> Optional[Round]:
        return None

    def describe(self) -> Dict[str, object]:
        return {"strategy": self.name, "scale": self.scale}

    def __repr__(self) -> str:
        return f"GridSearch(scale={self.scale!r})"


class RandomSearch(SearchStrategy):
    """Seeded random subset of the grid, evaluated once at one scale."""

    name = "random"

    def __init__(self, trials: int, seed: int = 0,
                 scale: str = "laptop") -> None:
        if trials < 1:
            raise TunerError(f"trials must be >= 1, got {trials}")
        self.trials = trials
        self.seed = seed
        self.scale = _check_scale(scale)

    def first_round(self, space: SearchSpace) -> Round:
        return Round(0, self.scale,
                     tuple(space.sample(self.trials, seed=self.seed)))

    def next_round(self, space: SearchSpace, finished: Round,
                   scored: Scored) -> Optional[Round]:
        return None

    def describe(self) -> Dict[str, object]:
        return {"strategy": self.name, "trials": self.trials,
                "seed": self.seed, "scale": self.scale}

    def __repr__(self) -> str:
        return (f"RandomSearch(trials={self.trials}, seed={self.seed}, "
                f"scale={self.scale!r})")


class SuccessiveHalving(SearchStrategy):
    """Racing search: promote survivors up the benchmark scale ladder.

    Round ``i`` evaluates its candidates at ``scales[i]``; the best
    ``ceil(n / eta)`` (by scalarized score, deterministic tie-break)
    advance to ``scales[i + 1]``.  Candidates whose trials failed
    (score ``inf``) are never promoted.  With ``trials`` set, the
    opening round is a seeded sample of the grid instead of the full
    grid — the usual racing setup for large spaces.

    Args:
        scales: The scale ladder, cheapest first; at least one, each a
            registered benchmark scale.
        eta: Halving rate; survivors per round = ``ceil(n / eta)``.
        trials: Opening-round sample size (None = the full grid).
        seed: Seed for the opening-round sample.
        min_survivors: Lower bound on survivors while rounds remain.
    """

    name = "halving"

    def __init__(self, scales: Sequence[str] = ("quick", "laptop"),
                 eta: float = 2.0, trials: Optional[int] = None,
                 seed: int = 0, min_survivors: int = 1) -> None:
        if not scales:
            raise TunerError("SuccessiveHalving needs at least one scale")
        self.scales = tuple(_check_scale(scale) for scale in scales)
        if not eta > 1:
            raise TunerError(f"eta must be > 1, got {eta}")
        if trials is not None and trials < 1:
            raise TunerError(f"trials must be >= 1, got {trials}")
        if min_survivors < 1:
            raise TunerError(
                f"min_survivors must be >= 1, got {min_survivors}")
        self.eta = eta
        self.trials = trials
        self.seed = seed
        self.min_survivors = min_survivors

    # ------------------------------------------------------------------
    def first_round(self, space: SearchSpace) -> Round:
        if self.trials is None:
            candidates = space.grid()
        else:
            candidates = space.sample(self.trials, seed=self.seed)
        return Round(0, self.scales[0], tuple(candidates))

    def next_round(self, space: SearchSpace, finished: Round,
                   scored: Scored) -> Optional[Round]:
        if finished.number + 1 >= len(self.scales):
            return None
        viable = [(candidate, score) for candidate, score in scored
                  if math.isfinite(score)]
        if not viable:
            return None  # everyone failed; nothing to promote
        keep = max(self.min_survivors,
                   math.ceil(len(scored) / self.eta))
        survivors = [candidate for candidate, _
                     in rank_candidates(viable)[:keep]]
        return Round(finished.number + 1, self.scales[finished.number + 1],
                     tuple(survivors))

    def describe(self) -> Dict[str, object]:
        return {"strategy": self.name, "scales": list(self.scales),
                "eta": self.eta, "trials": self.trials, "seed": self.seed,
                "min_survivors": self.min_survivors}

    def __repr__(self) -> str:
        return (f"SuccessiveHalving(scales={list(self.scales)}, "
                f"eta={self.eta:g}, trials={self.trials}, "
                f"seed={self.seed})")


#: CLI strategy name -> constructor; see ``python -m repro.experiments
#: tune --strategy``.
STRATEGIES = {
    GridSearch.name: GridSearch,
    RandomSearch.name: RandomSearch,
    SuccessiveHalving.name: SuccessiveHalving,
}

"""Declarative search spaces over compiler-configuration knobs.

A :class:`SearchSpace` is an ordered set of parameters — categorical
:class:`Choice` values (typically the allocation/reclamation policy
registries), integer :class:`IntRange` grids and float
:class:`FloatRange` grids — every one of which names a
:class:`~repro.core.compiler.CompilerConfig` field.  A *candidate* is a
plain ``{field: value}`` dict drawn from the space; it overlays a base
config (a preset name or explicit config) to produce the
:class:`CompilerConfig` a trial compiles with, and it round-trips
unchanged into ``preset(name, **candidate)`` — the tuner's "best
config" export is exactly such a dict.

Every expansion is deterministic: :meth:`SearchSpace.grid` enumerates
the full cartesian product in declaration order, and
:meth:`SearchSpace.sample` draws a seeded random subset of that grid —
the same seed yields the same candidates in the same order, in any
process, which is what makes a seeded tuning run reproducible across
local and cluster backends.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, fields, replace
from typing import Dict, Iterable, List, Mapping, Tuple, Union

from repro.exceptions import TunerError
from repro.core.compiler import POLICY_PRESETS, CompilerConfig
from repro.core.policies import (
    allocation_policy_names,
    reclamation_policy_names,
)

#: A candidate assignment: CompilerConfig field name -> value.
Candidate = Dict[str, object]


@dataclass(frozen=True)
class Choice:
    """A categorical parameter: one of a fixed tuple of values.

    Attributes:
        name: The :class:`~repro.core.compiler.CompilerConfig` field the
            parameter sets.
        values: The values to search over, in search order.
    """

    name: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise TunerError(f"parameter {self.name!r} has no values")
        if len(set(map(repr, self.values))) != len(self.values):
            raise TunerError(
                f"parameter {self.name!r} repeats a value: {self.values}")

    def grid_values(self) -> Tuple[object, ...]:
        """The parameter's grid points, in search order."""
        return self.values


@dataclass(frozen=True)
class IntRange:
    """An inclusive integer grid ``low, low+step, ..., <= high``."""

    name: str
    low: int
    high: int
    step: int = 1

    def __post_init__(self) -> None:
        if self.step < 1:
            raise TunerError(
                f"parameter {self.name!r} needs step >= 1, got {self.step}")
        if self.high < self.low:
            raise TunerError(
                f"parameter {self.name!r} has an empty range "
                f"[{self.low}, {self.high}]")

    def grid_values(self) -> Tuple[int, ...]:
        """The parameter's grid points, ascending."""
        return tuple(range(self.low, self.high + 1, self.step))


@dataclass(frozen=True)
class FloatRange:
    """``steps`` evenly spaced float grid points across ``[low, high]``."""

    name: str
    low: float
    high: float
    steps: int = 5

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise TunerError(
                f"parameter {self.name!r} needs steps >= 1, got {self.steps}")
        if self.high < self.low:
            raise TunerError(
                f"parameter {self.name!r} has an empty range "
                f"[{self.low}, {self.high}]")

    def grid_values(self) -> Tuple[float, ...]:
        """The parameter's grid points, ascending."""
        if self.steps == 1:
            return (float(self.low),)
        width = (self.high - self.low) / (self.steps - 1)
        return tuple(float(self.low + index * width)
                     for index in range(self.steps))


#: Anything a SearchSpace accepts as one parameter.
Parameter = Union[Choice, IntRange, FloatRange]


def candidate_key(candidate: Mapping[str, object]) -> str:
    """Canonical JSON identity of a candidate (sorted, compact).

    Used wherever candidates need a deterministic total order or a
    stable dictionary key: leaderboard tie-breaks, per-candidate score
    grouping.
    """
    return json.dumps(dict(candidate), sort_keys=True,
                      separators=(",", ":"))


def candidate_label(candidate: Mapping[str, object]) -> str:
    """Short human-readable ``field=value`` label for tables and logs."""
    return ",".join(f"{name}={value}"
                    for name, value in sorted(candidate.items()))


class SearchSpace:
    """An ordered collection of parameters over CompilerConfig fields.

    Args:
        params: The parameters, searched as a cartesian grid in
            declaration order (later parameters vary fastest).
        base: The config every candidate overlays — a
            :data:`~repro.core.compiler.POLICY_PRESETS` name or an
            explicit :class:`~repro.core.compiler.CompilerConfig`.

    Raises:
        TunerError: No parameters, a duplicated parameter name, or a
            parameter naming something that is not a CompilerConfig
            field.
    """

    def __init__(self, *params: Parameter,
                 base: Union[str, CompilerConfig] = "square") -> None:
        if not params:
            raise TunerError("a SearchSpace needs at least one parameter")
        valid = {f.name for f in fields(CompilerConfig)}
        seen = set()
        for param in params:
            if param.name in seen:
                raise TunerError(
                    f"parameter {param.name!r} appears twice in the space")
            if param.name not in valid:
                raise TunerError(
                    f"parameter {param.name!r} is not a CompilerConfig "
                    f"field; valid fields: {sorted(valid)}")
            seen.add(param.name)
        if isinstance(base, str):
            try:
                base = POLICY_PRESETS[base]
            except KeyError:
                raise TunerError(
                    f"unknown base preset {base!r}; choose from "
                    f"{sorted(POLICY_PRESETS)}") from None
        self.params: Tuple[Parameter, ...] = tuple(params)
        self.base = base

    # ------------------------------------------------------------------
    @classmethod
    def policy_space(cls, *extra: Parameter,
                     base: Union[str, CompilerConfig] = "square"
                     ) -> "SearchSpace":
        """The canonical policy space: every registered allocation x
        reclamation policy pair (plus any extra parameters).

        Reflects the live registries, so third-party policies registered
        through :mod:`repro.core.policies` are searched automatically.
        """
        return cls(
            Choice("allocation", tuple(allocation_policy_names())),
            Choice("reclamation", tuple(reclamation_policy_names())),
            *extra, base=base,
        )

    # ------------------------------------------------------------------
    def size(self) -> int:
        """Number of candidates in the full grid."""
        total = 1
        for param in self.params:
            total *= len(param.grid_values())
        return total

    def grid(self) -> List[Candidate]:
        """Every candidate, cartesian order (last parameter fastest)."""
        axes = [param.grid_values() for param in self.params]
        names = [param.name for param in self.params]
        return [dict(zip(names, values))
                for values in itertools.product(*axes)]

    def sample(self, n: int, seed: int = 0) -> List[Candidate]:
        """A seeded random subset of the grid, without replacement.

        Deterministic: the same ``(n, seed)`` always returns the same
        candidates in the same order.  ``n`` at or above the grid size
        returns a seeded shuffle of the whole grid.
        """
        if n < 1:
            raise TunerError(f"sample size must be >= 1, got {n}")
        candidates = self.grid()
        rng = random.Random(seed)
        if n >= len(candidates):
            rng.shuffle(candidates)
            return candidates
        return rng.sample(candidates, n)

    # ------------------------------------------------------------------
    def config_for(self, candidate: Mapping[str, object]) -> CompilerConfig:
        """The compiler config a candidate describes (base + overlay).

        The base's display ``label`` is cleared unless the candidate
        sets one, so every candidate reports under its own
        ``allocation+reclamation`` policy name instead of all shadowing
        the base preset's label.

        Raises:
            TunerError: The candidate sets a field outside this space's
                parameters.
        """
        names = {param.name for param in self.params}
        unknown = sorted(set(candidate) - names)
        if unknown:
            raise TunerError(
                f"candidate sets parameter(s) {unknown} outside the "
                f"space; searched parameters: {sorted(names)}")
        overlay = dict(candidate)
        overlay.setdefault("label", "")
        return replace(self.base, **overlay)

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """JSON-compatible description (part of the run fingerprint)."""
        described: List[Dict[str, object]] = []
        for param in self.params:
            if isinstance(param, Choice):
                described.append({"kind": "choice", "name": param.name,
                                  "values": list(param.values)})
            elif isinstance(param, IntRange):
                described.append({"kind": "int", "name": param.name,
                                  "low": param.low, "high": param.high,
                                  "step": param.step})
            else:
                described.append({"kind": "float", "name": param.name,
                                  "low": param.low, "high": param.high,
                                  "steps": param.steps})
        base = {f.name: getattr(self.base, f.name)
                for f in fields(CompilerConfig)}
        return {"params": described, "base": base}

    def __len__(self) -> int:
        return self.size()

    def __repr__(self) -> str:
        names = ", ".join(param.name for param in self.params)
        return f"SearchSpace({names}; {self.size()} candidates)"

"""Shared experiment infrastructure.

Every experiment module expands its benchmark x policy grid into a
:class:`~repro.api.SweepSpec` and executes it through a
:class:`~repro.api.Session` (passed in by the CLI so all experiments
share one memo cache and one executor), then post-processes the
:class:`~repro.core.result.CompilationResult` objects into the rows or
series of the corresponding table / figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.api import MachineSpec, Session
from repro.workloads.registry import benchmark_overrides, load_scaled_benchmark

#: Policies evaluated throughout Section V, in presentation order.
DEFAULT_POLICIES: Sequence[str] = ("lazy", "eager", "square-laa", "square")


@dataclass
class ExperimentResult:
    """Generic experiment output: rows plus free-form extra data.

    Attributes:
        name: Experiment identifier (e.g. ``"figure9"``).
        rows: Table rows ready for :func:`repro.analysis.report.format_table`.
        extras: Any additional structured data (curves, summaries).
    """

    name: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)


def get_session(session: Optional[Session] = None) -> Session:
    """The session an experiment should compile through.

    Experiments accept an optional shared session (the CLI provides one
    covering the whole invocation, with ``--jobs N`` parallelism); when
    called directly they fall back to a private serial session.
    """
    return session if session is not None else Session()


# ----------------------------------------------------------------------
# Machine-spec shorthands shared by the experiment modules
# ----------------------------------------------------------------------
def nisq_lattice_spec(start_qubits: int = 32) -> MachineSpec:
    """Autosized lattice NISQ machines (Figures 1 and 9)."""
    return MachineSpec.nisq_autosize(start_qubits=start_qubits)


def ft_lattice_spec(start_qubits: int = 32) -> MachineSpec:
    """Autosized surface-code FT machines (Figure 10)."""
    return MachineSpec.ft_autosize(start_qubits=start_qubits)

"""Flat gate-level circuits.

A :class:`Circuit` is the post-compilation representation: an ordered list
of :class:`~repro.ir.gates.Gate` instances acting on integer qubit indices.
It is the unit consumed by the classical reversible simulator, the
state-vector simulator and the gate-parallelism analysis (:mod:`repro.ir.dag`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import IRError, IrreversibleBlockError
from repro.ir.gates import Gate, NON_UNITARY_GATES, gate_spec, make_gate


class Circuit:
    """An ordered sequence of gates on ``num_qubits`` wires.

    Args:
        num_qubits: Number of wires.  May be grown with :meth:`add_qubit`.
        gates: Optional initial gate sequence.
        name: Optional human-readable circuit name.
    """

    def __init__(
        self,
        num_qubits: int = 0,
        gates: Optional[Iterable[Gate]] = None,
        name: str = "circuit",
    ) -> None:
        if num_qubits < 0:
            raise IRError("num_qubits must be non-negative")
        self.name = name
        self._num_qubits = num_qubits
        self._gates: List[Gate] = []
        if gates is not None:
            for gate in gates:
                self.append(gate)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_qubit(self, count: int = 1) -> int:
        """Add ``count`` fresh wires and return the index of the first one."""
        if count < 1:
            raise IRError("count must be positive")
        first = self._num_qubits
        self._num_qubits += count
        return first

    def append(self, gate: Gate) -> None:
        """Append ``gate``, growing the wire count if needed."""
        if gate.qubits:
            high = max(gate.qubits)
            if high >= self._num_qubits:
                self._num_qubits = high + 1
        self._gates.append(gate)

    def add(self, name: str, *qubits: int) -> None:
        """Convenience wrapper: append gate ``name`` on ``qubits``."""
        self.append(make_gate(name, qubits))

    def x(self, q: int) -> None:
        """Append a NOT gate."""
        self.add("x", q)

    def cx(self, control: int, target: int) -> None:
        """Append a CNOT gate."""
        self.add("cx", control, target)

    def ccx(self, control_a: int, control_b: int, target: int) -> None:
        """Append a Toffoli gate."""
        self.add("ccx", control_a, control_b, target)

    def swap(self, a: int, b: int) -> None:
        """Append a SWAP gate."""
        self.add("swap", a, b)

    def h(self, q: int) -> None:
        """Append a Hadamard gate."""
        self.add("h", q)

    def measure(self, q: int) -> None:
        """Append a measurement."""
        self.add("measure", q)

    def extend(self, gates: Iterable[Gate]) -> None:
        """Append every gate in ``gates``."""
        for gate in gates:
            self.append(gate)

    def compose(self, other: "Circuit", qubit_map: Optional[Dict[int, int]] = None) -> None:
        """Append ``other``'s gates, optionally remapping its qubit indices."""
        for gate in other.gates:
            if qubit_map is None:
                self.append(gate)
            else:
                self.append(gate.remap(qubit_map))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Number of wires in the circuit."""
        return self._num_qubits

    @property
    def gates(self) -> Tuple[Gate, ...]:
        """The gate sequence as an immutable tuple."""
        return tuple(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index):
        return self._gates[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self._num_qubits == other._num_qubits and self._gates == other._gates

    def __repr__(self) -> str:
        return (
            f"Circuit(name={self.name!r}, num_qubits={self.num_qubits}, "
            f"num_gates={len(self)})"
        )

    def gate_counts(self) -> Counter:
        """Return a Counter of gate names."""
        return Counter(gate.name for gate in self._gates)

    def count(self, name: str) -> int:
        """Return the number of gates named ``name``."""
        return sum(1 for gate in self._gates if gate.name == name)

    @property
    def two_qubit_gate_count(self) -> int:
        """Number of gates acting on two or more qubits."""
        return sum(1 for gate in self._gates if gate.num_qubits >= 2)

    def is_classical(self) -> bool:
        """True when every gate is classical reversible logic."""
        return all(gate.is_classical for gate in self._gates)

    def is_unitary(self) -> bool:
        """True when the circuit contains no measurement or reset."""
        return all(gate.is_unitary for gate in self._gates)

    def used_qubits(self) -> Tuple[int, ...]:
        """Sorted tuple of wire indices touched by at least one gate."""
        used = set()
        for gate in self._gates:
            used.update(gate.qubits)
        return tuple(sorted(used))

    def depth(self) -> int:
        """Logical depth: longest chain of dependent gates (unit durations)."""
        frontier: Dict[int, int] = {}
        depth = 0
        for gate in self._gates:
            if not gate.qubits:
                continue
            start = max((frontier.get(q, 0) for q in gate.qubits), default=0)
            finish = start + 1
            for q in gate.qubits:
                frontier[q] = finish
            depth = max(depth, finish)
        return depth

    def timed_depth(self) -> int:
        """Depth weighted by per-gate default durations."""
        frontier: Dict[int, int] = {}
        depth = 0
        for gate in self._gates:
            if not gate.qubits:
                continue
            start = max((frontier.get(q, 0) for q in gate.qubits), default=0)
            finish = start + gate.duration
            for q in gate.qubits:
                frontier[q] = finish
            depth = max(depth, finish)
        return depth

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def inverse(self) -> "Circuit":
        """Return the inverse circuit (gates reversed and each inverted).

        Raises:
            IrreversibleBlockError: If the circuit contains measure/reset.
        """
        if not self.is_unitary():
            raise IrreversibleBlockError(
                f"circuit {self.name!r} contains non-unitary operations"
            )
        inverted = Circuit(self._num_qubits, name=f"{self.name}_dg")
        for gate in reversed(self._gates):
            inverted.append(gate.inverse())
        return inverted

    def remapped(self, mapping: Dict[int, int], num_qubits: Optional[int] = None) -> "Circuit":
        """Return a copy with wires renumbered through ``mapping``."""
        target = Circuit(num_qubits or 0, name=self.name)
        for gate in self._gates:
            target.append(gate.remap(mapping))
        if num_qubits is not None and target.num_qubits < num_qubits:
            target._num_qubits = num_qubits
        return target

    def copy(self) -> "Circuit":
        """Return a shallow copy."""
        return Circuit(self._num_qubits, self._gates, name=self.name)

    def to_text(self) -> str:
        """Serialize to the simple ``time, gate`` text format of Figure 4."""
        lines = [f"# circuit {self.name}: {self.num_qubits} qubits"]
        for index, gate in enumerate(self._gates):
            operands = " ".join(f"q{q}" for q in gate.qubits)
            lines.append(f"{index}, {gate.name.upper()} {operands}".rstrip())
        return "\n".join(lines)


def concatenate(circuits: Sequence[Circuit], name: str = "concat") -> Circuit:
    """Concatenate circuits on a shared wire numbering."""
    total = Circuit(max((c.num_qubits for c in circuits), default=0), name=name)
    for circuit in circuits:
        total.compose(circuit)
    return total

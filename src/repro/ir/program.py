"""Modular program representation: the paper's Compute–Store–Uncompute IR.

A program is a tree of :class:`QModule` function definitions.  Each module
mirrors the Scaffold syntactic construct of Figure 6 in the paper::

    void fun(qbit* in, qbit* out) {
        qbit anc[k];
        Allocate(anc, k);
        Compute   { ... }      # forward computation, may call child modules
        Store     { ... }      # copy results onto output qubits
        Uncompute { ... }      # inverse of Compute (may be auto-generated)
        Free(anc, k);
    }

Statements reference symbolic :class:`Qubit` wires.  The SQUARE compiler
(:mod:`repro.core.compiler`) walks this structure, deciding at every
``Free`` whether to execute the Uncompute block (reclaim the ancillas) or
to skip it (defer the garbage to the caller).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.exceptions import IRError, QubitBindingError, ValidationError
from repro.ir.gates import gate_spec

_QUBIT_COUNTER = itertools.count()


@dataclass(frozen=True, eq=False)
class Qubit:
    """A symbolic wire local to a module (parameter or ancilla).

    Identity semantics: two Qubit objects are equal only if they are the
    same object, so distinct wires with the same name never collide.
    """

    name: str
    index: int
    uid: int = field(default_factory=lambda: next(_QUBIT_COUNTER))

    def __repr__(self) -> str:
        return f"{self.name}[{self.index}]"


class QubitRegister(Sequence):
    """An ordered collection of symbolic qubits sharing a base name."""

    def __init__(self, name: str, size: int) -> None:
        if size < 1:
            raise IRError("register size must be positive")
        self.name = name
        self._qubits: Tuple[Qubit, ...] = tuple(Qubit(name, i) for i in range(size))

    def __len__(self) -> int:
        return len(self._qubits)

    def __getitem__(self, index):
        return self._qubits[index]

    def __iter__(self) -> Iterator[Qubit]:
        return iter(self._qubits)

    def __repr__(self) -> str:
        return f"QubitRegister({self.name!r}, size={len(self)})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GateStmt:
    """Apply gate ``name`` to the given symbolic qubits."""

    name: str
    qubits: Tuple[Qubit, ...]

    def __post_init__(self) -> None:
        spec = gate_spec(self.name)
        if spec.num_qubits and len(self.qubits) != spec.num_qubits:
            raise IRError(
                f"gate {self.name!r} expects {spec.num_qubits} operands, "
                f"got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise IRError(
                f"gate {self.name!r} has duplicate operands {self.qubits}"
            )

    def __repr__(self) -> str:
        args = ", ".join(map(repr, self.qubits))
        return f"{self.name}({args})"


@dataclass(frozen=True)
class CallStmt:
    """Call a child module, binding ``args`` to the child's parameters."""

    module: "QModule"
    args: Tuple[Qubit, ...]

    def __post_init__(self) -> None:
        if len(self.args) != len(self.module.params):
            raise IRError(
                f"call to {self.module.name!r} expects "
                f"{len(self.module.params)} arguments, got {len(self.args)}"
            )
        if len(set(self.args)) != len(self.args):
            raise IRError(f"call to {self.module.name!r} has duplicate arguments")

    def __repr__(self) -> str:
        args = ", ".join(map(repr, self.args))
        return f"call {self.module.name}({args})"


Statement = Union[GateStmt, CallStmt]

_BLOCK_NAMES = ("compute", "store", "uncompute")


class QModule:
    """A modular reversible function with Compute / Store / Uncompute blocks.

    Modules are built imperatively: create the module, add gates or calls
    while a block is selected (``compute`` by default), then optionally call
    :meth:`set_explicit_uncompute` or rely on automatic inversion of the
    Compute block at compile time.

    Args:
        name: Function name (used in reports and the call graph).
        num_inputs: Number of input parameter qubits.
        num_outputs: Number of output parameter qubits.
        num_ancilla: Number of scratch qubits allocated by this module.
    """

    def __init__(
        self,
        name: str,
        num_inputs: int,
        num_outputs: int = 0,
        num_ancilla: int = 0,
    ) -> None:
        if num_inputs < 0 or num_outputs < 0 or num_ancilla < 0:
            raise IRError("qubit counts must be non-negative")
        if num_inputs + num_outputs == 0:
            raise IRError(f"module {name!r} must have at least one parameter")
        self.name = name
        self.inputs: Tuple[Qubit, ...] = tuple(
            Qubit(f"{name}.in", i) for i in range(num_inputs)
        )
        self.outputs: Tuple[Qubit, ...] = tuple(
            Qubit(f"{name}.out", i) for i in range(num_outputs)
        )
        self.ancillas: Tuple[Qubit, ...] = tuple(
            Qubit(f"{name}.anc", i) for i in range(num_ancilla)
        )
        self.compute: List[Statement] = []
        self.store: List[Statement] = []
        self.uncompute: Optional[List[Statement]] = None
        self._current_block = "compute"
        self._scope = set(self.inputs) | set(self.outputs) | set(self.ancillas)

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    @property
    def params(self) -> Tuple[Qubit, ...]:
        """All parameter qubits (inputs followed by outputs)."""
        return self.inputs + self.outputs

    @property
    def num_params(self) -> int:
        """Number of parameter qubits."""
        return len(self.params)

    @property
    def num_ancilla(self) -> int:
        """Number of ancilla qubits allocated by this module."""
        return len(self.ancillas)

    @property
    def has_explicit_uncompute(self) -> bool:
        """True when the programmer wrote the Uncompute block explicitly."""
        return self.uncompute is not None

    # ------------------------------------------------------------------
    # Block selection
    # ------------------------------------------------------------------
    def begin_compute(self) -> "QModule":
        """Direct subsequent statements into the Compute block."""
        self._current_block = "compute"
        return self

    def begin_store(self) -> "QModule":
        """Direct subsequent statements into the Store block."""
        self._current_block = "store"
        return self

    def begin_uncompute(self) -> "QModule":
        """Direct subsequent statements into an explicit Uncompute block."""
        if self.uncompute is None:
            self.uncompute = []
        self._current_block = "uncompute"
        return self

    def _target_block(self) -> List[Statement]:
        if self._current_block == "compute":
            return self.compute
        if self._current_block == "store":
            return self.store
        assert self.uncompute is not None
        return self.uncompute

    # ------------------------------------------------------------------
    # Statement construction
    # ------------------------------------------------------------------
    def _check_scope(self, qubits: Iterable[Qubit]) -> None:
        for qubit in qubits:
            if qubit not in self._scope:
                raise QubitBindingError(
                    f"qubit {qubit!r} is not a parameter or ancilla of "
                    f"module {self.name!r}"
                )

    def gate(self, name: str, *qubits: Qubit) -> "QModule":
        """Append gate ``name`` on ``qubits`` to the current block."""
        self._check_scope(qubits)
        self._target_block().append(GateStmt(name, tuple(qubits)))
        return self

    def x(self, q: Qubit) -> "QModule":
        """Append a NOT gate."""
        return self.gate("x", q)

    def cx(self, control: Qubit, target: Qubit) -> "QModule":
        """Append a CNOT gate."""
        return self.gate("cx", control, target)

    def ccx(self, a: Qubit, b: Qubit, target: Qubit) -> "QModule":
        """Append a Toffoli gate."""
        return self.gate("ccx", a, b, target)

    def swap(self, a: Qubit, b: Qubit) -> "QModule":
        """Append a SWAP gate."""
        return self.gate("swap", a, b)

    def h(self, q: Qubit) -> "QModule":
        """Append a Hadamard gate."""
        return self.gate("h", q)

    def t(self, q: Qubit) -> "QModule":
        """Append a T gate."""
        return self.gate("t", q)

    def call(self, module: "QModule", *args: Qubit) -> "QModule":
        """Append a call to ``module`` binding ``args`` to its parameters."""
        self._check_scope(args)
        self._target_block().append(CallStmt(module, tuple(args)))
        return self

    def set_explicit_uncompute(self, statements: Sequence[Statement]) -> None:
        """Provide the Uncompute block explicitly (as in Figure 6)."""
        for stmt in statements:
            qubits = stmt.qubits if isinstance(stmt, GateStmt) else stmt.args
            self._check_scope(qubits)
        self.uncompute = list(statements)

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def statements(self) -> Iterator[Tuple[str, Statement]]:
        """Yield (block name, statement) pairs in program order."""
        for stmt in self.compute:
            yield "compute", stmt
        for stmt in self.store:
            yield "store", stmt
        if self.uncompute is not None:
            for stmt in self.uncompute:
                yield "uncompute", stmt

    def child_modules(self) -> Tuple["QModule", ...]:
        """Distinct modules called directly from any block of this module."""
        seen: Dict[int, QModule] = {}
        for block in (self.compute, self.store, self.uncompute or ()):
            for stmt in block:
                if isinstance(stmt, CallStmt):
                    seen.setdefault(id(stmt.module), stmt.module)
        return tuple(seen.values())

    def static_gate_count(self, _cache: Optional[Dict[int, int]] = None) -> int:
        """Number of gates in one forward execution (Compute + Store).

        Child calls are counted recursively assuming the child also only
        executes its forward blocks.  This is the quantity used by the CER
        cost model as an estimate of ``G_uncomp``.
        """
        if _cache is None:
            _cache = {}
        if id(self) in _cache:
            return _cache[id(self)]
        total = 0
        for block_name, stmt in self.statements():
            if block_name == "uncompute":
                continue
            if isinstance(stmt, GateStmt):
                total += 1
            else:
                total += stmt.module.static_gate_count(_cache)
        _cache[id(self)] = total
        return total

    def validate(self) -> None:
        """Check structural invariants of this module.

        Raises:
            ValidationError: If the module allocates ancilla but has an
                empty Compute block (nothing to uncompute).
        """
        if self.ancillas and not self.compute:
            raise ValidationError(
                f"module {self.name!r} allocates ancilla but has an empty "
                "Compute block"
            )

    def __repr__(self) -> str:
        return (
            f"QModule({self.name!r}, params={self.num_params}, "
            f"ancilla={self.num_ancilla}, compute={len(self.compute)}, "
            f"store={len(self.store)})"
        )


class Program:
    """A whole program: an entry :class:`QModule` plus derived metadata."""

    def __init__(self, entry: QModule, name: Optional[str] = None) -> None:
        self.entry = entry
        self.name = name or entry.name

    # ------------------------------------------------------------------
    def modules(self) -> Tuple[QModule, ...]:
        """Every distinct module reachable from the entry, entry first."""
        ordered: List[QModule] = []
        seen = set()

        def visit(module: QModule) -> None:
            if id(module) in seen:
                return
            seen.add(id(module))
            ordered.append(module)
            for child in module.child_modules():
                visit(child)

        visit(self.entry)
        return tuple(ordered)

    def num_levels(self) -> int:
        """Depth of the call graph (1 for a program with no calls)."""
        cache: Dict[int, int] = {}

        def depth(module: QModule) -> int:
            if id(module) in cache:
                return cache[id(module)]
            children = module.child_modules()
            value = 1 + (max((depth(c) for c in children), default=0))
            cache[id(module)] = value
            return value

        return depth(self.entry)

    def total_declared_ancilla(self) -> int:
        """Sum of declared ancilla over all distinct modules."""
        return sum(m.num_ancilla for m in self.modules())

    def static_gate_count(self) -> int:
        """Forward gate count of one execution of the entry module."""
        return self.entry.static_gate_count()

    def validate(self) -> None:
        """Validate every module and check the call graph is acyclic."""
        # Modules are keyed by identity, not name: two distinct modules
        # may share a name without calling each other.
        finished = set()
        on_stack = set()

        def visit(module: QModule) -> None:
            if id(module) in finished:
                return
            if id(module) in on_stack:
                raise ValidationError(
                    f"program {self.name!r} has a cyclic (recursive) call graph"
                )
            module.validate()
            on_stack.add(id(module))
            for child in module.child_modules():
                visit(child)
            on_stack.discard(id(module))
            finished.add(id(module))

        visit(self.entry)

    def __repr__(self) -> str:
        return f"Program({self.name!r}, modules={len(self.modules())})"

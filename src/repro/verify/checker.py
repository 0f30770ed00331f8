"""The static compilation-safety verifier (rules RV001-RV006).

One linear pass over a :class:`~repro.core.result.CompilationResult` — the
scheduled gate stream, the usage segments, the reclamation events and the
final qubit->site mapping — checks the allocation/reclamation/mapping
story without any simulation:

* **RV001** every gate falls inside a recorded live segment of each
  operand qubit (no use-after-reclaim without re-allocation).  Router
  swaps are exempt: moving a reclaimed ``|0>`` qubit is legal.
* **RV002** the qubit->site mapping closes: the final placement is
  injective, and replaying the gate stream backwards from
  ``final_sites`` (undoing router swaps) must place every gate's
  operands exactly on their recorded sites — two virtual qubits never
  share a physical site.
* **RV003** on swap-routed machines every router swap and every
  committed multi-qubit gate acts on topology-adjacent sites.  For gates
  with several controls only the last-resolved control is guaranteed
  adjacent at commit time (earlier controls may be displaced by the
  routing of later ones), matching the scheduler's pairwise resolution.
* **RV004** headline metrics match the artifact: gate/swap counts,
  depth, AQV, qubit footprint and peak liveness against machine capacity.
* **RV005** reclamation accounting balances: a qubit is never re-issued
  while one of its usage segments is still open, and every logged
  reclamation event is well-formed (level >= 1 — the top-level ``Free``
  never logs — covering at least one ancilla).
* **RV006** structural gate-stream lint: known gate names, correct
  arities, distinct wire operands, per-qubit monotone time order.

The pass needs the machine topology only for RV003 and the capacity half
of RV004; it rebuilds the exact coupling map from ``machine_name`` (the
machine models embed their topology in their names, e.g.
``nisq-grid-8x8``), so results of autosized compiles verify without
knowing the final ladder size.  Rules that cannot run on an artifact
(e.g. gate-stream rules when the result was compiled without
``record_schedule=True``) are listed in the report's ``skipped_rules``
instead of silently passing.
"""

from __future__ import annotations

import re
import time as _time
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.arch.machine import Machine
from repro.arch.topology import Topology
from repro.core.result import CompilationResult
from repro.ir.gates import GATE_SPECS
from repro.verify.diagnostics import (
    Diagnostic,
    VerificationReport,
    make_report,
)

_GRID_NAME = re.compile(r"^(nisq|ft)-grid-(\d+)x(\d+)$")
_LINE_NAME = re.compile(r"^(nisq|ft)-line-(\d+)$")
_FULL_NAME = re.compile(r"^(nisq|ft)-full-(\d+)$")
_IDEAL_NAME = re.compile(r"^ideal-(\d+)$")


@lru_cache(maxsize=64)
def topology_for_machine_name(name: str) -> Optional[Tuple[Topology, str]]:
    """Rebuild (topology, communication kind) from a machine's report name.

    Returns None for names the machine models do not produce (custom
    machines); the verifier then skips topology-dependent checks.
    """
    match = _GRID_NAME.match(name)
    if match:
        kind, rows, cols = match.groups()
        communication = "swap" if kind == "nisq" else "braid"
        return Topology.grid(int(rows), int(cols)), communication
    match = _LINE_NAME.match(name)
    if match:
        kind, sites = match.groups()
        communication = "swap" if kind == "nisq" else "braid"
        return Topology.line(int(sites)), communication
    match = _FULL_NAME.match(name)
    if match:
        kind, sites = match.groups()
        communication = "swap" if kind == "nisq" else "braid"
        return Topology.fully_connected(int(sites)), communication
    match = _IDEAL_NAME.match(name)
    if match:
        return Topology.fully_connected(int(match.group(1))), "none"
    return None


class _Collector:
    """Accumulates findings with a deterministic per-rule cap.

    Corrupted artifacts tend to cascade (one bad mapping entry fails
    every later gate); capping keeps reports readable and verification
    linear, while a summary diagnostic records how many findings each
    rule suppressed.
    """

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.findings: List[Diagnostic] = []
        self._counts: Dict[str, int] = {}

    def add(self, rule: str, message: str, *, severity: str = "error",
            module: str = "", instruction: int = -1, qubit: int = -1,
            site: int = -1, time: int = -1) -> None:
        count = self._counts.get(rule, 0) + 1
        self._counts[rule] = count
        if count > self.cap:
            return
        self.findings.append(Diagnostic(
            rule=rule, severity=severity, message=message, module=module,
            instruction=instruction, qubit=qubit, site=site, time=time,
        ))

    def finish(self) -> List[Diagnostic]:
        for rule, count in sorted(self._counts.items()):
            if count > self.cap:
                self.findings.append(Diagnostic(
                    rule=rule, severity="error",
                    message=f"{count - self.cap} additional {rule} "
                            f"finding(s) suppressed",
                    instruction=1 << 30,
                ))
        return self.findings


def verify_result(result: CompilationResult, *,
                  machine: Optional[Machine] = None,
                  max_findings_per_rule: int = 25) -> VerificationReport:
    """Statically verify one compilation result against rules RV001-RV006.

    Args:
        result: The result to check.  Full coverage (gate-stream rules)
            needs the compile to have run with ``record_schedule=True``;
            otherwise those rules are reported as skipped.
        machine: Optional live machine; when omitted, the topology is
            rebuilt from ``result.machine_name``.
        max_findings_per_rule: Cap on reported findings per rule (a
            trailing summary diagnostic counts anything suppressed).

    Returns:
        A deterministic :class:`~repro.verify.diagnostics.VerificationReport`.
    """
    started = _time.perf_counter()
    out = _Collector(max_findings_per_rule)
    skipped: List[Tuple[str, str]] = []

    if machine is not None:
        topology: Optional[Topology] = machine.topology
        communication = machine.communication
    else:
        rebuilt = topology_for_machine_name(result.machine_name)
        if rebuilt is not None:
            topology, communication = rebuilt
        else:
            topology, communication = None, ""

    events = result.scheduled_gates
    segments = result.usage_segments

    # Per-qubit segment index shared by RV001 and RV005.
    by_qubit: Dict[int, List] = {}
    for index, segment in enumerate(segments):
        by_qubit.setdefault(segment.qubit, []).append((index, segment))
    for buckets in by_qubit.values():
        buckets.sort(key=lambda pair: (pair[1].start, pair[1].end))

    adjacency_skip = _adjacency_skip_reason(result, topology, communication)
    stream = _check_stream(result, by_qubit, topology,
                           adjacency_skip is None, out)   # RV006 RV001 RV003
    _check_segments(result, by_qubit, out)                        # RV005
    _check_metrics(result, topology, stream, out, skipped)        # RV004
    if events:
        _check_mapping(result, out)                               # RV002
        if adjacency_skip is not None:
            skipped.append(("RV003", adjacency_skip))
    else:
        reason = ("no recorded gate stream; compile with "
                  "record_schedule=True for full coverage")
        skipped.extend((rule, reason)
                       for rule in ("RV001", "RV002", "RV003"))

    return make_report(
        result.program_name, result.machine_name, result.policy_name,
        out.finish(),
        checked_gates=len(events),
        checked_segments=len(segments),
        checked_events=len(result.reclamation_events),
        skipped_rules=tuple(skipped),
        verify_seconds=_time.perf_counter() - started,
    )


# ----------------------------------------------------------------------
# The forward pass over the gate stream: RV006 structural lint, RV001
# liveness, RV003 adjacency, and what RV004 needs of the stream
# ----------------------------------------------------------------------
class _StreamTotals:
    """What the forward pass measured for RV004: non-routed gates,
    router swaps, the makespan, and each ``(index, event, site)`` whose
    site is off the machine (empty when the capacity is unknown)."""

    def __init__(self) -> None:
        self.gates = 0
        self.swaps = 0
        self.depth = 0
        self.outside: List[Tuple[int, object, int]] = []


def _adjacency_skip_reason(result: CompilationResult,
                           topology: Optional[Topology],
                           communication: str) -> Optional[str]:
    """Why RV003 cannot run on this machine, or None when it can."""
    if topology is None:
        return f"machine {result.machine_name!r} has no recognisable topology"
    if communication != "swap" or topology.is_fully_connected:
        return (f"machine {result.machine_name!r} imposes no "
                f"swap-routing adjacency constraints")
    return None


def _check_stream(result: CompilationResult, by_qubit: Dict[int, List],
                  topology: Optional[Topology], check_adjacency: bool,
                  out: _Collector) -> _StreamTotals:
    """One pass over ``scheduled_gates`` for every forward rule.

    Each rule's findings come out in stream order, as from a pass of its
    own, so the per-rule caps keep the same findings.
    """
    totals = _StreamTotals()
    events = result.scheduled_gates
    if not events:
        return totals
    capacity = topology.num_sites if topology is not None else -1
    if check_adjacency:
        # Topology.are_adjacent inlined: RV003 runs on lattices only.
        rows = topology.site_rows
        cols = topology.site_cols
    last_finish: Dict[int, int] = {}
    gates = 0
    depth = events[0].finish
    outside = totals.outside
    for index, event in enumerate(events):
        name = event.name
        start = event.start
        finish = event.finish
        qubits = event.virtual_qubits
        sites = event.sites
        routed = event.routed
        arity = len(qubits)
        num_sites = len(sites)
        if finish > depth:
            depth = finish
        # RV006: structural lint.
        if start < 0 or finish < start:
            out.add("RV006",
                    f"gate {name!r} has an invalid time window "
                    f"[{start}, {finish}]",
                    instruction=index, time=start)
        if arity > 1 and len(set(qubits)) != arity:
            out.add("RV006",
                    f"gate {name!r} has duplicate wire operands "
                    f"{qubits}",
                    instruction=index, time=start)
        if routed:
            # A router swap records its two sites; virtual_qubits holds
            # only the live occupants (0-2: swapping into an empty site
            # is how fresh ancillas travel).
            if name != "swap" or num_sites != 2 or arity > 2:
                out.add("RV006",
                        f"routed event {index} must be a two-site swap, "
                        f"got {name!r} on {sites}",
                        instruction=index, time=start)
        else:
            gates += 1
            if num_sites != arity:
                out.add("RV006",
                        f"gate {name!r} records {num_sites} "
                        f"site(s) for {arity} "
                        f"operand(s)",
                        instruction=index, time=start)
            spec = GATE_SPECS.get(name)
            if spec is None:
                out.add("RV006",
                        f"unknown gate {name!r}",
                        instruction=index, time=start)
            elif spec.num_qubits and arity != spec.num_qubits:
                out.add("RV006",
                        f"gate {name!r} expects {spec.num_qubits} "
                        f"operand(s), got {arity}",
                        instruction=index, time=start)
        for qubit in qubits:
            previous = last_finish.get(qubit)
            if previous is not None and start < previous:
                out.add("RV006",
                        f"gate {name!r} starts at {start} but "
                        f"qubit {qubit} is busy until {previous} "
                        f"(stream out of per-qubit time order)",
                        instruction=index, qubit=qubit, time=start)
            if previous is None:
                previous = 0
            last_finish[qubit] = finish if finish > previous else previous
            # RV001: router swaps may legally move a reclaimed |0>
            # qubit; they act on sites, not on live program state.
            if routed:
                continue
            for _, segment in by_qubit.get(qubit, ()):
                if segment.start <= start and finish <= segment.end:
                    break
            else:
                out.add("RV001",
                        f"gate {name!r} acts on qubit {qubit} during "
                        f"[{start}, {finish}], outside every "
                        f"recorded live segment (use after reclaim, or use "
                        f"before allocation)",
                        instruction=index, qubit=qubit, time=start)
        # RV003: adjacency.
        if check_adjacency:
            if routed:
                if num_sites == 2:
                    site_a, site_b = sites
                    if (site_a == site_b
                            or not (0 <= site_a < capacity
                                    and 0 <= site_b < capacity)
                            or abs(rows[site_a] - rows[site_b])
                            + abs(cols[site_a] - cols[site_b]) > 1):
                        out.add("RV003",
                                f"router swap acts on non-adjacent sites "
                                f"({site_a}, {site_b})",
                                instruction=index, site=site_a, time=start)
            elif num_sites >= 2:
                # Pairwise resolution routes each control next to the
                # target in turn; only the last-resolved control is
                # guaranteed to still be adjacent when the gate commits.
                control, target = sites[-2], sites[-1]
                if (not (0 <= control < capacity and 0 <= target < capacity)
                        or abs(rows[control] - rows[target])
                        + abs(cols[control] - cols[target]) > 1):
                    out.add("RV003",
                            f"gate {name!r} commits with operand sites "
                            f"({control}, {target}) that are not adjacent",
                            instruction=index, site=control, time=start)
        # RV004's machine-capacity check, reported with the other RV004s.
        if capacity >= 0:
            for site in sites:
                if not 0 <= site < capacity:
                    outside.append((index, event, site))
    totals.gates = gates
    totals.swaps = len(events) - gates
    totals.depth = depth
    return totals


# ----------------------------------------------------------------------
# RV005: reclamation accounting
# ----------------------------------------------------------------------
def _check_segments(result: CompilationResult,
                    by_qubit: Dict[int, List], out: _Collector) -> None:
    for qubit, buckets in sorted(by_qubit.items()):
        previous = None
        for index, segment in buckets:
            if segment.end < segment.start:
                out.add("RV005",
                        f"usage segment of qubit {qubit} ends at "
                        f"{segment.end}, before its start {segment.start}",
                        instruction=index, qubit=qubit, time=segment.start)
            if previous is not None and segment.start < previous[1].end:
                out.add("RV005",
                        f"qubit {qubit} re-issued at {segment.start} while "
                        f"still live until {previous[1].end} (heap handed "
                        f"out a live qubit)",
                        instruction=index, qubit=qubit, time=segment.start)
            previous = (index, segment)
    for index, event in enumerate(result.reclamation_events):
        if event.num_ancilla < 1:
            out.add("RV005",
                    f"reclamation event for {event.module!r} covers "
                    f"{event.num_ancilla} ancilla(e); every logged decision "
                    f"covers at least one",
                    module=event.module, instruction=index)
        if event.level < 1:
            out.add("RV005",
                    f"reclamation event for {event.module!r} at call level "
                    f"{event.level}; the top-level Free never logs a "
                    f"decision",
                    module=event.module, instruction=index)


# ----------------------------------------------------------------------
# RV004: capacity and headline-metric closure
# ----------------------------------------------------------------------
def _check_metrics(result: CompilationResult, topology: Optional[Topology],
                   stream: _StreamTotals, out: _Collector,
                   skipped: List[Tuple[str, str]]) -> None:
    aqv = sum(segment.duration for segment in result.usage_segments)
    if aqv != result.active_quantum_volume:
        out.add("RV004",
                f"active_quantum_volume={result.active_quantum_volume} but "
                f"the usage segments sum to {aqv}")
    if not 0 <= result.peak_live_qubits <= result.num_qubits_used:
        out.add("RV004",
                f"peak_live_qubits={result.peak_live_qubits} outside "
                f"[0, num_qubits_used={result.num_qubits_used}]")
    if result.num_entry_params > result.num_qubits_used:
        out.add("RV004",
                f"num_entry_params={result.num_entry_params} exceeds "
                f"num_qubits_used={result.num_qubits_used}")
    if result.uncompute_gate_count < 0:
        # No upper bound against gate_count: nested uncompute replays
        # legitimately count a gate once per enclosing uncompute block.
        out.add("RV004",
                f"uncompute_gate_count={result.uncompute_gate_count} "
                f"is negative")

    seen_qubits = {segment.qubit for segment in result.usage_segments}
    for qubit in sorted(seen_qubits):
        if not 0 <= qubit < result.num_qubits_used:
            out.add("RV004",
                    f"usage segment references qubit {qubit}, outside the "
                    f"{result.num_qubits_used} virtual qubits used",
                    qubit=qubit)
    if result.usage_segments:
        for qubit in range(result.num_qubits_used):
            if qubit not in seen_qubits:
                out.add("RV004",
                        f"virtual qubit {qubit} was created but has no "
                        f"usage segment",
                        qubit=qubit)

    if result.scheduled_gates:
        gates = stream.gates
        swaps = stream.swaps
        depth = stream.depth
        if gates != result.gate_count:
            out.add("RV004",
                    f"gate_count={result.gate_count} but the stream holds "
                    f"{gates} non-routed gate(s)")
        if swaps != result.swap_count:
            out.add("RV004",
                    f"swap_count={result.swap_count} but the stream holds "
                    f"{swaps} router swap(s)")
        if depth != result.circuit_depth:
            out.add("RV004",
                    f"circuit_depth={result.circuit_depth} but the stream's "
                    f"makespan is {depth}")
    for index, segment in enumerate(result.usage_segments):
        if segment.end > result.circuit_depth:
            out.add("RV004",
                    f"usage segment of qubit {segment.qubit} ends at "
                    f"{segment.end}, past the circuit depth "
                    f"{result.circuit_depth}",
                    instruction=index, qubit=segment.qubit,
                    time=segment.end)

    if topology is None:
        skipped.append(("RV004",
                        f"capacity checks skipped: machine "
                        f"{result.machine_name!r} has no recognisable "
                        f"topology"))
        return
    capacity = topology.num_sites
    if result.num_qubits_used > capacity:
        out.add("RV004",
                f"{result.num_qubits_used} virtual qubits used on a "
                f"machine with {capacity} site(s)")
    if result.peak_live_qubits > capacity:
        out.add("RV004",
                f"peak_live_qubits={result.peak_live_qubits} exceeds the "
                f"machine capacity {capacity}")
    for virtual, site in result.final_sites:
        if not 0 <= site < capacity:
            out.add("RV004",
                    f"virtual qubit {virtual} mapped to site {site}, "
                    f"outside the {capacity}-site machine",
                    qubit=virtual, site=site)
    for index, event, site in stream.outside:
        out.add("RV004",
                f"gate {event.name!r} touches site {site}, outside "
                f"the {capacity}-site machine",
                instruction=index, site=site, time=event.start)


# ----------------------------------------------------------------------
# RV002: mapping replay (double-booked sites)
# ----------------------------------------------------------------------
def _check_mapping(result: CompilationResult, out: _Collector) -> None:
    position: Dict[int, int] = {}
    for virtual, site in result.final_sites:
        if virtual in position:
            out.add("RV002",
                    f"virtual qubit {virtual} appears twice in final_sites",
                    qubit=virtual, site=site)
            continue
        position[virtual] = site
    by_site: Dict[int, List[int]] = {}
    for virtual, site in position.items():
        by_site.setdefault(site, []).append(virtual)
    for site, virtuals in sorted(by_site.items()):
        if len(virtuals) > 1:
            out.add("RV002",
                    f"final mapping places qubits {sorted(virtuals)} on "
                    f"one site",
                    site=site)

    unmapped_reported = set()
    # Walk the stream backwards from the final placement, undoing router
    # swaps; every committed gate must then find its operands exactly on
    # their recorded sites.  Sound because sites change hands only
    # through router swaps and never host two virtuals at once (the
    # layout never frees a site, so tracking a qubit's site across its
    # whole history cannot collide with another qubit's legally).
    events = result.scheduled_gates
    for index in range(len(events) - 1, -1, -1):
        event = events[index]
        sites = event.sites
        if event.routed and len(sites) == 2:
            site_a, site_b = sites
            for qubit in event.virtual_qubits:
                current = position.get(qubit)
                if current == site_a:
                    position[qubit] = site_b
                elif current == site_b:
                    position[qubit] = site_a
                elif qubit not in position:
                    if qubit not in unmapped_reported:
                        unmapped_reported.add(qubit)
                        out.add("RV002",
                                f"qubit {qubit} appears in the gate stream "
                                f"but has no final_sites entry",
                                instruction=index, qubit=qubit)
                else:
                    out.add("RV002",
                            f"router swap on sites ({site_a}, {site_b}) "
                            f"involves qubit {qubit}, which the mapping "
                            f"replay places on site {current}",
                            instruction=index, qubit=qubit, site=current,
                            time=event.start)
            continue
        for qubit, site in zip(event.virtual_qubits, sites):
            current = position.get(qubit)
            if current is None:
                if qubit not in unmapped_reported:
                    unmapped_reported.add(qubit)
                    out.add("RV002",
                            f"qubit {qubit} appears in the gate stream but "
                            f"has no final_sites entry",
                            instruction=index, qubit=qubit)
                position[qubit] = site
            elif current != site:
                out.add("RV002",
                        f"gate {event.name!r} records qubit {qubit} on "
                        f"site {site}, but the mapping replay places it on "
                        f"site {current}",
                        instruction=index, qubit=qubit, site=site,
                        time=event.start)
                position[qubit] = site  # resync to bound the cascade
        if not event.routed and len(sites) > 1 and len(set(sites)) != len(sites):
            out.add("RV002",
                    f"gate {event.name!r} places two operands on one "
                    f"site ({sites})",
                    instruction=index, time=event.start)

    # Note: the replayed *initial* placement is deliberately not checked
    # for injectivity.  A qubit created mid-program replays back to its
    # creation site for all earlier times (router swaps before its
    # creation never list it), and another qubit may have legitimately
    # occupied that site before swapping away — so collisions there are
    # fictitious.  Double-booking is instead caught by the final-mapping
    # injectivity above plus the per-gate site consistency along the
    # replay.

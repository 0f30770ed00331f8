"""Profile the modular-exponentiation workload (Figure 1 of the paper).

Shor's algorithm spends nearly all of its time in modular exponentiation.
This example compiles the MODEXP workload under Eager, Lazy and SQUARE,
prints qubit-usage-over-time curves as ASCII art and reports the active
quantum volume of each policy — reproducing the paper's motivating
figure at laptop scale.

Run with:  python examples/shor_modexp_profile.py [width] [exponent_bits]
"""

from __future__ import annotations

import sys

from repro import MachineSpec, Session
from repro.analysis import ascii_plot, format_table, usage_curve
from repro.workloads import modexp_program


def main(width: int = 3, exponent_bits: int = 3) -> None:
    program = modexp_program(width=width, exponent_bits=exponent_bits)
    print(f"MODEXP width={width}, exponent bits={exponent_bits}: "
          f"{program.static_gate_count()} forward gates, "
          f"{len(program.modules())} modules, {program.num_levels()} levels\n")

    session = Session()
    machine = MachineSpec.nisq_autosize(start_qubits=64)
    curves = []
    rows = []
    for policy in ("eager", "lazy", "square"):
        result = session.compile(program, machine, policy)
        curves.append(usage_curve(result, label=policy))
        rows.append({
            "policy": policy,
            "peak qubits": result.peak_live_qubits,
            "total time": result.circuit_depth,
            "gates": result.gate_count,
            "swaps": result.swap_count,
            "AQV": result.active_quantum_volume,
        })

    print(format_table(rows))
    print("\nQubit usage over time (area under each curve = its AQV):\n")
    print(ascii_plot(curves))


if __name__ == "__main__":
    arguments = [int(value) for value in sys.argv[1:3]]
    main(*arguments)

"""NISQ swaps vs fault-tolerant braiding for the same workload (Fig 9 vs 10).

Compiles the SHA-2 round workload onto (a) a lattice NISQ machine where
communication is resolved by swap chains and (b) a surface-code FT machine
where communication is resolved by braids, under every reuse policy, and
compares the resulting active quantum volume and communication costs —
illustrating why the same program wants different reclamation strategies
on different machines (Section III-A of the paper).

Run with:  python examples/ft_braiding_comparison.py
"""

from __future__ import annotations

from repro import MachineSpec, Session
from repro.analysis import format_table, normalized_aqv
from repro.workloads import sha2_program


def main() -> None:
    program = sha2_program(word_width=4, rounds=2)
    print(f"SHA2 (word width 4, 2 rounds): {program.static_gate_count()} "
          f"forward gates, {len(program.modules())} modules\n")

    session = Session()
    for label, machine in (
            ("NISQ lattice (swap chains)",
             MachineSpec.nisq_autosize(start_qubits=64)),
            ("FT surface code (braiding)",
             MachineSpec.ft_autosize(start_qubits=64))):
        results = {}
        rows = []
        for policy in ("lazy", "eager", "square"):
            result = session.compile(program, machine, policy)
            results[policy] = result
            rows.append({
                "policy": policy,
                "gates": result.gate_count,
                "swaps": result.swap_count,
                "comm cost": round(result.total_comm_cost, 1),
                "qubits": result.num_qubits_used,
                "AQV": result.active_quantum_volume,
            })
        normalized = normalized_aqv(results, baseline="lazy")
        print(label)
        print(format_table(rows))
        print("AQV normalised to Lazy: "
              + ", ".join(f"{policy}={value:.2f}"
                          for policy, value in normalized.items()))
        print()


if __name__ == "__main__":
    main()

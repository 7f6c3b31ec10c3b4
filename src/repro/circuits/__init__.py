"""Quantum circuit intermediate representation, synthesis and optimization.

The subpackage provides:

* :class:`~repro.circuits.gates.Gate` and :class:`~repro.circuits.circuit.Circuit`
  — the CNOT + single-qubit gate IR whose CNOT count is the paper's metric;
* :func:`~repro.circuits.pauli_exponential.pauli_exponential_circuit` — the
  Fig. 3(b) template with a selectable target qubit;
* :func:`~repro.circuits.interface.interface_cnot_reduction` and
  :func:`~repro.circuits.interface.sequence_cnot_count` — the Sec. III-B
  cancellation accounting that feeds the GTSP edge weights;
* :func:`~repro.circuits.optimizer.optimize_circuit` — an exact peephole pass
  realizing cancellations at the gate level;
* :mod:`~repro.circuits.kak` — two-qubit invariants certifying minimal CNOT
  costs of residual interface blocks.
"""

from repro.circuits.circuit import Circuit
from repro.circuits.gates import (
    Gate,
    cnot,
    hadamard,
    rx,
    ry,
    rz,
    s_gate,
    sdg_gate,
)
from repro.circuits.interface import (
    GOOD_TARGET_COLLISIONS,
    MATCHING_CONTROL_COLLISIONS,
    best_sequence_from_cycle,
    interface_cnot_reduction,
    pair_cnot_count,
    sequence_cnot_count,
)
from repro.circuits.kak import (
    cnot_cost,
    gamma_matrix,
    is_local_gate,
    makhlin_invariants,
)
from repro.circuits.optimizer import (
    gates_commute,
    optimize_circuit,
    optimized_cnot_count,
    remove_identity_rotations,
)
from repro.circuits.pauli_exponential import (
    basis_change_gates,
    exponential_sequence_circuit,
    pauli_exponential_circuit,
    pauli_exponential_cnot_count,
)

__all__ = [
    "Circuit",
    "Gate",
    "cnot",
    "hadamard",
    "rx",
    "ry",
    "rz",
    "s_gate",
    "sdg_gate",
    "pauli_exponential_circuit",
    "pauli_exponential_cnot_count",
    "exponential_sequence_circuit",
    "basis_change_gates",
    "interface_cnot_reduction",
    "pair_cnot_count",
    "sequence_cnot_count",
    "best_sequence_from_cycle",
    "GOOD_TARGET_COLLISIONS",
    "MATCHING_CONTROL_COLLISIONS",
    "optimize_circuit",
    "optimized_cnot_count",
    "remove_identity_rotations",
    "gates_commute",
    "cnot_cost",
    "makhlin_invariants",
    "gamma_matrix",
    "is_local_gate",
]

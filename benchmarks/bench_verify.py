"""Verification-engine benchmark: routed equivalence at 30 qubits, in budget.

Dense ``to_unitary`` comparison is physically impossible at 30 qubits (a
2^30 x 2^30 matrix), so this harness measures what the ``repro.verify``
dispatcher was built for — full routed-vs-unrouted equivalence proofs on
registers far past the dense ceiling, cheap enough for every CI run:

* ``routed_30q`` — a random bounded-weight rotation sequence on a 30-qubit
  line is synthesized unrouted, then steered along the topology and
  peephole-optimized; ``check_equivalence`` must prove the pair equivalent
  through the Pauli-propagation engine (``engine == "pauli"``, exact), and
  the whole verification must finish under ``VERIFY_WALL_CEILING_S``.
  A SABRE-routed + permutation-undone variant runs the same contract.
* ``clifford_48q`` — a random 48-qubit Clifford circuit against a
  gate-order-perturbed but equal rewrite of itself, proved equivalent by
  the bit-packed stabilizer tableau engine.
* ``small_n_differential`` — at 3-5 qubits, where the dense engine is an
  oracle, random circuit pairs (identical copies and angle-perturbed
  mutants) are judged by every applicable engine; the forced ``pauli`` and
  ``sparse`` verdicts must be **bit-identical** to the dense ones.  Any
  mismatch fails the job — this is the check that keeps the scalable
  engines honest release over release.

Results (per-section wall times, engine tags, differential counts) are
written to ``BENCH_verify.json`` and uploaded as a CI artifact by the
``verify`` entry of the ``bench`` CI job matrix; the floors above fail the
job when violated.

Usage:
    PYTHONPATH=src python benchmarks/bench_verify.py [--output BENCH_verify.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.circuits import (  # noqa: E402
    Circuit,
    Gate,
    exponential_sequence_circuit,
    optimize_circuit,
)
from repro.hardware import (  # noqa: E402
    Topology,
    route_circuit,
    routed_exponential_sequence_circuit,
)
from repro.operators import PauliString  # noqa: E402
from repro.verify import check_equivalence  # noqa: E402

#: The 30-qubit routed-equivalence proof must finish within this budget.
VERIFY_WALL_CEILING_S = 5.0
#: Qubits in the routed-equivalence section (past any dense ceiling).
ROUTED_QUBITS = 30
#: Rotation terms in the routed workload.
ROUTED_TERMS = 12
#: Qubits in the Clifford tableau section.
CLIFFORD_QUBITS = 48
#: Random circuit pairs per register size in the differential section.
DIFFERENTIAL_TRIALS = 6

_GATE_POOL = ("H", "S", "SDG", "T", "CNOT", "CZ", "RZ", "RX", "RY")


def random_rotation_sequence(n_qubits, n_terms, seed, max_weight=5):
    """Random ``(P, theta, target)`` rotation terms with bounded support."""
    rng = random.Random(seed)
    sequence = []
    for _ in range(n_terms):
        support = rng.sample(range(n_qubits), rng.randrange(2, max_weight + 1))
        labels = {q: rng.choice("XYZ") for q in support}
        sequence.append(
            (PauliString.from_dict(n_qubits, labels), rng.uniform(-2.0, 2.0), None)
        )
    return sequence


def random_circuit(n_qubits, n_gates, rng):
    circuit = Circuit(n_qubits)
    for _ in range(n_gates):
        name = rng.choice(_GATE_POOL)
        if name in ("CNOT", "CZ"):
            a, b = rng.sample(range(n_qubits), 2)
            circuit.append(Gate(name, (a, b)))
        elif name in ("RZ", "RX", "RY"):
            circuit.append(Gate(name, (rng.randrange(n_qubits),),
                                rng.uniform(-2.0, 2.0)))
        else:
            circuit.append(Gate(name, (rng.randrange(n_qubits),)))
    return circuit


def random_clifford_circuit(n_qubits, n_gates, rng):
    circuit = Circuit(n_qubits)
    for _ in range(n_gates):
        name = rng.choice(("H", "S", "SDG", "X", "Z", "CNOT", "CZ", "SWAP"))
        if name in ("CNOT", "CZ", "SWAP"):
            a, b = rng.sample(range(n_qubits), 2)
            circuit.append(Gate(name, (a, b)))
        else:
            circuit.append(Gate(name, (rng.randrange(n_qubits),)))
    return circuit


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def bench_routed_30q() -> dict:
    """Steered + SABRE routed equivalence at 30 qubits under the dispatcher."""
    topology = Topology.line(ROUTED_QUBITS)
    sequence = random_rotation_sequence(ROUTED_QUBITS, ROUTED_TERMS, seed=30)
    unrouted = exponential_sequence_circuit(sequence, n_qubits=ROUTED_QUBITS)

    start = time.perf_counter()
    steered = optimize_circuit(
        routed_exponential_sequence_circuit(sequence, topology)
    )
    synth_s = time.perf_counter() - start

    start = time.perf_counter()
    steered_report = check_equivalence(steered, unrouted)
    steered_verify_s = time.perf_counter() - start

    routed = route_circuit(optimize_circuit(unrouted.copy()), topology, seed=0)
    undone = routed.circuit.compose(routed.undo_permutation_circuit())
    start = time.perf_counter()
    sabre_report = check_equivalence(undone, unrouted)
    sabre_verify_s = time.perf_counter() - start

    return {
        "n_qubits": ROUTED_QUBITS,
        "n_terms": ROUTED_TERMS,
        "topology": topology.name,
        "steered_cnots": steered.cnot_count,
        "synthesis_s": round(synth_s, 4),
        "steered": {
            "equivalent": steered_report.equivalent,
            "engine": steered_report.engine,
            "exact": steered_report.exact,
            "verify_s": round(steered_verify_s, 4),
        },
        "sabre": {
            "equivalent": sabre_report.equivalent,
            "engine": sabre_report.engine,
            "exact": sabre_report.exact,
            "verify_s": round(sabre_verify_s, 4),
        },
    }


def bench_clifford_48q() -> dict:
    """Tableau proof on a 48-qubit Clifford pair (4 x 64-bit words wide)."""
    rng = random.Random(48)
    circuit = random_clifford_circuit(CLIFFORD_QUBITS, 400, rng)
    # An equal rewrite: commute a disjoint-support prefix past itself.
    rewrite = optimize_circuit(circuit.copy())
    start = time.perf_counter()
    report = check_equivalence(circuit, rewrite)
    verify_s = time.perf_counter() - start
    return {
        "n_qubits": CLIFFORD_QUBITS,
        "n_gates": len(circuit),
        "equivalent": report.equivalent,
        "engine": report.engine,
        "exact": report.exact,
        "verify_s": round(verify_s, 4),
    }


def bench_small_n_differential() -> dict:
    """Dense-oracle cross-validation: scalable engines must match verdicts."""
    trials = 0
    mismatches = []
    for n_qubits in (3, 4, 5):
        for seed in range(DIFFERENTIAL_TRIALS):
            rng = random.Random(1000 * n_qubits + seed)
            circuit = random_circuit(n_qubits, 12, rng)
            mutant = Circuit(n_qubits)
            perturbed = False
            for gate in circuit:
                if not perturbed and gate.parameter is not None:
                    gate = Gate(gate.name, gate.qubits, gate.parameter + 0.37)
                    perturbed = True
                mutant.append(gate)
            if not perturbed:
                mutant.append(Gate("RZ", (0,), 0.37))
            for other, expected in ((circuit.copy(), True), (mutant, False)):
                dense = check_equivalence(circuit, other, engine="dense")
                if dense.equivalent is not expected:
                    mismatches.append(
                        {"n": n_qubits, "seed": seed, "engine": "dense",
                         "got": dense.equivalent, "expected": expected}
                    )
                for engine in ("pauli", "sparse"):
                    report = check_equivalence(circuit, other, engine=engine)
                    trials += 1
                    if report.equivalent is not dense.equivalent:
                        mismatches.append(
                            {"n": n_qubits, "seed": seed, "engine": engine,
                             "got": report.equivalent,
                             "expected": dense.equivalent}
                        )
    return {
        "trials": trials,
        "mismatches": mismatches,
        "mismatch_count": len(mismatches),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None, help="write JSON here")
    args = parser.parse_args()

    routed = bench_routed_30q()
    clifford = bench_clifford_48q()
    differential = bench_small_n_differential()

    total_verify_s = (
        routed["steered"]["verify_s"] + routed["sabre"]["verify_s"]
    )

    report = {
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "routed_30q": routed,
        "clifford_48q": clifford,
        "small_n_differential": differential,
        "summary": {
            "routed_verify_total_s": round(total_verify_s, 4),
            "clifford_verify_s": clifford["verify_s"],
            "differential_mismatches": differential["mismatch_count"],
        },
        "floors": {
            "verify_wall_ceiling_s": VERIFY_WALL_CEILING_S,
            "differential_mismatches": 0,
        },
    }

    output = Path(args.output) if args.output else REPO_ROOT / "BENCH_verify.json"
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"routed 30q steered  : {routed['steered']['verify_s']:8.3f} s "
          f"(engine={routed['steered']['engine']}, "
          f"exact={routed['steered']['exact']})")
    print(f"routed 30q sabre    : {routed['sabre']['verify_s']:8.3f} s "
          f"(engine={routed['sabre']['engine']}, "
          f"exact={routed['sabre']['exact']})")
    print(f"clifford 48q        : {clifford['verify_s']:8.3f} s "
          f"(engine={clifford['engine']}, {clifford['n_gates']} gates)")
    print(f"differential        : {differential['trials']} engine verdicts, "
          f"{differential['mismatch_count']} mismatch(es) vs dense oracle")
    print(f"wall-time ceiling   : {total_verify_s:8.3f} s "
          f"(budget {VERIFY_WALL_CEILING_S:.1f} s)")
    print(f"wrote {output}")

    ok = (
        routed["steered"]["equivalent"]
        and routed["steered"]["engine"] == "pauli"
        and routed["steered"]["exact"]
        and routed["sabre"]["equivalent"]
        and routed["sabre"]["engine"] == "pauli"
        and routed["sabre"]["exact"]
        and clifford["equivalent"]
        and clifford["engine"] == "tableau"
        and clifford["exact"]
        and total_verify_s <= VERIFY_WALL_CEILING_S
        and differential["mismatch_count"] == 0
    )
    print(f"verify floors: {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()

"""Prior-art baseline compiler ([8], [9] in the paper).

Reproduces the compilation strategy the paper improves upon:

* **Bosonic encoding only** — a double excitation whose creation *and*
  annihilation index pairs are both same-spatial-orbital spin pairs is
  compiled in compressed form at 2 CNOTs; hybrid terms are not compressed.
* **Intra-excitation term ordering** — the Pauli strings of one excitation
  term are ordered to maximize cancellations (exhaustively for small terms,
  with a 2-opt tour heuristic otherwise).
* **Target qubit choice** — all Pauli strings of the same excitation term
  share a single target qubit.
* **Inter-excitation term ordering** — a doubly-greedy pass groups terms with
  the same target and greedily orders terms inside each group.
* **Fermion-to-qubit transformation matrix** — the prior art searches an
  upper-triangular Γ with binary particle swarm optimization (BPSO).  GT here
  uses the identity Γ: BPSO gained 0 CNOTs on H2O, BeH2, LiH and NH3 at 20
  terms (178, 162, 178, 180) for 1.4–9.7 s per compile against 11–26 ms.

Together these produce the "GT" (generalized transformation) column of
Table I; the plain JW/BK columns come from :func:`naive_cnot_count`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits import interface_cnot_reduction, sequence_cnot_count
from repro.core.terms_to_paulis import PauliRotation, required_qubits, terms_to_rotations
from repro.operators import PauliString
from repro.optimizers import solve_tsp
from repro.transforms import (
    FermionQubitTransform,
    LinearEncodingTransform,
    identity_matrix,
)
from repro.vqe import ExcitationTerm

#: CNOT cost of a compressed ("bosonic") double excitation, from [8].
BOSONIC_TERM_CNOT_COST = 2

#: Maximum number of Pauli strings for which intra-term ordering is exhaustive.
EXHAUSTIVE_ORDERING_LIMIT = 5


@dataclass
class BaselineCompilationResult:
    """Outcome of the baseline compilation of an excitation-term list."""

    cnot_count: int
    bosonic_terms: List[ExcitationTerm]
    bosonic_cnot_count: int
    ordered_rotations: List[Tuple[PauliString, int]]
    rotation_cnot_count: int
    transform_matrix: np.ndarray
    #: The same sequence as ``ordered_rotations`` with the rotation angles
    #: included, shaped for :func:`repro.circuits.exponential_sequence_circuit`
    #: so differential tests can synthesize the compiled unitary.
    ordered_exponentials: List[Tuple[PauliString, float, int]] = field(
        default_factory=list
    )

    @property
    def n_compressed_terms(self) -> int:
        return len(self.bosonic_terms)


def _shared_target(rotations: Sequence[PauliRotation]) -> Optional[int]:
    """Highest-index qubit common to the support of every rotation, if any."""
    if not rotations:
        return None
    common = set(rotations[0].string.support)
    for rotation in rotations[1:]:
        common &= set(rotation.string.support)
    return max(common) if common else None


#: One targeted rotation with its angle: (string, target, angle).
_TargetedRotation = Tuple[PauliString, int, float]


def _order_rotations_within_term(
    rotations: List[PauliRotation], target: Optional[int]
) -> List[_TargetedRotation]:
    """Order one term's rotations to maximize internal cancellations.

    All rotations share ``target`` when possible (the baseline's target-qubit
    rule); rotations whose support misses the target fall back to their own
    highest support qubit.
    """
    def targeted(rotation: PauliRotation) -> _TargetedRotation:
        support = rotation.string.support
        chosen = target if target is not None and target in support else support[-1]
        return (rotation.string, chosen, rotation.angle)

    entries = [targeted(r) for r in rotations]
    if len(entries) <= 1:
        return entries
    if len(entries) <= EXHAUSTIVE_ORDERING_LIMIT:
        best = min(
            itertools.permutations(entries),
            key=lambda order: sequence_cnot_count([(p, t) for p, t, _ in order]),
        )
        return list(best)

    indices = list(range(len(entries)))

    def weight(i: int, j: int) -> float:
        (p1, t1, _), (p2, t2, _) = entries[i], entries[j]
        return -float(interface_cnot_reduction(p1, t1, p2, t2))

    tour = solve_tsp(indices, weight, rng=np.random.default_rng(0))
    return [entries[i] for i in tour]


def _greedy_inter_term_order(
    term_blocks: List[List[_TargetedRotation]]
) -> List[_TargetedRotation]:
    """Doubly-greedy inter-term ordering.

    Terms are grouped by their shared target; inside each group a greedy
    nearest-neighbour pass orders the terms by the cancellation between the
    last rotation of one block and the first rotation of the next.
    """
    groups: Dict[int, List[List[_TargetedRotation]]] = {}
    for block in term_blocks:
        if not block:
            continue
        groups.setdefault(block[0][1], []).append(block)

    ordered: List[_TargetedRotation] = []
    for target in sorted(groups):
        blocks = list(groups[target])
        current = blocks.pop(0)
        sequence = list(current)
        while blocks:
            last_string, last_target = sequence[-1][0], sequence[-1][1]
            best_index = max(
                range(len(blocks)),
                key=lambda i: interface_cnot_reduction(
                    last_string, last_target, blocks[i][0][0], blocks[i][0][1]
                ),
            )
            sequence.extend(blocks.pop(best_index))
        ordered.extend(sequence)
    return ordered


class BaselineCompiler:
    """The prior-art compilation flow (GT column of Table I).

    Parameters
    ----------
    use_bosonic_encoding:
        Compress fully-paired double excitations at 2 CNOTs each (the baseline
        always does; disable only for the plain JW/BK reference columns).

    Compiles under the identity Γ, recorded as the result's ``transform_matrix``.
    """

    def __init__(self, use_bosonic_encoding: bool = True):
        self.use_bosonic_encoding = use_bosonic_encoding

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(
        self,
        terms: Sequence[ExcitationTerm],
        n_qubits: Optional[int] = None,
        parameters: Optional[Sequence[float]] = None,
    ) -> BaselineCompilationResult:
        """Compile an ordered excitation-term list and count CNOTs."""
        terms = list(terms)
        if not terms:
            raise ValueError("cannot compile an empty term list")
        if n_qubits is None:
            n_qubits = required_qubits(terms)

        gamma = identity_matrix(n_qubits)
        transform: FermionQubitTransform = LinearEncodingTransform(gamma)

        bosonic_terms: List[ExcitationTerm] = []
        uncompressed: List[Tuple[int, ExcitationTerm]] = []
        for index, term in enumerate(terms):
            if self.use_bosonic_encoding and term.encoding_class == "bosonic":
                bosonic_terms.append(term)
            else:
                uncompressed.append((index, term))

        bosonic_cnots = BOSONIC_TERM_CNOT_COST * len(bosonic_terms)

        term_blocks: List[List[_TargetedRotation]] = []
        for index, term in uncompressed:
            parameter = 1.0 if parameters is None else parameters[index]
            rotations = terms_to_rotations([term], transform, [parameter])
            target = _shared_target(rotations)
            term_blocks.append(_order_rotations_within_term(rotations, target))

        ordered = _greedy_inter_term_order(term_blocks)
        ordered_rotations = [(string, target) for string, target, _ in ordered]
        rotation_cnots = sequence_cnot_count(ordered_rotations)

        return BaselineCompilationResult(
            cnot_count=bosonic_cnots + rotation_cnots,
            bosonic_terms=bosonic_terms,
            bosonic_cnot_count=bosonic_cnots,
            ordered_rotations=ordered_rotations,
            rotation_cnot_count=rotation_cnots,
            transform_matrix=gamma,
            ordered_exponentials=[
                (string, angle, target) for string, target, angle in ordered
            ],
        )


def naive_rotation_sequence(
    terms: Sequence[ExcitationTerm],
    transform: FermionQubitTransform,
    parameters: Optional[Sequence[float]] = None,
) -> List[Tuple[PauliString, float, int]]:
    """The exact ``(string, angle, target)`` sequence the naive flow compiles.

    Terms are Trotterized in the given order, every Pauli string of a term
    shares the term's common target qubit, and strings keep their
    deterministic expansion order.  The sequence feeds straight into
    :func:`repro.circuits.exponential_sequence_circuit`, which is how the
    differential tests reconstruct the JW/BK reference unitaries.
    """
    terms = list(terms)
    sequence: List[Tuple[PauliString, float, int]] = []
    for index, term in enumerate(terms):
        parameter = 1.0 if parameters is None else parameters[index]
        rotations = terms_to_rotations([term], transform, [parameter])
        target = _shared_target(rotations)
        for rotation in rotations:
            support = rotation.string.support
            chosen = target if target is not None and target in support else support[-1]
            sequence.append((rotation.string, rotation.angle, chosen))
    return sequence


def naive_cnot_count(
    terms: Sequence[ExcitationTerm],
    transform: FermionQubitTransform,
    parameters: Optional[Sequence[float]] = None,
) -> int:
    """Reference compilation used for the JW and BK columns of Table I.

    No compression and no ordering optimization: only cancellations between
    consecutive rotations of :func:`naive_rotation_sequence` are credited.
    """
    terms = list(terms)
    if not terms:
        return 0
    sequence = naive_rotation_sequence(terms, transform, parameters)
    return sequence_cnot_count([(string, target) for string, _, target in sequence])

"""The Γ cost on GF(2) Pauli masks against the full algebra and the matrix greedy.

Three layers of differential checks:

* :class:`~repro.core.GammaMaskCost` emits, for any invertible
  block-diagonal Γ, exactly the string list
  ``terms_to_rotations(terms, LinearEncodingTransform(Γ))`` produces;
* :func:`~repro.core.greedy_sort` (the target-walk) matches the historical
  all-pairs-matrix greedy kept below as a test-only oracle, with and without
  a device topology;
* the simulated-annealing walk scored by the mask cost is step-for-step the
  walk scored by the full transform + oracle greedy, for every seed.
"""

from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.core import (
    AdvancedPipeline,
    CompilerConfig,
    GammaMaskCost,
    PauliRotation,
    SortingResult,
    assemble_gamma,
    classify_stage,
    excitation_topology_blocks,
    greedy_sort,
    schedule_hybrid_stage,
    search_block_diagonal_gamma,
    terms_to_rotations,
)
from repro.core.advanced_sorting import _finalize_sorting, vertex_savings
from repro.hardware import Topology
from repro.operators import PauliString, routed_vertex_cost_vector
from repro.transforms import LinearEncodingTransform, random_invertible_matrix
from repro.vqe import ExcitationTerm, select_ansatz_terms


def oracle_greedy_sort(
    rotations: List[PauliRotation], topology: Optional[Topology] = None
) -> SortingResult:
    """The matrix-based greedy: argmax over the full vertex-savings matrix."""
    rotations = list(rotations)
    if not rotations:
        return SortingResult(
            ordered_rotations=[],
            cnot_count=0,
            routed_cost_estimate=None if topology is None else 0,
        )
    vertices, savings = vertex_savings(rotations)
    if topology is None:
        preference = savings
    else:
        costs = routed_vertex_cost_vector(
            [rotations[index].string for index, _ in vertices],
            [target for _, target in vertices],
            topology.distance_matrix,
        )
        preference = savings - costs[None, :]
    vertex_rotation = np.array([index for index, _ in vertices], dtype=np.int64)
    row_of = {vertex: row for row, vertex in enumerate(vertices)}
    first_target = rotations[0].string.support[-1]
    ordered = [(rotations[0], first_target)]
    current = row_of[(0, first_target)]
    alive = vertex_rotation != 0
    for _ in range(len(rotations) - 1):
        candidates = np.nonzero(alive)[0]
        best = candidates[int(np.argmax(preference[current, candidates]))]
        index, target = vertices[best]
        ordered.append((rotations[index], target))
        alive &= vertex_rotation != index
        current = best
    return _finalize_sorting(ordered, topology)


def oracle_gamma_cost(terms, topology=None):
    """The historical Γ cost: full fermion→qubit algebra, then the matrix greedy."""

    def cost(gamma):
        rotations = terms_to_rotations(terms, LinearEncodingTransform(gamma))
        return float(oracle_greedy_sort(rotations, topology=topology).objective())

    return cost


@lru_cache(maxsize=None)
def ladder_terms(molecule: str, n_terms: int) -> Tuple[Tuple[ExcitationTerm, ...], int]:
    """HMP2-ranked Table-I terms (frozen core) and their register size."""
    scf = run_rhf(make_molecule(molecule))
    hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=1)
    return tuple(select_ansatz_terms(hamiltonian, n_terms)), hamiltonian.n_spin_orbitals


def topology(kind: Optional[str], n_qubits: int) -> Optional[Topology]:
    if kind is None:
        return None
    return Topology.line(n_qubits) if kind == "line" else Topology.ring(n_qubits)


def random_block_gamma(terms, n_qubits, seed):
    rng = np.random.default_rng(seed)
    blocks = excitation_topology_blocks(terms, n_qubits)
    matrices = [random_invertible_matrix(len(block), rng) for block in blocks]
    return assemble_gamma(n_qubits, blocks, matrices)


def assert_same_sorting(new: SortingResult, old: SortingResult):
    assert [(id(r), t) for r, t in new.ordered_rotations] == [
        (id(r), t) for r, t in old.ordered_rotations
    ]
    assert new.cnot_count == old.cnot_count
    assert new.routed_cost_estimate == old.routed_cost_estimate


@st.composite
def excitation_terms(draw, n_qubits: int = 8):
    """Synthetic singles and doubles with distinct creation/annihilation modes."""
    n = draw(st.integers(min_value=1, max_value=6))
    terms = []
    for _ in range(n):
        rank = draw(st.sampled_from((1, 2)))
        modes = draw(
            st.lists(
                st.integers(0, n_qubits - 1), min_size=2 * rank, max_size=2 * rank,
                unique=True,
            )
        )
        terms.append(
            ExcitationTerm(creation=tuple(modes[:rank]), annihilation=tuple(modes[rank:]))
        )
    return terms


@st.composite
def rotation_lists(draw):
    n_qubits = draw(st.integers(min_value=1, max_value=9))
    labels = draw(
        st.lists(
            st.text(alphabet="IXYZ", min_size=n_qubits, max_size=n_qubits).filter(
                lambda label: set(label) != {"I"}
            ),
            min_size=1,
            max_size=14,
        )
    )
    return n_qubits, [
        PauliRotation(string=PauliString(label), angle=0.1, term_index=index)
        for index, label in enumerate(labels)
    ]


class TestMaskedStrings:
    @pytest.mark.parametrize("molecule", ["BeH2", "H2O", "NH3"])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_ladder_terms_match_linear_encoding(self, molecule, seed):
        terms, n_qubits = ladder_terms(molecule, 20)
        gamma = random_block_gamma(terms, n_qubits, seed)
        expected = terms_to_rotations(terms, LinearEncodingTransform(gamma))
        assert GammaMaskCost(terms, n_qubits).strings(gamma) == [
            rotation.string for rotation in expected
        ]

    @given(terms=excitation_terms(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_synthetic_terms_match_linear_encoding(self, terms, seed):
        n_qubits = 8
        gamma = random_invertible_matrix(n_qubits, np.random.default_rng(seed))
        expected = terms_to_rotations(terms, LinearEncodingTransform(gamma))
        assert GammaMaskCost(terms, n_qubits).strings(gamma) == [
            rotation.string for rotation in expected
        ]

    def test_wide_register_crosses_word_boundary(self):
        n_qubits = 70
        terms = [
            ExcitationTerm(creation=(66, 69), annihilation=(1, 3)),
            ExcitationTerm(creation=(64,), annihilation=(2,)),
        ]
        gamma = random_invertible_matrix(n_qubits, np.random.default_rng(3))
        expected = terms_to_rotations(terms, LinearEncodingTransform(gamma))
        assert GammaMaskCost(terms, n_qubits).strings(gamma) == [
            rotation.string for rotation in expected
        ]

    def test_zero_parameter_filters_every_rotation(self):
        terms = [ExcitationTerm(creation=(4, 5), annihilation=(0, 1))]
        cost = GammaMaskCost(terms, 6, term_parameters=[0.0])
        assert cost.strings(np.eye(6, dtype=np.uint8)) == []
        assert cost(np.eye(6, dtype=np.uint8)) == 0.0

    @pytest.mark.parametrize("kind", [None, "line", "ring"])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_cost_equals_full_algebra_objective(self, kind, seed):
        terms, n_qubits = ladder_terms("H2O", 12)
        device = topology(kind, n_qubits)
        gamma = random_block_gamma(terms, n_qubits, seed)
        assert GammaMaskCost(terms, n_qubits, topology=device)(gamma) == (
            oracle_gamma_cost(terms, device)(gamma)
        )


class TestGreedyAgainstMatrixOracle:
    @pytest.mark.parametrize("kind", [None, "line", "ring"])
    @given(case=rotation_lists())
    @settings(max_examples=80, deadline=None)
    def test_random_rotations(self, kind, case):
        n_qubits, rotations = case
        device = topology(kind, n_qubits)
        assert_same_sorting(
            greedy_sort(rotations, topology=device),
            oracle_greedy_sort(rotations, topology=device),
        )

    @pytest.mark.parametrize("kind", [None, "line", "ring"])
    @pytest.mark.parametrize("molecule", ["LiH", "H2O", "NH3"])
    def test_ladder_rotations(self, kind, molecule):
        terms, n_qubits = ladder_terms(molecule, 20)
        device = topology(kind, n_qubits)
        gamma = random_block_gamma(terms, n_qubits, seed=11)
        rotations = terms_to_rotations(terms, LinearEncodingTransform(gamma))
        assert_same_sorting(
            greedy_sort(rotations, topology=device),
            oracle_greedy_sort(rotations, topology=device),
        )

    def test_empty(self):
        for device in (None, Topology.line(3)):
            assert_same_sorting(greedy_sort([], device), oracle_greedy_sort([], device))

    def test_identity_rotation_rejected(self):
        with pytest.raises(ValueError):
            greedy_sort([PauliRotation(PauliString("II"), 0.1, 0)])


class TestAnnealingWalkIdentity:
    """Same seed, same proposals, same energies, same Γ under either cost."""

    @pytest.mark.parametrize("kind", [None, "line"])
    @pytest.mark.parametrize("molecule", ["H2O", "NH3"])
    def test_trace_and_gamma_identical(self, molecule, kind):
        terms, n_qubits = ladder_terms(molecule, 12)
        device = topology(kind, n_qubits)
        for seed in (0, 1):
            # The Γ stage sees the pipeline's fermionic class and the rng
            # after hybrid scheduling; reproduce both.
            pipeline = AdvancedPipeline(CompilerConfig(seed=seed, topology=device))
            context = pipeline.make_context(terms, n_qubits=n_qubits)
            classify_stage(context)
            schedule_hybrid_stage(context)
            fermionic = context.fermionic_terms
            state = context.rng.bit_generator.state
            runs = []
            for cost in (
                GammaMaskCost(fermionic, n_qubits, topology=device),
                oracle_gamma_cost(fermionic, device),
            ):
                rng = np.random.default_rng()
                rng.bit_generator.state = state
                runs.append(
                    search_block_diagonal_gamma(
                        fermionic,
                        n_qubits,
                        cost,
                        n_steps=pipeline.config.gamma_steps,
                        rng=rng,
                        record_trace=True,
                    )
                )
            new, old = runs
            assert new.energy_trace == old.energy_trace
            assert len(new.energy_trace) == pipeline.config.gamma_steps
            assert np.array_equal(new.gamma, old.gamma)
            assert new.cnot_count == old.cnot_count
            assert (new.n_accepted, new.n_evaluations, new.n_cache_hits) == (
                old.n_accepted, old.n_evaluations, old.n_cache_hits,
            )

"""Ablation benchmarks for the design choices called out in DESIGN.md.

Each ablation switches one ingredient of the advanced pipeline off — by
replacing the relevant :class:`~repro.api.CompilerConfig` field or by
substituting a pipeline stage (:meth:`~repro.core.AdvancedPipeline.with_stage`)
— and measures the CNOT count on the same LiH / H2O ansatz, quantifying what
each technique buys:

* hybrid encoding on/off (Sec. III-A),
* GTSP advanced sorting vs naive per-term ordering (Sec. III-B),
* per-string target freedom vs shared targets (Sec. III-B),
* block-diagonal Γ simulated annealing vs the identity transformation
  (Sec. III-C).
"""

import numpy as np
import pytest

from repro.api import CompileRequest, CompilerConfig, get_backend
from repro.core import (
    AdvancedPipeline,
    advanced_sort,
    baseline_order_cnot_count,
    greedy_sort,
    naive_sort_stage,
    terms_to_rotations,
)
from repro.transforms import JordanWignerTransform

BASE_CONFIG = CompilerConfig(
    gamma_steps=15, sorting_population=14, sorting_generations=15, seed=0
)


def make_pipeline(**overrides):
    return AdvancedPipeline(BASE_CONFIG.replace(**overrides))


@pytest.fixture(scope="module")
def lih_case(molecule_data):
    hamiltonian, ranked = molecule_data("LiH")
    return hamiltonian, ranked[:6]


@pytest.fixture(scope="module")
def water_case(molecule_data):
    hamiltonian, ranked = molecule_data("H2O")
    return hamiltonian, ranked[:6]


class TestHybridEncodingAblation:
    def test_hybrid_encoding_reduces_cnots(self, benchmark, lih_case):
        hamiltonian, terms = lih_case
        n_qubits = hamiltonian.n_spin_orbitals

        def run():
            full = make_pipeline().run(terms, n_qubits=n_qubits).cnot_count
            no_hybrid = make_pipeline(use_hybrid_encoding=False).run(
                terms, n_qubits=n_qubits
            ).cnot_count
            return full, no_hybrid

        full, no_hybrid = benchmark.pedantic(run, rounds=1, iterations=1)
        print(f"\n[Ablation/hybrid] LiH(6): with hybrid={full}, without hybrid={no_hybrid}")
        assert full <= no_hybrid


class TestSortingAblation:
    def test_gtsp_not_worse_than_greedy_or_naive(self, benchmark, water_case):
        hamiltonian, terms = water_case
        transform = JordanWignerTransform(hamiltonian.n_spin_orbitals)
        fermionic = [t for t in terms if t.encoding_class != "bosonic"]
        rotations = terms_to_rotations(fermionic, transform)

        result = benchmark.pedantic(
            advanced_sort,
            args=(rotations,),
            kwargs={
                "population_size": 14,
                "generations": 15,
                "rng": np.random.default_rng(0),
            },
            rounds=1,
            iterations=1,
        )
        greedy = greedy_sort(rotations).cnot_count
        naive = baseline_order_cnot_count(rotations)
        print(
            f"\n[Ablation/sorting] H2O rotations={len(rotations)}: "
            f"naive={naive}, greedy={greedy}, GTSP={result.cnot_count}"
        )
        assert result.cnot_count <= naive
        assert greedy <= naive

    def test_advanced_sort_stage_not_worse_than_naive_stage(self, water_case):
        """Stage substitution: swapping the GTSP sort for the naive-order stage
        must never improve the full pipeline."""
        hamiltonian, terms = water_case
        n_qubits = hamiltonian.n_spin_orbitals
        pipeline = make_pipeline()
        full = pipeline.run(terms, n_qubits=n_qubits).cnot_count
        naive = pipeline.with_stage("sort", naive_sort_stage).run(
            terms, n_qubits=n_qubits
        ).cnot_count
        print(f"\n[Ablation/sort-stage] H2O(6): GTSP stage={full}, naive stage={naive}")
        assert full <= naive

    def test_target_freedom_matters(self, water_case):
        """Compare the advanced pipeline against a shared-target baseline on the
        same uncompressed term set (no compression in either flow)."""
        hamiltonian, terms = water_case
        n_qubits = hamiltonian.n_spin_orbitals
        advanced = make_pipeline(
            use_bosonic_encoding=False, use_hybrid_encoding=False, gamma_steps=0
        ).run(terms, n_qubits=n_qubits).cnot_count
        shared_target = get_backend("baseline").compile(
            CompileRequest(
                terms=tuple(terms),
                n_qubits=n_qubits,
                config=BASE_CONFIG.replace(use_bosonic_encoding=False),
            )
        ).cnot_count
        print(f"\n[Ablation/targets] H2O(6): per-string targets={advanced}, "
              f"shared targets={shared_target}")
        assert advanced <= shared_target


class TestGammaAblation:
    def test_gamma_search_not_worse_than_identity(self, benchmark, lih_case):
        hamiltonian, terms = lih_case
        n_qubits = hamiltonian.n_spin_orbitals

        def run():
            with_gamma = make_pipeline().run(terms, n_qubits=n_qubits).cnot_count
            without_gamma = make_pipeline(gamma_steps=0).run(
                terms, n_qubits=n_qubits
            ).cnot_count
            return with_gamma, without_gamma

        with_gamma, without_gamma = benchmark.pedantic(run, rounds=1, iterations=1)
        print(f"\n[Ablation/gamma] LiH(6): SA-searched Γ={with_gamma}, identity Γ={without_gamma}")
        assert with_gamma <= without_gamma

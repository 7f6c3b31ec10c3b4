"""The Γ stage end to end: ``gamma_steps=0`` and the search telemetry."""

from functools import lru_cache

import numpy as np

from repro.api import CompileRequest, CompilerConfig, compile_batch, get_backend
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.obs.tracer import tracing
from repro.vqe import select_ansatz_terms


@lru_cache(maxsize=None)
def h2o_request_terms():
    """H2O/12 as in Table I (frozen core); the row has Γ blocks."""
    scf = run_rhf(make_molecule("H2O"))
    hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=1)
    return tuple(select_ansatz_terms(hamiltonian, 12)), hamiltonian.n_spin_orbitals


def h2o_request(config):
    terms, n_qubits = h2o_request_terms()
    return CompileRequest(terms=terms, n_qubits=n_qubits, config=config)


def compiled_sequence(result):
    return [
        (rotation.string, rotation.angle, target)
        for rotation, target in result.details.sorting.ordered_rotations
    ]


class TestGammaStepsZero:
    def test_skips_the_search_instead_of_falling_back(self):
        """``gamma_steps=0`` compiles like ``use_gamma_search=False``, bit for bit.

        It used to pass validation and then break the annealing schedule, so
        a fallback chain quietly served the baseline count in the advanced
        slot.
        """
        batch = compile_batch(
            [h2o_request(CompilerConfig(gamma_steps=0))],
            backends="advanced",
            fallback=("baseline",),
        )
        assert batch.report.fallbacks == []
        served = batch.results[0]["advanced"]
        assert served.backend == "advanced"

        reference = get_backend("advanced").compile(
            h2o_request(CompilerConfig(use_gamma_search=False))
        )
        assert served.cnot_count == reference.cnot_count
        assert served.breakdown == reference.breakdown
        assert np.array_equal(served.details.gamma, np.eye(served.n_qubits))
        assert np.array_equal(served.details.gamma, reference.details.gamma)
        assert compiled_sequence(served) == compiled_sequence(reference)


class TestSearchTelemetry:
    @staticmethod
    def gamma_span_attributes(seed):
        with tracing() as tracer:
            get_backend("advanced").compile(h2o_request(CompilerConfig(seed=seed)))
        (span,) = [s for s in tracer.all_spans() if s.name == "pipeline.gamma_search"]
        return {k: v for k, v in span.attributes.items() if k.startswith("sa_")}

    def test_summary_repeats_for_each_seed(self):
        steps = CompilerConfig().gamma_steps
        for seed in (0, 3):
            first = self.gamma_span_attributes(seed)
            assert first == self.gamma_span_attributes(seed)
            assert first["sa_steps"] == steps
            assert 0.0 <= first["sa_acceptance_rate"] <= 1.0
            # Every energy query (the start plus one per proposal) is either
            # a cost evaluation or a cost-cache hit.
            assert first["sa_cost_evaluations"] + first["sa_cache_hits"] == steps + 1
            assert first["sa_cost_evaluations"] >= 1

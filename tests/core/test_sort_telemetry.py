"""The sort stage's GTSP summary on the ``pipeline.sort`` span."""

from functools import lru_cache

from repro.api import CompileRequest, CompilerConfig, get_backend
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.obs.tracer import tracing
from repro.vqe import select_ansatz_terms


@lru_cache(maxsize=None)
def h2o_request_terms():
    """H2O/12 as in Table I (frozen core)."""
    scf = run_rhf(make_molecule("H2O"))
    hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=1)
    return tuple(select_ansatz_terms(hamiltonian, 12)), hamiltonian.n_spin_orbitals


def sort_span_attributes(config):
    terms, n_qubits = h2o_request_terms()
    with tracing() as tracer:
        result = get_backend("advanced").compile(
            CompileRequest(terms=terms, n_qubits=n_qubits, config=config)
        )
    (span,) = [s for s in tracer.all_spans() if s.name == "pipeline.sort"]
    summary = {k: v for k, v in span.attributes.items() if k.startswith("gtsp_")}
    return summary, result


class TestSortTelemetry:
    def test_summary_repeats_for_each_seed(self):
        generations = CompilerConfig().sorting_generations
        for seed in (0, 3):
            first, result = sort_span_attributes(CompilerConfig(seed=seed))
            again, repeat = sort_span_attributes(CompilerConfig(seed=seed))
            assert first == again
            assert result.cnot_count == repeat.cnot_count
            assert first["gtsp_generations"] == generations
            assert 0 <= first["gtsp_last_improvement"] <= generations
            # The initial population and the final polish are one batch each.
            assert 2 <= first["gtsp_dp_batches"] <= generations + 2

    def test_budget_shows_in_the_generation_count(self):
        summary, _ = sort_span_attributes(CompilerConfig(sorting_budget_generations=4))
        assert summary["gtsp_generations"] == 4
        assert summary["gtsp_last_improvement"] <= 4

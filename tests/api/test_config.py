"""Tests for the frozen CompilerConfig."""

import dataclasses
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    DEFAULT_BACKEND_NAMES,
    CompileRequest,
    CompilerConfig,
    get_backend,
)
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.hardware import Topology
from repro.vqe import select_ansatz_terms


class TestDefaults:
    def test_default_matches_historical_pipeline_knobs(self):
        config = CompilerConfig()
        assert config.use_bosonic_encoding
        assert config.use_hybrid_encoding
        assert config.gamma_steps == 40
        assert config.sorting_population == 24
        assert config.sorting_generations == 30
        assert config.coloring_orders == 20
        assert config.seed == 0

    def test_frozen(self):
        config = CompilerConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.gamma_steps = 99


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("gamma_steps", -1),
            ("sorting_population", 1),
            ("sorting_generations", -2),
            ("coloring_orders", 0),
            ("seed", -5),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            CompilerConfig(**{field: value})

    def test_replace_revalidates(self):
        config = CompilerConfig()
        with pytest.raises(ValueError):
            config.replace(sorting_population=0)

    def test_seed_none_allowed(self):
        assert CompilerConfig(seed=None).seed is None


class TestHashability:
    def test_usable_as_dict_key(self):
        table = {CompilerConfig(): "default", CompilerConfig(seed=7): "seeded"}
        assert table[CompilerConfig()] == "default"
        assert table[CompilerConfig(seed=7)] == "seeded"

    def test_equality_is_field_wise(self):
        assert CompilerConfig() == CompilerConfig()
        assert CompilerConfig() != CompilerConfig(gamma_steps=41)
        assert hash(CompilerConfig()) == hash(CompilerConfig())

    def test_fingerprint_distinguishes_configs(self):
        assert CompilerConfig().fingerprint != CompilerConfig(seed=1).fingerprint

    def test_replace_returns_new_config(self):
        config = CompilerConfig()
        ablated = config.replace(use_hybrid_encoding=False)
        assert config.use_hybrid_encoding
        assert not ablated.use_hybrid_encoding
        assert ablated != config


@lru_cache(maxsize=None)
def h2_request_terms():
    """H2 (STO-3G, 4 spin orbitals) with every HMP2-selected term."""
    scf = run_rhf(make_molecule("H2"))
    hamiltonian = build_molecular_hamiltonian(scf)
    return tuple(select_ansatz_terms(hamiltonian)), hamiltonian.n_spin_orbitals


def optional(values):
    return st.none() | values


#: Every CompilerConfig field over a small range that straddles its bound.
FIELD_DRAWS = {
    "use_bosonic_encoding": st.booleans(),
    "use_hybrid_encoding": st.booleans(),
    "gamma_steps": st.integers(-1, 6),
    "sorting_population": st.integers(1, 6),
    "sorting_generations": st.integers(-1, 3),
    "coloring_orders": st.integers(0, 3),
    "sorting_seed_tours": st.booleans(),
    "gamma_budget_steps": optional(st.integers(0, 3)),
    "sorting_budget_generations": optional(st.integers(-1, 3)),
    "seed": optional(st.integers(-1, 5)),
    "topology": optional(
        st.builds(
            lambda make, size: make(size),
            st.sampled_from([Topology.line, Topology.ring]),
            st.integers(4, 6),
        )
    ),
}


def accepted(fields):
    """The validator's bounds, restated independently of ``__post_init__``."""
    return (
        fields["gamma_steps"] >= 0
        and fields["sorting_population"] >= 2
        and fields["sorting_generations"] >= 0
        and fields["coloring_orders"] >= 1
        and (fields["gamma_budget_steps"] is None or fields["gamma_budget_steps"] >= 1)
        and (
            fields["sorting_budget_generations"] is None
            or fields["sorting_budget_generations"] >= 0
        )
        and (fields["seed"] is None or fields["seed"] >= 0)
    )


class TestEveryAcceptedConfigCompiles:
    def test_draws_cover_every_field(self):
        field_names = {field.name for field in dataclasses.fields(CompilerConfig)}
        assert set(FIELD_DRAWS) == field_names

    @settings(max_examples=60, deadline=None)
    @given(st.fixed_dictionaries(FIELD_DRAWS))
    def test_accepted_configs_compile_on_every_backend(self, fields):
        if not accepted(fields):
            with pytest.raises(ValueError):
                CompilerConfig(**fields)
            return
        config = CompilerConfig(**fields)
        terms, n_qubits = h2_request_terms()
        request = CompileRequest(terms=terms, n_qubits=n_qubits, config=config)
        for name in DEFAULT_BACKEND_NAMES:
            result = get_backend(name).compile(request)
            assert result.cnot_count > 0
            assert (result.routing is not None) == (config.topology is not None)

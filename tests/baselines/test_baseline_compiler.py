"""Tests for the prior-art baseline compiler (GT column of Table I)."""

import numpy as np
import pytest

from repro.api import CompileRequest, CompilerConfig, get_backend
from repro.baselines import (
    BOSONIC_TERM_CNOT_COST,
    BaselineCompiler,
    naive_cnot_count,
)
from repro.transforms import BravyiKitaevTransform, JordanWignerTransform
from repro.vqe import ExcitationTerm


def term(creation, annihilation):
    return ExcitationTerm(creation=tuple(creation), annihilation=tuple(annihilation))


@pytest.fixture
def mixed_terms():
    return [
        term((4, 5), (0, 1)),     # bosonic
        term((4, 5), (0, 3)),     # hybrid
        term((4, 7), (0, 3)),     # fermionic
        term((6,), (0,)),         # single
    ]


class TestNaiveCompilation:
    def test_empty_terms(self):
        assert naive_cnot_count([], JordanWignerTransform(4)) == 0

    def test_single_bosonic_double_under_jw(self):
        # One double excitation expands to eight weight-4 strings; consecutive
        # strings with a shared target cancel heavily but the result is
        # strictly positive and bounded by the un-cancelled cost.
        count = naive_cnot_count([term((2, 3), (0, 1))], JordanWignerTransform(4))
        assert 0 < count <= 8 * 6

    def test_jw_and_bk_generally_differ(self, mixed_terms):
        jw = naive_cnot_count(mixed_terms, JordanWignerTransform(8))
        bk = naive_cnot_count(mixed_terms, BravyiKitaevTransform(8))
        assert jw > 0 and bk > 0

    def test_count_grows_with_more_terms(self, mixed_terms):
        transform = JordanWignerTransform(8)
        shorter = naive_cnot_count(mixed_terms[:2], transform)
        longer = naive_cnot_count(mixed_terms, transform)
        assert longer > shorter


class TestBaselineCompiler:
    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            BaselineCompiler().compile([])

    def test_bosonic_terms_compressed(self, mixed_terms):
        result = BaselineCompiler().compile(mixed_terms, n_qubits=8)
        assert result.n_compressed_terms == 1
        assert result.bosonic_cnot_count == BOSONIC_TERM_CNOT_COST

    def test_compression_can_be_disabled(self, mixed_terms):
        with_compression = BaselineCompiler().compile(mixed_terms, n_qubits=8)
        without = BaselineCompiler(use_bosonic_encoding=False).compile(mixed_terms, n_qubits=8)
        assert without.n_compressed_terms == 0
        assert without.cnot_count >= with_compression.cnot_count

    def test_baseline_not_worse_than_naive_jw(self, mixed_terms):
        baseline = BaselineCompiler().compile(mixed_terms, n_qubits=8).cnot_count
        naive = naive_cnot_count(mixed_terms, JordanWignerTransform(8))
        assert baseline <= naive

    def test_identity_transform_by_default(self, mixed_terms):
        result = BaselineCompiler().compile(mixed_terms, n_qubits=8)
        assert np.array_equal(result.transform_matrix, np.eye(8, dtype=np.uint8))

    def test_rotations_have_valid_targets(self, mixed_terms):
        result = BaselineCompiler().compile(mixed_terms, n_qubits=8)
        for string, target in result.ordered_rotations:
            assert target in string.support

    def test_cnot_count_is_sum_of_segments(self, mixed_terms):
        result = BaselineCompiler().compile(mixed_terms, n_qubits=8)
        assert result.cnot_count == result.bosonic_cnot_count + result.rotation_cnot_count

    def test_backend_output_does_not_depend_on_the_seed(self, mixed_terms):
        """GT draws nothing: every seed, ``None`` included, compiles the same
        sequence under the identity Γ."""
        results = [
            get_backend("baseline").compile(
                CompileRequest(
                    terms=tuple(mixed_terms),
                    n_qubits=8,
                    config=CompilerConfig(seed=seed),
                )
            )
            for seed in (0, 7, None)
        ]
        for result in results:
            assert result.breakdown == results[0].breakdown
            assert result.details.ordered_rotations == results[0].details.ordered_rotations
            assert np.array_equal(result.details.transform_matrix, np.eye(8))

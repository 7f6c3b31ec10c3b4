"""Unit tests for GF(2) linear algebra and CNOT-network synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transforms import binary


class TestBasicOperations:
    def test_identity(self):
        assert np.array_equal(binary.identity_matrix(3), np.eye(3, dtype=np.uint8))

    def test_as_gf2_reduces_mod_2(self):
        assert np.array_equal(binary.as_gf2([[2, 3], [4, 5]]), [[0, 1], [0, 1]])

    def test_as_gf2_rejects_vectors(self):
        with pytest.raises(ValueError):
            binary.as_gf2([1, 0, 1])

    def test_matmul(self):
        a = [[1, 1], [0, 1]]
        b = [[1, 0], [1, 1]]
        assert np.array_equal(binary.gf2_matmul(a, b), [[0, 1], [1, 1]])

    def test_matvec(self):
        assert np.array_equal(binary.gf2_matvec([[1, 1], [0, 1]], [1, 1]), [0, 1])

    def test_rank_full(self):
        assert binary.gf2_rank(np.eye(4)) == 4

    def test_rank_deficient(self):
        assert binary.gf2_rank([[1, 1], [1, 1]]) == 1

    def test_is_invertible(self):
        assert binary.is_invertible([[1, 1], [0, 1]])
        assert not binary.is_invertible([[1, 1], [1, 1]])
        assert not binary.is_invertible(np.ones((2, 3)))

    def test_inverse_round_trip(self):
        matrix = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        inverse = binary.gf2_inverse(matrix)
        assert np.array_equal(binary.gf2_matmul(matrix, inverse), np.eye(3, dtype=np.uint8))

    def test_inverse_singular_raises(self):
        with pytest.raises(ValueError):
            binary.gf2_inverse([[1, 1], [1, 1]])

    def test_inverse_non_square_raises(self):
        with pytest.raises(ValueError):
            binary.gf2_inverse(np.ones((2, 3)))


class TestRandomMatrices:
    def test_random_invertible_is_invertible(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            assert binary.is_invertible(binary.random_invertible_matrix(5, rng))


class TestStructuredMatrices:
    def test_jordan_wigner_matrix_is_identity(self):
        assert np.array_equal(binary.jordan_wigner_matrix(4), np.eye(4, dtype=np.uint8))

    def test_parity_matrix(self):
        expected = [[1, 0, 0], [1, 1, 0], [1, 1, 1]]
        assert np.array_equal(binary.parity_matrix(3), expected)

    def test_bravyi_kitaev_matrix_power_of_two(self):
        m = binary.bravyi_kitaev_matrix(4)
        # Known Fenwick-tree structure for 4 modes.
        expected = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1]]
        assert np.array_equal(m, expected)

    def test_bravyi_kitaev_matrix_invertible(self):
        for n in (1, 2, 3, 5, 7, 8, 11):
            assert binary.is_invertible(binary.bravyi_kitaev_matrix(n))

    def test_bravyi_kitaev_invalid_size(self):
        with pytest.raises(ValueError):
            binary.bravyi_kitaev_matrix(0)

    def test_block_diagonal(self):
        blocks = [np.array([[1]]), np.array([[1, 1], [0, 1]])]
        expected = [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
        assert np.array_equal(binary.block_diagonal(blocks), expected)

    def test_block_diagonal_rejects_rectangular(self):
        with pytest.raises(ValueError):
            binary.block_diagonal([np.ones((1, 2))])

    def test_embed_block(self):
        block = np.array([[1, 1], [0, 1]])
        embedded = binary.embed_block(4, [1, 3], block)
        assert embedded[1, 3] == 1
        assert embedded[3, 1] == 0
        assert embedded[0, 0] == 1 and embedded[2, 2] == 1

    def test_embed_block_shape_mismatch(self):
        with pytest.raises(ValueError):
            binary.embed_block(4, [0], np.eye(2))


class TestCnotSynthesis:
    def test_network_matrix_single_gate(self):
        # CNOT(0, 1) adds row 0 into row 1.
        expected = [[1, 0], [1, 1]]
        assert np.array_equal(binary.cnot_network_matrix(2, [(0, 1)]), expected)

    def test_network_matrix_rejects_equal_wires(self):
        with pytest.raises(ValueError):
            binary.cnot_network_matrix(2, [(1, 1)])

    def test_gaussian_synthesis_round_trip(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5, 8):
            matrix = binary.random_invertible_matrix(n, rng)
            gates = binary.synthesize_cnot_network(matrix)
            assert np.array_equal(binary.cnot_network_matrix(n, gates), matrix)

    def test_gaussian_synthesis_identity_is_empty(self):
        assert binary.synthesize_cnot_network(np.eye(4)) == []

    def test_synthesis_rejects_singular(self):
        with pytest.raises(ValueError):
            binary.synthesize_cnot_network([[1, 1], [1, 1]])

    def test_pmh_round_trip(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 6, 9):
            matrix = binary.random_invertible_matrix(n, rng)
            gates = binary.synthesize_cnot_network_pmh(matrix)
            assert np.array_equal(binary.cnot_network_matrix(n, gates), matrix)

    def test_pmh_rejects_singular(self):
        with pytest.raises(ValueError):
            binary.synthesize_cnot_network_pmh([[0, 0], [0, 0]])

    def test_cnot_cost_identity(self):
        assert binary.cnot_cost(np.eye(5)) == 0

    def test_cnot_cost_positive_for_nontrivial(self):
        assert binary.cnot_cost([[1, 1], [0, 1]]) == 1

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_synthesis_round_trip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        matrix = binary.random_invertible_matrix(n, rng)
        gates = binary.synthesize_cnot_network(matrix)
        assert np.array_equal(binary.cnot_network_matrix(n, gates), matrix)

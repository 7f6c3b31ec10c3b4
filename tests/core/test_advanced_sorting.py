"""Tests for the GTSP-based advanced sorting (Sec. III-B, Appendix B)."""

import numpy as np
import pytest

from repro.core import (
    PauliRotation,
    advanced_sort,
    baseline_order_cnot_count,
    build_sorting_problem,
    greedy_sort,
)
from repro.operators import PauliString


def rotation(label, angle=0.1, term_index=0):
    return PauliRotation(string=PauliString(label), angle=angle, term_index=term_index)


class TestSortingProblem:
    def test_appendix_b_clusters(self):
        """Appendix B: three 8-qubit strings and their valid target sets."""
        rotations = [
            rotation("IIXXYXII"),
            rotation("IIXXXYII"),
            rotation("XXIIIIXY"),
        ]
        problem = build_sorting_problem(rotations)
        assert problem.n_clusters == 3
        targets = [sorted(t for _, t in cluster) for cluster in problem.clusters]
        assert targets[0] == [2, 3, 4, 5]
        assert targets[1] == [2, 3, 4, 5]
        assert targets[2] == [0, 1, 6, 7]

    def test_appendix_b_edge_weight(self):
        """The weight of ([P0, t=3], [P1, t=3]) is minus four saved CNOTs."""
        rotations = [rotation("IIXXYXII"), rotation("IIXXXYII")]
        problem = build_sorting_problem(rotations)
        rows = [vertex for cluster in problem.clusters for vertex in cluster]
        weight = problem.weight_matrix[rows.index((0, 2)), rows.index((1, 2))]
        assert weight == -4.0

    def test_identity_rotation_rejected(self):
        with pytest.raises(ValueError):
            build_sorting_problem([rotation("III")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_sorting_problem([])


class TestAdvancedSort:
    def test_single_rotation(self):
        result = advanced_sort([rotation("XXYZ")], rng=np.random.default_rng(0))
        assert result.cnot_count == 6
        assert len(result.ordered_rotations) == 1

    def test_empty_input(self):
        result = advanced_sort([], rng=np.random.default_rng(0))
        assert result.cnot_count == 0

    def test_figure_four_pair_prefers_shared_fourth_target(self):
        """Advanced sorting discovers the 7-CNOT solution of Fig. 4(a)."""
        rotations = [rotation("XXXY"), rotation("XXYX")]
        result = advanced_sort(rotations, rng=np.random.default_rng(0))
        assert result.cnot_count == 7

    def test_never_worse_than_naive_order(self):
        rng = np.random.default_rng(3)
        labels = ["XXZI", "XYZI", "IZZX", "ZZXX", "XXII"]
        rotations = [rotation(label, term_index=i) for i, label in enumerate(labels)]
        result = advanced_sort(rotations, rng=rng)
        assert result.cnot_count <= baseline_order_cnot_count(rotations)

    def test_sorted_sequence_covers_all_rotations(self):
        labels = ["XXZI", "XYZI", "IZZX"]
        rotations = [rotation(label, term_index=i) for i, label in enumerate(labels)]
        result = advanced_sort(rotations, rng=np.random.default_rng(1))
        sorted_labels = sorted(r.string.to_label() for r, _ in result.ordered_rotations)
        assert sorted_labels == sorted(labels)

    def test_targets_always_in_support(self):
        labels = ["XXZI", "IYZX", "ZIIX", "XIYI"]
        rotations = [rotation(label, term_index=i) for i, label in enumerate(labels)]
        result = advanced_sort(rotations, rng=np.random.default_rng(2))
        for rot, target in result.ordered_rotations:
            assert target in rot.string.support


class TestGreedySort:
    def test_matches_advanced_on_identical_strings(self):
        rotations = [rotation("XXZZ", term_index=i) for i in range(3)]
        greedy = greedy_sort(rotations)
        advanced = advanced_sort(rotations, rng=np.random.default_rng(0))
        # Three identical exponentials merge into one: 6 CNOTs total.
        assert greedy.cnot_count == 6
        assert advanced.cnot_count == 6

    def test_empty(self):
        assert greedy_sort([]).cnot_count == 0

    def test_never_worse_than_naive(self):
        rng = np.random.default_rng(5)
        labels = ["XXZI", "XYZI", "IZZX", "ZZXX"]
        rotations = [rotation(label, term_index=i) for i, label in enumerate(labels)]
        assert greedy_sort(rotations).cnot_count <= baseline_order_cnot_count(rotations)

    def test_covers_all_rotations(self):
        labels = ["XXZI", "XYZI", "IZZX", "ZZXX"]
        rotations = [rotation(label, term_index=i) for i, label in enumerate(labels)]
        result = greedy_sort(rotations)
        assert len(result.ordered_rotations) == len(labels)

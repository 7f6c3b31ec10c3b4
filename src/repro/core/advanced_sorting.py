"""Advanced sorting: GTSP-based ordering of Pauli rotations with free targets.

Section III-B of the paper.  Every Pauli rotation may choose its own target
qubit, and rotations from *different* excitation terms may interleave; both
degrees of freedom are folded into one generalized traveling salesman problem
whose clusters are the rotations and whose vertices are the admissible
``(rotation, target)`` pairs, with edge weights equal to (minus) the CNOT
cancellation at the interface of consecutive exponentials.  The GTSP is solved
with the genetic algorithm of :mod:`repro.optimizers.gtsp`, the resulting tour
is cut at its weakest edge and the path cost is the compiled CNOT count.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits import interface_cnot_reduction, sequence_cnot_count
from repro.core.terms_to_paulis import PauliRotation
from repro.hardware.topology import Topology
from repro.operators import (
    PauliString,
    interface_reduction_matrix,
    routed_target_cost_matrix,
    routed_vertex_cost_vector,
    support_matrix,
)
from repro.optimizers import GtspProblem, solve_gtsp

#: A GTSP vertex: (rotation index, target qubit).
SortingVertex = Tuple[int, int]


def vertex_savings(
    rotations: Sequence[PauliRotation],
) -> Tuple[List[SortingVertex], np.ndarray]:
    """All ``(rotation, target)`` vertices plus their pairwise savings matrix.

    Vertices are enumerated in (rotation index, ascending target) order; the
    matrix entry ``[a, b]`` is the interface CNOT saving of implementing
    vertex ``b`` right after vertex ``a``, computed in one batched symplectic
    scan (:func:`repro.operators.interface_reduction_matrix`) instead of one
    Python loop per GTSP edge query.
    """
    vertices: List[SortingVertex] = []
    for index, rotation in enumerate(rotations):
        for target in rotation.string.support:
            vertices.append((index, target))
    if not vertices:
        return [], np.zeros((0, 0), dtype=np.int64)
    matrix = interface_reduction_matrix(
        [rotations[index].string for index, _ in vertices],
        [target for _, target in vertices],
    )
    return vertices, matrix


@dataclass
class SortingResult:
    """Ordered, targeted rotation sequence produced by the advanced sorting.

    ``cnot_count`` is always the paper's all-to-all accounting;
    ``routed_cost_estimate`` is the distance-weighted cost of the same
    sequence when the sort ran against a topology (``None`` otherwise).
    ``degraded`` is True when an iteration budget (``max_generations``)
    truncated the GTSP search: the sequence is valid and best-so-far, but
    the search stopped short of its configured effort.
    """

    ordered_rotations: List[Tuple[PauliRotation, int]]
    cnot_count: int
    routed_cost_estimate: Optional[int] = None
    degraded: bool = False

    def targeted_strings(self) -> List[Tuple[PauliString, int]]:
        """The ``(PauliString, target)`` pairs in compiled order."""
        return [(rotation.string, target) for rotation, target in self.ordered_rotations]

    def objective(self) -> int:
        """The cost the sort optimized: routed estimate if present, else CNOTs."""
        if self.routed_cost_estimate is not None:
            return self.routed_cost_estimate
        return self.cnot_count


def routed_sequence_cost_estimate(
    sequence: Sequence[Tuple[PauliString, int]], topology: Topology
) -> int:
    """Distance-weighted CNOT estimate of a targeted sequence on a device.

    Sum of the steered per-vertex ladder costs
    (:func:`repro.operators.routed_vertex_cost_vector`) minus the Sec. III-B
    interface savings between consecutive exponentials — the path cost the
    distance-weighted GTSP optimizes.  On all-to-all distances this equals
    :func:`repro.circuits.sequence_cnot_count` exactly.
    """
    if not sequence:
        return 0
    strings = [string for string, _ in sequence]
    targets = [target for _, target in sequence]
    costs = routed_vertex_cost_vector(strings, targets, topology.distance_matrix)
    total = int(costs.sum())
    for (p1, t1), (p2, t2) in zip(sequence, sequence[1:]):
        total -= interface_cnot_reduction(p1, t1, p2, t2)
    return total


def build_sorting_problem(
    rotations: Sequence[PauliRotation], topology: Optional[Topology] = None
) -> GtspProblem:
    """Build the GTSP instance of Sec. III-B for a list of Pauli rotations.

    The edge weights are one dense matrix over every ``(rotation, target)``
    vertex, built from the :func:`vertex_savings` scan.  Without a topology
    entry ``[a, b]`` is minus the interface saving of ``b`` after ``a`` (the
    paper's objective).  With one it is ``b``'s steered ladder cost on the
    device (:func:`repro.operators.routed_vertex_cost_vector`) minus that
    saving, so target choices trade connectivity against cancellation.
    """
    rotations = list(rotations)
    if not rotations:
        raise ValueError("cannot build a sorting problem from zero rotations")
    clusters: List[List[SortingVertex]] = []
    for index, rotation in enumerate(rotations):
        support = rotation.string.support
        if not support:
            raise ValueError("identity rotations cannot be sorted into circuits")
        clusters.append([(index, target) for target in support])

    vertices, savings = vertex_savings(rotations)
    if topology is None:
        matrix = -savings
    else:
        # Reuse the savings matrix vertex_savings already built instead of
        # letting distance_weighted_cost_matrix recompute it.
        costs = routed_vertex_cost_vector(
            [rotations[index].string for index, _ in vertices],
            [target for _, target in vertices],
            topology.distance_matrix,
        )
        matrix = costs[None, :] - savings

    # vertex_savings enumerates vertices in cluster-flattened order, which is
    # exactly the global row order GtspProblem expects, so the matrix plugs in
    # directly and the GA never pays a per-edge Python call.
    return GtspProblem(clusters=clusters, weight_matrix=matrix)


def term_block_tour(rotations: Sequence[PauliRotation]) -> List[SortingVertex]:
    """Baseline-style tour: per-term blocks with a shared target per term.

    Rotations are grouped by originating excitation term (ascending
    ``term_index``); inside a block every rotation uses the block's common
    support qubit when one exists, its own last support qubit otherwise.  Used
    to seed the GTSP population with the construction the prior art builds by
    hand, so target freedom can only improve on it.
    """
    blocks: dict = {}
    for index, rotation in enumerate(rotations):
        blocks.setdefault(rotation.term_index, []).append(index)
    tour: List[SortingVertex] = []
    for term_index in sorted(blocks):
        members = blocks[term_index]
        common = set(rotations[members[0]].string.support)
        for index in members[1:]:
            common &= set(rotations[index].string.support)
        shared = max(common) if common else None
        for index in members:
            support = rotations[index].string.support
            target = shared if shared is not None and shared in support else support[-1]
            tour.append((index, target))
    return tour


def result_to_tour(
    rotations: Sequence[PauliRotation], result: "SortingResult"
) -> List[SortingVertex]:
    """Re-express a :class:`SortingResult` as a ``(rotation index, target)`` tour."""
    index_of = {id(rotation): index for index, rotation in enumerate(rotations)}
    return [(index_of[id(rotation)], target) for rotation, target in result.ordered_rotations]


def _finalize_sorting(
    ordered: List[Tuple[PauliRotation, int]],
    topology: Optional[Topology],
    degraded: bool = False,
) -> SortingResult:
    """Package a targeted sequence with its all-to-all and routed costs."""
    sequence = [(rotation.string, target) for rotation, target in ordered]
    return SortingResult(
        ordered_rotations=ordered,
        cnot_count=sequence_cnot_count(sequence),
        routed_cost_estimate=(
            None if topology is None else routed_sequence_cost_estimate(sequence, topology)
        ),
        degraded=degraded,
    )


def advanced_sort(
    rotations: Sequence[PauliRotation],
    population_size: int = 24,
    generations: int = 30,
    rng: Optional[np.random.Generator] = None,
    seed_tours: Optional[Sequence[Sequence[SortingVertex]]] = None,
    topology: Optional[Topology] = None,
    max_generations: Optional[int] = None,
    search_stats: Optional[Dict[str, Any]] = None,
) -> SortingResult:
    """Order rotations and pick per-rotation targets to minimize the CNOT count.

    ``seed_tours`` are ``(rotation index, target)`` sequences injected into
    the genetic algorithm's starting population (see
    :func:`repro.optimizers.solve_gtsp`); the search result is then never
    worse, as a cycle, than the best seed.  With a ``topology`` the GTSP
    weights and the seed comparison both use the distance-weighted routed
    cost instead of the all-to-all CNOT count.  ``max_generations`` is the
    anytime GA budget (see :func:`repro.optimizers.solve_gtsp`); a truncated
    search marks the result ``degraded=True``.  A ``search_stats`` dict, when
    given and the GA runs, receives ``gtsp_generations``,
    ``gtsp_last_improvement`` and ``gtsp_dp_batches`` from its result.
    """
    rotations = list(rotations)
    if not rotations:
        return SortingResult(
            ordered_rotations=[],
            cnot_count=0,
            routed_cost_estimate=None if topology is None else 0,
        )
    rng = rng or np.random.default_rng()

    if len(rotations) == 1:
        rotation = rotations[0]
        target = rotation.string.support[-1]
        return _finalize_sorting([(rotation, target)], topology)

    problem = build_sorting_problem(rotations, topology=topology)
    initial_tours = None
    if seed_tours:
        initial_tours = [
            [(index, (index, target)) for index, target in tour] for tour in seed_tours
        ]
    solution = solve_gtsp(
        problem,
        population_size=population_size,
        generations=generations,
        rng=rng,
        initial_tours=initial_tours,
        max_generations=max_generations,
    )
    if search_stats is not None:
        search_stats.update(
            gtsp_generations=solution.generations,
            gtsp_last_improvement=solution.last_improvement,
            gtsp_dp_batches=solution.dp_batches,
        )
    # Determine the weakest edge of the cycle and cut there (path compilation):
    # the largest edge weight, read from the problem's matrix.  Without a
    # topology the weight is minus the interface saving, so this is the edge
    # with the least saving.
    n = len(solution.tour)
    rows = problem._tour_rows(solution.tour)
    cut_scores = (-problem.weight_matrix[rows, rows[1:] + rows[:1]]).tolist()
    # Builtin min on the small Python list; ties resolve to the first minimum
    # exactly as argmin did.
    cut = min(range(n), key=cut_scores.__getitem__)
    ordered: List[Tuple[PauliRotation, int]] = []
    for step in range(n):
        _, (index, target) = solution.tour[(cut + 1 + step) % n]
        ordered.append((rotations[index], target))

    result = _finalize_sorting(ordered, topology, degraded=solution.degraded)
    # The weakest-edge cut minimizes the *cycle* cost, which does not strictly
    # dominate every seed evaluated as a path; compare against the seeds
    # directly so the result is never worse than one of them.  A seed that
    # wins keeps the degraded flag: the truncated search is still the reason
    # the sequence may fall short of the configured effort.
    for tour in seed_tours or ():
        seed_ordered = [(rotations[index], target) for index, target in tour]
        seed_result = _finalize_sorting(seed_ordered, topology, degraded=solution.degraded)
        if seed_result.objective() < result.objective():
            result = seed_result
    return result


def greedy_tour(
    x_masks: Sequence[int],
    z_masks: Sequence[int],
    target_costs: Optional[Sequence[Sequence[int]]] = None,
) -> Tuple[List[SortingVertex], int, int]:
    """Nearest-neighbour walk over ``(rotation, target)`` vertices on bit masks.

    ``x_masks[i]`` / ``z_masks[i]`` are the symplectic masks of rotation
    ``i``'s Pauli string.  The walk starts at rotation 0 on its highest
    support qubit; each step moves to the live vertex ``v`` maximizing
    ``savings(current, v) - cost(v)``, where ``cost`` is
    ``target_costs[rotation][target]`` (zero when ``None``).  Ties go to the
    lowest rotation index, then the lowest target.

    Savings are zero between vertices on different targets, so no pairwise
    matrix is built: a step scores only the live vertices on the current
    target and compares the best of them with the cheapest live vertex
    anywhere.  Returns the tour, the all-to-all CNOT count of the path and
    its ``Σ cost - Σ savings`` objective (equal to the CNOT count when
    ``target_costs`` is ``None``).
    """
    m = len(x_masks)
    if m == 0:
        return [], 0, 0
    supports = [x | z for x, z in zip(x_masks, z_masks)]
    if not all(supports):
        raise ValueError("identity rotations cannot be sorted into circuits")
    on_target: Dict[int, List[int]] = {}
    cheapest = []  # heap of (cost, rotation, target): the first such vertex per rotation
    for index, support in enumerate(supports):
        best = None
        mask = support
        while mask:
            low = mask & -mask
            target = low.bit_length() - 1
            mask ^= low
            on_target.setdefault(target, []).append(index)
            cost = 0 if target_costs is None else target_costs[index][target]
            if best is None or cost < best[0]:
                best = (cost, index, target)
        if index:
            cheapest.append(best)
    heapq.heapify(cheapest)

    live = [True] * m
    live[0] = False
    current, target = 0, supports[0].bit_length() - 1
    tour: List[SortingVertex] = [(0, target)]
    total_cost = 0 if target_costs is None else target_costs[0][target]
    total_savings = 0
    for _ in range(m - 1):
        # Best vertex on the current target: the Sec. III-B ω-rule inline.
        # Both strings act on the target, so the target collision is "good"
        # exactly when both carry an X component there or neither does, and
        # the saving never exceeds the interface CNOTs (it is at most twice
        # the shared non-target support).
        bit = 1 << target
        cur_x, cur_z = x_masks[current], z_masks[current]
        cur_rest = supports[current] & ~bit
        cur_x_at = cur_x & bit
        candidates = [b for b in on_target[target] if live[b]]
        on_target[target] = candidates
        near, near_value, near_savings = -1, 0, 0
        for b in candidates:
            shared = cur_rest & supports[b]
            savings = shared.bit_count()
            if savings and (x_masks[b] & bit) == cur_x_at:
                savings += (
                    shared & ~((cur_x ^ x_masks[b]) | (cur_z ^ z_masks[b]))
                ).bit_count()
            value = savings if target_costs is None else savings - target_costs[b][target]
            if near < 0 or value > near_value:
                near, near_value, near_savings = b, value, savings
        # Cheapest live vertex anywhere (savings zero off the current target).
        while not live[cheapest[0][1]]:
            heapq.heappop(cheapest)
        far_cost, far, far_target = cheapest[0]
        if near >= 0 and (
            near_value > -far_cost
            or (near_value == -far_cost and (near, target) < (far, far_target))
        ):
            current = near
            total_savings += near_savings
        else:
            # Either the far vertex lies off the current target, or it ties
            # at zero savings on it: no interface saving either way.
            current, target = far, far_target
        live[current] = False
        tour.append((current, target))
        if target_costs is not None:
            total_cost += target_costs[current][target]
    template = sum(2 * (support.bit_count() - 1) for support in supports)
    if target_costs is None:
        total_cost = template
    return tour, template - total_savings, total_cost - total_savings


def greedy_sort(
    rotations: Sequence[PauliRotation], topology: Optional[Topology] = None
) -> SortingResult:
    """Cheap nearest-neighbour alternative to the GTSP genetic algorithm.

    Starting from the first rotation (with its default target), the next
    rotation/target pair is always the one with the largest interface
    cancellation — or, under a ``topology``, the smallest distance-weighted
    cost (see :func:`greedy_tour`).  The sorting stage uses it as the greedy
    reference and the Γ search scores every candidate with the same walk.
    """
    rotations = list(rotations)
    strings = [rotation.string for rotation in rotations]
    target_costs = None
    if topology is not None and strings:
        target_costs = routed_target_cost_matrix(
            support_matrix(strings), topology.distance_matrix
        ).tolist()
    tour, cnot_count, routed_cost = greedy_tour(
        [string.x_mask for string in strings],
        [string.z_mask for string in strings],
        target_costs,
    )
    return SortingResult(
        ordered_rotations=[(rotations[index], target) for index, target in tour],
        cnot_count=cnot_count,
        routed_cost_estimate=None if topology is None else routed_cost,
    )


def baseline_order_cnot_count(rotations: Sequence[PauliRotation]) -> int:
    """CNOT count of the un-sorted order with default (last-support) targets.

    Used by ablation benchmarks to quantify what the GTSP sorting buys.
    """
    sequence = [
        (rotation.string, rotation.string.support[-1]) for rotation in rotations
    ]
    return sequence_cnot_count(sequence)

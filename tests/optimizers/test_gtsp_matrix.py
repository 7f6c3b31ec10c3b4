"""Differential tests: matrix-form GTSP kernels vs the seed scalar-weight path.

The dense-matrix rewrite of :mod:`repro.optimizers.gtsp` claims *bit-identical*
behavior: same tour costs, same DP vertex assignments, same solver output per
seed.  This suite checks the claim against faithful copies of the seed
implementation (scalar ``weight(u, v)`` calls, ``np.argmin`` over Python
lists), run on a scalar-weight twin of each problem, on hypothesis-generated
random problems and on a real advanced-sorting instance.

The structured same-target kernel and the batched GA loop make the same
claim; they are checked against the scalar DP and against a kept copy of the
solver as it was before them (per-child dense DP, scalar crossover draws).
"""

from collections import namedtuple
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizers import GtspProblem, solve_gtsp
from repro.optimizers import gtsp
from repro.optimizers.gtsp import (
    _Chromosome,
    _cluster_optimization,
    _structured_cluster_optimization,
)


# ----------------------------------------------------------------------
# Seed reference implementation (scalar weight calls, list-based DP)
# ----------------------------------------------------------------------
#: The seed's problem shape: clusters plus a scalar ``weight(u, v)`` callable.
SeedProblem = namedtuple("SeedProblem", ["clusters", "weight"])


def seed_twin(problem):
    """A scalar-weight view of a matrix problem: one flat dict, scalar lookups."""
    vertices = [vertex for cluster in problem.clusters for vertex in cluster]
    row_of = {vertex: row for row, vertex in enumerate(vertices)}
    matrix = problem.weight_matrix

    def weight(u, v):
        return float(matrix[row_of[u], row_of[v]])

    return SeedProblem(problem.clusters, weight)


def legacy_tour_cost(problem, tour):
    if len(tour) <= 1:
        return 0.0
    cost = 0.0
    for (_, u), (_, v) in zip(tour, list(tour[1:]) + [tour[0]]):
        cost += float(problem.weight(u, v))
    return cost


def legacy_cluster_optimization(order, choices, problem):
    """The seed DP; mutates ``choices`` in place exactly like the original."""
    m = len(order)
    if m == 1:
        return
    clusters = [list(problem.clusters[c]) for c in order]
    weight = problem.weight

    best_total = None
    best_assignment = None
    for start_index, start_vertex in enumerate(clusters[0]):
        costs = [float(weight(start_vertex, v)) for v in clusters[1]]
        parents = [[0] * len(clusters[1])]
        for layer in range(2, m):
            new_costs = []
            new_parents = []
            for v in clusters[layer]:
                candidate_costs = [
                    costs[k] + float(weight(u, v))
                    for k, u in enumerate(clusters[layer - 1])
                ]
                best_k = int(np.argmin(candidate_costs))
                new_costs.append(candidate_costs[best_k])
                new_parents.append(best_k)
            costs = new_costs
            parents.append(new_parents)
        closing = [
            costs[k] + float(weight(u, start_vertex))
            for k, u in enumerate(clusters[-1])
        ]
        best_k = int(np.argmin(closing))
        total = closing[best_k]
        if best_total is None or total < best_total:
            best_total = total
            assignment = [0] * m
            assignment[0] = start_index
            k = best_k
            for layer in range(m - 1, 0, -1):
                assignment[layer] = k
                k = parents[layer - 1][k]
            best_assignment = assignment

    if best_assignment is not None:
        for layer, cluster in enumerate(order):
            choices[cluster] = best_assignment[layer]


# ----------------------------------------------------------------------
# Random problem generation
# ----------------------------------------------------------------------
def random_problem_pair(seed, n_clusters, max_cluster_size, integer_weights=False):
    """The same instance twice: its scalar-weight seed twin and the matrix problem."""
    rng = np.random.default_rng(seed)
    clusters = [
        [(c, i) for i in range(int(rng.integers(1, max_cluster_size + 1)))]
        for c in range(n_clusters)
    ]
    n_vertices = sum(len(cluster) for cluster in clusters)
    if integer_weights:
        matrix = rng.integers(-6, 7, size=(n_vertices, n_vertices)).astype(float)
    else:
        matrix = rng.uniform(-5.0, 5.0, size=(n_vertices, n_vertices))
    dense = GtspProblem(clusters=clusters, weight_matrix=matrix)
    return seed_twin(dense), dense


problem_shapes = st.tuples(
    st.integers(min_value=0, max_value=10_000),   # rng seed for the instance
    st.integers(min_value=1, max_value=5),        # clusters
    st.integers(min_value=1, max_value=4),        # max cluster size
    st.booleans(),                                # integer weights (tie-heavy)
)


class TestTourCost:
    @settings(max_examples=60, deadline=None)
    @given(problem_shapes, st.integers(min_value=0, max_value=10_000))
    def test_matrix_tour_cost_equals_scalar_exactly(self, shape, tour_seed):
        seed, n_clusters, max_size, integer_weights = shape
        scalar, dense = random_problem_pair(seed, n_clusters, max_size, integer_weights)
        rng = np.random.default_rng(tour_seed)
        order = [int(c) for c in rng.permutation(n_clusters)]
        tour = [
            (c, scalar.clusters[c][int(rng.integers(len(scalar.clusters[c])))])
            for c in order
        ]
        assert dense.tour_cost(tour) == legacy_tour_cost(scalar, tour)

    def test_bad_matrix_shape_rejected(self):
        with pytest.raises(ValueError):
            GtspProblem(clusters=[["a"], ["b"]], weight_matrix=np.zeros((3, 3)))

    def test_problem_without_matrix_rejected(self):
        with pytest.raises(TypeError):
            GtspProblem(clusters=[["a"], ["b"]])

    def test_vertex_outside_its_cluster_rejected(self):
        _, dense = random_problem_pair(11, 2, 2)
        swapped = [(0, dense.clusters[1][0]), (1, dense.clusters[0][0])]
        with pytest.raises(ValueError, match="not in cluster"):
            dense.tour_cost(swapped)


class TestClusterOptimization:
    @settings(max_examples=60, deadline=None)
    @given(problem_shapes, st.integers(min_value=0, max_value=10_000))
    def test_vectorized_dp_matches_scalar_dp_exactly(self, shape, chromosome_seed):
        seed, n_clusters, max_size, integer_weights = shape
        scalar, dense = random_problem_pair(seed, n_clusters, max_size, integer_weights)
        rng = np.random.default_rng(chromosome_seed)
        order = [int(c) for c in rng.permutation(n_clusters)]
        choices = [
            int(rng.integers(len(cluster))) for cluster in scalar.clusters
        ]

        legacy_choices = list(choices)
        legacy_cluster_optimization(order, legacy_choices, scalar)

        chromosome = _Chromosome(list(order), list(choices))
        _cluster_optimization(chromosome, dense)
        assert chromosome.choices == legacy_choices
        assert chromosome.order == order


class TestSolverSeedIdentity:
    @settings(max_examples=25, deadline=None)
    @given(problem_shapes, st.integers(min_value=0, max_value=10_000))
    def test_scalar_and_matrix_problems_solve_identically(self, shape, solver_seed):
        seed, n_clusters, max_size, integer_weights = shape
        scalar, dense = random_problem_pair(seed, n_clusters, max_size, integer_weights)
        result_dense = solve_gtsp(
            dense, population_size=8, generations=5, rng=np.random.default_rng(solver_seed)
        )
        tour, cost = seed_solve_gtsp(
            dense, population_size=8, generations=5, rng=np.random.default_rng(solver_seed)
        )
        assert result_dense.tour == tour
        assert result_dense.cost == cost
        # The reported cost is exactly the legacy accumulation over the tour.
        assert result_dense.cost == legacy_tour_cost(scalar, result_dense.tour)

    def test_all_equal_weights_tie_breaking(self):
        clusters = [[(c, i) for i in range(3)] for c in range(4)]
        n = sum(len(c) for c in clusters)
        dense = GtspProblem(clusters=clusters, weight_matrix=np.ones((n, n)))
        for seed in range(3):
            a = solve_gtsp(dense, population_size=6, generations=4,
                           rng=np.random.default_rng(seed))
            tour, cost = seed_solve_gtsp(dense, population_size=6, generations=4,
                                         rng=np.random.default_rng(seed))
            assert a.tour == tour
            assert a.cost == cost == 4.0


class TestRealSortingProblem:
    def test_advanced_sorting_problem_solves_bit_identically(self):
        """Regression: the real Sec. III-B instance, new solver vs seed DP path.

        Builds the H2 sorting problem the advanced backend compiles, then
        cross-checks the matrix solver against the seed solver on a
        scalar-weight twin of the same instance for several seeds (the
        per-seed bit-identity the golden Table-I counts rely on).
        """
        from repro.core.advanced_sorting import build_sorting_problem
        from repro.core.pipeline import DEFAULT_STAGES, AdvancedPipeline
        from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
        from repro.vqe import select_ansatz_terms

        scf = run_rhf(make_molecule("H2"))
        hamiltonian = build_molecular_hamiltonian(scf)
        terms = select_ansatz_terms(hamiltonian, 3)
        pipeline = AdvancedPipeline()
        context = pipeline.make_context(terms, n_qubits=hamiltonian.n_spin_orbitals)
        for name, stage in DEFAULT_STAGES:
            if name == "sort":
                break
            stage(context)
        problem = build_sorting_problem(context.rotations)

        for seed in range(3):
            dense = solve_gtsp(
                problem, population_size=8, generations=6,
                rng=np.random.default_rng(seed),
            )
            tour, cost = seed_solve_gtsp(
                problem, population_size=8, generations=6,
                rng=np.random.default_rng(seed),
            )
            assert dense.tour == tour
            assert dense.cost == cost
            assert dense.cost == legacy_tour_cost(seed_twin(problem), dense.tour)


# ----------------------------------------------------------------------
# Reference solver: the GA before the structured kernel, kept verbatim
# (one dense DP per child as it is bred, one scalar draw per crossover gene)
# ----------------------------------------------------------------------
def reference_cluster_optimization(chromosome, problem):
    order = chromosome.order
    m = len(order)
    if m == 1:
        return
    block = problem._block
    first = order[0]
    costs = block(first, order[1])
    parents = [np.zeros(costs.shape, dtype=np.int64)]
    for layer in range(2, m):
        step = block(order[layer - 1], order[layer])
        candidates = costs[:, :, None] + step[None, :, :]
        parents.append(np.argmin(candidates, axis=1))
        costs = np.min(candidates, axis=1)
    closing = costs + block(order[-1], first).T
    best_last = np.argmin(closing, axis=1)
    totals = np.min(closing, axis=1)
    start_index = int(np.argmin(totals))
    assignment = [0] * m
    assignment[0] = start_index
    k = int(best_last[start_index])
    for layer in range(m - 1, 0, -1):
        assignment[layer] = k
        k = int(parents[layer - 1][start_index, k])
    for layer, cluster in enumerate(order):
        chromosome.choices[cluster] = assignment[layer]


def reference_random_chromosome(problem, rng):
    order = list(rng.permutation(problem.n_clusters))
    choices = [int(rng.integers(len(cluster))) for cluster in problem.clusters]
    return _Chromosome([int(c) for c in order], choices)


def reference_chromosome_from_tour(problem, tour):
    order = []
    choices = [0] * problem.n_clusters
    for cluster, vertex in tour:
        order.append(int(cluster))
        choices[cluster] = list(problem.clusters[cluster]).index(vertex)
    return _Chromosome(order, choices)


def reference_crossover(parent_a, parent_b, rng):
    n = len(parent_a.order)
    if n == 1:
        return _Chromosome(list(parent_a.order), list(parent_a.choices))
    cut_a, cut_b = sorted(rng.choice(n, size=2, replace=False))
    segment = parent_a.order[cut_a:cut_b + 1]
    remainder = [c for c in parent_b.order if c not in segment]
    order = remainder[:cut_a] + segment + remainder[cut_a:]
    choices = [
        parent_a.choices[c] if rng.random() < 0.5 else parent_b.choices[c]
        for c in range(len(parent_a.choices))
    ]
    return _Chromosome(order, choices)


def reference_mutate(chromosome, problem, rng, mutation_rate):
    n = problem.n_clusters
    if n >= 2 and rng.random() < mutation_rate:
        i, j = rng.choice(n, size=2, replace=False)
        chromosome.order[i], chromosome.order[j] = chromosome.order[j], chromosome.order[i]
    if rng.random() < mutation_rate:
        cluster = int(rng.integers(n))
        chromosome.choices[cluster] = int(rng.integers(len(problem.clusters[cluster])))
    if n >= 3 and rng.random() < mutation_rate:
        i, j = sorted(rng.choice(n, size=2, replace=False))
        chromosome.order[i:j + 1] = reversed(chromosome.order[i:j + 1])


def reference_solve_gtsp(
    problem,
    population_size=40,
    generations=60,
    mutation_rate=0.3,
    elite_fraction=0.2,
    cluster_optimization_rate=0.25,
    rng=None,
    initial_tours=None,
    optimize=reference_cluster_optimization,
    cost=None,
):
    cost = cost or (lambda chromosome: chromosome.cost(problem))
    population = [reference_random_chromosome(problem, rng) for _ in range(population_size)]
    if initial_tours:
        seeds = [reference_chromosome_from_tour(problem, tour) for tour in initial_tours]
        population[: len(seeds)] = seeds[:population_size]
    for chromosome in population:
        optimize(chromosome, problem)
    costs = [cost(chromosome) for chromosome in population]
    n_elite = max(1, int(elite_fraction * population_size))
    best_index = min(range(population_size), key=costs.__getitem__)
    best_chromosome, best_cost = population[best_index], costs[best_index]
    for _ in range(generations):
        ranked = sorted(range(population_size), key=costs.__getitem__)
        elites = [population[i] for i in ranked[:n_elite]]
        next_population = [_Chromosome(list(c.order), list(c.choices)) for c in elites]
        next_costs = [costs[i] for i in ranked[:n_elite]]
        while len(next_population) < population_size:
            contenders = rng.choice(population_size, size=min(4, population_size), replace=False)
            parents = sorted(contenders, key=lambda i: costs[i])[:2]
            child = reference_crossover(population[parents[0]], population[parents[1]], rng)
            reference_mutate(child, problem, rng, mutation_rate)
            if rng.random() < cluster_optimization_rate:
                optimize(child, problem)
            next_population.append(child)
            next_costs.append(cost(child))
        population = next_population
        costs = next_costs
        generation_best = min(range(population_size), key=costs.__getitem__)
        if costs[generation_best] < best_cost:
            best_chromosome = population[generation_best]
            best_cost = costs[generation_best]
    best_chromosome = _Chromosome(list(best_chromosome.order), list(best_chromosome.choices))
    optimize(best_chromosome, problem)
    final_cost = cost(best_chromosome)
    if final_cost < best_cost:
        best_cost = final_cost
    return best_chromosome.tour(problem), best_cost


def seed_solve_gtsp(problem, **kwargs):
    """The reference solver on the seed's scalar-weight DP and tour cost."""
    seed = seed_twin(problem)

    def optimize(chromosome, _):
        legacy_cluster_optimization(chromosome.order, chromosome.choices, seed)

    def cost(chromosome):
        return legacy_tour_cost(seed, chromosome.tour(problem))

    return reference_solve_gtsp(problem, optimize=optimize, cost=cost, **kwargs)


def assert_solves_like_reference(problem, seed, **kwargs):
    """Same tour, cost and final rng state as the reference solver."""
    rng = np.random.default_rng(seed)
    result = solve_gtsp(problem, rng=rng, **kwargs)
    reference_rng = np.random.default_rng(seed)
    tour, cost = reference_solve_gtsp(problem, rng=reference_rng, **kwargs)
    assert result.tour == tour
    assert result.cost == cost
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    return result


# ----------------------------------------------------------------------
# Target-structured problems
# ----------------------------------------------------------------------
def structured_problem(seed, n_clusters, n_targets, vertex_costs):
    """A random problem with the sorting GTSP's same-target weight structure.

    Each cluster holds a random non-empty subset of the targets (so sizes are
    uneven and 1-vertex clusters occur).  ``W[k, l]`` is ``base(l)`` between
    different targets and ``base(l)`` minus a non-negative integer saving on
    a shared target; ``base`` is zero unless ``vertex_costs``.  Entries inside
    a cluster are never read by the DP and hold noise.
    """
    rng = np.random.default_rng(seed)
    clusters, targets = [], []
    for c in range(n_clusters):
        size = int(rng.integers(1, n_targets + 1))
        chosen = sorted(int(t) for t in rng.choice(n_targets, size=size, replace=False))
        clusters.append([(c, t) for t in chosen])
        targets.extend(chosen)
    n = len(targets)
    target = np.array(targets)
    cluster_of = np.repeat(np.arange(n_clusters), [len(c) for c in clusters])
    base = rng.integers(0, 6, size=n) if vertex_costs else np.zeros(n, dtype=np.int64)
    savings = rng.integers(0, 4, size=(n, n)) * (target[:, None] == target[None, :])
    matrix = (base[None, :] - savings).astype(float)
    same_cluster = cluster_of[:, None] == cluster_of[None, :]
    matrix[same_cluster] = rng.integers(-9, 9, size=int(same_cluster.sum()))
    return GtspProblem(clusters=clusters, weight_matrix=matrix)


structured_shapes = st.tuples(
    st.integers(min_value=0, max_value=10_000),   # rng seed for the instance
    st.integers(min_value=2, max_value=7),        # clusters
    st.integers(min_value=1, max_value=5),        # targets
    st.booleans(),                                # per-vertex costs (topology)
)


class TestStructuredKernel:
    @settings(max_examples=80, deadline=None)
    @given(
        structured_shapes,
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=6),
    )
    def test_batched_kernel_matches_scalar_dp(self, shape, chromosome_seed, batch):
        problem = structured_problem(*shape)
        assert problem.target_structured
        rng = np.random.default_rng(chromosome_seed)
        chromosomes = []
        for _ in range(batch):
            order = [int(c) for c in rng.permutation(problem.n_clusters)]
            choices = [int(rng.integers(len(cluster))) for cluster in problem.clusters]
            chromosomes.append(_Chromosome(order, choices))
        expected = []
        for chromosome in chromosomes:
            choices = list(chromosome.choices)
            legacy_cluster_optimization(chromosome.order, choices, seed_twin(problem))
            expected.append(choices)

        _structured_cluster_optimization(problem, chromosomes)
        assert [c.choices for c in chromosomes] == expected

    @settings(max_examples=30, deadline=None)
    @given(structured_shapes, st.integers(min_value=0, max_value=10_000))
    def test_solver_matches_reference_solver(self, shape, solver_seed):
        problem = structured_problem(*shape)
        assert_solves_like_reference(
            problem, solver_seed, population_size=8, generations=6
        )

    def test_all_elite_population_breeds_no_children(self):
        problem = structured_problem(9, 5, 3, vertex_costs=True)
        assert_solves_like_reference(
            problem, 0, population_size=6, generations=3, elite_fraction=1.0
        )

    def test_float_problem_takes_dense_path(self, monkeypatch):
        _, dense = random_problem_pair(5, 4, 3, integer_weights=False)
        assert not dense.target_structured

        def forbidden(*args):
            raise AssertionError("structured kernel on a float problem")

        monkeypatch.setattr(gtsp, "_structured_cluster_optimization", forbidden)
        assert_solves_like_reference(dense, 0, population_size=6, generations=3)

    def test_structure_is_read_from_the_matrix(self):
        clusters = [[("a", 0), ("a", 1)], [("b", 0), ("b", 1)], [("c", 0)]]
        matrix = np.zeros((5, 5))
        matrix[0, 2] = -2.0   # a saving from a0 into b0
        matrix[0, 3] = matrix[4, 3] = 1.0   # base(3) = 1; a1 -> b1 saves 1
        assert GtspProblem(clusters=clusters, weight_matrix=matrix).target_structured
        # One row per other cluster may leave base(l): c0 -> b1 now saves too.
        matrix[4, 3] = 0.0
        assert GtspProblem(clusters=clusters, weight_matrix=matrix).target_structured
        # Both rows of cluster a below base(3) break the structure.
        matrix[4, 3] = 2.0
        assert not GtspProblem(clusters=clusters, weight_matrix=matrix).target_structured

    def test_unstructured_integer_problem_takes_dense_path(self, monkeypatch):
        problem = GtspProblem(
            clusters=[["a0", "a1"], ["b0", "b1"], ["c0"]],
            weight_matrix=np.arange(25.0).reshape(5, 5) % 7,
        )
        assert not problem.target_structured

        def forbidden(*args):
            raise AssertionError("structured kernel on an unstructured problem")

        monkeypatch.setattr(gtsp, "_structured_cluster_optimization", forbidden)
        assert_solves_like_reference(problem, 0, population_size=6, generations=3)

    def test_structured_problem_never_calls_dense_dp(self, monkeypatch):
        problem = structured_problem(11, 6, 4, vertex_costs=True)

        def forbidden(*args):
            raise AssertionError("dense DP on a structured problem")

        monkeypatch.setattr(gtsp, "_cluster_optimization", forbidden)
        solve_gtsp(problem, population_size=6, generations=3, rng=np.random.default_rng(0))


# ----------------------------------------------------------------------
# Real sorting instances: Table-I rows, all-to-all and line
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def ladder_rotations(molecule, n_terms):
    """Rotations the advanced pipeline sorts for a Table-I row (frozen core)."""
    from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
    from repro.core.pipeline import DEFAULT_STAGES, AdvancedPipeline
    from repro.vqe import select_ansatz_terms

    scf = run_rhf(make_molecule(molecule))
    hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=1)
    terms = select_ansatz_terms(hamiltonian, n_terms)
    context = AdvancedPipeline().make_context(terms, n_qubits=hamiltonian.n_spin_orbitals)
    for name, stage in DEFAULT_STAGES:
        if name == "sort":
            break
        stage(context)
    return tuple(context.rotations), hamiltonian.n_spin_orbitals


class TestLadderInstances:
    @pytest.mark.parametrize("molecule", ["H2O", "NH3"])
    @pytest.mark.parametrize("topology", [None, "line"])
    def test_solver_matches_reference_solver(self, molecule, topology):
        from repro.core.advanced_sorting import (
            build_sorting_problem,
            greedy_sort,
            result_to_tour,
            term_block_tour,
        )
        from repro.hardware import Topology

        rotations, n_qubits = ladder_rotations(molecule, 12)
        device = None if topology is None else Topology.line(n_qubits)
        problem = build_sorting_problem(rotations, topology=device)
        assert problem.target_structured
        seeds = [
            result_to_tour(rotations, greedy_sort(rotations, topology=device)),
            term_block_tour(rotations),
        ]
        initial_tours = [[(i, (i, t)) for i, t in tour] for tour in seeds]
        for seed in (0, 1):
            assert_solves_like_reference(
                problem,
                seed,
                population_size=24,
                generations=30,
                initial_tours=initial_tours,
            )


class TestSearchSummary:
    def test_last_improvement_and_batches(self):
        problem = structured_problem(17, 7, 4, vertex_costs=True)
        result = solve_gtsp(
            problem, population_size=8, generations=10, rng=np.random.default_rng(2)
        )
        assert 0 <= result.last_improvement <= result.generations == 10
        # Initial population, at most one batch per generation, final polish.
        assert 2 <= result.dp_batches <= 12
        again = solve_gtsp(
            problem, population_size=8, generations=10, rng=np.random.default_rng(2)
        )
        assert (again.last_improvement, again.dp_batches) == (
            result.last_improvement, result.dp_batches
        )

    def test_last_improvement_is_the_generation_of_the_final_best(self):
        problem = structured_problem(5, 7, 4, vertex_costs=False)
        for seed in range(5):
            full = solve_gtsp(
                problem, population_size=6, generations=8, rng=np.random.default_rng(seed)
            )
            # A budget that stops at the last improvement still sees it;
            # one generation less does not.
            if full.last_improvement:
                at = solve_gtsp(
                    problem, population_size=6, generations=8,
                    max_generations=full.last_improvement,
                    rng=np.random.default_rng(seed),
                )
                before = solve_gtsp(
                    problem, population_size=6, generations=8,
                    max_generations=full.last_improvement - 1,
                    rng=np.random.default_rng(seed),
                )
                assert at.last_improvement == full.last_improvement
                assert before.last_improvement < full.last_improvement


class TestNoReferenceCycle:
    @pytest.mark.parametrize("structured", [False, True])
    def test_problem_is_freed_without_a_garbage_collection(self, structured):
        """A solved problem must not be tied into a reference cycle.

        A bound method stored on the problem once was, so every solved
        problem, with its dense matrix and row lists, lived until a full
        collection.
        """
        import gc
        import weakref

        template = structured_problem(7, 5, 4, vertex_costs=True)
        gc.disable()
        try:
            # Half-integer weights fail the structure check.
            problem = GtspProblem(
                clusters=template.clusters,
                weight_matrix=template.weight_matrix + (0.0 if structured else 0.5),
            )
            assert problem.target_structured == structured
            solve_gtsp(problem, population_size=6, generations=2,
                       rng=np.random.default_rng(0))
            alive = weakref.ref(problem)
            del problem
            assert alive() is None
        finally:
            gc.enable()

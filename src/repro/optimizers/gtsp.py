"""Genetic algorithm for the generalized traveling salesman problem (GTSP).

The paper's *advanced sorting* maps Pauli-string ordering with per-string
target-qubit freedom onto the GTSP: vertices are ``(string, target)`` pairs
grouped into one cluster per string, and the tour must visit exactly one
vertex per cluster while maximizing the summed CNOT cancellation (equivalently
minimizing its negation).  Following the paper we solve the GTSP with a
genetic algorithm in the style of Silberholz and Golden: ordered crossover on
the cluster permutation, per-cluster vertex reassignment and swap mutations,
and an exact dynamic-programming "cluster optimization" step that, for a
fixed cluster order, picks the best vertex inside every cluster.

Edge weights are served from one dense ``(n_vertices, n_vertices)`` float64
matrix indexed by a global vertex row (clusters flattened in order).  Callers
that already own such a matrix — the advanced sorting builds one batched
symplectic scan — pass it as ``weight_matrix`` and skip every per-edge Python
call; the legacy scalar ``weight(u, v)`` callable remains supported and is
densified lazily on first use.  Every matrix kernel reproduces the scalar
implementation bit-for-bit: candidate costs are single additions of the same
float64 pairs, reductions take the first minimum exactly like ``np.argmin``
on a list did, and tour costs accumulate left-to-right in tour order.

The sorting GTSP has more structure than that, and when a problem's matrix
shows it the cluster optimisation uses a faster exact kernel.  Every weight
is an integer, and in each column ``l`` the entries from any one other
cluster all equal ``base(l)``, the column's largest entry off ``l``'s own
cluster, except at most one row ``k*(c, l)`` per cluster ``c``.  (The
advanced sorting qualifies: a cluster holds at most one vertex per target,
savings are non-negative and zero between different targets, and
``base(l)`` is 0 or ``l``'s routed ladder cost, so ``k*`` is the
same-target vertex.)  The problem checks this once, vectorised, on first
use.  A DP layer from cluster ``c`` is then O(S·K) instead of O(S·K²)::

    new[s, l] = min(rowmin[s] + base(l), costs[s, k*(c, l)] + W[k*(c, l), l])

Costs are packed as ``value << b | index`` in int64, with a large finite
sentinel for padding, so one row ``min`` and one ``np.minimum`` reproduce
the dense DP's first-argmin tie-break exactly.  All chromosomes that need
the DP in one generation run as one batch of B chromosomes × S start
vertices × K layer vertices, with every per-layer gather hoisted out of the
layer loop.  The DP draws nothing from
the rng and selection reads the previous generation's costs, so running a
generation's DPs together at its end leaves every tour and the rng stream
unchanged.  The generation's tour costs are then summed the same way, in one
int64 gather; integer sums give exactly the floats the left-to-right
accumulation gives.  Problems whose weights fail the check keep the dense
float DP and the per-chromosome float costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

Vertex = Hashable
#: A tour visits clusters in the listed order, using the chosen vertex in each.
Tour = Tuple[Tuple[int, Vertex], ...]


@dataclass
class GtspProblem:
    """A GTSP instance.

    Parameters
    ----------
    clusters:
        Non-empty list of non-empty vertex lists; exactly one vertex per
        cluster is visited.
    weight:
        Edge cost ``weight(u, v)`` between two vertices from *different*
        clusters.  The tour cost is the sum of consecutive edge costs around
        the closed cycle; the solver minimizes it.  Optional when
        ``weight_matrix`` is given (a compatible shim is synthesized).
    weight_matrix:
        Dense edge-cost matrix indexed by global vertex rows, clusters
        flattened in order (cluster 0's vertices first).  When omitted it is
        built lazily from ``weight`` — once per problem, not once per query.
    """

    clusters: Sequence[Sequence[Vertex]]
    weight: Optional[Callable[[Vertex, Vertex], float]] = None
    weight_matrix: Optional[np.ndarray] = None
    _matrix: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _matrix_rows: Optional[List[List[float]]] = field(
        default=None, init=False, repr=False
    )
    _cluster_rows: List[List[int]] = field(default_factory=list, init=False, repr=False)
    _row_in_cluster: List[Dict[Vertex, int]] = field(
        default_factory=list, init=False, repr=False
    )
    _blocks: Dict[Tuple[int, int], np.ndarray] = field(
        default_factory=dict, init=False, repr=False
    )
    _structure: Optional["_TargetStructure"] = field(default=None, init=False, repr=False)
    _structure_checked: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        if not self.clusters:
            raise ValueError("GTSP instance needs at least one cluster")
        if any(len(cluster) == 0 for cluster in self.clusters):
            raise ValueError("every cluster must contain at least one vertex")
        if self.weight is None and self.weight_matrix is None:
            raise ValueError("provide a weight callable or a weight_matrix")

        self._vertices: List[Vertex] = []
        self._cluster_rows = []
        self._row_in_cluster = []
        row = 0
        for cluster in self.clusters:
            self._cluster_rows.append(list(range(row, row + len(cluster))))
            self._row_in_cluster.append(
                {vertex: row + position for position, vertex in enumerate(cluster)}
            )
            self._vertices.extend(cluster)
            row += len(cluster)

        if self.weight_matrix is not None:
            # Copy on ingest: the row-list/block caches snapshot the matrix,
            # so aliasing the caller's array would let later in-place
            # mutation desynchronize them.
            matrix = np.array(self.weight_matrix, dtype=np.float64)
            if matrix.shape != (row, row):
                raise ValueError(
                    f"weight_matrix must be ({row}, {row}) for {row} vertices, "
                    f"got {matrix.shape}"
                )
            self._matrix = matrix
            if self.weight is None:
                self.weight = _matrix_weight(matrix, self._row_in_cluster)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def target_structured(self) -> bool:
        """True when cluster optimisation runs the structured same-target kernel."""
        return self._target_structure() is not None

    def _target_structure(self) -> Optional["_TargetStructure"]:
        """The structured kernel's tables, detected once on first use."""
        if not self._structure_checked:
            self._structure = _TargetStructure.detect(self)
            self._structure_checked = True
        return self._structure

    @property
    def n_vertices(self) -> int:
        return len(self._vertices)

    def _row_of(self, vertex: Vertex) -> int:
        return _find_row(self._row_in_cluster, vertex)

    @property
    def matrix(self) -> np.ndarray:
        """The dense float64 weight matrix (built from ``weight`` on first use)."""
        if self._matrix is None:
            n = self.n_vertices
            matrix = np.empty((n, n), dtype=np.float64)
            weight = self.weight
            for i, u in enumerate(self._vertices):
                row = matrix[i]
                for j, v in enumerate(self._vertices):
                    row[j] = float(weight(u, v))
            self._matrix = matrix
        return self._matrix

    @property
    def _row_lists(self) -> List[List[float]]:
        """The weight matrix as nested Python lists (fast small-tour gathers)."""
        if self._matrix_rows is None:
            self._matrix_rows = self.matrix.tolist()
        return self._matrix_rows

    def _block(self, cluster_a: int, cluster_b: int) -> np.ndarray:
        """Contiguous weight submatrix between two clusters, cached per pair.

        The DP touches the same cluster-pair blocks thousands of times per
        solve; one ``np.ix_`` extraction per pair (instead of per query)
        keeps the vectorized reductions allocation-light.
        """
        key = (cluster_a, cluster_b)
        block = self._blocks.get(key)
        if block is None:
            block = self.matrix[
                np.ix_(self._cluster_rows[cluster_a], self._cluster_rows[cluster_b])
            ]
            self._blocks[key] = block
        return block

    def tour_cost(self, tour: Sequence[Tuple[int, Vertex]]) -> float:
        """Cost of the closed tour (single-cluster tours cost zero)."""
        if len(tour) != self.n_clusters:
            raise ValueError("tour must visit every cluster exactly once")
        if sorted(c for c, _ in tour) != list(range(self.n_clusters)):
            raise ValueError("tour must visit every cluster exactly once")
        if len(tour) <= 1:
            return 0.0
        rows = self._tour_rows(tour)
        if rows is not None:
            return self._rows_cost(rows)
        # Vertices outside their declared cluster: legacy scalar fallback.
        cost = 0.0
        for (_, u), (_, v) in zip(tour, list(tour[1:]) + [tour[0]]):
            cost += float(self.weight(u, v))
        return cost

    def _tour_rows(self, tour: Sequence[Tuple[int, Vertex]]) -> Optional[List[int]]:
        """Global rows of a ``(cluster, vertex)`` tour, or None on foreign vertices."""
        rows: List[int] = []
        for cluster, vertex in tour:
            row = self._row_in_cluster[cluster].get(vertex)
            if row is None:
                return None
            rows.append(row)
        return rows

    def _rows_cost(self, rows: Sequence[int]) -> float:
        """Closed-cycle cost of a tour given as global vertex rows.

        Row-indexed gathers from the densified matrix instead of one
        ``weight`` call per edge; the edge costs are accumulated
        left-to-right in tour order, so the result is bit-identical to the
        scalar loop.
        """
        if len(rows) <= 1:
            return 0.0
        row_lists = self._row_lists
        cost = 0.0
        previous = rows[0]
        for current in rows[1:]:
            cost += row_lists[previous][current]
            previous = current
        cost += row_lists[previous][rows[0]]
        return cost


def _find_row(row_in_cluster: List[Dict[Vertex, int]], vertex: Vertex) -> int:
    for mapping in row_in_cluster:
        row = mapping.get(vertex)
        if row is not None:
            return row
    raise KeyError(f"vertex {vertex!r} is not part of this problem")


def _matrix_weight(
    matrix: np.ndarray, row_in_cluster: List[Dict[Vertex, int]]
) -> Callable[[Vertex, Vertex], float]:
    """Scalar ``weight(u, v)`` compatibility shim over a dense matrix.

    It closes over the matrix and the row maps, not over the problem: a
    bound method stored on the problem would make a reference cycle, and the
    problem with its matrices would then wait for a full garbage collection.
    """

    def weight(u: Vertex, v: Vertex) -> float:
        return float(matrix[_find_row(row_in_cluster, u), _find_row(row_in_cluster, v)])

    return weight


#: Packed cost of padding and of absent same-target vertices: far above any
#: real path cost, and small enough that sums of three stay below 2**63.
_SENTINEL = 1 << 60
#: Bound on the magnitude of real packed path costs.
_PACKED_LIMIT = 1 << 56


class _TargetStructure:
    """Int64 tables for the structured cluster-optimisation kernel.

    Vertex rows are padded with one extra row ``n`` (``n`` = vertex count)
    that stands for "no vertex"; its weights and base are the sentinel.

    * ``weights[k, l]`` / ``base[l]``: ``W`` and ``base`` shifted left by
      ``shift`` bits, so the low bits stay free for a vertex index.
    * ``cluster_rows[c, i]``: global row of vertex ``i`` of cluster ``c``.
    * ``near_row`` / ``near_index`` ``[c, l]``: row ``k*(c, l)`` and its
      position inside cluster ``c`` (``n`` and 0 when every row is ``base``).
    """

    __slots__ = (
        "shift", "mask", "width", "weights", "base", "cluster_rows", "near_row", "near_index",
    )

    @classmethod
    def detect(cls, problem: GtspProblem) -> Optional["_TargetStructure"]:
        """The tables, or None when the weights lack the structure."""
        n_clusters = problem.n_clusters
        if n_clusters < 2:
            return None
        matrix = problem.matrix
        if not np.all(np.isfinite(matrix)) or not np.array_equal(matrix, np.rint(matrix)):
            return None
        n = problem.n_vertices
        width = max(len(cluster) for cluster in problem.clusters)
        shift = max(1, (width - 1).bit_length())
        if float(np.abs(matrix).max()) * (n_clusters + 1) >= _PACKED_LIMIT >> shift:
            return None

        sizes = [len(cluster) for cluster in problem.clusters]
        firsts = np.cumsum(sizes) - sizes
        cluster_of = np.repeat(np.arange(n_clusters), sizes)
        other = cluster_of[:, None] != cluster_of[None, :]
        base = np.where(other, matrix, -np.inf).max(axis=0)
        near = other & (matrix != base[None, :])
        if np.add.reduceat(near, firsts, axis=0, dtype=np.intp).max() > 1:
            return None  # two rows of one cluster leave base(l) in column l
        near_rows, near_columns = np.nonzero(near)
        near_clusters = cluster_of[near_rows]

        self = cls()
        self.shift, self.mask, self.width = shift, (1 << shift) - 1, width
        self.weights = np.full((n + 1, n + 1), _SENTINEL, dtype=np.int64)
        self.weights[:n, :n] = matrix.astype(np.int64) << shift
        self.base = np.full(n + 1, _SENTINEL, dtype=np.int64)
        self.base[:n] = base.astype(np.int64) << shift
        self.cluster_rows = np.full((n_clusters, width), n, dtype=np.intp)
        for cluster, rows in enumerate(problem._cluster_rows):
            self.cluster_rows[cluster, : len(rows)] = rows
        self.near_row = np.full((n_clusters, n + 1), n, dtype=np.intp)
        self.near_index = np.zeros((n_clusters, n + 1), dtype=np.intp)
        self.near_row[near_clusters, near_columns] = near_rows
        self.near_index[near_clusters, near_columns] = near_rows - firsts[near_clusters]
        return self


@dataclass
class GtspResult:
    """Best tour found by the solver.

    ``generations`` is the number of generations actually evolved; when a
    ``max_generations`` budget stopped the search early, ``degraded`` is True
    and the tour is the best individual seen so far (anytime semantics).
    ``last_improvement`` is the generation (1-based) that produced the last
    new best, 0 when the initial population's best was never beaten;
    ``dp_batches`` counts the batched cluster-optimisation calls.
    """

    tour: Tour
    cost: float
    generations: int
    degraded: bool = False
    last_improvement: int = 0
    dp_batches: int = 0


class _Chromosome:
    """Cluster permutation plus a vertex choice per cluster."""

    __slots__ = ("order", "choices")

    def __init__(self, order: List[int], choices: List[int]):
        self.order = order          # permutation of cluster indices
        self.choices = choices      # choices[c] = vertex index inside cluster c

    def tour(self, problem: GtspProblem) -> Tour:
        return tuple(
            (cluster, problem.clusters[cluster][self.choices[cluster]])
            for cluster in self.order
        )

    def rows(self, problem: GtspProblem) -> List[int]:
        """Global vertex rows of this chromosome's tour, in tour order."""
        cluster_rows = problem._cluster_rows
        choices = self.choices
        return [cluster_rows[c][choices[c]] for c in self.order]

    def cost(self, problem: GtspProblem) -> float:
        """Closed-tour cost via the dense matrix (no per-edge ``weight`` calls)."""
        return problem._rows_cost(self.rows(problem))


def _random_chromosome(problem: GtspProblem, rng: np.random.Generator) -> _Chromosome:
    order = list(rng.permutation(problem.n_clusters))
    choices = [int(rng.integers(len(cluster))) for cluster in problem.clusters]
    return _Chromosome([int(c) for c in order], choices)


def _ordered_crossover(
    parent_a: _Chromosome, parent_b: _Chromosome, rng: np.random.Generator
) -> _Chromosome:
    """Ordered crossover (OX) on the cluster permutation; vertex choices mix uniformly."""
    n = len(parent_a.order)
    if n == 1:
        return _Chromosome(list(parent_a.order), list(parent_a.choices))
    cut_a, cut_b = sorted(rng.choice(n, size=2, replace=False))
    segment = parent_a.order[cut_a:cut_b + 1]
    in_segment = set(segment)
    remainder = [c for c in parent_b.order if c not in in_segment]
    order = remainder[:cut_a] + segment + remainder[cut_a:]
    # One draw of n doubles: the same values, in the same order, as n
    # scalar ``rng.random()`` calls.
    choices = [
        a if draw < 0.5 else b
        for a, b, draw in zip(parent_a.choices, parent_b.choices, rng.random(n).tolist())
    ]
    return _Chromosome(order, choices)


def _mutate(
    chromosome: _Chromosome,
    problem: GtspProblem,
    rng: np.random.Generator,
    mutation_rate: float,
) -> None:
    n = problem.n_clusters
    if n >= 2 and rng.random() < mutation_rate:
        i, j = rng.choice(n, size=2, replace=False)
        chromosome.order[i], chromosome.order[j] = chromosome.order[j], chromosome.order[i]
    if rng.random() < mutation_rate:
        cluster = int(rng.integers(n))
        chromosome.choices[cluster] = int(rng.integers(len(problem.clusters[cluster])))
    # Occasional 2-opt style segment reversal.
    if n >= 3 and rng.random() < mutation_rate:
        i, j = sorted(rng.choice(n, size=2, replace=False))
        chromosome.order[i:j + 1] = reversed(chromosome.order[i:j + 1])


def _cluster_optimization(
    chromosome: _Chromosome, problem: GtspProblem
) -> None:
    """Exact DP choosing the best vertex per cluster for the fixed cluster order.

    For every candidate start vertex in the first cluster of the order, a
    forward dynamic program computes the cheapest path through the remaining
    clusters and closes the cycle; the overall best assignment is written back
    into the chromosome.  All starts advance through one chained
    ``costs[:, :, None] + W[np.ix_(...)]`` reduction per layer; each candidate
    cost is a single addition of the same float64 pair the scalar
    implementation added, and every ``argmin`` takes the first minimum, so the
    chosen assignment is bit-identical to the historical per-edge version.
    """
    order = chromosome.order
    m = len(order)
    if m == 1:
        return
    block = problem._block
    first = order[0]

    # costs[s, k]: best cost from start vertex s to vertex k of the current layer.
    costs = block(first, order[1])
    parents: List[np.ndarray] = [np.zeros(costs.shape, dtype=np.int64)]
    for layer in range(2, m):
        step = block(order[layer - 1], order[layer])
        candidates = costs[:, :, None] + step[None, :, :]
        # np.min yields the value at np.argmin's (first-minimum) index, so the
        # two reductions stay mutually consistent and match the scalar DP.
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


def _structured_cluster_optimization(
    problem: GtspProblem, chromosomes: Sequence[_Chromosome]
) -> None:
    """The exact DP of :func:`_cluster_optimization` for a batch, on the
    same-target structure (see the module docstring).

    ``packed[k, n]`` holds the best cost from start ``s`` of chromosome ``b``
    (column ``n = b * S + s``) to vertex ``k`` of the current layer, packed
    as ``value << shift | k``, so a column ``min`` yields the first argmin
    over ``k``.  A layer's result packs the parent instead of ``k``; it is
    kept for the backtrack and relabelled into the next ``packed``.  The
    vertex axis comes first because numpy reduces a leading axis fastest.
    """
    m = problem.n_clusters
    structure = problem._target_structure()
    weights, shift, mask = structure.weights, structure.shift, structure.mask
    width = structure.width
    batch = len(chromosomes)
    columns = batch * width

    def per_column(table: np.ndarray) -> np.ndarray:
        """``(..., B, K)`` per-chromosome rows -> ``(..., K, B * S)``."""
        table = np.swapaxes(table, -1, -2)[..., None]
        return np.broadcast_to(table, table.shape[:-1] + (width,)).reshape(
            table.shape[:-2] + (columns,)
        )

    orders = np.array([c.order for c in chromosomes], dtype=np.intp).T    # (m, B)
    rows = structure.cluster_rows[orders]                                  # (m, B, K)
    starts = rows[0].reshape(columns)
    # Per-layer tables for layers 2..m-1, hoisted out of the loop.
    layer_rows = rows[2:]
    previous = orders[1:-1, :, None]
    far_shift = per_column(structure.base[layer_rows])
    near_shift = per_column(weights[structure.near_row[previous, layer_rows], layer_rows])
    near_index = per_column(structure.near_index[previous, layer_rows])
    near_index = near_index * columns + np.arange(columns)
    vertex = np.arange(width, dtype=np.int64)[:, None]
    relabel = np.broadcast_to(vertex - mask, (width, columns)).copy()

    packed = weights[starts, per_column(rows[1])] + vertex
    history = np.empty((m - 2, width, columns), dtype=np.int64)
    for layer in range(m - 2):
        np.add(packed.min(axis=0), far_shift[layer], out=history[layer])
        near = packed.take(near_index[layer])
        near += near_shift[layer]
        np.minimum(history[layer], near, out=history[layer])
        np.bitwise_or(history[layer], mask, out=packed)
        packed += relabel

    packed += weights[per_column(rows[-1]), starts]
    totals = packed.min(axis=0)
    best_starts = (totals >> shift).reshape(batch, width).argmin(axis=1)
    picked = np.arange(batch) * width + best_starts
    lasts = (totals[picked] & mask).tolist()
    parents = (history[:, :, picked] & mask).tolist()

    for b, chromosome in enumerate(chromosomes):
        assignment = [0] * m
        k = assignment[m - 1] = lasts[b]
        for layer in range(m - 3, -1, -1):
            k = assignment[layer + 1] = parents[layer][k][b]
        assignment[0] = int(best_starts[b])
        for position, cluster in enumerate(chromosome.order):
            chromosome.choices[cluster] = assignment[position]


def _tour_costs(problem: GtspProblem, chromosomes: Sequence[_Chromosome]) -> List[float]:
    """Closed-tour costs of chromosomes, as :meth:`_Chromosome.cost` returns them.

    On a structured problem every weight is a small integer, so one int64
    gather and row sum give exactly the float that left-to-right float
    accumulation gives, and the problem's row lists are never built.
    """
    structure = problem._target_structure()
    if structure is None or not chromosomes:
        return [chromosome.cost(problem) for chromosome in chromosomes]
    orders = np.array([c.order for c in chromosomes], dtype=np.intp)
    choices = np.array([c.choices for c in chromosomes], dtype=np.intp)
    rows = structure.cluster_rows[orders, np.take_along_axis(choices, orders, axis=1)]
    edges = structure.weights[rows, np.roll(rows, -1, axis=1)]
    return (edges.sum(axis=1) >> structure.shift).astype(np.float64).tolist()


def _optimize_clusters(problem: GtspProblem, chromosomes: Sequence[_Chromosome]) -> None:
    """Run the cluster-optimisation DP on every chromosome, batched when possible."""
    if problem._target_structure() is not None:
        _structured_cluster_optimization(problem, chromosomes)
    else:
        for chromosome in chromosomes:
            _cluster_optimization(chromosome, problem)


def _chromosome_from_tour(
    problem: GtspProblem, tour: Sequence[Tuple[int, Vertex]]
) -> _Chromosome:
    """Build a chromosome from an explicit ``(cluster, vertex)`` tour."""
    if sorted(cluster for cluster, _ in tour) != list(range(problem.n_clusters)):
        raise ValueError("seed tour must visit every cluster exactly once")
    order: List[int] = []
    choices = [0] * problem.n_clusters
    for cluster, vertex in tour:
        vertices = list(problem.clusters[cluster])
        if vertex not in vertices:
            raise ValueError(f"seed tour vertex {vertex!r} is not in cluster {cluster}")
        order.append(int(cluster))
        choices[cluster] = vertices.index(vertex)
    return _Chromosome(order, choices)


def solve_gtsp(
    problem: GtspProblem,
    population_size: int = 40,
    generations: int = 60,
    mutation_rate: float = 0.3,
    elite_fraction: float = 0.2,
    cluster_optimization_rate: float = 0.25,
    rng: Optional[np.random.Generator] = None,
    initial_tours: Optional[Sequence[Sequence[Tuple[int, Vertex]]]] = None,
    max_generations: Optional[int] = None,
) -> GtspResult:
    """Solve a GTSP instance with the genetic algorithm described above.

    ``initial_tours`` seeds the starting population with known-good tours
    (e.g. the greedy nearest-neighbour construction), so the search never
    finishes worse than its best seed.  The random part of the population
    draws the same generator stream with or without seeds.

    ``max_generations`` is an anytime iteration budget: evolve at most this
    many generations even when ``generations`` asks for more, returning the
    best tour so far flagged ``degraded=True``.  The budgeted run consumes
    the same rng stream as a prefix of the unbudgeted one, so the degraded
    result is deterministic for a fixed seed.

    Costs are evaluated incrementally: every chromosome's cost is computed
    exactly once when it is created or re-optimized and carried alongside it,
    instead of re-deriving the whole population's costs each generation.  The
    carried values equal a full re-evaluation bit-for-bit (the cost function
    is deterministic), so selection — and hence the returned tour — is
    unchanged for any seed.  The children picked for cluster optimisation
    are optimised together once a generation is bred, in one batch.
    """
    rng = rng or np.random.default_rng()
    if population_size < 2:
        raise ValueError("population_size must be at least 2")
    if max_generations is not None and max_generations < 0:
        raise ValueError("max_generations must be None or non-negative")
    degraded = max_generations is not None and max_generations < generations
    n_generations = min(max_generations, generations) if max_generations is not None else generations

    population = [_random_chromosome(problem, rng) for _ in range(population_size)]
    if initial_tours:
        seeds = [_chromosome_from_tour(problem, tour) for tour in initial_tours]
        population[: len(seeds)] = seeds[:population_size]
    _optimize_clusters(problem, population)
    dp_batches = 1
    costs = _tour_costs(problem, population)

    n_elite = max(1, int(elite_fraction * population_size))
    best_index = min(range(population_size), key=costs.__getitem__)
    best_chromosome, best_cost = population[best_index], costs[best_index]
    last_improvement = 0

    for generation in range(n_generations):
        ranked = sorted(range(population_size), key=costs.__getitem__)
        elites = [population[i] for i in ranked[:n_elite]]
        next_population: List[_Chromosome] = [
            _Chromosome(list(c.order), list(c.choices)) for c in elites
        ]
        pending: List[_Chromosome] = []
        while len(next_population) < population_size:
            # Tournament selection of two parents.
            contenders = rng.choice(population_size, size=min(4, population_size), replace=False)
            parents = sorted(contenders, key=lambda i: costs[i])[:2]
            child = _ordered_crossover(population[parents[0]], population[parents[1]], rng)
            _mutate(child, problem, rng, mutation_rate)
            if rng.random() < cluster_optimization_rate:
                pending.append(child)
            next_population.append(child)
        if pending:
            _optimize_clusters(problem, pending)
            dp_batches += 1
        costs = [costs[i] for i in ranked[:n_elite]] + _tour_costs(
            problem, next_population[n_elite:]
        )
        population = next_population
        generation_best = min(range(population_size), key=costs.__getitem__)
        if costs[generation_best] < best_cost:
            best_chromosome = population[generation_best]
            best_cost = costs[generation_best]
            last_improvement = generation + 1

    # Final polish on the best individual.
    best_chromosome = _Chromosome(list(best_chromosome.order), list(best_chromosome.choices))
    _optimize_clusters(problem, [best_chromosome])
    dp_batches += 1
    (final_cost,) = _tour_costs(problem, [best_chromosome])
    if final_cost < best_cost:
        best_cost = final_cost
    return GtspResult(
        tour=best_chromosome.tour(problem),
        cost=best_cost,
        generations=n_generations,
        degraded=degraded,
        last_improvement=last_improvement,
        dp_batches=dp_batches,
    )


def brute_force_gtsp(problem: GtspProblem) -> GtspResult:
    """Exact GTSP solution by exhaustive enumeration (tiny instances only)."""
    import itertools

    n = problem.n_clusters
    if n > 7:
        raise ValueError("brute force is limited to at most 7 clusters")
    best_tour: Optional[Tour] = None
    best_cost = None
    # Fix cluster 0 first in the permutation: tours are closed cycles, so this
    # loses no generality and removes rotational duplicates.
    for permutation in itertools.permutations(range(1, n)):
        order = (0,) + permutation
        for choice in itertools.product(*[range(len(c)) for c in problem.clusters]):
            tour = tuple(
                (cluster, problem.clusters[cluster][choice[cluster]]) for cluster in order
            )
            cost = problem.tour_cost(tour)
            if best_cost is None or cost < best_cost:
                best_cost, best_tour = cost, tour
    return GtspResult(tour=best_tour, cost=float(best_cost), generations=0)

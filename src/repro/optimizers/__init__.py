"""Classical optimization solvers backing the compilation pipeline.

* :func:`~repro.optimizers.simulated_annealing.simulated_annealing` — the Γ
  search of Sec. III-C.
* :func:`~repro.optimizers.graph_coloring.randomized_greedy_coloring` — the
  GVCP solver of Sec. III-A / Sec. IV.
* :func:`~repro.optimizers.gtsp.solve_gtsp` — the genetic-algorithm GTSP
  solver of Sec. III-B / Sec. IV.
* :mod:`~repro.optimizers.tsp` — nearest-neighbor/2-opt heuristics used by the
  baseline orderings.

GT here uses the identity Γ, so the prior art's BPSO Γ search is absent: it
gained 0 CNOTs on H2O, BeH2, LiH and NH3 at 20 terms (178, 162, 178, 180) for
1.4–9.7 s per compile against 11–26 ms without it.
"""

from repro.optimizers.graph_coloring import (
    ColoringResult,
    greedy_coloring,
    is_proper_coloring,
    randomized_greedy_coloring,
)
from repro.optimizers.gtsp import GtspProblem, GtspResult, brute_force_gtsp, solve_gtsp
from repro.optimizers.simulated_annealing import (
    AnnealingResult,
    AnnealingSchedule,
    simulated_annealing,
)
from repro.optimizers.tsp import nearest_neighbor_tour, solve_tsp, tour_length, two_opt

__all__ = [
    "AnnealingResult",
    "AnnealingSchedule",
    "simulated_annealing",
    "ColoringResult",
    "greedy_coloring",
    "randomized_greedy_coloring",
    "is_proper_coloring",
    "GtspProblem",
    "GtspResult",
    "solve_gtsp",
    "brute_force_gtsp",
    "nearest_neighbor_tour",
    "two_opt",
    "solve_tsp",
    "tour_length",
]

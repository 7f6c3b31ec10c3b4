"""Frozen configuration of the compilation flows.

:class:`CompilerConfig` holds every knob of every compilation flow, for
:class:`~repro.core.pipeline.AdvancedPipeline`, the ``repro.api`` backends and
:func:`repro.compile_molecule_ansatz`.  It is frozen (hashable), so a config
can key caches — :func:`repro.api.compile_batch` memoizes on
``(terms fingerprint, backend, config)`` — and be shared between threads and
worker processes without defensive copying.

The class lives in :mod:`repro.core` because the pipeline stages consume it;
the public import path is :mod:`repro.api`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.hardware.topology import Topology


@dataclass(frozen=True)
class CompilerConfig:
    """Immutable knobs shared by every compilation backend.

    Parameters
    ----------
    use_bosonic_encoding, use_hybrid_encoding, use_gamma_search,
    use_advanced_sorting:
        Feature switches used both by the headline pipeline (all True) and the
        ablation benchmarks.
    gamma_steps:
        Simulated-annealing proposals for the Γ search (Sec. III-C); ``0``
        skips the search and keeps the identity Γ (plain Jordan–Wigner),
        exactly like ``use_gamma_search=False``.
    sorting_population, sorting_generations:
        GTSP genetic-algorithm budget for the final sorting pass (Sec. III-B).
    coloring_orders:
        Randomized greedy orders tried by the hybrid-scheduling graph coloring.
    sorting_seed_tours:
        Seed the GTSP population with the greedy and per-term-block
        constructions so the genetic search never starts worse than the known
        heuristics.  Off by default to keep results bit-identical with the
        historical pipeline.
    gamma_budget_steps, sorting_budget_generations:
        Optional per-stage *anytime budgets* (``None`` = unbounded, the
        default).  ``gamma_budget_steps`` caps the Γ simulated-annealing
        walk at that many proposals; ``sorting_budget_generations`` caps the
        GTSP genetic algorithm at that many generations.  A stage that hits
        its budget returns its best-so-far result and the compile is flagged
        ``degraded=True`` (see ``CompileResult.degraded``) instead of
        running unbounded.  Both budgets are iteration counts, not wall
        time, so degraded outputs are bit-reproducible for a fixed seed.
    seed:
        Seed of the internal random generator (every flow is deterministic for
        a fixed seed).
    baseline_pso_particles, baseline_pso_iterations:
        Budget of the baseline compiler's binary-PSO transformation search
        (``iterations=0`` keeps the identity transformation, the default).
    topology:
        Optional device :class:`~repro.hardware.topology.Topology`.  When
        set, every backend synthesizes its rotation sequence with the
        topology-steered parity ladders and attaches
        :class:`~repro.hardware.routing.RoutingMetrics` to its result, and
        the advanced sorting's GTSP weights switch to the distance-weighted
        cost matrix.  ``None`` (the default) keeps the paper's all-to-all
        accounting bit-identical.
    """

    use_bosonic_encoding: bool = True
    use_hybrid_encoding: bool = True
    use_gamma_search: bool = True
    use_advanced_sorting: bool = True
    gamma_steps: int = 40
    sorting_population: int = 24
    sorting_generations: int = 30
    coloring_orders: int = 20
    sorting_seed_tours: bool = False
    gamma_budget_steps: Optional[int] = None
    sorting_budget_generations: Optional[int] = None
    seed: Optional[int] = 0
    baseline_pso_particles: int = 10
    baseline_pso_iterations: int = 0
    topology: Optional[Topology] = None

    def __post_init__(self):
        if self.topology is not None:
            if not isinstance(self.topology, Topology):
                raise TypeError("topology must be a repro.hardware.Topology or None")
            self.topology.require_connected()
        if self.gamma_steps < 0:
            raise ValueError("gamma_steps must be non-negative")
        # The GA population constraint only binds when the GA actually runs;
        # ablation configs with advanced sorting disabled never consult it
        # (and the historical compiler accepted them).
        if self.use_advanced_sorting and self.sorting_population < 2:
            raise ValueError("sorting_population must be at least 2")
        if self.sorting_generations < 0:
            raise ValueError("sorting_generations must be non-negative")
        if self.coloring_orders < 1:
            raise ValueError("coloring_orders must be at least 1")
        if self.gamma_budget_steps is not None and self.gamma_budget_steps < 1:
            raise ValueError("gamma_budget_steps must be None or at least 1")
        if (
            self.sorting_budget_generations is not None
            and self.sorting_budget_generations < 0
        ):
            raise ValueError("sorting_budget_generations must be None or non-negative")
        if self.baseline_pso_particles < 1:
            raise ValueError("baseline_pso_particles must be at least 1")
        if self.baseline_pso_iterations < 0:
            raise ValueError("baseline_pso_iterations must be non-negative")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be None or non-negative")

    def replace(self, **changes) -> "CompilerConfig":
        """A copy with the given fields changed (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    @property
    def fingerprint(self) -> Tuple:
        """Hashable identity of the config, used in compilation cache keys."""
        return dataclasses.astuple(self)

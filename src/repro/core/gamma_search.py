"""Advanced fermion-to-qubit transformation: block-diagonal Γ search via SA.

Section III-C of the paper.  The search space GL(N, 2) is astronomically
large, so the candidate Γ is restricted to a block-diagonal form derived from
the *topology* of the excitation terms: the creation-side and
annihilation-side index pairs of every double excitation define a graph on the
spin orbitals whose connected components become the blocks.  Each block is an
independent invertible matrix searched with simulated annealing, with the
objective being the CNOT count reported by a caller-supplied cost function.

In the full pipeline that cost is :class:`GammaMaskCost`, which scores a
candidate on GF(2) Pauli masks: the Jordan–Wigner-frame masks of the term
list are computed once and mapped by Γ (``x → Γx``, ``z → Γ⁻ᵀz``), then
walked by the greedy sort — the fermion→qubit algebra never reruns inside
the annealing loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.core.advanced_sorting import greedy_tour
from repro.core.terms_to_paulis import terms_to_rotations
from repro.hardware.topology import Topology
from repro.operators import PauliString, routed_target_cost_matrix
from repro.optimizers import AnnealingSchedule, simulated_annealing
from repro.transforms import (
    JordanWignerTransform,
    embed_block,
    gf2_inverse,
    gf2_matmul,
    identity_matrix,
    is_invertible,
)
from repro.vqe import ExcitationTerm


def excitation_topology_blocks(
    terms: Sequence[ExcitationTerm], n_qubits: int, max_block_size: int = 6
) -> List[List[int]]:
    """Connected index clusters formed by the excitation terms (Appendix C).

    Edges connect the two creation indices and the two annihilation indices of
    every double excitation.  Connected components larger than
    ``max_block_size`` are split to keep the per-block search space manageable
    (the paper similarly relies on blocks staying small).
    Only components with at least two indices are returned — singleton modes
    stay untouched by Γ.
    """
    graph = nx.Graph()
    graph.add_nodes_from(range(n_qubits))
    for term in terms:
        if term.is_double:
            graph.add_edge(*term.creation)
            graph.add_edge(*term.annihilation)
    blocks: List[List[int]] = []
    for component in nx.connected_components(graph):
        indices = sorted(component)
        if len(indices) < 2:
            continue
        for start in range(0, len(indices), max_block_size):
            chunk = indices[start:start + max_block_size]
            if len(chunk) >= 2:
                blocks.append(chunk)
    return blocks


def _mask_bits(masks: Sequence[int], n_qubits: int) -> np.ndarray:
    """``(m, n_qubits)`` 0/1 matrix: entry ``[i, q]`` is bit ``q`` of ``masks[i]``."""
    bits = np.zeros((len(masks), n_qubits), dtype=np.int64)
    for row, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            bits[row, low.bit_length() - 1] = 1
            mask ^= low
    return bits


def _bit_rows_to_masks(bits: np.ndarray) -> List[int]:
    """Inverse of :func:`_mask_bits`: one int bit-mask per row."""
    packed = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    n_words = max(1, -(-packed.shape[1] // 8))
    padded = np.zeros((packed.shape[0], 8 * n_words), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    words = padded.view("<u8")
    masks = words[:, -1].tolist()
    for word in range(n_words - 2, -1, -1):
        masks = [(high << 64) | low for high, low in zip(masks, words[:, word].tolist())]
    return masks


class GammaMaskCost:
    """The Γ-search objective scored on GF(2) Pauli masks.

    A linear encoding is Jordan–Wigner followed by the CNOT network ``U_Γ``,
    and conjugating a Pauli string by ``U_Γ`` maps its symplectic masks
    linearly: ``x → Γx`` and ``z → Γ⁻ᵀz``.  The fermion→qubit algebra
    therefore runs once, in the JW frame, when the cost is built; a candidate
    Γ then costs two GF(2) matrix products over the stored masks, a re-sort of
    each term's strings into :class:`PauliString` order (the order
    :func:`~repro.core.terms_to_paulis.excitation_to_rotations` emits), and
    one :func:`~repro.core.advanced_sorting.greedy_tour` walk.  Calling the
    object returns exactly the greedy objective
    ``greedy_sort(terms_to_rotations(terms, LinearEncodingTransform(Γ)),
    topology).objective()``.  Rotation angles are not tracked (only their
    sign can change under Γ); the transform stage recomputes them once for
    the chosen Γ.
    """

    def __init__(
        self,
        terms: Sequence[ExcitationTerm],
        n_qubits: int,
        term_parameters: Optional[Sequence[float]] = None,
        topology: Optional[Topology] = None,
    ):
        rotations = terms_to_rotations(
            terms, JordanWignerTransform(n_qubits), term_parameters
        )
        self.n_qubits = n_qubits
        self.topology = topology
        self._term_index = np.array(
            [rotation.term_index for rotation in rotations], dtype=np.int64
        )
        self._x = _mask_bits([rotation.string.x_mask for rotation in rotations], n_qubits)
        self._z = _mask_bits([rotation.string.z_mask for rotation in rotations], n_qubits)

    def mapped_bits(self, gamma: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """X and Z bit rows of every string under Γ, in emitted rotation order."""
        gamma = np.asarray(gamma, dtype=np.int64)
        x = (self._x @ gamma.T) & 1
        z = (self._z @ gf2_inverse(gamma).astype(np.int64)) & 1
        # PauliString order: lexicographic in qubit 0 first, I < X < Y < Z,
        # whose per-qubit key is x ^ 3z; strings stay grouped by term.
        digits = x ^ (3 * z)
        order = np.lexsort(np.vstack([digits[:, ::-1].T, self._term_index]))
        return x[order], z[order]

    def strings(self, gamma: np.ndarray) -> List[PauliString]:
        """The rotation strings under Γ, in the order the full transform emits."""
        x, z = self.mapped_bits(gamma)
        return [
            PauliString.from_bitmasks(self.n_qubits, x_mask, z_mask)
            for x_mask, z_mask in zip(_bit_rows_to_masks(x), _bit_rows_to_masks(z))
        ]

    def __call__(self, gamma: np.ndarray) -> float:
        x, z = self.mapped_bits(gamma)
        target_costs = None
        if self.topology is not None:
            target_costs = routed_target_cost_matrix(
                (x | z).astype(bool), self.topology.distance_matrix
            ).tolist()
        _, _, objective = greedy_tour(
            _bit_rows_to_masks(x), _bit_rows_to_masks(z), target_costs
        )
        return float(objective)


@dataclass
class GammaSearchResult:
    """Best block-diagonal Γ found by the simulated-annealing search.

    ``degraded`` is True when a ``max_steps`` budget truncated the annealing
    walk before its schedule finished: the Γ is the best seen so far, valid
    but possibly short of the unbudgeted optimum.  The remaining fields
    summarize the walk: accepted proposals, cost-function evaluations versus
    cost-cache hits (every energy query is one or the other), and the energy
    after every step when the search ran with ``record_trace=True``.
    """

    gamma: np.ndarray
    cnot_count: float
    blocks: List[List[int]]
    n_steps: int
    degraded: bool = False
    n_accepted: int = 0
    n_evaluations: int = 0
    n_cache_hits: int = 0
    energy_trace: List[float] = field(default_factory=list)

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_steps if self.n_steps else 0.0


def assemble_gamma(
    n_qubits: int, blocks: Sequence[Sequence[int]], block_matrices: Sequence[np.ndarray]
) -> np.ndarray:
    """Embed per-block invertible matrices into the full N×N identity."""
    gamma = identity_matrix(n_qubits)
    for indices, matrix in zip(blocks, block_matrices):
        gamma = gf2_matmul(embed_block(n_qubits, indices, matrix), gamma)
    return gamma


def _random_elementary_update(
    matrix: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Multiply a block matrix by a random elementary row addition (stays invertible)."""
    size = matrix.shape[0]
    updated = matrix.copy()
    row, col = rng.integers(size), rng.integers(size)
    while col == row:
        col = rng.integers(size)
    updated[row] ^= updated[col]
    return updated


def search_block_diagonal_gamma(
    terms: Sequence[ExcitationTerm],
    n_qubits: int,
    cost_function: Callable[[np.ndarray], float],
    n_steps: int = 60,
    initial_temperature: float = 2.0,
    max_block_size: int = 6,
    rng: Optional[np.random.Generator] = None,
    max_steps: Optional[int] = None,
    record_trace: bool = False,
) -> GammaSearchResult:
    """Simulated-annealing search over block-diagonal Γ matrices.

    Parameters
    ----------
    terms:
        The excitation terms whose index topology defines the blocks.
    n_qubits:
        Register size N (Γ is N×N).
    cost_function:
        Maps a candidate Γ to the CNOT count of the compiled circuit; this is
        "subroutine 1" of Fig. 2 (in the pipeline a :class:`GammaMaskCost`).
    n_steps:
        Number of SA proposals.  ``0`` skips the search: the identity Γ is
        returned and nothing is drawn from ``rng``.
    max_steps:
        Anytime iteration budget: stop the walk after this many proposals,
        returning the best Γ so far flagged ``degraded=True``.  Deterministic
        for a fixed rng — the truncated walk is an exact prefix of the
        unbudgeted one.
    record_trace:
        Keep the energy after every step in ``energy_trace``.
    """
    rng = rng or np.random.default_rng()
    blocks = excitation_topology_blocks(terms, n_qubits, max_block_size=max_block_size)
    identity = identity_matrix(n_qubits)
    if not blocks or n_steps == 0:
        return GammaSearchResult(
            gamma=identity,
            cnot_count=float(cost_function(identity)),
            blocks=blocks,
            n_steps=0,
            n_evaluations=1,
        )

    initial_state: Tuple[np.ndarray, ...] = tuple(
        identity_matrix(len(block)) for block in blocks
    )

    # The cost function is deterministic in Γ and by far the dominant
    # expense, while the elementary-update walk frequently revisits the same
    # candidate; memoize on the Γ bit pattern.
    cost_cache: Dict[bytes, float] = {}

    def energy(state: Tuple[np.ndarray, ...]) -> float:
        gamma = assemble_gamma(n_qubits, blocks, state)
        key = gamma.tobytes()
        cached = cost_cache.get(key)
        if cached is None:
            cached = float(cost_function(gamma))
            cost_cache[key] = cached
        return cached

    def neighbor(
        state: Tuple[np.ndarray, ...], generator: np.random.Generator
    ) -> Tuple[np.ndarray, ...]:
        index = int(generator.integers(len(state)))
        updated = list(state)
        updated[index] = _random_elementary_update(state[index], generator)
        return tuple(updated)

    schedule = AnnealingSchedule(
        initial_temperature=initial_temperature,
        final_temperature=max(initial_temperature * 1e-3, 1e-6),
        n_steps=n_steps,
    )
    result = simulated_annealing(
        initial_state,
        energy,
        neighbor,
        schedule=schedule,
        rng=rng,
        record_trace=record_trace,
        max_steps=max_steps,
    )
    best_gamma = assemble_gamma(n_qubits, blocks, result.best_state)
    if not is_invertible(best_gamma):
        # Elementary updates preserve invertibility, so this should never
        # trigger; guard against silent corruption regardless.
        best_gamma = identity
    # One energy query for the initial state plus one per proposal.
    n_queries = 1 + result.n_steps
    return GammaSearchResult(
        gamma=best_gamma,
        cnot_count=float(result.best_energy),
        blocks=blocks,
        n_steps=result.n_steps,
        degraded=result.truncated,
        n_accepted=result.n_accepted,
        n_evaluations=len(cost_cache),
        n_cache_hits=n_queries - len(cost_cache),
        energy_trace=result.energy_trace,
    )

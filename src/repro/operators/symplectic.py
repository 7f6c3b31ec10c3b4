"""Batched symplectic (bit-packed) Pauli operations over numpy.

:class:`~repro.operators.pauli.PauliString` stores one string as two
arbitrary-precision bit-mask integers.  The compilation hot paths — pairwise
commutation scans, the GTSP interface-cancellation cost matrices of the
advanced sorting, and the Γ-search inner loop — need those operations over
*many* strings at once.  This module packs a string collection into
``(m, words)`` ``uint64`` arrays (64 qubits per word) and evaluates the
pairwise quantities as whole-matrix numpy bit operations:

* :func:`commutation_matrix` — the symplectic inner product
  ``x_a·z_b + z_a·x_b (mod 2)`` for every pair,
* :func:`weight_vector` / :func:`overlap_matrix` — Pauli weights and
  support-overlap sizes,
* :func:`interface_reduction_matrix` — the ω-rule CNOT savings of
  Sec. III-B for every ordered pair of targeted strings (the GTSP edge
  weights of :mod:`repro.core.advanced_sorting`).

All functions accept either a :class:`PackedPaulis` or any iterable of
:class:`PauliString` (packed on the fly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.operators.pauli import PauliString

#: Qubits per packed word.
WORD_BITS = 64

_WORD_MASK = (1 << WORD_BITS) - 1


def _pack_masks(masks: Sequence[int], n_words: int) -> np.ndarray:
    """Pack arbitrary-precision bit-mask ints into an ``(m, n_words)`` uint64 array."""
    out = np.zeros((len(masks), n_words), dtype=np.uint64)
    for row, mask in enumerate(masks):
        word = 0
        while mask:
            out[row, word] = mask & _WORD_MASK
            mask >>= WORD_BITS
            word += 1
    return out


@dataclass(frozen=True)
class PackedPaulis:
    """A collection of Pauli strings as packed ``uint64`` X/Z bit-planes.

    ``x[i, w]`` holds qubits ``64 w .. 64 w + 63`` of string ``i``'s X mask
    (bit ``q - 64 w`` inside the word), and likewise ``z``.
    """

    n_qubits: int
    x: np.ndarray
    z: np.ndarray

    @classmethod
    def from_strings(cls, strings: Iterable[PauliString]) -> "PackedPaulis":
        strings = list(strings)
        if not strings:
            return cls(n_qubits=0, x=np.zeros((0, 1), dtype=np.uint64),
                       z=np.zeros((0, 1), dtype=np.uint64))
        n = strings[0].n_qubits
        for string in strings:
            if string.n_qubits != n:
                raise ValueError("all strings must act on the same register size")
        n_words = max(1, -(-n // WORD_BITS))
        return cls(
            n_qubits=n,
            x=_pack_masks([s.x_mask for s in strings], n_words),
            z=_pack_masks([s.z_mask for s in strings], n_words),
        )

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def n_words(self) -> int:
        return self.x.shape[1]

    def to_strings(self) -> List[PauliString]:
        """Unpack back into :class:`PauliString` objects."""
        result = []
        for row in range(len(self)):
            x = 0
            z = 0
            for word in range(self.n_words - 1, -1, -1):
                x = (x << WORD_BITS) | int(self.x[row, word])
                z = (z << WORD_BITS) | int(self.z[row, word])
            result.append(PauliString.from_bitmasks(self.n_qubits, x, z))
        return result


Packable = Union[PackedPaulis, Iterable[PauliString]]


def _as_packed(strings: Packable) -> PackedPaulis:
    if isinstance(strings, PackedPaulis):
        return strings
    return PackedPaulis.from_strings(strings)


def _popcount_pairwise(a: np.ndarray, b: np.ndarray, op) -> np.ndarray:
    """Sum of per-word popcounts of ``op(a[i], b[j])`` for every pair (i, j)."""
    combined = op(a[:, None, :], b[None, :, :])
    return np.bitwise_count(combined).sum(axis=-1, dtype=np.int64)


def weight_vector(strings: Packable) -> np.ndarray:
    """Pauli weight of every string, as an ``(m,)`` int array."""
    packed = _as_packed(strings)
    return np.bitwise_count(packed.x | packed.z).sum(axis=-1, dtype=np.int64)


def commutation_matrix(
    strings: Packable, others: Optional[Packable] = None
) -> np.ndarray:
    """Boolean matrix ``C[i, j] = strings[i] commutes with others[j]``.

    ``others`` defaults to ``strings`` (the symmetric all-pairs scan).  Two
    strings commute iff ``popcount((x_i ∧ z_j) ⊕ (z_i ∧ x_j))`` is even.
    """
    a = _as_packed(strings)
    b = a if others is None else _as_packed(others)
    if a.n_qubits != b.n_qubits:
        raise ValueError("cannot compare Pauli strings on different qubit counts")
    anti = np.bitwise_count(
        (a.x[:, None, :] & b.z[None, :, :]) ^ (a.z[:, None, :] & b.x[None, :, :])
    ).sum(axis=-1, dtype=np.int64)
    return (anti & 1) == 0


def overlap_matrix(
    strings: Packable, others: Optional[Packable] = None
) -> np.ndarray:
    """Pairwise support-overlap sizes ``|supp(i) ∩ supp(j)|`` as an int matrix."""
    a = _as_packed(strings)
    b = a if others is None else _as_packed(others)
    if a.n_qubits != b.n_qubits:
        raise ValueError("cannot compare Pauli strings on different qubit counts")
    return _popcount_pairwise(a.x | a.z, b.x | b.z, np.bitwise_and)


def support_matrix(strings: Packable) -> np.ndarray:
    """Boolean ``(m, n_qubits)`` matrix: string ``i`` is non-identity on ``q``."""
    packed = _as_packed(strings)
    non_identity = packed.x | packed.z
    shifts = np.arange(WORD_BITS, dtype=np.uint64)
    bits = (non_identity[:, :, None] >> shifts[None, None, :]) & np.uint64(1)
    flat = bits.reshape(len(packed), packed.n_words * WORD_BITS)
    return flat[:, : packed.n_qubits].astype(bool)


def routed_target_cost_matrix(
    support: np.ndarray, distance_matrix: np.ndarray
) -> np.ndarray:
    """Connectivity-aware CNOT cost of every string against every target.

    ``support`` is the boolean ``(m, n)`` support matrix
    (:func:`support_matrix`).  Entry ``[i, t]`` is the cost of vertex
    ``(strings[i], t)`` as defined in :func:`routed_vertex_cost_vector`; it
    is meaningful only where ``support[i, t]`` holds.  One integer matrix
    product covers all targets, so callers that need every vertex of a
    string collection pay no per-vertex gather.
    """
    distance = np.asarray(distance_matrix, dtype=np.int64)
    n = support.shape[1]
    if distance.shape[0] < n or distance.shape[1] < n:
        raise ValueError(
            f"distance matrix of shape {distance.shape} cannot cover "
            f"{n}-qubit strings"
        )
    if np.any(distance[:n, :n] < 0):
        raise ValueError("distance matrix has unreachable pairs (-1 entries)")
    ladder = 2 * distance[:n, :n] - 1  # [q, t]: CNOTs charged to q toward t
    per_target = support.astype(np.int64) @ ladder
    # The target itself carries the Rz and is charged nothing.
    per_target -= support * np.diagonal(ladder)[None, :]
    return 2 * per_target


def routed_vertex_cost_vector(
    strings: Sequence[PauliString],
    targets: Sequence[int],
    distance_matrix: np.ndarray,
) -> np.ndarray:
    """Connectivity-aware CNOT cost of each targeted string, vectorized.

    For vertex ``(P, t)`` the cost is ``2 Σ_{q ∈ supp(P), q ≠ t}
    (2 d(q, t) - 1)`` — the steered parity ladder charges at most ``2 d - 1``
    CNOTs per support qubit each way (hops shared between support qubits only
    make this an upper bound).  On an all-to-all topology (``d = 1``
    everywhere) this collapses to the template cost ``2 (w - 1)``, so the
    distance-weighted GTSP degenerates exactly to the paper's formulation.
    """
    strings = list(strings)
    targets_arr = np.asarray(list(targets), dtype=np.int64)
    if len(strings) != targets_arr.shape[0]:
        raise ValueError("one target per string is required")
    if not strings:
        return np.zeros(0, dtype=np.int64)
    costs = routed_target_cost_matrix(support_matrix(strings), distance_matrix)
    return costs[np.arange(len(strings)), targets_arr]


def distance_weighted_cost_matrix(
    strings: Sequence[PauliString],
    targets: Sequence[int],
    distance_matrix: np.ndarray,
) -> np.ndarray:
    """GTSP edge weights steering the advanced sorting by topology distance.

    Entry ``[a, b]`` is the estimated CNOT cost of implementing vertex ``b``
    right after vertex ``a`` on the device: the distance-weighted ladder cost
    of ``b`` (:func:`routed_vertex_cost_vector`) minus the Sec. III-B
    interface savings (:func:`interface_reduction_matrix`).  On all-to-all
    distances this equals ``2 (w_b - 1) - savings[a, b]``, i.e. the paper's
    objective shifted by a per-cluster constant, so the optimal tour is
    unchanged there.
    """
    cost = routed_vertex_cost_vector(strings, targets, distance_matrix)
    savings = interface_reduction_matrix(strings, targets)
    return cost[None, :] - savings


def interface_reduction_matrix(
    strings: Sequence[PauliString], targets: Sequence[int]
) -> np.ndarray:
    """Pairwise interface CNOT savings for targeted strings (Sec. III-B ω-rule).

    Entry ``[a, b]`` is the number of CNOTs saved by implementing the targeted
    exponential ``(strings[b], targets[b])`` immediately after
    ``(strings[a], targets[a])`` — exactly
    :func:`repro.circuits.interface.interface_cnot_reduction` evaluated for
    every ordered pair at once.  Pairs with different targets save zero,
    matching the paper.

    The strings/targets arguments are "vertices" in the GTSP sense: the same
    Pauli string may appear several times with different targets.
    """
    strings = list(strings)
    targets_arr = np.asarray(list(targets), dtype=np.int64)
    if len(strings) != targets_arr.shape[0]:
        raise ValueError("one target per string is required")
    packed = _as_packed(strings)
    m = len(packed)
    if m == 0:
        return np.zeros((0, 0), dtype=np.int64)

    non_identity = packed.x | packed.z
    word_index = targets_arr // WORD_BITS
    bit_index = (targets_arr % WORD_BITS).astype(np.uint64)
    rows = np.arange(m)
    target_word = non_identity[rows, word_index]
    if np.any(((target_word >> bit_index) & np.uint64(1)) == 0):
        bad = int(np.argmax(((target_word >> bit_index) & np.uint64(1)) == 0))
        raise ValueError(
            f"target {int(targets_arr[bad])} not in support of "
            f"{strings[bad].to_label()}"
        )

    # Per-vertex masks with the own target bit cleared.
    cleared = non_identity.copy()
    cleared[rows, word_index] &= ~(np.uint64(1) << bit_index)

    # ω = 1 for every qubit where both strings are non-identity (target excluded).
    both = _popcount_pairwise(cleared, cleared, np.bitwise_and)

    # ... plus 1 more where the collision is matching (equal non-identity
    # labels) *and* the target collision is "good".
    equal = ~((packed.x[:, None, :] ^ packed.x[None, :, :])
              | (packed.z[:, None, :] ^ packed.z[None, :, :]))
    matching = np.bitwise_count(
        cleared[:, None, :] & cleared[None, :, :] & equal
    ).sum(axis=-1, dtype=np.int64)

    # Per-vertex Pauli bits at the vertex's own target qubit.
    x_at = ((packed.x[rows, word_index] >> bit_index) & np.uint64(1)).astype(bool)
    z_at = ((packed.z[rows, word_index] >> bit_index) & np.uint64(1)).astype(bool)
    # Good collisions on the shared target: both carry an X component
    # (X/Y against X/Y), or both are exactly Z.
    is_z = z_at & ~x_at
    good = (x_at[:, None] & x_at[None, :]) | (is_z[:, None] & is_z[None, :])

    saved = both + np.where(good, matching, 0)

    # The saving can never exceed the CNOTs present at the interface.
    weights = np.bitwise_count(non_identity).sum(axis=-1, dtype=np.int64)
    interface_cnots = np.maximum(
        (weights[:, None] - 1) + (weights[None, :] - 1), 0
    )
    saved = np.minimum(saved, interface_cnots)

    # Different targets save nothing.
    same_target = targets_arr[:, None] == targets_arr[None, :]
    return np.where(same_target, saved, 0)

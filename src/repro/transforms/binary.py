"""Binary (GF(2)) linear algebra for linear-reversible Clifford circuits.

The paper's *advanced fermion-to-qubit transformation* searches over
``Γ ∈ GL(N, 2)``, the group of invertible binary matrices.  Every such matrix
corresponds to a CNOT-only (linear reversible) circuit, and conjugating the
Jordan-Wigner image of an operator by that circuit yields a new, equally valid
fermion-to-qubit transformation.  This module provides:

* basic GF(2) matrix operations (multiplication, inversion, rank),
* random sampling of invertible matrices (used by simulated annealing moves),
* CNOT-network synthesis of a matrix by Gaussian elimination and by the
  Patel-Markov-Hayes (PMH) partitioned algorithm [26 in the paper],
* construction of structured encoding matrices (Bravyi-Kitaev / Fenwick-tree,
  parity encoding, block-diagonal assembly).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

#: A CNOT gate acting on wires of a linear reversible circuit.
CnotPair = Tuple[int, int]


def identity_matrix(n: int) -> np.ndarray:
    """Return the ``n x n`` identity over GF(2) as a uint8 array."""
    return np.eye(n, dtype=np.uint8)


def as_gf2(matrix: Sequence[Sequence[int]]) -> np.ndarray:
    """Coerce an array-like to a uint8 matrix with entries reduced mod 2."""
    array = np.asarray(matrix)
    if array.ndim != 2:
        raise ValueError("expected a two-dimensional matrix")
    return (array.astype(np.int64) % 2).astype(np.uint8)


def gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply two GF(2) matrices."""
    a, b = as_gf2(a), as_gf2(b)
    return (a.astype(np.int64) @ b.astype(np.int64) % 2).astype(np.uint8)


def gf2_matvec(a: np.ndarray, x: Sequence[int]) -> np.ndarray:
    """Apply a GF(2) matrix to a binary vector."""
    a = as_gf2(a)
    x = np.asarray(x, dtype=np.int64) % 2
    return (a.astype(np.int64) @ x % 2).astype(np.uint8)


def gf2_rank(matrix: np.ndarray) -> int:
    """Rank of a matrix over GF(2), computed by Gaussian elimination."""
    m = as_gf2(matrix).copy()
    rows, cols = m.shape
    rank = 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for row in range(pivot_row, rows):
            if m[row, col]:
                pivot = row
                break
        if pivot is None:
            continue
        m[[pivot_row, pivot]] = m[[pivot, pivot_row]]
        for row in range(rows):
            if row != pivot_row and m[row, col]:
                m[row] ^= m[pivot_row]
        pivot_row += 1
        rank += 1
        if pivot_row == rows:
            break
    return rank


def is_invertible(matrix: np.ndarray) -> bool:
    """True if the square GF(2) matrix has full rank."""
    matrix = as_gf2(matrix)
    rows, cols = matrix.shape
    return rows == cols and gf2_rank(matrix) == rows


def gf2_inverse(matrix: np.ndarray) -> np.ndarray:
    """Invert a GF(2) matrix via Gauss-Jordan elimination.

    Raises
    ------
    ValueError
        If the matrix is singular over GF(2).
    """
    m = as_gf2(matrix).copy()
    rows, cols = m.shape
    if rows != cols:
        raise ValueError("only square matrices can be inverted")
    n = rows
    augmented = np.concatenate([m, identity_matrix(n)], axis=1)
    for col in range(n):
        pivot = None
        for row in range(col, n):
            if augmented[row, col]:
                pivot = row
                break
        if pivot is None:
            raise ValueError("matrix is singular over GF(2)")
        augmented[[col, pivot]] = augmented[[pivot, col]]
        for row in range(n):
            if row != col and augmented[row, col]:
                augmented[row] ^= augmented[col]
    return augmented[:, n:].copy()


def random_invertible_matrix(
    n: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Sample a uniformly random invertible GF(2) matrix by rejection."""
    rng = rng or np.random.default_rng()
    while True:
        candidate = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        if is_invertible(candidate):
            return candidate


# ----------------------------------------------------------------------
# Structured encoding matrices
# ----------------------------------------------------------------------
def jordan_wigner_matrix(n: int) -> np.ndarray:
    """Encoding matrix of the Jordan-Wigner transform (the identity)."""
    return identity_matrix(n)


def parity_matrix(n: int) -> np.ndarray:
    """Encoding matrix of the parity transform: qubit j stores sum_{i<=j} x_i."""
    return np.tril(np.ones((n, n), dtype=np.uint8))


def bravyi_kitaev_matrix(n: int) -> np.ndarray:
    """Encoding matrix of the Bravyi-Kitaev (Fenwick tree) transform.

    Built recursively for powers of two and truncated to the requested size,
    following Seeley, Richard and Love.  Row ``j`` indicates which occupation
    numbers qubit ``j`` stores the parity of.
    """
    if n < 1:
        raise ValueError("n must be positive")
    size = 1
    matrix = np.array([[1]], dtype=np.uint8)
    while size < n:
        doubled = np.zeros((2 * size, 2 * size), dtype=np.uint8)
        doubled[:size, :size] = matrix
        doubled[size:, size:] = matrix
        # The last qubit of the doubled block stores the parity of everything.
        doubled[-1, :] = 1
        matrix = doubled
        size *= 2
    return matrix[:n, :n].copy()


def block_diagonal(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Assemble a block-diagonal GF(2) matrix from the given square blocks."""
    blocks = [as_gf2(b) for b in blocks]
    for block in blocks:
        if block.shape[0] != block.shape[1]:
            raise ValueError("all blocks must be square")
    n = sum(block.shape[0] for block in blocks)
    matrix = np.zeros((n, n), dtype=np.uint8)
    offset = 0
    for block in blocks:
        size = block.shape[0]
        matrix[offset:offset + size, offset:offset + size] = block
        offset += size
    return matrix


def embed_block(n: int, indices: Sequence[int], block: np.ndarray) -> np.ndarray:
    """Embed a small invertible block acting on ``indices`` into an ``n x n`` identity.

    This is how the paper's block-diagonal Γ candidates are assembled from the
    excitation-term topology: each connected cluster of orbital indices gets
    its own block while all other modes are left untouched.
    """
    block = as_gf2(block)
    indices = list(indices)
    if block.shape != (len(indices), len(indices)):
        raise ValueError("block shape must match the number of indices")
    matrix = identity_matrix(n)
    for i, row in enumerate(indices):
        for j, col in enumerate(indices):
            matrix[row, col] = block[i, j]
    return matrix


# ----------------------------------------------------------------------
# CNOT-network synthesis
# ----------------------------------------------------------------------
def cnot_network_matrix(n: int, cnots: Sequence[CnotPair]) -> np.ndarray:
    """Return the GF(2) matrix implemented by a sequence of CNOT gates.

    Convention: applying ``CNOT(control, target)`` to a register holding the
    binary vector ``x`` updates ``x[target] ^= x[control]``.  The gates act in
    list order, so the overall matrix is the product of elementary row-update
    matrices with the *last* gate leftmost.
    """
    matrix = identity_matrix(n)
    for control, target in cnots:
        if control == target:
            raise ValueError("CNOT control and target must differ")
        matrix[target] ^= matrix[control]
    return matrix


def synthesize_cnot_network(matrix: np.ndarray) -> List[CnotPair]:
    """Synthesize a CNOT sequence implementing the invertible GF(2) matrix.

    Plain Gauss-Jordan elimination: returns a list of ``(control, target)``
    pairs such that ``cnot_network_matrix(n, result) == matrix``.
    """
    m = as_gf2(matrix).copy()
    n = m.shape[0]
    if not is_invertible(m):
        raise ValueError("matrix is not invertible over GF(2)")
    gates: List[CnotPair] = []
    # Reduce m to the identity by row operations; each row operation
    # row[t] ^= row[c] corresponds to a CNOT(c, t) applied *before* the ones
    # already found (we build the inverse circuit and reverse at the end).
    for col in range(n):
        if not m[col, col]:
            pivot = next(row for row in range(col + 1, n) if m[row, col])
            m[col] ^= m[pivot]
            gates.append((pivot, col))
        for row in range(n):
            if row != col and m[row, col]:
                m[row] ^= m[col]
                gates.append((col, row))
    # The recorded operations transform `matrix` into the identity when applied
    # in order, i.e. G_k ... G_1 * matrix = I, so matrix = G_1^-1 ... G_k^-1.
    # Each CNOT is its own inverse, hence the circuit for `matrix` is the
    # reversed gate list.
    return list(reversed(gates))


def synthesize_cnot_network_pmh(
    matrix: np.ndarray, section_size: Optional[int] = None
) -> List[CnotPair]:
    """Patel-Markov-Hayes synthesis of a linear reversible circuit.

    Asymptotically O(n^2 / log n) CNOT gates; for the modest sizes used in the
    paper it mainly serves as a better-than-Gaussian-elimination baseline.
    Returns gates in application order.
    """
    m = as_gf2(matrix).copy()
    n = m.shape[0]
    if not is_invertible(m):
        raise ValueError("matrix is not invertible over GF(2)")
    if section_size is None:
        section_size = max(1, int(np.log2(max(n, 2))))

    def lower_synth(mat: np.ndarray) -> List[CnotPair]:
        """Reduce ``mat`` to upper triangular, returning the row-ops performed."""
        ops: List[CnotPair] = []
        num_sections = int(np.ceil(mat.shape[0] / section_size))
        for section in range(num_sections):
            start = section * section_size
            stop = min(start + section_size, mat.shape[0])
            # Step A: eliminate duplicate sub-rows within the section.
            patterns: dict = {}
            for row in range(start, mat.shape[0]):
                pattern = tuple(mat[row, start:stop])
                if not any(pattern):
                    continue
                if pattern in patterns:
                    base = patterns[pattern]
                    mat[row] ^= mat[base]
                    ops.append((base, row))
                else:
                    patterns[pattern] = row
            # Step B: Gaussian elimination below the diagonal of the section.
            for col in range(start, stop):
                if not mat[col, col]:
                    pivot = next(
                        (row for row in range(col + 1, mat.shape[0]) if mat[row, col]),
                        None,
                    )
                    if pivot is None:
                        continue
                    mat[col] ^= mat[pivot]
                    ops.append((pivot, col))
                for row in range(col + 1, mat.shape[0]):
                    if mat[row, col]:
                        mat[row] ^= mat[col]
                        ops.append((col, row))
        return ops

    # Lower-triangular part.
    ops_lower = lower_synth(m)
    # Upper-triangular part: synthesize on the transpose.
    m_t = m.T.copy()
    ops_upper_t = lower_synth(m_t)
    # Row operation (c, t) on the transpose is the column operation, i.e. the
    # CNOT with control and target exchanged on the original matrix.
    ops_upper = [(t, c) for c, t in ops_upper_t]

    # We performed  L_ops * matrix * (R_ops)^T = I  in the sense below; combine:
    # following Patel-Markov-Hayes, the circuit is the reversed lower ops after
    # the upper ops reversed.  Verify by construction in tests.
    gates = list(reversed(ops_lower)) + [
        (c, t) for (c, t) in reversed(ops_upper)
    ]
    # Fall back to plain Gaussian elimination if the bookkeeping above failed
    # to reproduce the matrix (guards against edge cases in sectioning).
    if not np.array_equal(cnot_network_matrix(n, gates), as_gf2(matrix)):
        return synthesize_cnot_network(matrix)
    return gates


def cnot_cost(matrix: np.ndarray) -> int:
    """Number of CNOT gates used by the best available synthesis of ``matrix``."""
    gaussian = synthesize_cnot_network(matrix)
    pmh = synthesize_cnot_network_pmh(matrix)
    return min(len(gaussian), len(pmh))

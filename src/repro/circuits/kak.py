"""Two-qubit gate invariants and minimal CNOT costs.

The paper's interface accounting credits one saved CNOT when the residual
two-qubit block left at the interface of two Pauli exponentials is locally
equivalent to a single CNOT.  This module certifies such claims from first
principles: given any two-qubit unitary it computes the local-equivalence
invariants (Makhlin invariants / the spectrum of the ``γ`` matrix of
Shende-Bullock-Markov) and from them the minimal number of CNOT gates needed
to implement the unitary together with arbitrary single-qubit gates:

* 0 CNOTs — the gate is a tensor product of single-qubit gates;
* 1 CNOT  — the gate is locally equivalent to CNOT;
* 2 CNOTs — ``tr γ(U)`` is real;
* 3 CNOTs — everything else (e.g. SWAP).
"""

from __future__ import annotations

import cmath
from typing import Tuple

import numpy as np

#: Pauli-Y tensor Pauli-Y, used in the γ invariant.
_YY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)

#: The "magic" (Bell) basis transformation used for Makhlin invariants.
_MAGIC = (1.0 / np.sqrt(2.0)) * np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
)


def _to_su4(unitary: np.ndarray) -> np.ndarray:
    """Rescale a U(4) matrix to determinant one (a fourth root is chosen)."""
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (4, 4):
        raise ValueError("expected a 4x4 unitary")
    if not np.allclose(unitary.conj().T @ unitary, np.eye(4), atol=1e-8):
        raise ValueError("matrix is not unitary")
    determinant = np.linalg.det(unitary)
    return unitary * cmath.exp(-1j * cmath.phase(determinant) / 4)


def gamma_matrix(unitary: np.ndarray) -> np.ndarray:
    """Shende-Bullock-Markov ``γ(U) = U (Y⊗Y) Uᵀ (Y⊗Y)`` for U ∈ SU(4)."""
    su4 = _to_su4(unitary)
    return su4 @ _YY @ su4.T @ _YY


def makhlin_invariants(unitary: np.ndarray) -> Tuple[float, float, float]:
    """Return the Makhlin local invariants ``(g1, g2, g3)`` of a two-qubit gate."""
    su4 = _to_su4(unitary)
    m = _MAGIC.conj().T @ su4 @ _MAGIC
    mm = m.T @ m
    trace = np.trace(mm)
    g_complex = trace ** 2 / 16.0
    g3 = float(np.real((trace ** 2 - np.trace(mm @ mm)) / 4.0))
    return float(np.real(g_complex)), float(np.imag(g_complex)), g3


def is_local_gate(unitary: np.ndarray, tolerance: float = 1e-8) -> bool:
    """True if the gate is a tensor product of single-qubit gates.

    Uses the operator-Schmidt decomposition: reshuffle the 4x4 matrix into a
    4x4 matrix of single-qubit blocks and check it has rank one.
    """
    unitary = np.asarray(unitary, dtype=complex).reshape(2, 2, 2, 2)
    # Index order (row_a, row_b, col_a, col_b) -> ((row_a, col_a), (row_b, col_b)).
    reshuffled = np.transpose(unitary, (0, 2, 1, 3)).reshape(4, 4)
    singular_values = np.linalg.svd(reshuffled, compute_uv=False)
    return bool(np.sum(singular_values > tolerance) == 1)


def cnot_cost(unitary: np.ndarray, tolerance: float = 1e-8) -> int:
    """Minimal number of CNOT gates (with free single-qubit gates) for ``unitary``."""
    if is_local_gate(unitary, tolerance):
        return 0
    g1, g2, g3 = makhlin_invariants(unitary)
    # Locally CNOT-equivalent gates have invariants (0, 0, 1).
    if abs(g1) <= tolerance and abs(g2) <= tolerance and abs(g3 - 1.0) <= tolerance:
        return 1
    # Two CNOTs suffice exactly when tr γ(U) is real.
    if abs(np.imag(np.trace(gamma_matrix(unitary)))) <= tolerance:
        return 2
    return 3


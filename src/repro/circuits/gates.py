"""Quantum gate primitives.

The library works in the de-facto near-term gate set of the paper:
CNOT plus arbitrary single-qubit gates.  A :class:`Gate` is an immutable
record of a named operation on specific qubits with an optional rotation
angle.  Dense matrices are provided for verification on small registers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

#: Gate names considered self-inverse when parameter-free.
SELF_INVERSE_GATES = {"H", "X", "Y", "Z", "CNOT", "CZ", "SWAP"}

#: Names of gates diagonal in the computational (Z) basis.
Z_DIAGONAL_GATES = {"Z", "S", "SDG", "T", "TDG", "RZ"}

#: Names of gates diagonal in the X basis.
X_DIAGONAL_GATES = {"X", "RX", "SQRTX", "SQRTXDG"}

#: Single-qubit Clifford basis-change gates used by the Pauli-exponential template.
BASIS_CHANGE_GATES = {"H", "S", "SDG", "HSDG", "SH"}


def _matrix_h() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _matrix_rz(theta: float) -> np.ndarray:
    return np.array(
        [[cmath.exp(-0.5j * theta), 0], [0, cmath.exp(0.5j * theta)]], dtype=complex
    )


def _matrix_rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _matrix_ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


#: Matrices of parameter-free single-qubit gates.
_FIXED_SINGLE_QUBIT_MATRICES: Dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": _matrix_h(),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, cmath.exp(0.25j * math.pi)]], dtype=complex),
    "TDG": np.array([[1, 0], [0, cmath.exp(-0.25j * math.pi)]], dtype=complex),
    "SQRTX": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
    "SQRTXDG": 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex),
}

#: Matrices of parameter-free two-qubit gates (qubit order: first listed qubit
#: is the most significant bit).
_FIXED_TWO_QUBIT_MATRICES: Dict[str, np.ndarray] = {
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}

#: Names of supported parametrized gates mapped to their matrix factory.
_PARAMETRIZED_MATRICES = {
    "RZ": _matrix_rz,
    "RX": _matrix_rx,
    "RY": _matrix_ry,
}

#: Inverse names for parameter-free non-self-inverse gates.
_INVERSE_NAMES = {"S": "SDG", "SDG": "S", "T": "TDG", "TDG": "T", "SQRTX": "SQRTXDG", "SQRTXDG": "SQRTX"}

# Constant gate matrices are shared module-level arrays, frozen so a caller
# mutating what it (reasonably) assumes is a private copy fails loudly
# instead of corrupting every later Gate.matrix() call.
for _matrix in _FIXED_SINGLE_QUBIT_MATRICES.values():
    _matrix.setflags(write=False)
for _matrix in _FIXED_TWO_QUBIT_MATRICES.values():
    _matrix.setflags(write=False)
del _matrix


@lru_cache(maxsize=1024)
def _parametrized_matrix(name: str, parameter: float) -> np.ndarray:
    """Memoized matrix of a rotation gate, keyed on ``(name, parameter)``.

    Compilation reuses a handful of angles (±π/2, Trotter steps) across
    thousands of gates; the LRU turns each repeat into a dict hit.
    """
    matrix = _PARAMETRIZED_MATRICES[name](parameter)
    matrix.setflags(write=False)
    return matrix


@dataclass(frozen=True)
class Gate:
    """A named gate acting on an ordered tuple of qubits.

    Parameters
    ----------
    name:
        Upper-case gate name, e.g. ``"CNOT"``, ``"H"``, ``"RZ"``.
    qubits:
        Qubits the gate acts on.  For ``CNOT`` the order is ``(control, target)``.
    parameter:
        Rotation angle for ``RZ``/``RX``/``RY``; ``None`` otherwise.
    """

    name: str
    qubits: Tuple[int, ...]
    parameter: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "name", self.name.upper())
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate {self.name} acts on repeated qubits {self.qubits}")
        if self.name in _PARAMETRIZED_MATRICES and self.parameter is None:
            raise ValueError(f"gate {self.name} requires a rotation angle")
        known = (
            self.name in _FIXED_SINGLE_QUBIT_MATRICES
            or self.name in _FIXED_TWO_QUBIT_MATRICES
            or self.name in _PARAMETRIZED_MATRICES
        )
        if not known:
            raise ValueError(f"unknown gate name {self.name!r}")
        expected_arity = 2 if self.name in _FIXED_TWO_QUBIT_MATRICES else 1
        if len(self.qubits) != expected_arity:
            raise ValueError(
                f"gate {self.name} expects {expected_arity} qubit(s), got {len(self.qubits)}"
            )

    # ------------------------------------------------------------------
    # Classification helpers
    # ------------------------------------------------------------------
    @property
    def is_cnot(self) -> bool:
        return self.name == "CNOT"

    @property
    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2

    @property
    def is_single_qubit(self) -> bool:
        return len(self.qubits) == 1

    @property
    def is_parametrized(self) -> bool:
        return self.parameter is not None

    @property
    def is_z_diagonal(self) -> bool:
        """True for single-qubit gates diagonal in the computational basis."""
        return self.name in Z_DIAGONAL_GATES

    @property
    def is_x_diagonal(self) -> bool:
        """True for single-qubit gates diagonal in the X basis."""
        return self.name in X_DIAGONAL_GATES

    @property
    def control(self) -> int:
        """Control qubit of a CNOT/CZ gate."""
        if not self.is_two_qubit:
            raise ValueError(f"gate {self.name} has no control qubit")
        return self.qubits[0]

    @property
    def target(self) -> int:
        """Target qubit of a CNOT gate."""
        if not self.is_two_qubit:
            raise ValueError(f"gate {self.name} has no target qubit")
        return self.qubits[1]

    # ------------------------------------------------------------------
    # Matrices and inverses
    # ------------------------------------------------------------------
    def matrix(self) -> np.ndarray:
        """Dense matrix of the gate on its own qubits (2x2 or 4x4).

        The returned array is a shared, read-only cached instance (module
        constant for parameter-free gates, LRU entry keyed on
        ``(name, parameter)`` for rotations); ``.copy()`` it before writing.
        """
        if self.name in _PARAMETRIZED_MATRICES:
            return _parametrized_matrix(self.name, float(self.parameter))
        if self.name in _FIXED_SINGLE_QUBIT_MATRICES:
            return _FIXED_SINGLE_QUBIT_MATRICES[self.name]
        return _FIXED_TWO_QUBIT_MATRICES[self.name]

    def inverse(self) -> "Gate":
        """Return the inverse gate."""
        if self.name in _PARAMETRIZED_MATRICES:
            return Gate(self.name, self.qubits, -self.parameter)
        if self.name in SELF_INVERSE_GATES or self.name == "I":
            return self
        if self.name in _INVERSE_NAMES:
            return Gate(_INVERSE_NAMES[self.name], self.qubits)
        raise ValueError(f"no inverse rule for gate {self.name}")

    def is_inverse_of(self, other: "Gate", angle_tolerance: float = 1e-12) -> bool:
        """True if composing with ``other`` yields the identity."""
        if self.qubits != other.qubits:
            return False
        inverse = self.inverse()
        if inverse.name != other.name:
            return False
        if inverse.parameter is None and other.parameter is None:
            return True
        if inverse.parameter is None or other.parameter is None:
            return False
        return abs(inverse.parameter - other.parameter) <= angle_tolerance

    def commutes_disjointly_with(self, other: "Gate") -> bool:
        """True if the two gates act on disjoint qubit sets (hence commute)."""
        return not set(self.qubits) & set(other.qubits)

    def __repr__(self) -> str:
        if self.parameter is None:
            return f"{self.name}{self.qubits}"
        return f"{self.name}({self.parameter:.6g}){self.qubits}"


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def cnot(control: int, target: int) -> Gate:
    """CNOT gate with the given control and target."""
    return Gate("CNOT", (control, target))


def hadamard(qubit: int) -> Gate:
    return Gate("H", (qubit,))


def s_gate(qubit: int) -> Gate:
    return Gate("S", (qubit,))


def sdg_gate(qubit: int) -> Gate:
    return Gate("SDG", (qubit,))


def rz(qubit: int, angle: float) -> Gate:
    return Gate("RZ", (qubit,), angle)


def rx(qubit: int, angle: float) -> Gate:
    return Gate("RX", (qubit,), angle)


def ry(qubit: int, angle: float) -> Gate:
    return Gate("RY", (qubit,), angle)

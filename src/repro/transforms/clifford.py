"""Conjugation of Pauli operators by CNOT (linear reversible) Clifford circuits.

The paper's generalized fermion-to-qubit transformation is defined by a binary
invertible matrix ``Γ``.  The corresponding unitary ``U_Γ`` is a CNOT-only
circuit, a Clifford operation, so conjugation maps every Pauli string to
another Pauli string (with a ±1 sign).  This module implements that
conjugation exactly, both for single CNOT gates and full CNOT networks.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.operators import PauliString, QubitOperator
from repro.transforms.binary import CnotPair


def cnot_sign_flip(x_c, z_c, x_t, z_t):
    """Sign-flip indicator of CNOT conjugation on 0/1 component bits.

    Evaluates ``x_c z_t (x_t ⊕ z_c ⊕ 1)`` — exactly the ``(X,Z) → -YY`` and
    ``(Y,Y) → -XZ`` cases of conjugating ``(control, target)`` by a CNOT,
    which maps ``X_c → X_c X_t``, ``Z_c → Z_c``, ``X_t → X_t`` and
    ``Z_t → Z_c Z_t``.  Pure bit arithmetic, so
    it works identically on Python ints and on numpy 0/1 arrays; this is the
    single normative implementation shared by :func:`_cnot_step` here and by
    the bit-plane tableau engine in :mod:`repro.verify.tableau`.
    """
    return x_c & z_t & (x_t ^ z_c ^ 1)


def _cnot_step(x: int, z: int, control: int, target: int) -> Tuple[int, int, int]:
    """One CNOT conjugation on packed masks: returns ``(sign, x', z')``.

    Symplectic update ``x_t ^= x_c``, ``z_c ^= z_t``; the sign rule is the
    shared :func:`cnot_sign_flip`.
    """
    if control == target:
        raise ValueError("CNOT control and target must differ")
    x_control = (x >> control) & 1
    z_target = (z >> target) & 1
    sign = 1
    if cnot_sign_flip(x_control, (z >> control) & 1, (x >> target) & 1, z_target):
        sign = -1
    if x_control:
        x ^= 1 << target
    if z_target:
        z ^= 1 << control
    return sign, x, z


def conjugate_pauli_by_cnot(
    string: PauliString, control: int, target: int
) -> Tuple[int, PauliString]:
    """Return ``(sign, CNOT P CNOT)`` for a single CNOT conjugation."""
    sign, x, z = _cnot_step(string.x_mask, string.z_mask, control, target)
    return sign, PauliString.from_bitmasks(string.n_qubits, x, z)


def conjugate_pauli_by_cnot_network(
    string: PauliString, cnots: Sequence[CnotPair]
) -> Tuple[int, PauliString]:
    """Conjugate a Pauli string by a CNOT network ``U = G_k ... G_1``.

    The gate list is given in application (circuit) order, i.e. ``cnots[0]``
    acts first on states.  Conjugation therefore proceeds innermost-first:
    ``U P U† = G_k (... (G_1 P G_1†) ...) G_k†``.  The whole network is
    applied to the packed bit-masks; the string is rebuilt once at the end.
    """
    sign = 1
    x, z = string.x_mask, string.z_mask
    for control, target in cnots:
        step_sign, x, z = _cnot_step(x, z, control, target)
        sign *= step_sign
    return sign, PauliString.from_bitmasks(string.n_qubits, x, z)


def conjugate_by_cnot_network(
    operator: QubitOperator, cnots: Sequence[CnotPair]
) -> QubitOperator:
    """Conjugate every term of a :class:`QubitOperator` by a CNOT network.

    Clifford conjugation permutes the Pauli basis, so distinct input strings
    stay distinct and the result can be assembled in one dictionary pass.
    """
    cnots = list(cnots)
    terms = {}
    for string, coefficient in operator.terms.items():
        sign, new_string = conjugate_pauli_by_cnot_network(string, cnots)
        terms[new_string] = sign * coefficient
    return QubitOperator(operator.n_qubits, terms)

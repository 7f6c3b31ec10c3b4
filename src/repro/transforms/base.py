"""Base interface for fermion-to-qubit transformations."""

from __future__ import annotations

import abc

from repro.operators import FermionOperator, QubitOperator


class FermionQubitTransform(abc.ABC):
    """Abstract fermion-to-qubit transformation on a fixed number of modes.

    A transformation maps a :class:`FermionOperator` on ``n_modes`` spin
    orbitals to a :class:`QubitOperator` on ``n_modes`` qubits while
    preserving the operator algebra (anti-commutation relations) and hence the
    spectrum of any transformed Hamiltonian.
    """

    def __init__(self, n_modes: int):
        if n_modes <= 0:
            raise ValueError("n_modes must be positive")
        self.n_modes = int(n_modes)

    @property
    def n_qubits(self) -> int:
        """Number of qubits in the image (equal to the number of modes)."""
        return self.n_modes

    @abc.abstractmethod
    def annihilation_operator(self, mode: int) -> QubitOperator:
        """Return the qubit image of the annihilation operator ``a_mode``."""

    def creation_operator(self, mode: int) -> QubitOperator:
        """Return the qubit image of the creation operator ``a†_mode``."""
        return self.annihilation_operator(mode).hermitian_conjugate()

    def transform(self, operator: FermionOperator) -> QubitOperator:
        """Map a fermionic operator to its qubit image under this transform."""
        result = QubitOperator.zero(self.n_qubits)
        for term, coefficient in operator.terms.items():
            product = QubitOperator.identity(self.n_qubits, coefficient)
            for mode, is_creation in term:
                if mode >= self.n_modes:
                    raise ValueError(
                        f"operator acts on mode {mode} but transform covers only {self.n_modes} modes"
                    )
                factor = (
                    self.creation_operator(mode)
                    if is_creation
                    else self.annihilation_operator(mode)
                )
                product = product * factor
            result += product
        return result.compress()

    def __call__(self, operator: FermionOperator) -> QubitOperator:
        return self.transform(operator)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_modes={self.n_modes})"

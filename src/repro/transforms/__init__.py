"""Fermion-to-qubit transformations and GF(2) linear-reversible machinery.

Exports the Jordan-Wigner, Bravyi-Kitaev, parity and generalized
(Γ-conjugated) transforms along with the binary-matrix utilities they are
built from.
"""

from repro.transforms.base import FermionQubitTransform
from repro.transforms.binary import (
    block_diagonal,
    bravyi_kitaev_matrix,
    cnot_cost,
    cnot_network_matrix,
    embed_block,
    gf2_inverse,
    gf2_matmul,
    gf2_matvec,
    gf2_rank,
    identity_matrix,
    is_invertible,
    jordan_wigner_matrix,
    parity_matrix,
    random_invertible_matrix,
    synthesize_cnot_network,
    synthesize_cnot_network_pmh,
)
from repro.transforms.clifford import (
    cnot_sign_flip,
    conjugate_by_cnot_network,
    conjugate_pauli_by_cnot,
    conjugate_pauli_by_cnot_network,
)
from repro.transforms.jordan_wigner import JordanWignerTransform, jordan_wigner
from repro.transforms.linear_encoding import (
    BravyiKitaevTransform,
    LinearEncodingTransform,
    ParityTransform,
    bravyi_kitaev,
    generalized_transform,
    parity_transform,
)

__all__ = [
    "FermionQubitTransform",
    "JordanWignerTransform",
    "jordan_wigner",
    "LinearEncodingTransform",
    "BravyiKitaevTransform",
    "ParityTransform",
    "bravyi_kitaev",
    "parity_transform",
    "generalized_transform",
    "cnot_sign_flip",
    "conjugate_by_cnot_network",
    "conjugate_pauli_by_cnot",
    "conjugate_pauli_by_cnot_network",
    "identity_matrix",
    "jordan_wigner_matrix",
    "parity_matrix",
    "bravyi_kitaev_matrix",
    "block_diagonal",
    "embed_block",
    "gf2_matmul",
    "gf2_matvec",
    "gf2_inverse",
    "gf2_rank",
    "is_invertible",
    "random_invertible_matrix",
    "synthesize_cnot_network",
    "synthesize_cnot_network_pmh",
    "cnot_network_matrix",
    "cnot_cost",
]

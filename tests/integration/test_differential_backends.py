"""Cross-backend differential tests pinning compiler semantics.

For random small fermionic excitation-term lists, every registered Table-I
backend (``jw``, ``bk``, ``gt``, ``adv``) must compile to a gate-level
circuit whose unitary matches the ``exp(-i θ/2 P)`` rotation products derived
from the *uncompiled* term list under that backend's own fermion-to-qubit
transform (up to global phase):

* the synthesized circuit must implement its compiled rotation sequence
  exactly (catches basis-change / CNOT-star / optimizer bugs),
* the compiled multiset of ``(P, θ)`` rotations must equal the transform of
  the raw term list (catches transform and bookkeeping bugs),
* for order-preserving flows the circuit must equal the per-term
  ``expm(θ (T - T†))`` reference products (catches ordering and angle-
  convention drift),
* the reported CNOT count must be the analytic cost of the compiled sequence
  (ties Table-I numbers to actual circuits).

Compression (bosonic/hybrid) is disabled throughout: compressed segments are
cost-accounted, not synthesized, so only the uncompressed flows have a full
circuit to check.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.api import CompileRequest, CompilerConfig, get_backend
from repro.baselines import naive_rotation_sequence
from repro.circuits import exponential_sequence_circuit, sequence_cnot_count
from repro.core import AdvancedPipeline, naive_sort_stage
from repro.core.terms_to_paulis import terms_to_rotations
from repro.transforms import (
    BravyiKitaevTransform,
    JordanWignerTransform,
    LinearEncodingTransform,
)
from repro.verify import assert_implements_rotations, check_equivalence
from repro.vqe import ExcitationTerm

N_MODES = 4

#: Deterministic, fast advanced-pipeline settings with compression disabled.
ADV_CONFIG = CompilerConfig(
    use_bosonic_encoding=False,
    use_hybrid_encoding=False,
    gamma_steps=5,
    sorting_population=8,
    sorting_generations=6,
    seed=0,
)

GT_CONFIG = CompilerConfig(use_bosonic_encoding=False, seed=0)


def random_terms(seed: int):
    """A random small fermionic Hamiltonian: 2-4 excitation terms on 4 modes."""
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(int(rng.integers(2, 5))):
        modes = [int(m) for m in rng.permutation(N_MODES)]
        if rng.random() < 0.7:
            terms.append(
                ExcitationTerm(
                    creation=tuple(sorted(modes[:2])),
                    annihilation=tuple(sorted(modes[2:4])),
                )
            )
        else:
            terms.append(ExcitationTerm(creation=(modes[0],), annihilation=(modes[1],)))
    if not terms:
        terms.append(ExcitationTerm(creation=(2, 3), annihilation=(0, 1)))
    parameters = tuple(float(p) for p in rng.uniform(0.2, 1.2, size=len(terms)))
    return tuple(terms), parameters


def rotation_unitary(string, angle):
    """Dense ``exp(-i angle/2 · P)`` via the closed form for Pauli strings."""
    dim = 2 ** string.n_qubits
    return (
        np.cos(angle / 2.0) * np.eye(dim, dtype=complex)
        - 1j * np.sin(angle / 2.0) * string.to_dense()
    )


def sequence_unitary(sequence):
    """Unitary of an ordered ``(string, angle, target)`` rotation sequence."""
    dim = 2 ** sequence[0][0].n_qubits
    unitary = np.eye(dim, dtype=complex)
    for string, angle, _ in sequence:
        unitary = rotation_unitary(string, angle) @ unitary
    return unitary


def term_reference_unitary(terms, parameters, transform):
    """Product of ``expm`` of each transformed term generator, in term order."""
    dim = 2 ** transform.n_qubits
    unitary = np.eye(dim, dtype=complex)
    for term, parameter in zip(terms, parameters):
        generator = transform.transform(term.generator(parameter))
        unitary = expm(generator.to_dense()) @ unitary
    return unitary


def assert_equal_up_to_global_phase(actual, expected):
    index = int(np.argmax(np.abs(expected)))
    a, e = actual.flat[index], expected.flat[index]
    assert abs(e) > 1e-12
    phase = a / e
    assert abs(abs(phase) - 1.0) < 1e-9
    np.testing.assert_allclose(actual, phase * expected, atol=1e-9)


def rotation_multiset(sequence):
    return sorted((string.to_label(), round(angle, 12)) for string, angle, _ in sequence)


def reference_multiset(terms, parameters, transform):
    rotations = terms_to_rotations(list(terms), transform, list(parameters))
    return sorted((r.string.to_label(), round(r.angle, 12)) for r in rotations)


def compiled_sequence(backend_name, terms, parameters):
    """The backend's compiled ``(string, angle, target)`` sequence + its CompileResult."""
    if backend_name in ("jw", "bk"):
        transform = (
            JordanWignerTransform(N_MODES)
            if backend_name == "jw"
            else BravyiKitaevTransform(N_MODES)
        )
        request = CompileRequest(terms=terms, n_qubits=N_MODES, parameters=parameters)
        result = get_backend(backend_name).compile(request)
        sequence = naive_rotation_sequence(list(terms), transform, list(parameters))
        return sequence, result, transform
    if backend_name == "gt":
        request = CompileRequest(
            terms=terms, n_qubits=N_MODES, parameters=parameters, config=GT_CONFIG
        )
        result = get_backend(backend_name).compile(request)
        details = result.details
        transform = LinearEncodingTransform(details.transform_matrix)
        return list(details.ordered_exponentials), result, transform
    if backend_name == "adv":
        request = CompileRequest(
            terms=terms, n_qubits=N_MODES, parameters=parameters, config=ADV_CONFIG
        )
        result = get_backend(backend_name).compile(request)
        details = result.details
        transform = LinearEncodingTransform(details.gamma)
        sequence = [
            (rotation.string, rotation.angle, target)
            for rotation, target in details.sorting.ordered_rotations
        ]
        return sequence, result, transform
    raise AssertionError(backend_name)


BACKENDS = ("jw", "bk", "gt", "adv")


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_circuit_implements_compiled_sequence(backend_name, seed):
    """The synthesized circuit realizes its rotation sequence gate-exactly."""
    terms, parameters = random_terms(seed)
    sequence, result, transform = compiled_sequence(backend_name, terms, parameters)
    assert sequence, "compilation produced no rotations"
    circuit = exponential_sequence_circuit(sequence, n_qubits=N_MODES)
    np.testing.assert_allclose(
        circuit.to_unitary(), sequence_unitary(sequence), atol=1e-9
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_compiled_rotations_match_uncompiled_terms(backend_name, seed):
    """The compiled (P, θ) multiset is exactly the transformed raw term list."""
    terms, parameters = random_terms(seed)
    sequence, result, transform = compiled_sequence(backend_name, terms, parameters)
    assert rotation_multiset(sequence) == reference_multiset(
        terms, parameters, transform
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_reported_count_matches_compiled_sequence(backend_name, seed):
    """Table-I CNOT counts are the analytic cost of the actual sequence."""
    terms, parameters = random_terms(seed)
    sequence, result, transform = compiled_sequence(backend_name, terms, parameters)
    analytic = sequence_cnot_count([(string, target) for string, _, target in sequence])
    assert result.cnot_count == analytic


@pytest.mark.parametrize("backend_name", ("jw", "bk"))
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_order_preserving_backends_match_expm_reference(backend_name, seed):
    """JW/BK preserve term order, so the circuit equals the expm products."""
    terms, parameters = random_terms(seed)
    sequence, result, transform = compiled_sequence(backend_name, terms, parameters)
    circuit = exponential_sequence_circuit(sequence, n_qubits=N_MODES)
    assert_equal_up_to_global_phase(
        circuit.to_unitary(), term_reference_unitary(terms, parameters, transform)
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_single_term_matches_expm_reference_all_backends(backend_name):
    """With one excitation term no reordering freedom exists: every backend's
    circuit must equal ``expm(θ (T - T†))`` under its own encoding."""
    terms = (ExcitationTerm(creation=(2, 3), annihilation=(0, 1)),)
    parameters = (0.7,)
    sequence, result, transform = compiled_sequence(backend_name, terms, parameters)
    circuit = exponential_sequence_circuit(sequence, n_qubits=N_MODES)
    assert_equal_up_to_global_phase(
        circuit.to_unitary(), term_reference_unitary(terms, parameters, transform)
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_dispatcher_agrees_with_dense_verdicts_small_n(backend_name, seed):
    """Small-n cross-validation: every scalable engine verdict must match the
    dense engine, on both an equivalent and a perturbed (non-equivalent) pair.

    This keeps the dense engine exercised against the new engines every run,
    so a regression in either side surfaces as a verdict disagreement.
    """
    terms, parameters = random_terms(seed)
    sequence, result, transform = compiled_sequence(backend_name, terms, parameters)
    circuit = exponential_sequence_circuit(sequence, n_qubits=N_MODES)
    perturbed = list(sequence)
    string, angle, target = perturbed[0]
    perturbed[0] = (string, angle + 0.31, target)
    wrong = exponential_sequence_circuit(perturbed, n_qubits=N_MODES)
    for other, expected in ((circuit.copy(), True), (wrong, False)):
        dense = check_equivalence(circuit, other, engine="dense")
        assert dense.equivalent is expected
        pauli = check_equivalence(circuit, other, engine="pauli")
        sparse = check_equivalence(circuit, other, engine="sparse")
        assert pauli.equivalent is expected  # bit-identical verdicts
        assert sparse.equivalent is expected


# ----------------------------------------------------------------------
# Large registers: the cross-backend contract past the dense-engine wall
# ----------------------------------------------------------------------
LARGE_N_MODES = 20


def random_large_terms(seed: int, n_modes: int = LARGE_N_MODES):
    """Random excitation terms spread over a 20-mode register."""
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(6):
        modes = [int(m) for m in rng.permutation(n_modes)]
        if rng.random() < 0.7:
            terms.append(
                ExcitationTerm(
                    creation=tuple(sorted(modes[:2])),
                    annihilation=tuple(sorted(modes[2:4])),
                )
            )
        else:
            terms.append(ExcitationTerm(creation=(modes[0],), annihilation=(modes[1],)))
    parameters = tuple(float(p) for p in rng.uniform(0.2, 1.2, size=len(terms)))
    return tuple(terms), parameters


@pytest.mark.parametrize("backend_name", ("jw", "bk"))
@pytest.mark.parametrize("seed", [0, 1])
def test_large_register_circuit_implements_sequence(backend_name, seed):
    """At 20 modes the synthesized circuit still realizes its rotation
    sequence — decided by Pauli propagation, with no statevector in sight."""
    terms, parameters = random_large_terms(seed)
    transform = (
        JordanWignerTransform(LARGE_N_MODES)
        if backend_name == "jw"
        else BravyiKitaevTransform(LARGE_N_MODES)
    )
    sequence = naive_rotation_sequence(list(terms), transform, list(parameters))
    assert sequence, "transform produced no rotations"
    circuit = exponential_sequence_circuit(sequence, n_qubits=LARGE_N_MODES)
    report = assert_implements_rotations(
        circuit, [(string, angle) for string, angle, _ in sequence]
    )
    assert report.engine == "pauli"
    assert report.exact


@pytest.mark.parametrize("seed", [0, 1])
def test_large_register_angle_drift_detected(seed):
    """The scalable path must still *reject*: a perturbed angle at 20 modes."""
    terms, parameters = random_large_terms(seed)
    transform = JordanWignerTransform(LARGE_N_MODES)
    sequence = naive_rotation_sequence(list(terms), transform, list(parameters))
    circuit = exponential_sequence_circuit(sequence, n_qubits=LARGE_N_MODES)
    drifted = [(string, angle + 0.17, None) for string, angle, _ in sequence[:1]]
    drifted += [(string, angle, None) for string, angle, _ in sequence[1:]]
    wrong = exponential_sequence_circuit(drifted, n_qubits=LARGE_N_MODES)
    report = check_equivalence(circuit, wrong)
    assert not report.equivalent


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_advanced_without_sorting_matches_expm_reference(seed):
    """With the naive sort stage substituted the pipeline preserves term order,
    so the full Γ-encoded circuit must match the expm reference products."""
    terms, parameters = random_terms(seed)
    pipeline = AdvancedPipeline(ADV_CONFIG).with_stage("sort", naive_sort_stage)
    details = pipeline.run(terms, n_qubits=N_MODES, parameters=parameters)
    transform = LinearEncodingTransform(details.gamma)
    sequence = [
        (rotation.string, rotation.angle, target)
        for rotation, target in details.sorting.ordered_rotations
    ]
    circuit = exponential_sequence_circuit(sequence, n_qubits=N_MODES)
    assert_equal_up_to_global_phase(
        circuit.to_unitary(), term_reference_unitary(terms, parameters, transform)
    )

"""Cached/vectorized integral engine: bit-identity and memoization behavior."""

from contextlib import contextmanager

import numpy as np

from repro.chemistry import (
    build_molecular_hamiltonian,
    build_sto3g_basis,
    clear_integral_caches,
    clear_scf_cache,
    make_molecule,
    molecule_fingerprint,
    run_rhf,
    shell_pair_data,
)
from repro.chemistry import integrals
from repro.chemistry.integrals import (
    boys_function,
    build_electron_repulsion_tensor,
    electron_repulsion,
    electron_repulsion_scalar,
    hermite_coulomb,
    hermite_expansion,
)

#: Each memoized/vectorized entry point and its uncached seed reference.
SEED_REFERENCES = {
    "boys_function": "_boys_function_direct",
    "hermite_expansion": "_hermite_expansion_direct",
    "hermite_coulomb": "_hermite_coulomb_direct",
    "electron_repulsion": "electron_repulsion_scalar",
}


@contextmanager
def seed_integrals():
    """The seed's uncached path: every entry point bound to its reference."""
    saved = {name: getattr(integrals, name) for name in SEED_REFERENCES}
    for name, reference in SEED_REFERENCES.items():
        setattr(integrals, name, getattr(integrals, reference))
    try:
        yield
    finally:
        for name, function in saved.items():
            setattr(integrals, name, function)


def lih_basis():
    return build_sto3g_basis(make_molecule("LiH"))


class TestVectorizedElectronRepulsion:
    def test_bit_identical_to_scalar_on_sp_quartets(self):
        # Li 1s, Li 2s, Li 2px, H 1s: covers s-only and p-bearing quartets.
        basis = lih_basis()
        functions = [basis[0], basis[1], basis[2], basis[5]]
        for a in functions:
            for b in functions:
                for c in functions:
                    for d in functions:
                        vectorized = electron_repulsion(a, b, c, d)
                        scalar = electron_repulsion_scalar(a, b, c, d)
                        assert vectorized == scalar

    def test_seed_path_tensor_is_bit_identical(self):
        basis = build_sto3g_basis(make_molecule("H2"))
        clear_integral_caches()
        cached_tensor = build_electron_repulsion_tensor(basis)
        with seed_integrals():
            assert integrals.electron_repulsion is electron_repulsion_scalar
            plain_tensor = build_electron_repulsion_tensor(basis)
        assert integrals.electron_repulsion is electron_repulsion
        assert np.array_equal(cached_tensor, plain_tensor)

    def test_seed_path_scf_is_bit_identical(self):
        molecule = make_molecule("H2")
        cached = run_rhf(molecule, use_cache=False)
        with seed_integrals():
            seed = run_rhf(molecule, use_cache=False)
        assert seed.energy == cached.energy
        assert np.array_equal(seed.electron_repulsion, cached.electron_repulsion)

    def test_scalar_kernels_match_the_uncached_recursion(self):
        args_expansion = (1, 1, 1, 0.7, 5.0, 1.3)
        args_coulomb = (1, 0, 1, 0, 2.0, 0.1, -0.2, 0.3, 0.14)
        clear_integral_caches()
        with seed_integrals():
            direct = (
                integrals.hermite_expansion(*args_expansion),
                integrals.hermite_coulomb(*args_coulomb),
                integrals.boys_function(2, 0.8),
            )
        # The seed path recursed without touching a memo ...
        for memo in (hermite_expansion, hermite_coulomb, boys_function):
            assert memo.cache_info().currsize == 0
        cached = (
            hermite_expansion(*args_expansion),
            hermite_coulomb(*args_coulomb),
            boys_function(2, 0.8),
        )
        # ... and the memoized path memoizes every level of its recursion.
        assert hermite_expansion.cache_info().currsize > 1
        assert hermite_coulomb.cache_info().currsize > 1
        assert cached == direct


class TestShellPairCache:
    def test_pair_data_is_cached_and_clearable(self):
        basis = lih_basis()
        clear_integral_caches()
        first = shell_pair_data(basis[0], basis[2])
        again = shell_pair_data(basis[0], basis[2])
        assert first is again
        clear_integral_caches()
        fresh = shell_pair_data(basis[0], basis[2])
        assert fresh is not first

    def test_pair_cache_is_bounded(self, monkeypatch):
        from repro.chemistry import integrals

        basis = lih_basis()
        clear_integral_caches()
        monkeypatch.setattr(integrals, "_SHELL_PAIR_CACHE_MAX_ENTRIES", 2)
        shell_pair_data(basis[0], basis[1])
        shell_pair_data(basis[1], basis[2])
        shell_pair_data(basis[2], basis[3])
        assert len(integrals._SHELL_PAIR_CACHE) == 2

    def test_pair_tables_match_scalar_expansion(self):
        basis = lih_basis()
        fa, fb = basis[1], basis[2]  # s-p pair: non-trivial expansion tables
        pair = shell_pair_data(fa, fb)
        for axis in range(3):
            l1, l2 = fa.lmn[axis], fb.lmn[axis]
            separation = fa.center[axis] - fb.center[axis]
            for t, table in enumerate(pair.expansion[axis]):
                for i, alpha in enumerate(fa.exponents):
                    for j, beta in enumerate(fb.exponents):
                        assert table[i, j] == hermite_expansion(
                            l1, l2, t, separation, alpha, beta
                        )


class TestScfMemoization:
    def test_run_rhf_memoizes_per_molecule(self):
        clear_scf_cache()
        molecule = make_molecule("H2")
        first = run_rhf(molecule)
        again = run_rhf(make_molecule("H2"))
        assert first is again

    def test_use_cache_false_recomputes(self):
        clear_scf_cache()
        molecule = make_molecule("H2")
        first = run_rhf(molecule)
        fresh = run_rhf(molecule, use_cache=False)
        assert fresh is not first
        assert fresh.energy == first.energy

    def test_clear_scf_cache_forgets(self):
        clear_scf_cache()
        molecule = make_molecule("H2")
        first = run_rhf(molecule)
        clear_scf_cache()
        assert run_rhf(molecule) is not first

    def test_explicit_basis_bypasses_cache(self):
        clear_scf_cache()
        molecule = make_molecule("H2")
        cached = run_rhf(molecule)
        explicit = run_rhf(molecule, basis=build_sto3g_basis(molecule))
        assert explicit is not cached
        assert explicit.energy == cached.energy

    def test_different_solver_settings_get_distinct_entries(self):
        clear_scf_cache()
        molecule = make_molecule("H2")
        default = run_rhf(molecule)
        damped = run_rhf(molecule, damping=0.2)
        assert default is not damped

    def test_molecule_fingerprint_distinguishes_geometry(self):
        assert molecule_fingerprint(make_molecule("H2")) != molecule_fingerprint(
            make_molecule("LiH")
        )
        assert molecule_fingerprint(make_molecule("H2")) == molecule_fingerprint(
            make_molecule("H2")
        )

    def test_same_geometry_different_name_is_not_conflated(self):
        # A cache hit must never return a result labeled with another
        # caller's molecule name (the name flows into Hamiltonian/report rows).
        clear_scf_cache()
        first = make_molecule("H2")
        renamed = make_molecule("H2")
        renamed.name = "H2-copy"
        cached = run_rhf(first)
        other = run_rhf(renamed)
        assert other is not cached
        assert other.molecule.name == "H2-copy"
        assert other.energy == cached.energy

    def test_scf_cache_is_bounded(self, monkeypatch):
        from repro.chemistry import hartree_fock

        clear_scf_cache()
        monkeypatch.setattr(hartree_fock, "_SCF_CACHE_MAX_ENTRIES", 1)
        h2 = run_rhf(make_molecule("H2"))
        lih = run_rhf(make_molecule("LiH"))
        assert len(hartree_fock._SCF_CACHE) == 1
        # The H2 entry was evicted (FIFO); LiH is the survivor.
        assert run_rhf(make_molecule("LiH")) is lih
        assert run_rhf(make_molecule("H2")) is not h2


class TestHamiltonianMemoization:
    def test_memoized_per_active_space(self):
        clear_scf_cache()
        scf = run_rhf(make_molecule("LiH"))
        frozen = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=1)
        assert build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=1) is frozen
        full = build_molecular_hamiltonian(scf)
        assert full is not frozen
        assert full.n_spin_orbitals == frozen.n_spin_orbitals + 2

    def test_use_cache_false_recomputes(self):
        clear_scf_cache()
        scf = run_rhf(make_molecule("H2"))
        first = build_molecular_hamiltonian(scf)
        fresh = build_molecular_hamiltonian(scf, use_cache=False)
        assert fresh is not first
        assert np.array_equal(fresh.one_body, first.one_body)
        assert np.array_equal(fresh.two_body, first.two_body)


class TestNoCyclicGarbage:
    def test_eri_build_leaves_no_reference_cycles(self):
        """The Hermite Coulomb recursion must not leave cycles per ERI.

        A recursive local closure references itself through its cell, so
        each vectorized ERI used to leave a function/cell cycle that only a
        full collection freed.  Collecting right after a cold ERI build must
        find nothing, and the tensor must stay bit-identical to the scalar
        reference.
        """
        import gc

        basis = lih_basis()
        clear_integral_caches()
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            tensor = build_electron_repulsion_tensor(basis)
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert garbage == []

        with seed_integrals():
            reference = build_electron_repulsion_tensor(basis)
        assert np.array_equal(tensor, reference)

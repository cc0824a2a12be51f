import warnings

import numpy as np
import pytest

from degengate import (
    HamiltonianParams,
    build_hamiltonian,
    classify_degeneracy,
    eigensystem,
    pauli_tensor,
    spectrum_optimal_point,
)
from degengate.errors import InvalidParameterError, NonHermitianError
from degengate.hamiltonian import (
    build_hamiltonian_from_paulis,
    build_hamiltonians,
    constraint_gap,
    degeneracy_classes,
    eigh_stack,
)

from conftest import random_hermitian, random_params

SQ7_4 = np.sqrt(7.0) / 4.0

CNOT_REFINED = HamiltonianParams(
    delta1=0.0, delta2=1.5, eps1=-0.25, eps2=-SQ7_4, jx=0.0, jy=0.0, jz=-SQ7_4
)


class TestPauliTensor:
    def test_identity(self):
        np.testing.assert_array_equal(pauli_tensor("0", "0"), np.eye(4))

    def test_zz_diagonal(self):
        np.testing.assert_array_equal(
            pauli_tensor("z", "z"), np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
        )

    def test_xy_squares_to_identity(self):
        xy = pauli_tensor("x", "y")
        assert np.count_nonzero(xy) == 4
        anti = [(0, 3), (1, 2), (2, 1), (3, 0)]
        assert all(xy[i, j] != 0 for i, j in anti)
        np.testing.assert_allclose(xy @ xy, np.eye(4), atol=1e-15)

    def test_bad_axis(self):
        with pytest.raises(InvalidParameterError):
            pauli_tensor("w", "z")


class TestBuildHamiltonian:
    def test_zero_params_zero_matrix(self):
        h = build_hamiltonian(HamiltonianParams())
        np.testing.assert_array_equal(h, np.zeros((4, 4)))

    def test_cnot_construction_blocks(self):
        # Block-diagonal with the published 2x2 blocks (in units of pi).
        h = build_hamiltonian(CNOT_REFINED) / np.pi
        upper = np.array([[-0.25 - 2 * SQ7_4, 1.5], [1.5, -0.25 + 2 * SQ7_4]])
        lower = np.array([[0.25, 1.5], [1.5, 0.25]])
        np.testing.assert_allclose(h[:2, :2].real, upper, atol=1e-12)
        np.testing.assert_allclose(h[2:, 2:].real, lower, atol=1e-12)
        np.testing.assert_array_equal(h[:2, 2:], np.zeros((2, 2)))
        # rounded entries match the printed blocks to two decimals
        np.testing.assert_allclose(h[0, 0], -1.57, atol=5e-3)
        np.testing.assert_allclose(h[1, 1], 1.07, atol=5e-3)

    def test_heisenberg_matches_kronecker_oracle(self):
        p = HamiltonianParams(jx=0.7, jy=0.7, jz=0.7)
        expected = sum(
            0.7 * np.pi * pauli_tensor(a, a) for a in ("x", "y", "z")
        )
        np.testing.assert_allclose(build_hamiltonian(p), expected, atol=1e-12)

    def test_matches_pauli_assembly_on_random_draws(self, rng):
        for _ in range(1000):
            p = random_params(rng)
            np.testing.assert_allclose(
                build_hamiltonian(p), build_hamiltonian_from_paulis(p), atol=1e-12
            )

    def test_hermitian_and_traceless(self, rng):
        for _ in range(50):
            h = build_hamiltonian(random_params(rng))
            np.testing.assert_allclose(h, h.conj().T, atol=1e-14)
            assert abs(np.trace(h)) < 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidParameterError):
            HamiltonianParams(delta1=np.nan)


class TestEigensystem:
    def test_diagonal_matrix(self):
        es = eigensystem(np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
        np.testing.assert_allclose(es.energies, [1, 2, 3, 4])
        np.testing.assert_allclose(es.vectors, np.eye(4), atol=1e-12)

    def test_cnot_construction_spectrum(self):
        es = eigensystem(build_hamiltonian(CNOT_REFINED))
        np.testing.assert_allclose(
            es.energies / np.pi, [-2.25, -1.25, 1.75, 1.75], atol=1e-12
        )

    def test_orthonormal_and_reconstructs(self, rng):
        for _ in range(50):
            h = random_hermitian(rng)
            es = eigensystem(h)
            np.testing.assert_allclose(
                es.vectors.conj().T @ es.vectors, np.eye(4), atol=1e-10
            )
            np.testing.assert_allclose(
                es.vectors @ np.diag(es.energies) @ es.vectors.conj().T, h, atol=1e-9
            )
            for k in range(4):
                np.testing.assert_allclose(
                    h @ es.vectors[:, k], es.energies[k] * es.vectors[:, k], atol=1e-10
                )

    def test_energies_ascending(self, rng):
        for _ in range(20):
            es = eigensystem(random_hermitian(rng))
            assert np.all(np.diff(es.energies) >= -1e-12)

    def test_degenerate_subspace_deterministic(self):
        # A doubly degenerate spectrum: the same input gives the same basis.
        p = HamiltonianParams(delta1=1.0, delta2=1.0, jy=0.5, jz=2.0)
        h = build_hamiltonian(p)
        es1 = eigensystem(h)
        es2 = eigensystem(h + 0.0)
        np.testing.assert_allclose(es1.vectors, es2.vectors, atol=1e-12)

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(NonHermitianError):
            eigensystem(m)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite(self, value):
        # A NaN compares False in the Hermiticity check, so only the
        # finiteness check keeps it away from eigh and its warnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="non-finite"):
                eigensystem(np.full((4, 4), value))

    def test_spectrum_optimal_point_examples(self):
        p = HamiltonianParams(delta1=0.8, delta2=0.8, jy=0.8, jz=0.8)
        np.testing.assert_allclose(
            spectrum_optimal_point(p) / np.pi, [-1.6, -1.6, 1.6, 1.6], atol=1e-12
        )
        p2 = HamiltonianParams(delta1=1.0, delta2=1.0, jy=0.58, jz=1.71)
        energies = spectrum_optimal_point(p2) / np.pi
        assert abs(0.58 * 1.71 - 1.0) < 8.5e-3
        gaps = np.diff(np.sort(energies))
        assert gaps[0] < 8e-3 and gaps[2] < 8e-3

    def test_spectrum_optimal_point_matches_eigensystem(self, rng):
        for _ in range(100):
            p = random_params(rng).replace(eps1=0.0, eps2=0.0)
            es = eigensystem(build_hamiltonian(p))
            np.testing.assert_allclose(
                spectrum_optimal_point(p), es.energies, atol=1e-10
            )

    def test_stack_matches_single_points(self, rng):
        t0 = 0.7
        points = [random_params(rng, t0=t0) for _ in range(50)]
        stack = build_hamiltonians(np.array([p.as_array() for p in points]), t0)
        assert stack.shape == (50, 4, 4)
        for h, p in zip(stack, points):
            np.testing.assert_array_equal(h, build_hamiltonian(p))

    def test_optimal_point_requires_zero_bias(self):
        with pytest.raises(InvalidParameterError):
            spectrum_optimal_point(HamiltonianParams(eps1=0.1))


class TestEighStack:
    def test_stack_matches_eigensystem(self, rng):
        hs = np.array([random_hermitian(rng) for _ in range(10)])
        energies, vectors = eigh_stack(hs)
        for h, e, v in zip(hs, energies, vectors):
            es = eigensystem(h)
            np.testing.assert_array_equal(e, es.energies)
            np.testing.assert_array_equal(v, es.vectors)

    def test_one_non_hermitian_matrix_rejected(self, rng):
        hs = np.array([random_hermitian(rng) for _ in range(3)])
        hs[1, 0, 1] += 1e-6
        with pytest.raises(NonHermitianError):
            eigh_stack(hs)


class TestClassifyDegeneracy:
    def test_cnot_spectrum_single(self):
        rep = classify_degeneracy(np.pi * np.array([-2.25, -1.25, 1.75, 1.75]), 1e-6)
        assert rep.classification == "single"

    def test_double(self):
        rep = classify_degeneracy(np.array([-2.0, -2.0, 2.0, 2.0]), 1e-6)
        assert rep.classification == "double"
        assert rep.pair_gap_measure == 0.0

    def test_none(self):
        rep = classify_degeneracy(np.array([0.0, 1.0, 2.0, 3.0]), 1e-6)
        assert rep.classification == "none"
        assert rep.min_gap == 1.0

    def test_eq17_manifold_is_double(self, rng):
        # Jy Jz = Delta^2 with Jx = 0 closes both pairs exactly.
        for _ in range(200):
            delta = rng.uniform(0.2, 2.0)
            jy = rng.uniform(0.1, 3.0)
            p = HamiltonianParams(
                delta1=delta, delta2=delta, jy=jy, jz=delta**2 / jy
            )
            rep = classify_degeneracy(eigensystem(build_hamiltonian(p)), 1e-8)
            assert rep.classification == "double"

    def test_stacked_rule_matches(self, rng):
        # Random spectra with pairs pulled together, classified as a stack
        # and one by one.
        energies = np.sort(rng.uniform(-1.0, 1.0, size=(400, 4)), axis=1)
        close = rng.random(size=(400, 3)) < 0.4
        adjacent = np.where(close, 1e-9, np.diff(energies, axis=1))
        energies = np.concatenate([energies[:, :1], energies[:, :1] + np.cumsum(adjacent, axis=1)],
                                  axis=1)
        adjacent = np.diff(energies, axis=1)
        classes = degeneracy_classes(adjacent, 1e-6)
        single, double = constraint_gap(adjacent, "single"), constraint_gap(adjacent, "double")
        assert set(classes) == {"none", "single", "double"}
        for e, cls, g1, g2 in zip(energies, classes, single, double):
            rep = classify_degeneracy(e, 1e-6)
            assert rep.classification == cls
            assert (rep.min_gap, rep.pair_gap_measure) == (g1, g2)

    def test_tolerance_positive(self):
        with pytest.raises(InvalidParameterError):
            classify_degeneracy(np.array([0.0, 1.0, 2.0, 3.0]), 0.0)

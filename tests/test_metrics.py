import numpy as np
import pytest
from scipy.linalg import expm

from degengate import (
    HamiltonianParams,
    MakhlinInvariants,
    NoiseModel,
    build_hamiltonian,
    cnot_class_pulse,
    fidelity_score,
    gate_distance,
    is_equivalent,
    makhlin_invariants,
    onestep_cnot,
    report,
    target_gate,
)
from degengate.errors import NonUnitaryError

from conftest import random_local_unitary, random_unitary


class TestGateDistance:
    def test_exact_match(self):
        cnot = target_gate("CNOT")
        raw, opt = gate_distance(cnot.matrix, cnot)
        assert raw == 0.0 and opt == 0.0

    def test_global_phase_removed(self):
        cnot = target_gate("CNOT")
        u = np.exp(1j * np.pi / 4) * cnot.matrix
        raw, opt = gate_distance(u, cnot)
        assert raw > 0.5
        assert opt < 1e-12

    def test_refined_construction_is_exact(self):
        gate = onestep_cnot(refined=True)
        _, opt = gate_distance(gate.unitary(), target_gate("CNOT"))
        assert opt < 1e-10

    def test_phase_opt_never_exceeds_raw(self, rng):
        cnot = target_gate("CNOT")
        for _ in range(50):
            raw, opt = gate_distance(random_unitary(rng), cnot)
            assert opt <= raw + 1e-12

    def test_rejects_non_unitary(self):
        nan_u = np.eye(4, dtype=complex)
        nan_u[1, 2] = np.nan  # a NaN defect must fail the check too
        for u in (np.ones((4, 4)), nan_u):
            with pytest.raises(NonUnitaryError):
                gate_distance(u, target_gate("CNOT"))

    def test_pseudometric_on_random_triples(self, rng):
        def d(a, b):
            return gate_distance(a, b)[1]

        # the sqrt in the closed form amplifies float noise near zero to
        # ~sqrt(eps); the zero case is therefore asserted at 1e-7
        for _ in range(30):
            a, b, c = (random_unitary(rng) for _ in range(3))
            assert d(a, b) == pytest.approx(d(b, a), abs=1e-9)
            assert d(a, a) < 1e-7
            assert d(a, c) <= d(a, b) + d(b, c) + 1e-9
        u = random_unitary(rng)
        assert d(u, np.exp(0.3j) * u) < 1e-7


class TestMakhlinInvariants:
    def test_identity(self):
        inv = makhlin_invariants(np.eye(4, dtype=complex))
        assert inv.g1 == pytest.approx(1.0, abs=1e-12)
        assert inv.g2 == pytest.approx(3.0, abs=1e-12)

    def test_cnot(self):
        inv = makhlin_invariants(target_gate("CNOT"))
        assert abs(inv.g1) < 1e-12
        assert inv.g2 == pytest.approx(1.0, abs=1e-12)

    def test_sqrt_swap(self):
        # magnitude 1/4 on the imaginary axis; this package's convention
        # lands on the -i/4 branch
        inv = makhlin_invariants(target_gate("SQRT_SWAP"))
        assert abs(inv.g1) == pytest.approx(0.25, abs=1e-12)
        assert abs(inv.g1.real) < 1e-12
        assert inv.g1.imag == pytest.approx(-0.25, abs=1e-12)

    def test_bgate(self):
        inv = makhlin_invariants(target_gate("B"))
        assert abs(inv.g1) < 1e-12 and abs(inv.g2) < 1e-12

    def test_swap(self):
        inv = makhlin_invariants(target_gate("SWAP"))
        assert inv.g1 == pytest.approx(-1.0, abs=1e-12)
        assert inv.g2 == pytest.approx(-3.0, abs=1e-12)

    def test_local_invariance(self, rng):
        cnot = target_gate("CNOT").matrix
        base = makhlin_invariants(cnot)
        for _ in range(200):
            u = random_local_unitary(rng) @ cnot @ random_local_unitary(rng)
            inv = makhlin_invariants(u)
            assert inv.distance(base) < 1e-8

    def test_g1_real_under_double_degeneracy(self, rng):
        # Every evolution generated on the Eq.(17) manifold has real G1.
        for _ in range(200):
            delta = rng.uniform(0.2, 1.5)
            jy = rng.uniform(0.1, 2.5)
            t_scale = rng.uniform(0.1, 3.0)
            p = HamiltonianParams(delta1=delta, delta2=delta, jy=jy, jz=delta**2 / jy)
            u = expm(-1j * t_scale * build_hamiltonian(p))
            assert abs(makhlin_invariants(u).g1.imag) < 1e-8

    def test_double_degeneracy_incompatible_with_sqrt_swap(self):
        # No point of a coarse scan over the manifold comes near G1 = -i/4.
        target = makhlin_invariants(target_gate("SQRT_SWAP"))
        for delta in np.linspace(0.3, 1.5, 7):
            for jy in np.linspace(0.15, 2.5, 12):
                p = HamiltonianParams(delta1=delta, delta2=delta, jy=jy, jz=delta**2 / jy)
                h = build_hamiltonian(p)
                for s in np.linspace(0.05, 2.0, 40):
                    inv = makhlin_invariants(expm(-1j * s * h))
                    assert inv.distance(target) > 1e-3

    def test_gap_zero_for_equal_invariants(self):
        inv = makhlin_invariants(target_gate("SQRT_SWAP"))
        assert inv.gap(inv) == 0.0
        assert inv.gap(MakhlinInvariants(g1=inv.g1, g2=inv.g2)) == 0.0

    def test_gap_sums_where_distance_takes_the_max(self):
        a = MakhlinInvariants(g1=0.3 + 0.4j, g2=1.0)
        b = MakhlinInvariants(g1=0.0, g2=3.0)
        assert a.gap(b) == pytest.approx(0.5 + 2.0, abs=1e-15)
        assert a.distance(b) == pytest.approx(2.0, abs=1e-15)
        assert a.gap(b) == b.gap(a)

    def test_gap_reproduces_class_pulse_gap(self):
        pulse = cnot_class_pulse(2.0, 1.0)
        gap = makhlin_invariants(pulse.unitary()).gap(makhlin_invariants(target_gate("CNOT")))
        assert gap == pulse.notes["invariant_gap"]


class TestEquivalence:
    def test_self_equivalence(self, rng):
        u = random_unitary(rng)
        assert is_equivalent(u, u)

    def test_cnot_class_members(self, rng):
        cnot = target_gate("CNOT").matrix
        for _ in range(20):
            u = random_local_unitary(rng) @ cnot @ random_local_unitary(rng)
            assert is_equivalent(u, cnot)

    def test_cnot_vs_swap(self):
        assert not is_equivalent(target_gate("CNOT").matrix, target_gate("SWAP").matrix)


class TestReport:
    def test_noiseless_exact_construction(self):
        gate = onestep_cnot(refined=True)
        nm0 = NoiseModel(alpha=0.0, temperature=0.0, cutoff=60.0)
        rep = report(gate.params, target_gate("CNOT"), nm0)
        assert rep.purity_loss == 0.0
        assert rep.decay_rate == 0.0
        assert rep.distance_phase_opt < 1e-10
        assert rep.equivalent
        assert rep.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_report_serializes(self):
        gate = onestep_cnot(refined=True)
        nm = NoiseModel.from_reduced()
        rep = report(gate.params, target_gate("CNOT"), nm)
        d = rep.to_dict()
        assert d["target"] == "CNOT"
        assert 0.0 < d["purity_loss"] < 1.0
        assert d["params"]["delta2"] == 1.5
        assert d["noise"]["alpha"] == 0.01

    def test_fidelity_distance_relation(self, rng):
        cnot = target_gate("CNOT")
        for _ in range(20):
            u = random_unitary(rng)
            _, opt = gate_distance(u, cnot)
            f = fidelity_score(u, cnot)
            assert opt**2 == pytest.approx(8.0 * (1.0 - f), abs=1e-9)

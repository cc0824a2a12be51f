import numpy as np
import pytest
from scipy.linalg import expm

from degengate import (
    LogBranch,
    NoiseModel,
    build_hamiltonian,
    classify_degeneracy,
    cnot_class_params,
    cnot_class_pulse,
    cnot_log_family,
    eigensystem,
    gate_distance,
    makhlin_invariants,
    onestep_bgate,
    onestep_cnot,
    protocol_comparison,
    refine_bgate,
    standard_cnot_protocol,
    target_gate,
)
from degengate.constructions import comparison_noise, log_branch_commutator
from degengate.errors import InvalidParameterError
from degengate.pauli import pauli_tensor


class TestTargets:
    def test_cnot_is_printed_permutation(self):
        cnot = target_gate("CNOT").matrix
        expected = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        np.testing.assert_array_equal(cnot, expected)

    def test_identity(self):
        np.testing.assert_array_equal(target_gate("IDENTITY").matrix, np.eye(4))

    def test_swap_from_heisenberg_exponential(self):
        # exp(-i (pi/4)(sigma.sigma - 1)) reproduces SWAP up to global phase.
        heis = sum(pauli_tensor(a, a) for a in ("x", "y", "z"))
        u = expm(-1j * (np.pi / 4.0) * (heis - np.eye(4)))
        _, opt = gate_distance(u, target_gate("SWAP"))
        assert opt < 1e-12

    def test_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            target_gate("TOFFOLI")

    def test_all_targets_unitary(self):
        for name in ("CNOT", "SWAP", "SQRT_SWAP", "B", "IDENTITY", "SQRT_CNOT", "QFT2"):
            m = target_gate(name).matrix
            np.testing.assert_allclose(m.conj().T @ m, np.eye(4), atol=1e-12)


class TestLogFamily:
    def test_principal_branch(self):
        h = cnot_log_family(LogBranch())
        u = expm(-1j * h)
        assert np.max(np.abs(u - target_gate("CNOT").matrix)) < 1e-12

    def test_random_branches_reproduce_cnot(self, rng):
        cnot = target_gate("CNOT").matrix
        for _ in range(100):
            branch = LogBranch(
                n1=int(rng.integers(-3, 4)),
                n2=int(rng.integers(-3, 4)),
                n3=int(rng.integers(-3, 4)),
                phi0=float(rng.uniform(-np.pi, np.pi)),
                phi_vec=tuple(rng.uniform(-np.pi, np.pi, 3)),
                phi1=float(rng.uniform(-np.pi, np.pi)),
            )
            h = cnot_log_family(branch)
            np.testing.assert_allclose(h, h.conj().T, atol=1e-10)
            u = expm(-1j * h)
            assert np.max(np.abs(u - np.exp(-1j * branch.phi0) * cnot)) < 1e-9

    def test_branch_pieces_commute(self, rng):
        for _ in range(50):
            branch = LogBranch(
                n1=int(rng.integers(-3, 4)),
                n2=int(rng.integers(-3, 4)),
                n3=int(rng.integers(-3, 4)),
                phi0=float(rng.uniform(-np.pi, np.pi)),
            )
            assert log_branch_commutator(branch) < 1e-12


class TestOneStepCnot:
    def test_refined_exact(self):
        gate = onestep_cnot(refined=True)
        _, opt = gate_distance(gate.unitary(), target_gate("CNOT"))
        assert opt < 1e-10
        # the advertised global phase: exp(-i pi/4 - i t0 H) equals CNOT
        u = np.exp(1j * gate.global_phase) * gate.unitary()
        assert np.max(np.abs(u - target_gate("CNOT").matrix)) < 1e-10

    def test_printed_rounding_gap(self):
        # The published rounding -0.66 leaves a quantifiable gap: the
        # closed-form distance is sqrt(8 - 2(2 + 2 cos(pi(2 - sqrt(
        # 1.32^2 + 1.5^2))))) = 8.445e-3.
        gate = onestep_cnot(refined=False)
        _, opt = gate_distance(gate.unitary(), target_gate("CNOT"))
        assert opt == pytest.approx(0.00844547854855841, abs=1e-9)
        assert opt < 1e-2

    def test_degeneracy_classification(self):
        refined = onestep_cnot(refined=True)
        es = eigensystem(build_hamiltonian(refined.params))
        assert classify_degeneracy(es, 1e-6 * np.pi).classification == "single"
        printed = onestep_cnot(refined=False)
        es_p = eigensystem(build_hamiltonian(printed.params))
        assert classify_degeneracy(es_p, 1e-2 * np.pi).classification == "single"

    def test_expected_spectrum(self):
        gate = onestep_cnot(refined=True)
        es = eigensystem(build_hamiltonian(gate.params))
        np.testing.assert_allclose(
            es.energies / np.pi, gate.notes["expected_energies_reduced"], atol=1e-12
        )


class TestFiveStepProtocol:
    def test_product_is_cnot_up_to_phase(self):
        for amplitude in (0.1, 0.2, 0.5, 2.0):
            seq = standard_cnot_protocol(amplitude)
            _, opt = gate_distance(seq.unitary(), target_gate("CNOT"))
            assert opt < 1e-10

    def test_durations_scale_with_amplitude(self):
        assert standard_cnot_protocol(0.2).total_duration == pytest.approx(8.75)
        assert standard_cnot_protocol(0.4).total_duration == pytest.approx(4.375)

    def test_step_hamiltonians_reproduce_steps(self):
        seq = standard_cnot_protocol(0.2)
        for step in seq.steps:
            u_from_h = expm(-1j * step.duration * step.hamiltonian())
            np.testing.assert_allclose(u_from_h, step.unitary(), atol=1e-12)

    def test_printed_z_angles_do_not_give_cnot(self):
        # The z rotations as printed (angle pi/2) miss CNOT by a finite
        # distance; the corrected pi/4 angles are required.
        from degengate.pauli import SX2, SZ1, SZ2

        hd = (SX2 + SZ2) / np.sqrt(2.0)
        u = (
            expm(-1j * np.pi / 2 * hd)
            @ expm(-1j * np.pi / 2 * SZ1)
            @ expm(-1j * np.pi / 2 * SZ2)
            @ expm(-1j * np.pi / 4 * SZ1 @ SZ2)
            @ expm(-1j * np.pi / 2 * hd)
        )
        _, opt = gate_distance(u, target_gate("CNOT"))
        assert opt > 1.0

    def test_amplitude_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            standard_cnot_protocol(0.0)

    def test_comparison_ratios(self):
        comp = protocol_comparison()
        assert 0.10 <= comp["duration_ratio"] <= 0.25
        assert 5.0 <= comp["loss_ratio"] <= 20.0

    def test_noiseless_comparison_is_exact(self):
        # Both losses are exactly 0 by rule, so the ratio is inf by rule too.
        comp = protocol_comparison(comparison_noise(alpha=0.0))
        assert comp["onestep_loss"] == comp["fivestep_loss"] == 0.0
        assert comp["loss_ratio"] == np.inf


class TestClassPulse:
    def test_degenerate_limit(self):
        params = cnot_class_params(1.0, 1.0)
        assert params.jy == pytest.approx(params.jz)
        assert params.jy == pytest.approx(1.0)

    def test_double_degeneracy_exact(self, rng):
        for _ in range(20):
            delta = rng.uniform(0.3, 1.5)
            j = delta * rng.uniform(1.0, 3.0)
            params = cnot_class_params(j, delta)
            assert params.jy * params.jz == pytest.approx(delta**2, abs=1e-12)
            rep = classify_degeneracy(eigensystem(build_hamiltonian(params)), 1e-9)
            assert rep.classification == "double"

    def test_pulse_keeps_unscaled_params(self):
        # The class time scale goes into gate_time; the couplings stay at t0 = 1.
        gate = cnot_class_pulse(2.0, 1.0)
        assert gate.params == cnot_class_params(2.0, 1.0)
        assert gate.gate_time == gate.notes["time_scale"]

    def test_invariant_gap_shrinks_with_coupling(self):
        # The time-scale search cannot land exactly on (0, 1): the
        # one-parameter invariant curve of the equal-Delta manifold only
        # approaches the CNOT class as J/Delta grows.
        gaps = [cnot_class_pulse(r, 1.0).notes["invariant_gap"] for r in (1.5, 2.0, 3.0)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[1] == pytest.approx(0.04, abs=5e-3)
        u = cnot_class_pulse(2.0, 1.0).unitary()
        inv = makhlin_invariants(u)
        assert abs(inv.g1.imag) < 1e-8  # real G1 on the degenerate manifold

    def test_printed_signs_break_degeneracy(self):
        params = cnot_class_params(2.0, 1.0, printed_signs=True)
        assert abs(params.jy * params.jz - 1.0) > 0.5

    def test_domain_error(self):
        for build in (cnot_class_params, cnot_class_pulse):
            with pytest.raises(InvalidParameterError):
                build(0.5, 1.0)


class TestBGate:
    def test_printed_parameters_near_manifold(self):
        gate = onestep_bgate(refined=False)
        assert abs(gate.params.jy * gate.params.jz - 1.0) == pytest.approx(8.2e-3, abs=5e-4)

    def test_refined_double_degenerate(self):
        gate = onestep_bgate(refined=True)
        rep = classify_degeneracy(eigensystem(build_hamiltonian(gate.params)), 1e-9)
        assert rep.classification == "double"
        assert rep.pair_gap_measure < 1e-9

    def test_polish_reaches_b_class(self):
        gate = refine_bgate()
        assert gate.notes["invariant_gap"] < 1e-4
        inv = makhlin_invariants(gate.unitary())
        assert abs(inv.g1) + abs(inv.g2) < 1e-4
        # still exactly on the double-degeneracy manifold
        assert gate.params.jy * gate.params.jz == pytest.approx(1.0, abs=1e-12)
        # and a genuinely local correction of the published point
        assert gate.params.jy == pytest.approx(0.6436, abs=2e-3)
        assert gate.notes["time_scale"] == pytest.approx(1.0808, abs=2e-3)

    def test_purity_rates_suppressed_at_b_point(self):
        # The refined point has a lower decay rate than any same-|J|
        # degeneracy-breaking neighbor (tested thoroughly in acceptance).
        from degengate import degeneracy_break_probe

        nm0 = NoiseModel.from_reduced(alpha=0.01, temperature=0.0)
        worse, total, worst = degeneracy_break_probe(
            onestep_bgate().params, "double", nm0, draws=25
        )
        assert worse == total == 25
        assert worst > 1.0

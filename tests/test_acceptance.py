"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines. Every tolerance is pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest
from scipy.linalg import expm

from degengate import (
    HamiltonianParams,
    NoiseModel,
    build_hamiltonian,
    calibrate,
    classify_degeneracy,
    degeneracy_break_probe,
    eigensystem,
    fig1_grid,
    gate_distance,
    gate_purity,
    initial_product_states,
    makhlin_invariants,
    onestep_bgate,
    onestep_cnot,
    propagate,
    protocol_comparison,
    refine_bgate,
    relax_time_check,
    sensitivity,
    sweep,
    target_gate,
)
from degengate.cli import main
from degengate.redfield import RELAXATION_NORMALIZATION, _pipeline, DensityMatrix

from conftest import random_local_unitary, random_params


def verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:>2}] {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


class TestCriterion1ExactCnot:
    def test_refined_construction_exact(self):
        start = time.time()
        gate = onestep_cnot(refined=True)
        _, dist = gate_distance(gate.unitary(), target_gate("CNOT"))
        elapsed = time.time() - start
        verdict(
            "1a",
            dist < 1e-10 and elapsed < 1.0,
            f"refined one-step CNOT phase-optimized distance {dist:.2e} "
            f"(< 1e-10), {elapsed:.2f}s",
        )

    @pytest.mark.xfail(
        strict=True,
        reason="stated bound 5e-3 is arithmetically unattainable: the printed "
        "rounding eps2 = Jz = -0.66 gives exactly sqrt(8 - 2(2 + 2 cos(pi (2 "
        "- sqrt(1.32^2 + 1.5^2))))) = 8.446e-3; see the decisions ledger",
    )
    def test_printed_rounding_bound_as_stated(self):
        gate = onestep_cnot(refined=False)
        _, dist = gate_distance(gate.unitary(), target_gate("CNOT"))
        verdict(
            "1b",
            dist < 5e-3,
            f"printed rounding distance {dist:.4e} vs stated bound 5e-3 "
            f"(true value 8.446e-3 < 1e-2)",
        )


class TestCriterion2SpectralClaims:
    def test_spectral_degeneracies(self, rng):
        start = time.time()
        es = eigensystem(build_hamiltonian(onestep_cnot().params))
        rep = classify_degeneracy(es, 1e-9 * np.pi)
        ok = rep.classification == "single" and rep.min_gap / np.pi < 1e-9

        es_b = eigensystem(build_hamiltonian(onestep_bgate().params))
        rep_b = classify_degeneracy(es_b, 1e-9 * np.pi)
        ok = ok and rep_b.classification == "double"
        ok = ok and rep_b.pair_gap_measure / np.pi < 1e-9

        worst = 0.0
        for _ in range(100):
            delta = rng.uniform(0.2, 1.8)
            jy = rng.uniform(0.1, 2.5)
            p = HamiltonianParams(delta1=delta, delta2=delta, jy=jy, jz=delta**2 / jy)
            r = classify_degeneracy(eigensystem(build_hamiltonian(p)), 1e-9 * np.pi)
            worst = max(worst, r.pair_gap_measure / np.pi)
            ok = ok and r.classification == "double"
        elapsed = time.time() - start
        verdict(
            2,
            ok and elapsed < 1.0,
            f"CNOT single (gap {rep.min_gap / np.pi:.1e}), B double (pair gap "
            f"{rep_b.pair_gap_measure / np.pi:.1e}), 100 Eq.(17) points double "
            f"(worst pair gap {worst:.1e}); {elapsed:.2f}s",
        )


class TestCriterion3MakhlinSuite:
    def test_makhlin_suite(self, rng):
        start = time.time()
        inv = makhlin_invariants(target_gate("CNOT"))
        ok = abs(inv.g1) < 1e-12 and abs(inv.g2 - 1.0) < 1e-12
        inv = makhlin_invariants(target_gate("B"))
        ok = ok and abs(inv.g1) < 1e-12 and abs(inv.g2) < 1e-12
        inv = makhlin_invariants(target_gate("SQRT_SWAP"))
        ok = ok and abs(abs(inv.g1) - 0.25) < 1e-12 and abs(inv.g1.real) < 1e-12
        inv = makhlin_invariants(target_gate("IDENTITY"))
        ok = ok and abs(inv.g1 - 1.0) < 1e-12 and abs(inv.g2 - 3.0) < 1e-12

        cnot = target_gate("CNOT").matrix
        base = makhlin_invariants(cnot)
        drift = 0.0
        for _ in range(10_000):
            u = random_local_unitary(rng) @ cnot @ random_local_unitary(rng)
            drift = max(drift, makhlin_invariants(u).distance(base))
        ok = ok and drift < 1e-8

        worst_imag = 0.0
        for _ in range(1000):
            delta = rng.uniform(0.2, 1.5)
            jy = rng.uniform(0.1, 2.5)
            scale = rng.uniform(0.1, 3.0)
            p = HamiltonianParams(delta1=delta, delta2=delta, jy=jy, jz=delta**2 / jy)
            g1 = makhlin_invariants(expm(-1j * scale * build_hamiltonian(p))).g1
            worst_imag = max(worst_imag, abs(g1.imag))
        ok = ok and worst_imag < 1e-8
        elapsed = time.time() - start
        verdict(
            3,
            ok and elapsed < 30.0,
            f"target invariants exact; 1e4-conjugation drift {drift:.1e} < 1e-8; "
            f"max |Im G1| on 1e3 double-degenerate evolutions {worst_imag:.1e} "
            f"< 1e-8; {elapsed:.1f}s",
        )


class TestCriterion4RedfieldPhysics:
    def test_redfield_physics(self, rng):
        start = time.time()
        ok = True
        worst_trace, worst_herm = 0.0, 0.0
        for k in range(100):
            p = random_params(rng, scale=1.2)
            temperature = float(rng.choice([0.0, 0.2, 1.0]))
            nm = NoiseModel.from_reduced(alpha=0.01, temperature=temperature)
            trace = gate_purity(p, nm, t_final=1.0)  # propagator check enforced inside
            ok = ok and np.all(trace.average <= 1.0 + 1e-9)
            ok = ok and np.all(trace.average >= 1.0 / 16.0 - 1e-9)

        # long-horizon trace/Hermiticity checks on a subset
        nm = NoiseModel.from_reduced()
        for k in range(8):
            p = random_params(rng, scale=1.2)
            es, tensor, _ = _pipeline(p, nm)
            rho0 = DensityMatrix(initial_product_states()[k])
            traj = propagate(rho0, es, tensor, t_final=10.0, dt=5e-4,
                             eigen_floor=-(1e-6 + 0.02 * nm.alpha))
            for idx in range(0, len(traj.times), 4000):
                m = traj.matrices[idx]
                worst_trace = max(worst_trace, abs(np.trace(m).real - 1.0))
                worst_herm = max(worst_herm, float(np.max(np.abs(m - m.conj().T))))
        ok = ok and worst_trace < 1e-8 and worst_herm < 1e-8

        chk = relax_time_check(np.pi, NoiseModel(alpha=0.01, temperature=0.0, cutoff=100.0))
        pinned = chk.fitted_rate / (RELAXATION_NORMALIZATION * chk.analytic_rate)
        ok = ok and abs(pinned - 1.0) < 0.02
        elapsed = time.time() - start
        verdict(
            4,
            ok and elapsed < 120.0,
            f"100 random configs: purity bounds held, propagator check < 1e-8 "
            f"enforced; long-run max trace dev {worst_trace:.1e}, Hermiticity "
            f"dev {worst_herm:.1e}; 1/T1 matches pinned (pi/2)S(Delta) to "
            f"{abs(pinned - 1.0):.3%}; {elapsed:.0f}s",
        )


class TestCriterion5Fig1Landscape:
    def test_landscape_minimum_at_double_degeneracy(self):
        start = time.time()
        grid = fig1_grid(n=41)
        nm0 = NoiseModel.from_reduced(alpha=0.01, temperature=0.0)
        res = sweep(grid, nm0)

        argmin = res.argmin_cells(1e-12)
        mingap = res.min_pair_gap_cells(1e-12)
        ok = argmin == mingap and len(argmin) == 1

        # lowest-pair (ground) degenerate cells beat the non-degenerate median
        tol = 0.1
        feas = res.feasible
        ground_single = feas & (res.ground_gap < tol) & (res.pair_gap > tol)
        non_deg = feas & (res.min_gap > tol)
        ok = ok and ground_single.sum() > 0
        median_single = np.median(res.decay_rate[ground_single])
        median_none = np.median(res.decay_rate[non_deg])
        ok = ok and bool(median_single < median_none)
        elapsed = time.time() - start
        verdict(
            5,
            ok and elapsed < 300.0,
            f"argmin cell {sorted(argmin)} == min-double-gap cell; "
            f"ground-degenerate median rate {median_single:.4g} < "
            f"non-degenerate median {median_none:.4g} "
            f"({int(ground_single.sum())} vs {int(non_deg.sum())} cells); "
            f"{elapsed:.0f}s",
        )


class TestCriterion6ProtocolComparison:
    def test_onestep_vs_fivestep(self):
        start = time.time()
        comp = protocol_comparison()
        ratio = comp["loss_ratio"]
        duty = comp["duration_ratio"]
        ok = 5.0 <= ratio <= 20.0 and 0.10 <= duty <= 0.25
        elapsed = time.time() - start
        verdict(
            6,
            ok and elapsed < 60.0,
            f"five-step/one-step purity-loss ratio {ratio:.2f} in [5, 20]; "
            f"duration ratio {duty:.1%} in [10%, 25%]; {elapsed:.0f}s",
        )


class TestCriterion7DeviceEstimates:
    def test_calibrated_losses(self, tmp_path):
        start = time.time()
        code = main(
            ["calibrate", "--experiment", "paper:calibration", "--out", str(tmp_path)]
        )
        with open(tmp_path / "calibration_report.json") as fh:
            payload = json.load(fh)
        ok = code == 0
        ok = ok and 0.005 <= payload["alpha"] <= 0.02
        loss_b = payload["purity_loss_bgate"]
        loss_c = payload["purity_loss_cnot_class"]
        ok = ok and 0.03 * 0.7 <= loss_b <= 0.03 * 1.3
        ok = ok and 0.15 * 0.7 <= loss_c <= 0.15 * 1.3
        elapsed = time.time() - start
        verdict(
            7,
            ok and elapsed < 60.0,
            f"alpha {payload['alpha']:.4f} (~0.01 x2); 1-P_B {loss_b:.4f} "
            f"(0.03 +-30%); 1-P_CNOT {loss_c:.4f} (0.15 +-30%); {elapsed:.0f}s",
        )


class TestCriterion8Sensitivity:
    def test_tolerance_radii(self):
        start = time.time()
        cal = calibrate(10.0, 0.1)

        rep_cnot = sensitivity(
            onestep_cnot().params, cal.noise, budget=1e-4, target=target_gate("CNOT")
        )
        ok = not rep_cnot.non_optimal
        ok = ok and 0.0015 <= rep_cnot.radius <= 0.006

        b_gate, _ = refine_bgate()
        rep_b = sensitivity(
            b_gate.params, cal.noise, budget=1e-4, gate_time=b_gate.gate_time
        )
        ok = ok and 0.0015 <= rep_b.radius <= 0.006

        # quadratic scaling of the excess (coherent channel isolated at alpha=0)
        params = onestep_cnot().params
        u0 = expm(-1j * build_hamiltonian(params))

        def excess(rel):
            p = params.replace(delta2=params.delta2 * (1 + rel))
            u = expm(-1j * build_hamiltonian(p))
            return 1.0 - abs(np.trace(u0.conj().T @ u)) / 4.0

        scaling = excess(0.002) / excess(0.001)
        ok = ok and abs(scaling - 4.0) < 0.8
        elapsed = time.time() - start
        verdict(
            8,
            ok and elapsed < 120.0,
            f"radius(CNOT) {rep_cnot.radius:.2%}, radius(B) {rep_b.radius:.2%} "
            f"(0.3% within factor 2); halving detuning scales excess by "
            f"{scaling:.2f} (quadratic); {elapsed:.0f}s",
        )


class TestCriterion9SubstituteProperty:
    def test_strict_local_minima(self):
        # The published 2.3x/25x/60x (Heisenberg protocol) and 56%/4.5x/8x
        # (two-application B protocol) comparisons are not independently
        # reproducible (reference parameters absent) and are excluded;
        # the substitute property: each degeneracy-tuned optimum is a strict
        # local minimum of |dP/dt| against 100 random 10%-radius
        # degeneracy-breaking perturbations in its landscape family
        # (fixed local fields and fixed |J|, jx closed non-negative).
        start = time.time()
        nm0 = NoiseModel.from_reduced(alpha=0.01, temperature=0.0)
        worse_c, total_c, worst_c = degeneracy_break_probe(
            onestep_cnot().params, "single", nm0, draws=100, seed=11
        )
        worse_b, total_b, worst_b = degeneracy_break_probe(
            onestep_bgate().params, "double", nm0, draws=100, seed=13
        )
        ok = worse_c == total_c == 100 and worse_b == total_b == 100
        ok = ok and worst_c > 1.0 and worst_b > 1.0
        elapsed = time.time() - start
        verdict(
            9,
            ok,
            f"CNOT point: 100/100 perturbations strictly worse (min ratio "
            f"{worst_c:.3f}); B point: 100/100 (min ratio {worst_b:.3f}); "
            f"{elapsed:.0f}s",
        )


class TestCriterion10Determinism:
    def _run_twice(self, tmp_path, name, argv):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            code = main([*argv, "--out", str(out)])
            assert code == 0, f"{name} run failed"
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir())
        for fname in files:
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b, f"{name}/{fname} differs between reruns"
        return files

    def test_experiments_byte_reproducible(self, tmp_path):
        start = time.time()
        self._run_twice(tmp_path, "cnot", ["purity", "--experiment", "paper:cnot"])
        self._run_twice(tmp_path, "bgate", ["purity", "--experiment", "paper:bgate"])
        self._run_twice(tmp_path, "fig2", ["purity", "--experiment", "paper:fig2"])
        self._run_twice(
            tmp_path, "calib", ["calibrate", "--experiment", "paper:calibration"]
        )
        # sweep must also be independent of the thread count
        out1 = tmp_path / "fig1_t1"
        out4 = tmp_path / "fig1_t4"
        assert main(["sweep", "--experiment", "paper:fig1", "--threads", "1",
                     "--out", str(out1)]) == 0
        assert main(["sweep", "--experiment", "paper:fig1", "--threads", "4",
                     "--out", str(out4)]) == 0
        for fname in ("sweep.csv", "sweep_summary.json"):
            assert (out1 / fname).read_bytes() == (out4 / fname).read_bytes()
        elapsed = time.time() - start
        verdict(
            10,
            True,
            f"all bundled experiments byte-identical across reruns and thread "
            f"counts; {elapsed:.0f}s",
        )

import numpy as np
import pytest

from degengate import (
    HamiltonianParams,
    NoiseModel,
    SearchSpec,
    SweepGrid,
    calibrate,
    degeneracy_break_probe,
    fig1_grid,
    initial_purity_slope,
    onestep_bgate,
    onestep_cnot,
    optimize,
    sensitivity,
    relax_time_check,
    sweep,
)
from degengate.errors import InvalidParameterError, StateValidityError

DESK = NoiseModel.from_reduced()


class TestOptimize:
    def test_spec_validation(self):
        with pytest.raises(InvalidParameterError):
            SearchSpec(target="CNOT", bounds={"nope": (0, 1)})
        with pytest.raises(InvalidParameterError):
            SearchSpec(target="CNOT", bounds={"jz": (1.0, 0.0)})
        with pytest.raises(InvalidParameterError):
            SearchSpec(target="CNOT", bounds={"jz": (0, 1)}, frozen={"jz": 0.5})
        with pytest.raises(InvalidParameterError):
            SearchSpec(target="CNOT", bounds={"jz": (0, 1)}, restarts=0)
        with pytest.raises(InvalidParameterError):
            SearchSpec(target="CNOT", bounds={"jz": (0, 1)}, max_iter=0)
        with pytest.raises(InvalidParameterError):
            SearchSpec(target="CNOT", bounds={})

    def test_swap_recovery_heisenberg(self):
        spec = SearchSpec(
            target="SWAP",
            bounds={"jx": (0.05, 0.5), "jy": (0.05, 0.5), "jz": (0.05, 0.5)},
            frozen={"delta1": 0, "delta2": 0, "eps1": 0, "eps2": 0},
            seed=5,
            restarts=6,
            max_iter=600,
        )
        res = optimize(spec, DESK)
        assert res.converged
        assert res.report.distance_phase_opt < 1e-6
        for name in ("jx", "jy", "jz"):
            assert getattr(res.params, name) == pytest.approx(0.25, abs=1e-5)

    def test_cnot_recovery_with_single_constraint(self):
        spec = SearchSpec(
            target="CNOT",
            bounds={
                "delta2": (1.0, 2.0),
                "eps1": (-0.5, 0.0),
                "eps2": (-1.0, -0.3),
                "jz": (-1.0, -0.3),
            },
            frozen={"delta1": 0.0, "jx": 0.0, "jy": 0.0},
            degeneracy="single",
            purity_weight=0.5,
            seed=3,
            restarts=8,
            max_iter=800,
        )
        res = optimize(spec, DESK)
        assert res.converged and res.report.distance_phase_opt < 1e-6
        ref_rate = abs(initial_purity_slope(onestep_cnot().params, DESK))
        assert res.report.decay_rate == pytest.approx(ref_rate, rel=0.10)
        # penalty consistency: the recovered optimum closes its constrained
        # pair to well under 1e-6 (it sits on the exact degeneracy point)
        from degengate import build_hamiltonian, classify_degeneracy, eigensystem

        rep = classify_degeneracy(eigensystem(build_hamiltonian(res.params)), 1e-6)
        assert rep.min_gap / np.pi < 1e-6

    def test_sqrt_swap_under_double_constraint_fails(self):
        spec = SearchSpec(
            target="SQRT_SWAP",
            bounds={"jy": (0.2, 3.0), "jz": (0.2, 3.0)},
            frozen={"delta1": 1.0, "delta2": 1.0, "jx": 0.0},
            degeneracy="double",
            seed=7,
            restarts=6,
            max_iter=400,
        )
        res = optimize(spec, DESK)
        assert not res.converged
        assert res.invariant_gap >= 0.1

    def test_deterministic_under_seed(self):
        spec = SearchSpec(
            target="SWAP",
            bounds={"jx": (0.05, 0.5), "jy": (0.05, 0.5), "jz": (0.05, 0.5)},
            frozen={"delta1": 0, "delta2": 0, "eps1": 0, "eps2": 0},
            seed=9,
            restarts=4,
            max_iter=200,
        )
        r1, r2 = optimize(spec, DESK), optimize(spec, DESK)
        assert r1.objective == r2.objective
        assert r1.params == r2.params
        assert r1.objective_history == r2.objective_history

    def test_history_monotone(self):
        spec = SearchSpec(
            target="SWAP",
            bounds={"jx": (0.05, 0.5), "jy": (0.05, 0.5), "jz": (0.05, 0.5)},
            frozen={"delta1": 0, "delta2": 0, "eps1": 0, "eps2": 0},
            seed=2,
            restarts=5,
            max_iter=150,
        )
        res = optimize(spec, DESK)
        hist = res.objective_history
        assert all(hist[k + 1] <= hist[k] + 1e-15 for k in range(len(hist) - 1))

    def test_double_constraint_optimum_on_manifold(self):
        # With the double constraint active, the returned point closes both
        # pair gaps to the penalty's precision.
        spec = SearchSpec(
            target="CNOT",
            bounds={"jy": (0.2, 3.0), "jz": (0.2, 3.0)},
            frozen={"delta1": 1.0, "delta2": 1.0, "jx": 0.0},
            degeneracy="double",
            seed=1,
            restarts=6,
            max_iter=500,
            distance_threshold=1.0,  # class gate: exact distance not expected
        )
        res = optimize(spec, DESK)
        from degengate import build_hamiltonian, classify_degeneracy, eigensystem

        rep = classify_degeneracy(eigensystem(build_hamiltonian(res.params)), np.pi * 1e-3)
        assert rep.pair_gap_measure / np.pi < 1e-3


class TestSweep:
    @pytest.mark.parametrize("axis", ["values1", "values2"])
    def test_empty_axis_rejected(self, axis):
        values = {"values1": [0.5, 1.0], "values2": [0.5, 1.0], axis: []}
        with pytest.raises(InvalidParameterError):
            SweepGrid(param1="jy", param2="jz", **values)

    def test_zero_noise_zero_rates(self):
        grid = SweepGrid(
            param1="jy",
            param2="jz",
            values1=np.linspace(0.5, 1.5, 3),
            values2=np.linspace(0.5, 1.5, 3),
            fixed={"delta1": 1.0, "delta2": 1.0},
        )
        res = sweep(grid, NoiseModel(alpha=0.0, temperature=0.0, cutoff=60.0))
        assert np.all(res.feasible)
        np.testing.assert_allclose(res.decay_rate, 0.0, atol=1e-14)

    def test_infeasible_cells_marked(self):
        grid = SweepGrid(
            param1="jy",
            param2="jz",
            values1=np.array([0.5, 2.5]),
            values2=np.array([0.5, 2.5]),
            fixed={"delta1": 1.0, "delta2": 1.0},
            closure="jx_from_norm",
            coupling_norm=1.5,
        )
        res = sweep(grid, DESK)
        assert res.feasible[0, 0]
        assert not res.feasible[1, 1]
        assert "infeasible" in res.reason[1, 1]
        assert np.isnan(res.decay_rate[1, 1])

    def test_no_feasible_cell_has_no_argmin(self):
        grid = SweepGrid(
            param1="jy",
            param2="jz",
            values1=np.linspace(3.0, 4.0, 3),
            values2=np.linspace(3.0, 4.0, 3),
            closure="jx_from_norm",
            coupling_norm=1.0,
        )
        res = sweep(grid, DESK)
        assert not res.feasible.any()
        assert res.argmin_cells() == set()
        assert res.min_pair_gap_cells() == set()

    def test_fig1_argmin_on_degeneracy(self):
        # Coarser version of the published landscape: the rate minimum and
        # the double-degeneracy-gap minimum land on the same cell.
        grid = fig1_grid(n=21)
        nm0 = NoiseModel.from_reduced(alpha=0.01, temperature=0.0)
        res = sweep(grid, nm0)
        assert res.argmin_cells(1e-12) == res.min_pair_gap_cells(1e-12)

    def test_programming_error_propagates(self, monkeypatch):
        import degengate.search as search_mod

        def broken(params, nm):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr(search_mod, "initial_purity_slope", broken)
        with pytest.raises(TypeError):
            sweep(fig1_grid(n=3), DESK)

    def test_numerical_failure_marks_cell(self, monkeypatch):
        import degengate.search as search_mod

        def invalid(params, nm):
            raise StateValidityError("trace deviates from 1", state_index=3)

        monkeypatch.setattr(search_mod, "initial_purity_slope", invalid)
        res = sweep(fig1_grid(n=3), DESK)
        failed = np.array([str(r).startswith("error: trace deviates") for r in res.reason.flat])
        assert failed.any()
        closure = np.array([str(r).startswith("infeasible") for r in res.reason.flat])
        assert np.all(failed | closure)
        assert not res.feasible.any()
        assert np.all(np.isnan(res.decay_rate))

    def test_records_roundtrip(self):
        grid = fig1_grid(n=5)
        res = sweep(grid, DESK)
        records = res.to_records()
        assert len(records) == 25
        assert {"jy", "jz", "feasible", "dpdt0", "degeneracy_class"} <= set(records[0])


class TestSensitivity:
    def test_radius_at_cnot_optimum(self):
        from degengate import target_gate

        cal = calibrate(10.0, 0.1)
        rep = sensitivity(
            onestep_cnot().params, cal.noise, budget=1e-4, target=target_gate("CNOT")
        )
        assert not rep.non_optimal
        assert 0.0015 <= rep.radius <= 0.006
        # at a true optimum the coherent linear term contributes < 1e-3 of
        # the quadratic term's contribution at the tolerance radius
        for name, radius in rep.radii.items():
            lin = abs(rep.coherent_linear[name]) * radius
            quad = rep.quadratic[name] * radius**2
            assert lin < 1e-3 * quad

    @pytest.mark.parametrize("options", [
        {"rel_step": 0.0}, {"rel_step": -2e-3}, {"rel_step": np.nan}, {"rel_step": np.inf},
        {"budget": -1e-4}, {"budget": np.nan}, {"budget": np.inf},
    ], ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
    def test_bad_step_or_budget_rejected(self, options):
        with pytest.raises(InvalidParameterError):
            sensitivity(onestep_cnot().params, DESK, **options)

    def test_zero_budget_zero_radius(self):
        nm0 = NoiseModel(alpha=0.0, temperature=0.0, cutoff=60.0)
        rep = sensitivity(onestep_cnot().params, nm0, budget=0.0)
        assert rep.radius == 0.0

    def test_quadratic_scaling_of_coherent_error(self):
        # Halving the detuning quarters the excess loss (noise off isolates
        # the coherent channel).
        from scipy.linalg import expm

        from degengate import build_hamiltonian

        params = onestep_cnot().params
        u0 = expm(-1j * build_hamiltonian(params))

        def coherent(rel):
            p = params.replace(delta2=params.delta2 * (1 + rel))
            u = expm(-1j * build_hamiltonian(p))
            return 1.0 - abs(np.trace(u0.conj().T @ u)) / 4.0

        e1, e2 = coherent(0.002), coherent(0.001)
        assert e1 / e2 == pytest.approx(4.0, rel=0.2)

    def test_non_optimal_point_flagged(self):
        from degengate import target_gate

        nm0 = NoiseModel(alpha=0.0, temperature=0.0, cutoff=60.0)
        off = onestep_cnot().params.replace(delta2=1.4)
        rep = sensitivity(off, nm0, budget=1e-4, target=target_gate("CNOT"))
        assert rep.non_optimal
        exact = sensitivity(onestep_cnot().params, nm0, budget=1e-4,
                            target=target_gate("CNOT"))
        assert not exact.non_optimal


class TestCalibrate:
    def test_device_point(self):
        cal = calibrate(10.0, 0.1)
        # within a factor of two of the published alpha ~ 0.01
        assert 0.005 <= cal.alpha <= 0.02
        assert not cal.flagged

    def test_zero_rate(self):
        cal = calibrate(10.0, 0.0)
        assert cal.alpha == 0.0

    def test_round_trip(self):
        # calibrate -> relax_time_check reproduces the input 1/T1 within 5%.
        cal = calibrate(10.0, 0.1)
        machine = NoiseModel(
            alpha=cal.alpha,
            temperature=cal.temperature_machine,
            cutoff=20.0 * cal.energy_unit_ghz,
        )
        chk = relax_time_check(cal.energy_unit_ghz, machine)
        assert chk.fitted_rate == pytest.approx(0.1, rel=0.05)

    def test_kelvin_conversion(self):
        cal = calibrate(10.0, 0.1, temperature_kelvin=0.1)
        assert cal.temperature_machine == pytest.approx(2.0836619, rel=1e-6)
        assert cal.noise.temperature / np.pi == pytest.approx(0.20836619, rel=1e-6)

    def test_strong_coupling_flagged(self):
        with pytest.warns(UserWarning):
            cal = calibrate(10.0, 10.0)
        assert cal.flagged


class TestDegeneracyBreakProbe:
    def test_bgate_local_minimum(self):
        nm0 = NoiseModel.from_reduced(alpha=0.01, temperature=0.0)
        worse, total, worst = degeneracy_break_probe(
            onestep_bgate().params, "double", nm0, draws=30
        )
        assert worse == total
        assert worst > 1.0

    def test_requires_coupling(self):
        nm0 = NoiseModel.from_reduced(alpha=0.01, temperature=0.0)
        with pytest.raises(InvalidParameterError):
            degeneracy_break_probe(HamiltonianParams(delta1=1.0), "double", nm0)

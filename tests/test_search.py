import warnings

import numpy as np
import pytest

from degengate import (
    HamiltonianParams,
    NoiseModel,
    SearchSpec,
    SweepGrid,
    build_hamiltonian,
    calibrate,
    classify_degeneracy,
    degeneracy_break_probe,
    eigensystem,
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
from degengate.redfield import purity_slopes
from degengate.search import SWEEP_CHUNK_CELLS, _spec_params

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

    @pytest.mark.parametrize("norm", [-0.75, -1e-300, np.nan, np.inf])
    def test_bad_coupling_norm_rejected(self, norm):
        with pytest.raises(InvalidParameterError, match="coupling_norm"):
            SearchSpec(target="CNOT", bounds={"jz": (0, 1)}, coupling_norm=norm)

    @pytest.mark.parametrize("name, value", [
        ("purity_weight", -5.0), ("purity_weight", np.nan), ("purity_weight", np.inf),
        ("distance_threshold", 0.0), ("distance_threshold", -1e-6),
        ("distance_threshold", np.nan), ("distance_threshold", np.inf),
    ])
    def test_bad_weight_or_threshold_rejected(self, name, value):
        with pytest.raises(InvalidParameterError, match=name):
            SearchSpec(target="CNOT", bounds={"jz": (0, 1)}, **{name: value})

    def test_coupling_norm_keeps_coupling_signs(self):
        spec = SearchSpec(target="CNOT", bounds={"jx": (0, 1), "jy": (0, 1), "jz": (0, 1)},
                          coupling_norm=0.75)
        p = _spec_params(spec, [0.2, 0.3, 0.4])
        assert p.coupling_norm == pytest.approx(0.75)
        assert min(p.jx, p.jy, p.jz) > 0

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
    @pytest.mark.parametrize("tol", [0.0, -0.1, np.nan, np.inf])
    def test_bad_degeneracy_tol_rejected(self, tol):
        with pytest.raises(InvalidParameterError, match="degeneracy_tol"):
            SweepGrid(param1="jy", param2="jz", values1=[0.5], values2=[0.5], degeneracy_tol=tol)

    @pytest.mark.parametrize("norm", [-1.5, np.nan, np.inf])
    def test_bad_coupling_norm_rejected(self, norm):
        with pytest.raises(InvalidParameterError, match="coupling_norm"):
            SweepGrid(param1="jy", param2="jz", values1=[0.5], values2=[0.5],
                      closure="jx_from_norm", coupling_norm=norm)

    @pytest.mark.parametrize("values", [
        {"values1": [0.5, np.nan]}, {"values2": [np.inf]}, {"fixed": {"delta1": np.nan}},
    ], ids=["nan-axis1", "inf-axis2", "nan-fixed"])
    def test_non_finite_values_rejected(self, values):
        kwargs = {"values1": [0.5], "values2": [0.5], **values}
        with pytest.raises(InvalidParameterError, match="finite"):
            SweepGrid(param1="jy", param2="jz", **kwargs)

    @pytest.mark.parametrize("change, message", [
        ({"param2": "jy"}, "both 'jy'"),
        ({"fixed": {"jz": 1.0}}, "both swept and fixed"),
        ({"param1": "jx", "closure": "jx_from_norm", "coupling_norm": 2.0}, "sets jx"),
        ({"fixed": {"jx": 1.0}, "closure": "jx_from_norm", "coupling_norm": 2.0}, "sets jx"),
    ], ids=["same-axes", "fixed-swept", "closure-swept-jx", "closure-fixed-jx"])
    def test_conflicting_controls_rejected(self, change, message):
        kwargs = {"param1": "jy", "param2": "jz", "values1": [0.5], "values2": [0.5], **change}
        with pytest.raises(InvalidParameterError, match=message):
            SweepGrid(**kwargs)

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
        assert res.argmin_cells() == res.min_pair_gap_cells()

    def test_programming_error_propagates(self, monkeypatch):
        import degengate.search as search_mod

        def broken(energies, vectors, nm):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr(search_mod, "purity_slopes", broken)
        with pytest.raises(TypeError):
            sweep(fig1_grid(n=3), DESK)

    def test_numerical_failure_marks_cell(self, monkeypatch):
        import degengate.search as search_mod

        def invalid(energies, vectors, nm):
            raise StateValidityError("trace deviates from 1", state_index=3)

        monkeypatch.setattr(search_mod, "purity_slopes", invalid)
        res = sweep(fig1_grid(n=3), DESK)
        failed = np.array([str(r).startswith("error: trace deviates") for r in res.reason.flat])
        assert failed.any()
        closure = np.array([str(r).startswith("infeasible") for r in res.reason.flat])
        assert np.all(failed | closure)
        assert not res.feasible.any()
        assert np.all(np.isnan(res.decay_rate))

    @pytest.mark.parametrize("n, i, j, chunk", [(9, 4, 3, 0), (41, 20, 10, 1)],
                             ids=["one-chunk", "later-chunk"])
    def test_linalg_error_marks_only_its_cell(self, monkeypatch, n, i, j, chunk):
        # The failing cell's chunk is redone cell by cell; its neighbours keep
        # their rates and the other chunks never leave the batched path.
        import degengate.search as search_mod

        grid = fig1_grid(n=n)
        rows = SWEEP_CHUNK_CELLS // n
        assert i // rows == chunk
        clean = sweep(grid, DESK)
        assert clean.feasible[i].sum() > 1 and clean.feasible[i, j]
        bad_energies = np.linalg.eigh(search_mod.build_hamiltonians(grid.controls()[0][i, j]))[0]
        calls = []

        def failing(energies, vectors, nm):
            calls.append(len(energies))
            if np.any(np.all(energies == bad_energies, axis=-1)):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return purity_slopes(energies, vectors, nm)

        monkeypatch.setattr(search_mod, "purity_slopes", failing)
        res = sweep(grid, DESK)
        assert res.reason[i, j] == "error: Eigenvalues did not converge"
        assert not res.feasible[i, j] and np.isnan(res.decay_rate[i, j])
        others = np.ones((n, n), dtype=bool)
        others[i, j] = False
        np.testing.assert_array_equal(res.feasible[others], clean.feasible[others])
        np.testing.assert_array_equal(res.reason[others], clean.reason[others])
        np.testing.assert_allclose(res.decay_rate[others], clean.decay_rate[others],
                                   rtol=1e-13, atol=0)
        # one batch per chunk, plus one call per feasible cell of the failing chunk
        n_chunks = -(-n // rows)
        assert len(calls) == n_chunks + clean.feasible[chunk * rows:(chunk + 1) * rows].sum()

    @pytest.mark.parametrize("grid", [
        fig1_grid(),
        SweepGrid(param1="jy", param2="jz", values1=[0.5, 1.0, 1.5],
                  values2=np.linspace(0.48, 2.08, SWEEP_CHUNK_CELLS + 188),
                  fixed={"delta1": 1.0, "delta2": 1.0}, closure="jx_from_norm",
                  coupling_norm=np.sqrt(4.25)),
    ], ids=["fig1", "rows-longer-than-a-chunk"])
    def test_kernel_calls_are_bounded_and_cover_each_cell_once(self, monkeypatch, grid):
        # Kernel memory must not grow with the grid: no call takes more than
        # SWEEP_CHUNK_CELLS cells, and the calls take every feasible cell
        # once, in index order.
        import degengate.search as search_mod

        kernel, seen = search_mod._sweep_cells, []

        def spy(controls, nm, tol):
            seen.append(controls)
            return kernel(controls, nm, tol)

        monkeypatch.setattr(search_mod, "_sweep_cells", spy)
        res = sweep(grid, DESK)
        controls, allowed = grid.controls()
        assert len(seen) > 1
        assert max(len(c) for c in seen) <= SWEEP_CHUNK_CELLS
        np.testing.assert_array_equal(np.concatenate(seen), controls[allowed])
        np.testing.assert_array_equal(res.feasible, allowed)

    def test_fig1_matches_per_cell_reference(self):
        # Reference: every cell on its own through eigensystem,
        # classify_degeneracy and initial_purity_slope.
        grid = fig1_grid()
        nm = NoiseModel.from_reduced(alpha=0.01, temperature=0.0)
        res = sweep(grid, nm)
        tol = grid.degeneracy_tol * np.pi
        for i, v1 in enumerate(grid.values1):
            for j, v2 in enumerate(grid.values2):
                residual = grid.coupling_norm**2 - v1**2 - v2**2
                if residual < 0:
                    assert not res.feasible[i, j] and res.reason[i, j] == "infeasible: |J| closure"
                    assert np.isnan(res.decay_rate[i, j]) and res.classification[i, j] == "none"
                    continue
                params = HamiltonianParams(delta1=1.0, delta2=1.0, jx=np.sqrt(residual),
                                           jy=v1, jz=v2)
                rep = classify_degeneracy(eigensystem(build_hamiltonian(params)), tol)
                assert res.feasible[i, j] and res.reason[i, j] == ""
                assert res.classification[i, j] == rep.classification
                assert res.min_gap[i, j] == rep.min_gap / np.pi
                assert res.pair_gap[i, j] == rep.pair_gap_measure / np.pi
                assert res.ground_gap[i, j] == rep.pair_gaps[0] / np.pi
                assert res.decay_rate[i, j] == pytest.approx(
                    abs(initial_purity_slope(params, nm)), rel=1e-13)
        assert res.argmin_cells() == {(10, 38)}

    def test_sweep_bypasses_the_per_point_path(self, monkeypatch):
        # Sweeps use the batched kernel: no _pipeline call and no
        # initial_purity_slope call, under any name.
        import degengate
        import degengate.redfield as redfield_mod
        import degengate.search as search_mod

        def per_point(params, nm):
            raise AssertionError("sweep called initial_purity_slope")

        def pipeline(params, nm):
            raise AssertionError("sweep called _pipeline")

        for module in (degengate, redfield_mod, search_mod):
            monkeypatch.setattr(module, "initial_purity_slope", per_point)
        monkeypatch.setattr(redfield_mod, "_pipeline", pipeline)
        res = sweep(fig1_grid(n=7), DESK)
        assert res.feasible.any()

    def test_records_roundtrip(self, monkeypatch):
        # Row i * n2 + j of rows() holds cell (i, j) as Python float, bool and
        # str scalars, |J|-closure and error cells included; to_records keys it.
        import degengate.search as search_mod

        grid = fig1_grid(n=5)
        bad = np.linalg.eigh(search_mod.build_hamiltonians(grid.controls()[0][2, 1]))[0]

        def failing(energies, vectors, nm):
            if np.any(np.all(energies == bad, axis=-1)):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return purity_slopes(energies, vectors, nm)

        monkeypatch.setattr(search_mod, "purity_slopes", failing)
        res = sweep(grid, DESK)
        records = res.to_records()
        assert len(records) == 25
        assert {"jy", "jz", "feasible", "dpdt0", "degeneracy_class"} <= set(records[0])
        assert set(res.reason.flat) == {
            "", "infeasible: |J| closure", "error: Eigenvalues did not converge"
        }
        rows = res.rows()
        for (i, j), row in zip(np.ndindex(5, 5), rows):
            assert list(map(type, row)) == [float, float, bool, float, str, float, float, float, str]
            np.testing.assert_equal(row, (
                grid.values1[i], grid.values2[j], res.feasible[i, j], res.decay_rate[i, j],
                res.classification[i, j], res.min_gap[i, j], res.pair_gap[i, j],
                res.ground_gap[i, j], res.reason[i, j],
            ))
        assert res.record_keys() == (
            "jy", "jz", "feasible", "dpdt0", "degeneracy_class",
            "min_gap", "pair_gap", "ground_gap", "reason",
        )
        np.testing.assert_equal(records, [dict(zip(res.record_keys(), r)) for r in rows])


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

    def test_strong_coupling_warns_once(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            calibrate(10.0, 10.0)
        assert len(caught) == 1
        assert "outside the weak-coupling regime" in str(caught[0].message)


def per_draw_probe(params, expected, nm, draws=100, seed=11, gap_floor=1e-4):
    """The probe one draw at a time: eigensystem, classify_degeneracy and
    initial_purity_slope per candidate. Also returns how many candidates
    broke the degeneracy but were redrawn for a gap below ``gap_floor``."""
    rng = np.random.default_rng(seed)
    base = abs(initial_purity_slope(params, nm))
    norm = params.coupling_norm
    worse, total, worst, attempts, floored = 0, 0, np.inf, 0, 0
    while total < draws:
        attempts += 1
        if attempts > 100 * draws:
            raise InvalidParameterError("could not draw degeneracy-breaking perturbations")
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        step = 0.1 * norm * (0.2 + 0.8 * rng.random())
        jy = params.jy + step * d[0]
        jz = params.jz + step * d[1]
        if jy**2 + jz**2 > norm**2:
            continue
        p = params.replace(jx=np.sqrt(norm**2 - jy**2 - jz**2), jy=jy, jz=jz)
        rep = classify_degeneracy(eigensystem(build_hamiltonian(p)), 1e-8)
        broken_gap = (rep.pair_gap_measure if expected == "double" else rep.min_gap) / np.pi
        if rep.classification == expected:
            continue
        if broken_gap < gap_floor:
            floored += 1
            continue
        rate = abs(initial_purity_slope(p, nm))
        total += 1
        worse += rate > base
        worst = min(worst, rate / base)
    return (worse, total, worst), floored


PROBE_NOISE = NoiseModel.from_reduced(alpha=0.01, temperature=0.0)


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

    @pytest.mark.parametrize(
        "gate, expected, seed, draws, gap_floor, redrawn",
        [
            ("bgate", "double", 11, 100, 1e-4, False),
            ("bgate", "double", 13, 37, 1e-4, False),
            ("bgate", "double", 5, 1, 1e-4, False),
            ("bgate", "double", 7, 60, 0.3, True),
            ("bgate", "double", 11, 100, 0.3, True),
            ("cnot", "single", 11, 100, 1e-4, False),
            ("cnot", "single", 13, 23, 1e-4, False),
            ("cnot", "single", 11, 100, 0.05, True),
            ("cnot", "single", 3, 40, 0.2, True),
            # t0 != 1 under a warm bath: the rates are not linear in H.
            ("bgate_t0", "double", 11, 100, 0.3, True),
            ("cnot_t0", "single", 13, 40, 0.5, True),
        ],
    )
    def test_matches_per_draw_reference(self, gate, expected, seed, draws, gap_floor, redrawn):
        params = {
            "bgate": onestep_bgate().params,
            "cnot": onestep_cnot().params,
            "bgate_t0": onestep_bgate().params.replace(t0=2.5),
            "cnot_t0": onestep_cnot().params.replace(t0=0.4),
        }[gate]
        nm = DESK if gate.endswith("_t0") else PROBE_NOISE
        (worse, total, worst), floored = per_draw_probe(
            params, expected, nm, draws=draws, seed=seed, gap_floor=gap_floor)
        assert (floored > 0) == redrawn
        got = degeneracy_break_probe(params, expected, nm, draws=draws, seed=seed,
                                     gap_floor=gap_floor)
        assert total == draws
        assert got[:2] == (worse, total)
        assert got[2] == pytest.approx(worst, rel=1e-13, abs=0)

    def test_attempt_bound_raises(self):
        params = onestep_cnot().params
        with pytest.raises(InvalidParameterError, match="could not draw"):
            per_draw_probe(params, "single", PROBE_NOISE, draws=3, gap_floor=1.0)
        with pytest.raises(InvalidParameterError, match="could not draw"):
            degeneracy_break_probe(params, "single", PROBE_NOISE, draws=3, gap_floor=1.0)

    def test_probe_bypasses_the_per_point_path(self, monkeypatch):
        # The probe rates its draws with the sweep's batched kernel: no
        # _pipeline call and no initial_purity_slope call, under any name.
        import degengate
        import degengate.redfield as redfield_mod
        import degengate.search as search_mod

        def per_point(params, nm):
            raise AssertionError("probe called initial_purity_slope")

        def pipeline(params, nm):
            raise AssertionError("probe called _pipeline")

        for module in (degengate, redfield_mod, search_mod):
            monkeypatch.setattr(module, "initial_purity_slope", per_point)
        monkeypatch.setattr(redfield_mod, "_pipeline", pipeline)
        worse, total, worst = degeneracy_break_probe(
            onestep_bgate().params, "double", PROBE_NOISE, draws=20)
        assert worse == total == 20 and worst > 1.0

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"draws": 0}, "draws"),
            ({"draws": -3}, "draws"),
            ({"draws": 2.5}, "draws"),
            ({"draws": True}, "draws"),
            ({"expected": "bogus"}, "expected"),
            ({"expected": "none"}, "expected"),
            ({"draws": np.int64(0)}, "draws"),
            ({"draws": 1.0}, "draws"),
            ({"seed": -1}, "seed"),
            ({"seed": np.int64(-7)}, "seed"),
            # pytest names these cases by position, so they stay at 10 to 12.
            ({"gap_floor": -1e-4}, "gap_floor"),
            ({"gap_floor": float("nan")}, "gap_floor"),
            ({"gap_floor": float("inf")}, "gap_floor"),
        ],
    )
    def test_bad_arguments_rejected_before_drawing(self, monkeypatch, change, message):
        import degengate.search as search_mod

        def kernel(controls, nm, tol):
            raise AssertionError("probe evaluated a point")

        monkeypatch.setattr(search_mod, "_sweep_cells", kernel)
        kwargs = {"expected": "double", "draws": 10, **change}
        with pytest.raises(InvalidParameterError, match=message):
            degeneracy_break_probe(onestep_bgate().params, nm=PROBE_NOISE, **kwargs)

    def test_zero_base_rate_rejected(self):
        # alpha = 0 gives an exact 0 rate at the point: no ratio to form.
        silent = NoiseModel.from_reduced(alpha=0.0, temperature=0.0)
        with pytest.raises(InvalidParameterError, match="rate is 0"):
            degeneracy_break_probe(onestep_bgate().params, "double", silent, draws=5)

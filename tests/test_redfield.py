import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from degengate import (
    DensityMatrix,
    HamiltonianParams,
    NoiseModel,
    build_hamiltonian,
    eigensystem,
    gate_purity,
    initial_product_states,
    initial_purity_slope,
    lambda_rates,
    propagate,
    redfield_tensor,
    relax_time_check,
    sequence_gate_purity,
)
from degengate.constructions import onestep_bgate, onestep_cnot
from degengate.errors import IntegrationError, InvalidParameterError, StateValidityError
from degengate.redfield import (
    BLOCK,
    RELAXATION_NORMALIZATION,
    DEFAULT_STEPS_PER_T0,
    _bloch_generator,
    _dissipators,
    _evolve,
    _generators,
    _pipeline,
    purity_slopes,
)
from degengate.hamiltonian import PARAM_NAMES, EigenSystem

from conftest import eigen_liouvillian, random_params, reference_liouvillian

SQ7_4 = np.sqrt(7.0) / 4.0
CNOT_REFINED = HamiltonianParams(delta2=1.5, eps1=-0.25, eps2=-SQ7_4, jz=-SQ7_4)
DESK = NoiseModel.from_reduced()


def per_state_slope(es, nm):
    """(1/16) sum_j 2 Re Tr(rho_j drho_j/dt) over the 16 product states.

    Each term comes from the eigenbasis generator's right-hand side, one
    state at a time: the per-state reference for the closed-form slope.
    """
    lmat = eigen_liouvillian(es, nm)
    total = 0.0
    for rho in initial_product_states():
        rho_e = es.to_eigenbasis(rho)
        drho = (lmat @ rho_e.reshape(16)).reshape(4, 4)
        total += 2.0 * np.einsum("ij,ji->", rho_e, drho).real
    return total / 16.0


def _per_state_purity(y):
    rhos = y.T.reshape(-1, 4, 4)
    return np.einsum("sij,sji->s", rhos, rhos).real


def _mean_purity(y):
    return _per_state_purity(y).mean()


def rk4_reference(lmat, y0, dt, n_steps, substeps=1):
    """Classic fixed-step RK4: an independent cross-check of the exact engine.

    Takes ``substeps`` RK4 steps of dt / substeps per sample. Returns the
    final state and the 16-state mean purity at every sample.
    """
    y = y0.copy()
    purity = [_mean_purity(y)]
    h = dt / substeps
    for _ in range(n_steps):
        for _ in range(substeps):
            k1 = lmat @ y
            k2 = lmat @ (y + 0.5 * h * k1)
            k3 = lmat @ (y + 0.5 * h * k2)
            k4 = lmat @ (y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        purity.append(_mean_purity(y))
    return y, np.array(purity)


def vec_purity_reference(segments):
    """Per-state purity of the 16 product states as complex vec(rho) columns.

    ``segments`` lists (standard-basis L, n_steps, dt); each sample is one
    product with expm(dt L). Returns shape (1 + total steps, 16).
    """
    y = np.stack([rho.reshape(16) for rho in initial_product_states()], axis=1)
    purity = [_per_state_purity(y)]
    for lmat, n_steps, dt in segments:
        prop = expm(dt * lmat)
        for _ in range(n_steps):
            y = prop @ y
            purity.append(_per_state_purity(y))
    return np.array(purity)


def _eigen_product_states(es):
    return np.stack([es.to_eigenbasis(rho).reshape(16) for rho in initial_product_states()],
                    axis=1)


class TestInitialStates:
    def test_sixteen_distinct_projectors(self):
        states = initial_product_states()
        assert states.shape == (16, 4, 4)
        for j, rho in enumerate(states):
            assert abs(np.trace(rho) - 1.0) < 1e-12
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
            np.testing.assert_allclose(rho @ rho, rho, atol=1e-12)  # rank one
            for k in range(j):
                assert np.max(np.abs(rho - states[k])) > 1e-3


class TestLambdaRates:
    def test_zero_coupling_gives_zero(self):
        es = eigensystem(build_hamiltonian(CNOT_REFINED))
        lam = lambda_rates(es, NoiseModel(alpha=0.0, temperature=0.5, cutoff=60.0))
        np.testing.assert_array_equal(lam, np.zeros((4, 4, 4, 4)))

    def test_pure_dephasing_survives_only_at_finite_temperature(self):
        # Fully degenerate spectrum: every channel sits at omega = 0.
        es = eigensystem(np.zeros((4, 4), dtype=complex))
        warm = lambda_rates(es, NoiseModel(alpha=0.01, temperature=0.5, cutoff=60.0))
        cold = lambda_rates(es, NoiseModel(alpha=0.01, temperature=0.0, cutoff=60.0))
        # both baths contribute on the diagonal entries: 2 * S(0) / 4pi
        assert np.max(np.abs(warm)) == pytest.approx(
            2 * (2 * 0.01 * 0.5) / (4 * np.pi), rel=1e-12
        )
        np.testing.assert_array_equal(cold, np.zeros((4, 4, 4, 4)))


class TestPipeline:
    def test_generator_matches_reference(self):
        es, lmat = _pipeline(CNOT_REFINED, DESK)
        fresh_es = eigensystem(build_hamiltonian(CNOT_REFINED))
        np.testing.assert_array_equal(es.vectors, fresh_es.vectors)
        np.testing.assert_array_equal(lmat, _generators(build_hamiltonian(CNOT_REFINED), DESK)[2])
        ref = reference_liouvillian(fresh_es, DESK)
        assert np.max(np.abs(lmat - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestRedfieldTensor:
    def test_zero_lambda_zero_tensor(self):
        r = redfield_tensor(np.zeros((4, 4, 4, 4), dtype=complex))
        np.testing.assert_array_equal(r.tensor, np.zeros((4, 4, 4, 4)))

    def test_trace_preservation_identity(self, rng):
        # Sum_n R_nnkl vanishes identically for any partial-rate tensor.
        for _ in range(20):
            lam = rng.normal(size=(4, 4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4, 4))
            r = redfield_tensor(lam).tensor
            np.testing.assert_allclose(
                np.einsum("nnkl->kl", r), np.zeros((4, 4)), atol=1e-13
            )

    def test_hermiticity_preservation_identity(self, rng):
        # R_nmkl = conj(R_mnlk) for any partial-rate tensor.
        for _ in range(20):
            lam = rng.normal(size=(4, 4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4, 4))
            r = redfield_tensor(lam).tensor
            np.testing.assert_allclose(
                r, np.einsum("mnlk->nmkl", r).conj(), atol=1e-13
            )

    def test_generator_on_random_hermitian_state(self, rng):
        _, lmat = _pipeline(CNOT_REFINED, DESK)
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = 0.5 * (a + a.conj().T)
            rho = rho / np.trace(rho).real
            drho = (lmat @ rho.reshape(16)).reshape(4, 4)
            assert abs(np.trace(drho)) < 1e-10
            np.testing.assert_allclose(drho, drho.conj().T, atol=1e-10)


class TestPropagation:
    def test_unitary_case_stationary_diagonal(self):
        nm0 = NoiseModel(alpha=0.0, temperature=0.0, cutoff=60.0)
        es, _ = _pipeline(CNOT_REFINED, nm0)
        rho0 = DensityMatrix(es.to_standard(np.diag([0.4, 0.3, 0.2, 0.1])))
        traj = propagate(rho0, CNOT_REFINED, nm0, t_final=1.0, dt=1e-3)
        np.testing.assert_allclose(traj.matrices[-1], rho0.matrix, atol=1e-9)

    def test_unitary_case_purity_constant(self):
        nm0 = NoiseModel(alpha=0.0, temperature=0.0, cutoff=60.0)
        trace = gate_purity(CNOT_REFINED, nm0)
        assert np.max(np.abs(trace.average - 1.0)) == 0.0

    def test_propagator_check_failure_raises(self, monkeypatch):
        # 10^4 repeated products drift from the single expm by ~1e-13 of
        # rounding; an impossible tolerance must trip the gate.
        import degengate.redfield as rf

        monkeypatch.setattr(rf, "PROPAGATOR_TOL", 1e-300)
        with pytest.raises(IntegrationError, match="propagator check failed"):
            gate_purity(CNOT_REFINED, DESK, t_final=5.0)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_nan_state_is_invalid(self, entry):
        # A NaN on the diagonal reaches the trace check, one off it the
        # Hermiticity check; both must fail rather than reach eigvalsh.
        m = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        m[entry] = np.nan
        with pytest.raises(StateValidityError):
            DensityMatrix(m).validate()

    def test_trace_and_hermiticity_long_run(self):
        # Invariants over t in [0, 10 t0] for the headline construction.
        rho0 = DensityMatrix(initial_product_states()[5])
        traj = propagate(rho0, CNOT_REFINED, DESK, t_final=10.0, dt=5e-4)
        for k in range(0, len(traj.times), 2000):
            m = traj.matrices[k]
            assert abs(np.trace(m).real - 1.0) < 1e-8
            np.testing.assert_allclose(m, m.conj().T, atol=1e-8)

    def test_propagate_validates_at_noise_floor(self, monkeypatch):
        # The final state is checked against the noise-scaled floor purity
        # traces use, not the bare EIGENVALUE_FLOOR.
        import degengate.redfield as rf

        floors = []
        validate = DensityMatrix.validate

        def spy(self, state_index=None, eigen_floor=rf.EIGENVALUE_FLOOR):
            floors.append(eigen_floor)
            return validate(self, state_index=state_index, eigen_floor=eigen_floor)

        monkeypatch.setattr(DensityMatrix, "validate", spy)
        nm = NoiseModel.from_reduced(alpha=0.01)
        propagate(DensityMatrix(initial_product_states()[5]), CNOT_REFINED, nm,
                  t_final=1.0, dt=1e-2)
        assert floors == [rf._noise_eigen_floor(nm)] == [-(1e-6 + 0.02 * 0.01)]

    def test_propagate_rejects_state_below_floor(self, monkeypatch):
        import degengate.redfield as rf

        monkeypatch.setattr(rf, "_noise_eigen_floor", lambda nm: 0.5)
        with pytest.raises(StateValidityError, match="below floor"):
            propagate(DensityMatrix(initial_product_states()[5]), CNOT_REFINED, DESK,
                      t_final=1.0, dt=1e-2)

    def test_single_qubit_relaxation_rate(self):
        # J = 0, excited qubit decays at S(2 Delta)/pi; the quoted identity
        # (pi/2) S(Delta) holds after the pinned 4/pi^2 normalization.
        nm = NoiseModel(alpha=0.01, temperature=0.0, cutoff=100.0)
        chk = relax_time_check(np.pi, nm)
        exact = 2 * 0.01 * np.pi / np.pi
        assert chk.fitted_rate == pytest.approx(exact, rel=0.02)
        assert chk.fitted_rate == pytest.approx(
            RELAXATION_NORMALIZATION * chk.analytic_rate, rel=0.02
        )

    def test_relaxation_zero_noise(self):
        chk = relax_time_check(np.pi, NoiseModel(alpha=0.0, temperature=0.0, cutoff=10.0))
        assert chk.fitted_rate == 0.0 and chk.analytic_rate == 0.0

    def test_relaxation_splitting_above_cutoff_rejected(self):
        # S(2 delta) = 0 above the cutoff: nothing relaxes, so nothing to fit.
        with pytest.raises(InvalidParameterError, match="cutoff 10"):
            relax_time_check(10.0, NoiseModel(alpha=0.01, temperature=0.0, cutoff=10.0))

    def test_normalization_constant_across_alpha_grid(self):
        ratios = []
        for alpha in np.geomspace(1e-4, 0.05, 10):
            nm = NoiseModel(alpha=float(alpha), temperature=0.0, cutoff=100.0)
            chk = relax_time_check(np.pi, nm)
            ratios.append(chk.ratio / RELAXATION_NORMALIZATION)
        np.testing.assert_allclose(ratios, 1.0, rtol=0.02)


class TestGatePurity:
    def test_zero_noise_unit_purity(self):
        nm0 = NoiseModel(alpha=0.0, temperature=0.0, cutoff=60.0)
        trace = gate_purity(HamiltonianParams(delta1=0.3, jz=0.5), nm0)
        assert np.max(np.abs(trace.average - 1.0)) < 1e-9

    def test_analytic_slope_matches_finite_difference(self):
        trace = gate_purity(CNOT_REFINED, DESK, t_final=1e-4)
        fd = (trace.average[-1] - trace.average[0]) / (trace.times[-1] - trace.times[0])
        assert fd == pytest.approx(trace.initial_slope, rel=0.01)

    def test_purity_bounds(self):
        trace = gate_purity(CNOT_REFINED, DESK, t_final=5.0)
        assert np.all(trace.average <= 1.0 + 1e-9)
        assert np.all(trace.average >= 1.0 / 16.0 - 1e-9)
        assert abs(trace.average[0] - 1.0) < 1e-10

    def test_initial_slope_nonpositive_on_random_draws(self, rng):
        for _ in range(50):
            p = random_params(rng, scale=1.5)
            temperature = float(rng.choice([0.0, 0.2, 1.0]))
            nm = NoiseModel.from_reduced(alpha=0.01, temperature=temperature)
            assert initial_purity_slope(p, nm) <= 1e-12

    def test_degeneracy_suppresses_relaxation(self, rng):
        # At T = 0 the Eq.(17) manifold point beats the detuned point with
        # Jy Jz = 1.2 Delta^2 (detuned through Jy) and everything else equal.
        # Raising Jz instead lands on an exactly flat plateau of the T = 0
        # rate (a tie, not an increase), so Jy carries the strict statement.
        nm0 = NoiseModel.from_reduced(alpha=0.01, temperature=0.0)
        for _ in range(100):
            delta = rng.uniform(0.3, 1.5)
            jy = rng.uniform(0.2, 2.0)
            on = HamiltonianParams(delta1=delta, delta2=delta, jy=jy, jz=delta**2 / jy)
            off = on.replace(jy=1.2 * jy)
            assert abs(initial_purity_slope(on, nm0)) < abs(initial_purity_slope(off, nm0))

    def test_plateau_tie_when_raising_jz(self):
        # Documented behavior: increasing Jz beyond the degeneracy point
        # leaves the T = 0 decay rate exactly unchanged.
        nm0 = NoiseModel.from_reduced(alpha=0.01, temperature=0.0)
        on = HamiltonianParams(delta1=0.95, delta2=0.95, jy=0.66, jz=0.95**2 / 0.66)
        off = on.replace(jz=1.2 * on.jz)
        assert abs(initial_purity_slope(on, nm0)) == pytest.approx(
            abs(initial_purity_slope(off, nm0)), rel=1e-10
        )

    def test_markovian_near_linearity(self):
        # Within a twentieth of the Hamiltonian time scale the loss is
        # linear to 10%; out to a tenth of the decay time the slope stays
        # within ~1/3 (coherent wiggles at the transition frequencies set
        # the deviation there, not the Markovian decay itself).
        t_decay = 0.1 / abs(initial_purity_slope(CNOT_REFINED, DESK))
        trace = gate_purity(CNOT_REFINED, DESK, t_final=t_decay)
        linear = 1.0 + trace.times * trace.initial_slope
        loss = 1.0 - trace.average
        deviation = np.abs(trace.average - linear)
        early = (trace.times <= 0.05) & (loss > 1e-7)
        assert np.all(deviation[early] <= 0.1 * loss[early])
        late = loss > 1e-6
        assert np.all(deviation[late] <= 0.35 * loss[late])

    def test_basis_convention_independence(self, rng):
        # Random eigenvector phases and a random rotation inside the exactly
        # degenerate subspace must not change P(t).
        params = CNOT_REFINED
        es, _ = _pipeline(params, DESK)
        trace_ref = gate_purity(params, DESK, dt=1e-3)

        phases = np.exp(2j * np.pi * rng.random(4))
        vectors = es.vectors * phases[None, :]
        # the (3,4) pair is exactly degenerate: rotate inside it
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(a)
        vectors = vectors.copy()
        vectors[:, 2:] = vectors[:, 2:] @ q
        es2 = EigenSystem(energies=es.energies, vectors=vectors)

        # The operators the generator is built from do not see the rotation,
        np.testing.assert_allclose(_dissipators(es2.energies, es2.vectors, DESK),
                                   _dissipators(es.energies, es.vectors, DESK), rtol=0, atol=1e-14)
        # and neither does the rotated reference generator's propagation.
        avg = vec_purity_reference([(reference_liouvillian(es2, DESK), 1000, 1e-3)]).mean(axis=1)
        np.testing.assert_allclose(avg, trace_ref.average, atol=1e-8)

    def test_tensor_slope_self_consistency(self):
        # The tensor-induced analytic slope agrees with the finite-difference
        # slope of the propagated purity within 1%.
        nm = NoiseModel.from_reduced(alpha=0.01, temperature=0.2)
        trace = gate_purity(CNOT_REFINED, nm, t_final=2e-4)
        fd = (trace.average[-1] - 1.0) / trace.times[-1]
        assert fd == pytest.approx(trace.initial_slope, rel=0.01)

    def test_per_state_failure_carries_index(self, monkeypatch):
        # An impossible positivity floor makes every state invalid; the error
        # must carry the index of the first failing state.
        import degengate.redfield as rf

        monkeypatch.setattr(rf, "_noise_eigen_floor", lambda nm: 1e-3)
        with pytest.raises(StateValidityError) as err:
            gate_purity(HamiltonianParams(delta1=1.0, delta2=0.9, jy=0.5), DESK)
        assert err.value.state_index is not None

    @pytest.mark.parametrize("times", [{"dt": 0.0}, {"dt": -0.01}, {"t_final": -0.5},
                                       {"t_final": float("nan")}],
                             ids=["zero-dt", "negative-dt", "negative-t_final", "nan-t_final"])
    def test_bad_time_arguments_rejected(self, times):
        with pytest.raises(InvalidParameterError):
            gate_purity(CNOT_REFINED, DESK, **times)

    def test_slope_matches_per_state_loop(self, rng):
        # The trace's slope is the closed form on the eigensystem _pipeline returns.
        for _ in range(20):
            params = random_params(rng, scale=1.5)
            es, _ = _pipeline(params, DESK)
            ref = per_state_slope(es, DESK)
            assert initial_purity_slope(params, DESK) == pytest.approx(ref, rel=1e-12)
            slope = gate_purity(params, DESK, dt=params.t0).initial_slope
            assert slope == float(purity_slopes(es.energies, es.vectors, DESK))
            assert slope == pytest.approx(ref, rel=1e-12)


BGATE = onestep_bgate(refined=True).params
BGATE_X4 = BGATE.replace(**{name: 4.0 * getattr(BGATE, name) for name in PARAM_NAMES})


class TestExactEngine:
    @pytest.mark.parametrize("params", [onestep_cnot(refined=True).params, BGATE_X4],
                             ids=["paper-cnot", "bgate-x4"])
    def test_gate_purity_matches_rk4(self, params):
        trace = gate_purity(params, DESK)
        es, _ = _pipeline(params, DESK)
        lmat = eigen_liouvillian(es, DESK)
        dt = trace.times[1]
        # Four RK4 substeps per t0/2000 sample keep the reference's own error
        # (4.6e-9 with one step at four times the B-gate controls) far below the bound.
        _, ref = rk4_reference(lmat, _eigen_product_states(es), dt, len(trace.times) - 1,
                               substeps=4)
        assert np.max(np.abs(trace.average - ref)) <= 1e-9

    @pytest.mark.parametrize("params", [BGATE, BGATE_X4], ids=["bgate", "bgate-x4"])
    def test_default_grid_ignores_stiffness(self, params):
        trace = gate_purity(params, DESK)
        assert len(trace.times) == DEFAULT_STEPS_PER_T0 + 1
        assert trace.times[1] == params.t0 / DEFAULT_STEPS_PER_T0

    def test_sequence_gate_purity_matches_rk4(self):
        segments = [(build_hamiltonian(CNOT_REFINED), 0.5),
                    (build_hamiltonian(HamiltonianParams(delta1=0.7, jx=0.4)), 0.25)]
        trace = sequence_gate_purity(segments, DESK)
        y_std = np.stack([rho.reshape(16) for rho in initial_product_states()], axis=1)
        ref = [[_mean_purity(y_std)]]
        for h, duration in segments:
            es = eigensystem(h)
            lmat = eigen_liouvillian(es, DESK)
            v = es.vectors
            n_steps = max(round(duration * DEFAULT_STEPS_PER_T0), 1)
            y, purity = rk4_reference(lmat, np.kron(v.conj().T, v.T) @ y_std,
                                      duration / n_steps, n_steps)
            y_std = np.kron(v, v.conj()) @ y
            ref.append(purity[1:])
        ref = np.concatenate(ref)
        assert ref.shape == trace.average.shape
        assert np.max(np.abs(trace.average - ref)) <= 1e-9

    @pytest.mark.parametrize("n_steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    @pytest.mark.parametrize("y_shape, dtype",
                             [((16,), complex), ((16, 16), complex),
                              ((16,), float), ((16, 16), float)],
                             ids=["vector", "states", "real-vector", "real-states"])
    def test_evolve_blocks_match_sequential_products(self, rng, n_steps, y_shape, dtype):
        _, lmat = _pipeline(BGATE_X4, DESK)
        y0 = rng.normal(size=y_shape)
        if dtype is complex:
            y0 = y0 + 1j * rng.normal(size=y_shape)
        else:
            lmat = _bloch_generator(lmat)
        assert lmat.dtype == dtype
        dt = 2e-3
        prop = expm(dt * lmat)
        ref = [y0]
        for _ in range(n_steps):
            ref.append(prop @ ref[-1])

        starts, blocks = [], []

        def record(start, block):
            starts.append(start)
            blocks.append(block.copy())

        y_final = _evolve(lmat, y0, dt, n_steps, record)
        assert starts == list(np.cumsum([0] + [len(b) for b in blocks[:-1]]))
        history = np.concatenate(blocks)
        assert history.shape == (n_steps + 1,) + y_shape and history.dtype == dtype
        assert np.max(np.abs(history - np.array(ref))) <= 1e-12
        np.testing.assert_array_equal(y_final, history[-1])

    def test_gate_purity_matches_complex_products(self):
        # Reference: the 16 states as complex vec(rho), one expm(dt L) product per sample.
        trace = gate_purity(CNOT_REFINED, DESK)
        _, lmat = _pipeline(CNOT_REFINED, DESK)
        ref = vec_purity_reference([(lmat, DEFAULT_STEPS_PER_T0, trace.times[1])])
        assert ref.shape == trace.per_state.shape
        assert np.max(np.abs(trace.per_state - ref)) <= 1e-12

    def test_sequence_gate_purity_matches_complex_products(self):
        segments = [(build_hamiltonian(CNOT_REFINED), 0.5),
                    (build_hamiltonian(HamiltonianParams(delta1=0.7, jx=0.4)), 0.25)]
        trace = sequence_gate_purity(segments, DESK)
        steps = [round(duration * DEFAULT_STEPS_PER_T0) for _, duration in segments]
        ref = vec_purity_reference([(_generators(h, DESK)[2], n, duration / n)
                                    for (h, duration), n in zip(segments, steps)])
        assert ref.shape == trace.per_state.shape
        assert np.max(np.abs(trace.per_state - ref)) <= 1e-12

    def test_non_hermiticity_preserving_generator_rejected(self):
        _, lmat = _pipeline(CNOT_REFINED, DESK)
        with pytest.raises(IntegrationError, match="Hermiticity"):
            _bloch_generator(lmat + 1e-3j * np.eye(16))

    def test_propagate_history_matches_sequential_products(self):
        es, _ = _pipeline(CNOT_REFINED, DESK)
        rho0 = DensityMatrix(initial_product_states()[6])
        n_steps = 2 * BLOCK + 3
        traj = propagate(rho0, CNOT_REFINED, DESK, t_final=n_steps * 1e-3, dt=1e-3)
        prop = expm(traj.times[1] * eigen_liouvillian(es, DESK))
        y = es.to_eigenbasis(rho0.matrix).reshape(16)
        ref = [es.to_standard(y.reshape(4, 4))]
        for _ in range(n_steps):
            y = prop @ y
            ref.append(es.to_standard(y.reshape(4, 4)))
        assert traj.matrices.shape == (n_steps + 1, 4, 4)
        assert np.max(np.abs(traj.matrices - np.array(ref))) <= 1e-12

    def test_final_time_only_matches_full_grid(self):
        full = gate_purity(CNOT_REFINED, DESK)
        final = gate_purity(CNOT_REFINED, DESK, dt=1.0)
        assert len(final.times) == 2 and final.times[-1] == full.times[-1]
        assert final.loss() == pytest.approx(full.loss(), rel=1e-12)
        assert final.initial_slope == full.initial_slope


class TestSequencePurity:
    def test_single_segment_matches_gate_purity(self):
        h = build_hamiltonian(CNOT_REFINED)
        seq_trace = sequence_gate_purity([(h, 1.0)], DESK)
        ref = gate_purity(CNOT_REFINED, DESK)
        # Both are the one-segment call of the same engine.
        np.testing.assert_array_equal(seq_trace.times, ref.times)
        np.testing.assert_array_equal(seq_trace.per_state, ref.per_state)
        assert seq_trace.initial_slope == ref.initial_slope

    def test_slope_is_closed_form_of_first_segment(self):
        segments = [(build_hamiltonian(BGATE), 0.5),
                    (build_hamiltonian(HamiltonianParams(delta1=0.7, jx=0.4)), 0.25)]
        trace = sequence_gate_purity(segments, DESK)
        energies, vectors, _ = _generators(np.array([h for h, _ in segments]), DESK)
        assert trace.initial_slope == float(purity_slopes(energies[0], vectors[0], DESK))
        ref = per_state_slope(eigensystem(segments[0][0]), DESK)
        assert trace.initial_slope == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("leading", [0, 1], ids=["alone", "second"])
    def test_non_finite_hamiltonian_rejected(self, leading):
        segments = [(build_hamiltonian(BGATE), 0.5)] * leading + [(np.full((4, 4), np.nan), 1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="non-finite"):
                sequence_gate_purity(segments, DESK)

    def test_zero_noise_stays_pure(self):
        nm0 = NoiseModel(alpha=0.0, temperature=0.0, cutoff=60.0)
        h = build_hamiltonian(HamiltonianParams(delta2=0.7))
        trace = sequence_gate_purity([(h, 0.5), (2 * h, 0.25)], nm0)
        assert np.max(np.abs(trace.average - 1.0)) < 1e-9

    def test_negative_duration_rejected(self):
        h = build_hamiltonian(CNOT_REFINED)
        with pytest.raises(InvalidParameterError):
            sequence_gate_purity([(h, 0.5), (h, -0.25)], DESK)

    @pytest.mark.parametrize("segments",
                             [[], [(np.eye(2), 0.5)], [(np.eye(4), 0.5), (np.eye(2), 0.5)]],
                             ids=["empty", "2x2", "mixed"])
    def test_malformed_sequence_rejected(self, segments):
        # An empty sequence had no initial slope, so its decay_rate raised TypeError.
        with pytest.raises(InvalidParameterError, match="at least one segment"):
            sequence_gate_purity(segments, DESK)

    def test_failure_carries_state_index(self, monkeypatch):
        # No 4x4 density matrix has all eigenvalues above 1/4, so every
        # state fails and the error names the first one.
        import degengate.redfield as rf

        monkeypatch.setattr(rf, "_noise_eigen_floor", lambda nm: 0.5)
        h = build_hamiltonian(HamiltonianParams(delta1=1.0, delta2=0.9, jy=0.5))
        with pytest.raises(StateValidityError) as err:
            sequence_gate_purity([(h, 0.5), (2 * h, 0.25)], DESK)
        assert err.value.state_index == 0
        assert str(err.value).startswith("state 0: ")


class TestClosedFormSlope:
    """``purity_slopes`` against ``initial_purity_slope``, its per-state reference."""

    @staticmethod
    def _kernel(params, nm):
        es = eigensystem(build_hamiltonian(params))
        return float(purity_slopes(es.energies, es.vectors, nm))

    def test_matches_initial_purity_slope_on_random_points(self, rng):
        cold = NoiseModel.from_reduced(alpha=0.02, temperature=0.0)
        for k in range(240):
            params = random_params(rng, scale=2.0, t0=rng.uniform(0.5, 2.0))
            nm = DESK if k % 2 else cold
            assert self._kernel(params, nm) == pytest.approx(
                initial_purity_slope(params, nm), rel=1e-12)

    @pytest.mark.parametrize("params", [CNOT_REFINED, BGATE, BGATE_X4],
                             ids=["cnot", "bgate", "bgate-x4"])
    def test_matches_at_degeneracy_points(self, params):
        for nm in (DESK, NoiseModel.from_reduced(alpha=0.01, temperature=0.0)):
            assert self._kernel(params, nm) == pytest.approx(
                initial_purity_slope(params, nm), rel=1e-12)

    def test_zero_coupling_gives_zero(self, rng):
        nm0 = NoiseModel(alpha=0.0, temperature=0.0, cutoff=60.0)
        for params in (CNOT_REFINED, BGATE, random_params(rng)):
            assert self._kernel(params, nm0) == 0.0
            assert initial_purity_slope(params, nm0) == pytest.approx(0.0, abs=1e-14)

    def test_stack_matches_single_points(self, rng):
        points = [random_params(rng) for _ in range(12)]
        hs = np.array([build_hamiltonian(p) for p in points])
        energies, vectors = np.linalg.eigh(hs)
        stacked = purity_slopes(energies, vectors, DESK)
        assert stacked.shape == (12,)
        single = [self._kernel(p, DESK) for p in points]
        np.testing.assert_allclose(stacked, single, rtol=1e-13, atol=0)

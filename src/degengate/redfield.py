"""Bloch-Redfield relaxation tensor, propagation, and gate purity.

In the eigenbasis of the two-qubit Hamiltonian the reduced density matrix
obeys

    drho_nm/dt = -i w_nm rho_nm - sum_kl R_nmkl rho_kl,

with partial rates built from the bath spectral function,

    Lambda_lmnk = (1/4pi) S(w_nk) [sz1_lm sz1_nk + sz2_lm sz2_nk],

where sz1, sz2 are the sigma_z couplings of the two independent baths in
the eigenbasis, and the relaxation tensor contracts them as

    R_nmkl = d_lm sum_r Lambda_nrrk + d_nk sum_r Lambda*_mrrl
             - Lambda_lmnk - Lambda*_knml.

The conjugated terms carry mirrored indices; with this pairing the
generator preserves trace and Hermiticity identically for any Lambda,
which the tests require at the 1e-10 level. Lamb shifts (the imaginary
part of Lambda) are not implemented.

The master equation is written in the eigenbasis, but its generator is
rotated once into the standard basis (``_generator``),
L_std = kron(V, V*) L_eig kron(V^dag, V^T) on row-major vec(rho). Every
state the module propagates, validates or returns is in the standard
basis (purity traces carry it as Pauli coefficients, below); no state is
moved into an eigenbasis.

Purity traces propagate the 16 product states as real Pauli-coefficient
(Bloch) vectors c_a = Tr(sigma_a rho) over the 16 two-qubit Paulis:
with T the matrix whose rows are vec(sigma_a*), c = T vec(rho), the
generator becomes the real 16x16 B = T L T^dag / 4 (``_bloch_generator``)
and Tr rho^2 = |c|^2 / 4. A Hermitian state has real coefficients, so
the imaginary part of B, which a Hermiticity-preserving generator does
not have, is checked and dropped. Only the final states are mapped back
to matrices, for validation.

The generator L is constant on a segment, so propagation is exact:
on a uniform grid of spacing dt the state advances by the single matrix
exponential P = expm(L dt). Purity traces are sampled every
t0 / DEFAULT_STEPS_PER_T0 (t0/2000) unless the caller passes a ``dt``;
the grid does not depend on the spectrum, so a trace's cost does not
grow with its stiffness. ``_evolve`` steps a block of samples at a
time: it builds the powers P, P^2, ..., P^B once and advances B samples
with one batched product, and the purity of a whole block is reduced in
one contraction.

Gate purity is the 16-state average P(t) = (1/16) sum_j Tr[rho_j(t)^2]
over all disentangled initial product states; its initial slope is
evaluated analytically from the generator, never by fitting.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .errors import (
    IntegrationError,
    InvalidParameterError,
    StateValidityError,
)
from .hamiltonian import EigenSystem, HamiltonianParams, build_hamiltonian, eigensystem
from .noise import NoiseModel, spectral_function
from .pauli import SZ1, SZ2, pauli_tensor

LAMBDA_PREFACTOR = 1.0 / (4.0 * np.pi)

#: Ratio between the relaxation rate this tensor actually produces for a
#: single qubit at its optimal point and the quoted identity (pi/2) S(Delta)
#: with Delta the sigma_x coefficient. The generator yields 1/T1 = S(2 Delta)/pi
#: exactly (the level splitting is 2 Delta), so at T -> 0 the ratio is 4/pi^2.
#: Pinned numerically by relax_time_check and used by the calibration routine.
RELAXATION_NORMALIZATION = 4.0 / np.pi**2

#: Largest max-norm deviation the repeatedly applied propagator may show
#: from a single expm(L t_final) applied to the initial state.
PROPAGATOR_TOL = 1e-8
TRACE_TOL = 1e-8
HERMITICITY_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-6

#: Output samples per gate duration t0 when the caller gives no dt.
DEFAULT_STEPS_PER_T0 = 2000

#: Rows vec(sigma_a*) over the 16 two-qubit Paulis: c = PAULI_ROWS @ vec(rho)
#: are the Pauli coefficients Tr(sigma_a rho) on row-major vec(rho), and
#: vec(rho) = PAULI_ROWS^dag c / 4.
PAULI_ROWS = np.array([pauli_tensor(a, b).conj().reshape(16) for a in "0xyz" for b in "0xyz"])
PAULI_ROWS.flags.writeable = False


def _noise_eigen_floor(nm):
    """Transient-negativity allowance: the Redfield slip scales with alpha."""
    return -(1e-6 + 0.02 * nm.alpha)


@dataclass(frozen=True)
class DensityMatrix:
    """A 4x4 density matrix in the standard basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise InvalidParameterError("density matrix must be 4x4")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_ket(cls, ket):
        ket = np.asarray(ket, dtype=complex)
        ket = ket / np.linalg.norm(ket)
        return cls(np.outer(ket, ket.conj()))

    def validate(self, state_index=None, eigen_floor=EIGENVALUE_FLOOR):
        """Check Hermiticity, unit trace and near-positivity.

        ``eigen_floor`` bounds the transient negativity the (not
        completely positive) weak-coupling generator is allowed to
        produce; propagation routines widen it proportionally to the
        bath coupling, since the initial slip scales with alpha.
        """
        m = self.matrix
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise StateValidityError(
                f"trace deviates from 1 by {abs(np.trace(m) - 1.0):.2e}",
                state_index=state_index,
            )
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise StateValidityError("state is not Hermitian", state_index=state_index)
        lowest = np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))
        if lowest < eigen_floor:
            raise StateValidityError(
                f"negative eigenvalue {lowest:.2e} below floor", state_index=state_index
            )

    def purity(self):
        return float(np.einsum("ij,ji->", self.matrix, self.matrix).real)


def single_qubit_kets():
    """The four single-qubit states the 16 product states are built from."""
    up = np.array([1.0, 0.0], dtype=complex)
    down = np.array([0.0, 1.0], dtype=complex)
    return [
        down,
        up,
        (down + up) / np.sqrt(2.0),
        (down + 1j * up) / np.sqrt(2.0),
    ]


def initial_product_states():
    """All 16 disentangled initial states as an array of rank-1 projectors.

    Ordered by state index j = 4*(a-1) + (b-1) over the single-qubit kets
    of :func:`single_qubit_kets`, in the standard basis.
    """
    kets = single_qubit_kets()
    states = np.empty((16, 4, 4), dtype=complex)
    j = 0
    for ka in kets:
        for kb in kets:
            psi = np.kron(ka, kb)
            states[j] = np.outer(psi, psi.conj())
            j += 1
    return states


def lambda_rates(es: EigenSystem, nm: NoiseModel):
    """Partial transition rates Lambda_lmnk in the eigenbasis.

    With the package's real eigenvector convention the tensor is real and
    equals the decoherence rates of the weak-coupling generator; complex
    eigenvector phases are carried through covariantly.
    """
    a1 = es.to_eigenbasis(SZ1)
    a2 = es.to_eigenbasis(SZ2)
    s_of_omega = spectral_function(es.omega, nm)
    lam = np.einsum("lm,nk->lmnk", a1, a1) + np.einsum("lm,nk->lmnk", a2, a2)
    lam = LAMBDA_PREFACTOR * lam * s_of_omega[None, None, :, :]
    return lam


@dataclass(frozen=True)
class RedfieldTensor:
    """Relaxation tensor R_nmkl plus the transition frequencies it pairs with."""

    tensor: np.ndarray
    omega: np.ndarray

    def liouvillian(self):
        """Full generator as a 16x16 matrix acting on row-major vec(rho)."""
        coherent = -1j * np.diag(self.omega.reshape(16))
        return coherent - self.tensor.reshape(16, 16)


def redfield_tensor(lam, omega=None):
    """Contract partial rates into the relaxation tensor R_nmkl.

    ``omega`` (4x4 transition-frequency matrix) is carried along for the
    generator; pass it when building a tensor for propagation.
    """
    eye = np.eye(4)
    g_plus = np.einsum("nrrk->nk", lam)
    g_minus = np.einsum("mrrl->ml", lam).conj()
    r = (
        np.einsum("nk,ml->nmkl", g_plus, eye)
        + np.einsum("ml,nk->nmkl", g_minus, eye)
        - np.einsum("lmnk->nmkl", lam)
        - np.einsum("knml->nmkl", lam.conj())
    )
    if omega is None:
        omega = np.zeros((4, 4))
    return RedfieldTensor(tensor=r, omega=np.asarray(omega, dtype=float))


def _standard_liouvillian(es: EigenSystem, tensor: RedfieldTensor):
    """The eigenbasis generator of ``tensor`` rotated to the standard basis.

    On row-major vec(rho), vec(V rho V^dag) = K vec(rho) with K = kron(V, V*),
    so L_std = K L_eig K^dag (K^dag = kron(V^dag, V^T)).
    """
    v = es.vectors
    k = np.kron(v, v.conj())
    return k @ tensor.liouvillian() @ k.conj().T


def _generator(h, nm: NoiseModel):
    """(eigensystem, RedfieldTensor, standard-basis Liouvillian) of Hamiltonian ``h``."""
    es = eigensystem(h)
    tensor = redfield_tensor(lambda_rates(es, nm), omega=es.omega)
    return es, tensor, _standard_liouvillian(es, tensor)


@lru_cache(maxsize=256)
def _pipeline(params: HamiltonianParams, nm: NoiseModel):
    """Cached ``_generator`` output for a configuration.

    Every caller shares the returned arrays, so they are read-only.
    """
    es, tensor, lmat = _generator(build_hamiltonian(params), nm)
    for arr in (es.energies, es.vectors, tensor.tensor, tensor.omega, lmat):
        arr.flags.writeable = False
    return es, tensor, lmat


#: Samples ``_evolve`` advances per batched product; its stack of
#: propagator powers holds BLOCK 16x16 matrices of the generator's dtype
#: (256 kB complex, 128 kB real). Blocks of 128 and 256 measured slower on
#: the default CNOT grid and at four times its control scale: each power
#: costs one more small product.
BLOCK = 64


def _evolve(lmat, y0, dt, n_steps, record):
    """Exact propagation of ``y0`` under the constant generator ``lmat``.

    ``expm`` rather than an eigendecomposition, because L may be defective
    at degeneracy points. With P = expm(dt L), the stack P, P^2, ..., P^B
    (B = min(BLOCK, n_steps)) is built once, each power from the one
    before (repeated squaring rounds less favourably on long traces); each
    block of up to B samples is then one batched product with the last
    state of the previous block. ``record(start, block)`` receives the
    states of steps start .. start + len(block) - 1 stacked along a new
    leading axis: first step 0 alone, then the blocks in order up to
    n_steps. Returns y(n_steps dt). Rounding accumulated by the powers and
    the chained blocks is gated: the final state must match
    expm(n_steps dt L) @ y0 within PROPAGATOR_TOL (a single step is that
    expm, so it needs no check).
    """
    dim = len(lmat)
    size = min(BLOCK, n_steps)
    powers = np.empty((size, dim, dim), dtype=lmat.dtype)
    powers[0] = expm(dt * lmat)
    for k in range(1, size):
        np.matmul(powers[0], powers[k - 1], out=powers[k])

    y = y0
    record(0, y0[None])
    start = 1
    while start <= n_steps:
        m = min(size, n_steps + 1 - start)
        block = powers[:m] @ y
        record(start, block)
        y = block[-1]
        start += m
    if n_steps > 1:
        err = float(np.max(np.abs(y - expm((n_steps * dt) * lmat) @ y0)))
        if err > PROPAGATOR_TOL:
            raise IntegrationError(
                f"propagator check failed: {n_steps} products of expm(L dt) deviate "
                f"from expm(L t) by {err:.2e} > {PROPAGATOR_TOL:g}; sample more coarsely"
            )
    return y


def _check_times(t_final, dt=None):
    if not (0.0 <= t_final < np.inf) or (dt is not None and not (0.0 < dt < np.inf)):
        raise InvalidParameterError(
            f"need finite dt > 0 and t_final >= 0, got dt={dt}, t_final={t_final}"
        )


def _grid(duration, dt):
    """(n_steps, dt) of the uniform grid nearest ``dt`` over ``duration`` (n_steps >= 1)."""
    n_steps = max(int(round(duration / dt)), 1)
    return n_steps, duration / n_steps


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the master equation for one initial state."""

    times: np.ndarray
    matrices: np.ndarray

    def final(self):
        return DensityMatrix(self.matrices[-1])


def propagate(rho0: DensityMatrix, es: EigenSystem, tensor: RedfieldTensor,
              t_final, dt, validate=True, eigen_floor=EIGENVALUE_FLOOR):
    """Propagate the master equation for one state, sampled on a fixed grid.

    ``tensor`` is built in the eigenbasis of ``es``; its generator is
    rotated once to the standard basis, and the state is propagated
    exactly there (see ``_evolve``), sampled every ``dt``. The repeated
    propagator must agree with a single expm over ``t_final`` to 1e-8 in
    max-norm. The trajectory's matrices are in the standard basis.
    """
    _check_times(t_final, dt)
    n_steps, dt = _grid(t_final, dt)
    history = np.empty((n_steps + 1, 16), dtype=complex)

    def record(start, block):
        history[start:start + len(block)] = block

    _evolve(_standard_liouvillian(es, tensor), rho0.matrix.reshape(16), dt, n_steps, record)

    times = np.arange(n_steps + 1) * dt
    traj = Trajectory(times=times, matrices=history.reshape(n_steps + 1, 4, 4))
    if validate:
        traj.final().validate(eigen_floor=eigen_floor)
    return traj


@dataclass(frozen=True)
class PurityTrace:
    """Gate purity P(t) averaged over the 16 disentangled initial states."""

    times: np.ndarray
    average: np.ndarray
    per_state: np.ndarray
    initial_slope: float

    @property
    def decay_rate(self):
        """|dP/dt| at t = 0, the Markovian figure of merit."""
        return abs(self.initial_slope)

    def loss(self, index=-1):
        """Purity loss 1 - P at a sample index (default: end of the run)."""
        return float(1.0 - self.average[index])


def _purities(block):
    """Tr rho^2 = |c|^2 / 4 for every state of a block of samples.

    ``block`` has shape (m, 16, n): sample x Pauli coefficient x state.
    Returns shape (m, n).
    """
    return 0.25 * np.einsum("tas,tas->ts", block, block)


def _bloch_generator(lmat):
    """The real generator B = T L T^dag / 4 of the Pauli coefficients.

    ``lmat`` acts on row-major vec(rho); T = PAULI_ROWS. B is real
    exactly when L preserves Hermiticity, so an imaginary part above
    1e-10 max(1, max|L|) raises IntegrationError rather than being dropped.
    """
    bloch = PAULI_ROWS @ lmat @ PAULI_ROWS.conj().T / 4.0
    leak = float(np.max(np.abs(bloch.imag)))
    if leak > 1e-10 * max(1.0, float(np.max(np.abs(lmat)))):
        raise IntegrationError(
            f"generator does not preserve Hermiticity: its Pauli form has an "
            f"imaginary part of {leak:.2e}"
        )
    return bloch.real


def _purity_slope(lmat, y):
    """Mean over the vec(rho) columns of ``y`` of d/dt Tr rho^2 = 2 Re Tr(rho L rho)."""
    total = 0.0
    for rho in y.T:
        total += 2.0 * np.einsum("ij,ji->", rho.reshape(4, 4), (lmat @ rho).reshape(4, 4)).real
    return float(total / y.shape[1])


def _product_vecs():
    """The 16 product states as row-major vec(rho) columns, shape (16, 16)."""
    return initial_product_states().reshape(16, 16).T


def initial_purity_slope(params: HamiltonianParams, nm: NoiseModel):
    """Analytic dP/dt at t = 0 for the 16-state gate purity.

    Computed as (1/16) sum_j 2 Re Tr(rho_j drho_j/dt) from the generator's
    right-hand side; no propagation or fitting involved.
    """
    _, _, lmat = _pipeline(params, nm)
    return _purity_slope(lmat, _product_vecs())


def _purity_trace(segments, nm: NoiseModel):
    """Propagate the 16 product states through constant-generator segments.

    ``segments`` lists (standard-basis Liouvillian, duration, dt); each
    segment is sampled on the ``_grid`` nearest dt. The states are
    propagated as real Pauli coefficients under each segment's
    ``_bloch_generator``, and their purities are |c|^2 / 4. The initial
    slope is the analytic one of the first segment, taken from its complex
    generator. Every final state is mapped back to a matrix and validated;
    a failure is re-raised with the failing state's index.
    """
    vecs = _product_vecs()
    c = (PAULI_ROWS @ vecs).real
    all_times = [np.zeros(1)]
    all_purity = [_purities(c[None])]
    slope = None
    t_offset = 0.0
    for lmat, duration, dt in segments:
        n_steps, dt = _grid(duration, dt)
        if slope is None:
            slope = _purity_slope(lmat, vecs)
        seg_purity = np.empty((n_steps + 1, 16))

        def record(start, block):
            seg_purity[start:start + len(block)] = _purities(block)

        c = _evolve(_bloch_generator(lmat), c, dt, n_steps, record)
        all_times.append(t_offset + np.arange(1, n_steps + 1) * dt)
        all_purity.append(seg_purity[1:])
        t_offset += duration

    floor = _noise_eigen_floor(nm)
    rhos = (PAULI_ROWS.conj().T @ c / 4.0).T.reshape(16, 4, 4)
    for j, rho in enumerate(rhos):
        try:
            DensityMatrix(rho).validate(state_index=j, eigen_floor=floor)
        except StateValidityError as exc:
            raise StateValidityError(f"state {j}: {exc}", state_index=j) from exc

    per_state = np.concatenate(all_purity)
    return PurityTrace(
        times=np.concatenate(all_times),
        average=per_state.mean(axis=1),
        per_state=per_state,
        initial_slope=slope,
    )


def gate_purity(params: HamiltonianParams, nm: NoiseModel, t_final=None, dt=None):
    """Propagate all 16 product states and average their purity.

    Parameters default to one gate duration (t_final = t0) sampled every
    t0 / DEFAULT_STEPS_PER_T0, whatever the spectrum; pass a smaller ``dt``
    to resolve faster oscillations. Propagation is exact for any ``dt``, so
    a caller that needs only the final loss passes ``dt=t_final`` and gets
    a two-sample trace. A negative ``t_final`` or a ``dt`` that is not
    positive raises InvalidParameterError. Per-state propagation failures
    are re-raised with the failing state index attached.
    """
    if t_final is None:
        t_final = params.t0
    _check_times(t_final, dt)
    _, _, lmat = _pipeline(params, nm)
    if dt is None:
        dt = params.t0 / DEFAULT_STEPS_PER_T0
    return _purity_trace([(lmat, t_final, dt)], nm)


def sequence_gate_purity(segments, nm: NoiseModel):
    """Gate purity through a piecewise-constant Hamiltonian sequence.

    ``segments`` is a list of (hamiltonian, duration) pairs in physical
    angular units and time units (t0 = 1) respectively; a negative
    duration raises InvalidParameterError. Each segment is sampled every
    1 / DEFAULT_STEPS_PER_T0, rounded to fit its duration (at least one
    step). Each segment's master equation is written in its own eigenbasis
    and its generator rotated once to the standard basis (``_generator``);
    ``_purity_trace`` propagates the 16 product states under its Pauli
    form. The initial slope is the analytic one for the first segment's
    generator.
    """
    resolved = []
    for h, duration in segments:
        _check_times(duration)
        resolved.append((_generator(h, nm)[2], duration, 1.0 / DEFAULT_STEPS_PER_T0))
    return _purity_trace(resolved, nm)


@dataclass(frozen=True)
class RelaxationCheck:
    """Fitted single-qubit relaxation rate vs the quoted analytic identity."""

    fitted_rate: float
    analytic_rate: float

    @property
    def ratio(self):
        if self.analytic_rate == 0.0:
            return 0.0 if self.fitted_rate == 0.0 else np.inf
        return self.fitted_rate / self.analytic_rate


def relax_time_check(delta, nm: NoiseModel, fit_points=400):
    """Fit 1/T1 for a single uncoupled qubit and compare to (pi/2) S(Delta).

    ``delta`` is the qubit's sigma_x coefficient in the same angular units
    as the noise model. The excited-state population decays toward 1/2
    (the generator has no detailed balance); the decay constant is fitted
    log-linearly to fit_points + 1 equally spaced samples. The returned
    ratio fitted/analytic is the normalization constant
    RELAXATION_NORMALIZATION (= 4/pi^2 as T -> 0), because the
    generator's exact rate is S(2 Delta)/pi.
    """
    if delta <= 0:
        raise InvalidParameterError("delta must be positive")
    if nm.alpha == 0.0:
        return RelaxationCheck(fitted_rate=0.0, analytic_rate=0.0)

    params = HamiltonianParams(delta1=delta / np.pi, t0=1.0)
    _, _, lmat = _pipeline(params, nm)

    rate_guess = spectral_function(2.0 * delta, nm) / np.pi
    if rate_guess == 0.0:
        raise InvalidParameterError(
            f"level splitting 2*delta = {2.0 * delta:g} lies above the bath cutoff "
            f"{nm.cutoff:g}: S(2 delta) = 0 leaves no relaxation to fit"
        )
    t_final = 0.25 / rate_guess
    n_steps, dt = _grid(t_final, t_final / fit_points)

    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    up = np.array([1.0, 0.0])
    rho0 = DensityMatrix.from_ket(np.kron(plus, up))
    proj = np.kron(np.outer(plus, plus), np.eye(2))
    pop = np.empty(n_steps + 1)

    def record(start, block):
        rhos = block.reshape(-1, 4, 4)
        pop[start:start + len(block)] = np.einsum("ij,tji->t", proj, rhos).real

    _evolve(lmat, rho0.matrix.reshape(16), dt, n_steps, record)

    t = np.arange(n_steps + 1) * dt
    excess = pop - 0.5
    if np.any(excess <= 0):
        raise StateValidityError("excited population crossed the stationary value")
    log_excess = np.log(excess)
    slope, intercept = np.polyfit(t, log_excess, 1)
    residual = log_excess - (slope * t + intercept)
    if np.max(np.abs(residual)) > 1e-3:
        raise StateValidityError(
            f"population decay is not exponential (max log-residual "
            f"{np.max(np.abs(residual)):.2e})"
        )
    fitted = -slope
    analytic = (np.pi / 2.0) * spectral_function(delta, nm)
    return RelaxationCheck(fitted_rate=float(fitted), analytic_rate=float(analytic))

"""Bloch-Redfield generator, propagation, and gate purity.

Each qubit couples through A_1 = sigma_z (x) 1 and A_2 = 1 (x) sigma_z to
its own bath. With the eigensystem H = V E V^dag, the transition
frequencies omega_nm = E_n - E_m and the bath spectral function S, the
dissipator has the operator form (Breuer & Petruccione, ch. 3)

    D(rho) = -sum_a [A_a, M_a rho - rho M_a^dag],
    M_a = V (A~_a o S(omega)) V^dag / 4pi,   A~_a = V^dag A_a V,

where o is the elementwise product (``_dissipators``). Lamb shifts (the
imaginary part of the rates) are not implemented. Every generator the
module propagates is built from the M_a directly in the standard basis,
on row-major vec(rho) (``_generators``):

    L = X (x) 1 + 1 (x) Y^T + sum_a (A_a (x) M_a* + M_a (x) A_a),
    X = -iH - sum_a A_a M_a,   Y = iH - sum_a M_a^dag A_a.

M_a, and so L, does not change under the eigenvector phases or under a
rotation inside a degenerate subspace, so any eigenbasis ``eigh``
returns gives the same results. Every state the module propagates,
validates or returns is in the standard basis.

The same dissipator written in the eigenbasis is the reference form the
tests compare L against: partial rates

    Lambda_lmnk = (1/4pi) S(w_nk) [sz1_lm sz1_nk + sz2_lm sz2_nk]

(``lambda_rates``), contracted into the relaxation tensor

    R_nmkl = d_lm sum_r Lambda_nrrk + d_nk sum_r Lambda*_mrrl
             - Lambda_lmnk - Lambda*_knml

(``redfield_tensor``) of drho_nm/dt = -i w_nm rho_nm - sum_kl R_nmkl rho_kl
(``RedfieldTensor.liouvillian``). Rotated to the standard basis,
kron(V, V*) L_eig kron(V^dag, V^T) equals L up to rounding. The conjugated
terms carry mirrored indices; with this pairing the generator preserves
trace and Hermiticity identically for any Lambda, which the tests
require at the 1e-10 level.

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
evaluated analytically, never by fitting. Purity traces, sweeps and the
probe take it in closed form (``purity_slopes``): the coherent part drops
out of d Tr rho^2 / dt and the 16-state mean is linear in M_a, so the
slope is -4 sum_a Re Tr(M_a W_a) for constant 4x4 matrices W_a, with no
Liouvillian or product state built. ``initial_purity_slope`` keeps the
per-state sum as its reference and as the ``optimize`` purity term.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import (
    IntegrationError,
    InvalidParameterError,
    StateValidityError,
)
from .hamiltonian import EigenSystem, HamiltonianParams, build_hamiltonian, eigh_stack
from .noise import NoiseModel, spectral_function
from .pauli import SZ1, SZ2, pauli_tensor

LAMBDA_PREFACTOR = 1.0 / (4.0 * np.pi)

#: The bath couplings A_1 = sigma_z (x) 1 and A_2 = 1 (x) sigma_z are real
#: and diagonal; row a holds the diagonal of A_a.
COUPLINGS = np.array([SZ1.diagonal().real, SZ2.diagonal().real])
COUPLINGS.flags.writeable = False

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
    """Floor for every propagated final state: the Redfield slip scales with alpha."""
    return EIGENVALUE_FLOOR - 0.02 * nm.alpha


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
        bath coupling, since the initial slip scales with alpha. A failure
        raises StateValidityError, prefixed ``state <state_index>: `` if given.
        """
        m = self.matrix
        tr = np.trace(m)
        # Written as "not <=" so that a NaN fails each check.
        if not (abs(tr.real - 1.0) <= TRACE_TOL and abs(tr.imag) <= TRACE_TOL):
            problem = f"trace deviates from 1 by {abs(tr - 1.0):.2e}"
        elif not np.max(np.abs(m - m.conj().T)) <= HERMITICITY_TOL:
            problem = "state is not Hermitian"
        elif (lowest := np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))) < eigen_floor:
            problem = f"negative eigenvalue {lowest:.2e} below floor"
        else:
            return
        prefix = "" if state_index is None else f"state {state_index}: "
        raise StateValidityError(prefix + problem, state_index=state_index)


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


#: Pauli coefficients of the 16 product states, one column per state in
#: the order of :func:`initial_product_states`: every purity trace starts here.
PRODUCT_COEFFS = (PAULI_ROWS @ initial_product_states().reshape(16, 16).T).real
PRODUCT_COEFFS.flags.writeable = False


def lambda_rates(es: EigenSystem, nm: NoiseModel):
    """Partial transition rates Lambda_lmnk in the eigenbasis.

    The first step of the eigenbasis reference form of the dissipator
    (module docstring); no propagation path uses it. The tensor is complex
    in general: it follows the phases and the degenerate-subspace rotation
    of ``es.vectors``. The standard-basis generator built from it does not
    depend on that choice of basis.
    """
    a1 = es.to_eigenbasis(SZ1)
    a2 = es.to_eigenbasis(SZ2)
    s_of_omega = spectral_function(es.omega, nm)
    lam = np.einsum("lm,nk->lmnk", a1, a1) + np.einsum("lm,nk->lmnk", a2, a2)
    lam = LAMBDA_PREFACTOR * lam * s_of_omega[None, None, :, :]
    return lam


@dataclass(frozen=True)
class RedfieldTensor:
    """Relaxation tensor R_nmkl plus the transition frequencies it pairs with.

    The eigenbasis reference form of the generator; rotated to the standard
    basis it equals the operator-form L of ``_generators`` up to rounding.
    """

    tensor: np.ndarray
    omega: np.ndarray

    def liouvillian(self):
        """Full generator as a 16x16 matrix acting on row-major vec(rho)."""
        coherent = -1j * np.diag(self.omega.reshape(16))
        return coherent - self.tensor.reshape(16, 16)


def redfield_tensor(lam, omega=None):
    """Contract partial rates into the relaxation tensor R_nmkl.

    ``omega`` (4x4 transition-frequency matrix) is carried along for the
    generator; pass it when building the full reference generator
    (:meth:`RedfieldTensor.liouvillian`).
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


def _dissipators(energies, vectors, nm: NoiseModel):
    """The operators M_a = V (A~_a o S(omega)) V^dag / 4pi of a stack of eigensystems.

    ``energies`` (..., 4) and ``vectors`` (..., 4, 4) are what
    ``np.linalg.eigh`` returns for a stack of Hamiltonians (angular units);
    the result has shape (..., 2, 4, 4), one M_a per bath coupling A_a.
    The dissipator is D(rho) = -sum_a [A_a, M_a rho - rho M_a^dag].
    """
    vh = np.swapaxes(vectors, -1, -2).conj()[..., None, :, :]
    v = vectors[..., None, :, :]
    s = LAMBDA_PREFACTOR * spectral_function(energies[..., :, None] - energies[..., None, :], nm)
    return v @ ((vh * COUPLINGS[:, None, :]) @ v * s[..., None, :, :]) @ vh


def _generators(h, nm: NoiseModel):
    """(energies, vectors, L) of a stack of Hamiltonians ``h``, shape (..., 4, 4).

    L, shape (..., 16, 16), is the standard-basis generator on row-major
    vec(rho), L = X (x) 1 + 1 (x) Y^T + sum_a (A_a (x) M_a* + M_a (x) A_a)
    with the ``_dissipators`` M_a (module docstring). With A_a = diag(a_a)
    the Kronecker products are broadcasts against the identity:
    L[ij, kl] = G_ijk d_jl + d_ik G*_jil with
    G_ijk = -i H_ik - sum_a (a_ai - a_aj) M_a,ik. The X (x) 1 and
    M_a (x) A_a terms make the first part; for Hermitian H the 1 (x) Y^T
    and A_a (x) M_a* terms are its conjugate with i and j exchanged. ``h``
    must pass the ``eigh_stack`` Hermiticity check.
    """
    energies, vectors = eigh_stack(h)
    m = _dissipators(energies, vectors, nm)
    a = COUPLINGS[:, :, None] - COUPLINGS[:, None, :]
    g = -1j * h[..., :, None, :] - np.einsum("aij,...aik->...ijk", a, m)
    eye = np.eye(4)
    swapped = np.swapaxes(g, -2, -3).conj()
    lmat = g[..., None] * eye[:, None, :] + swapped[..., None, :] * eye[:, None, :, None]
    return energies, vectors, lmat.reshape(h.shape[:-2] + (16, 16))


def _pipeline(params: HamiltonianParams, nm: NoiseModel):
    """(EigenSystem, standard-basis Liouvillian) of a configuration.

    Both come from one ``_generators`` call.
    """
    energies, vectors, lmat = _generators(build_hamiltonian(params), nm)
    return EigenSystem(energies=energies, vectors=vectors), lmat


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
    expm, so it needs no check). A P that a finite but huge L overflows to
    NaN or inf raises IntegrationError naming the overflow.
    """
    dim = len(lmat)
    size = min(BLOCK, n_steps)
    powers = np.empty((size, dim, dim), dtype=lmat.dtype)
    powers[0] = expm(dt * lmat)
    if not np.all(np.isfinite(powers[0])):
        raise IntegrationError(f"propagator overflowed: expm(L dt) has nan or inf entries "
                               f"at dt = {dt:.3g}, max |L| = {np.max(np.abs(lmat)):.3g}")
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
        if not err <= PROPAGATOR_TOL:  # a NaN fails too
            raise IntegrationError(
                f"propagator check failed: {n_steps} products of expm(L dt) deviate "
                f"from expm(L t) by {err:.2e} > {PROPAGATOR_TOL:g}; sample more coarsely"
            )
    return y


def _check_times(t_final, dt):
    if not (0.0 <= t_final < np.inf and 0.0 < dt < np.inf):
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


def propagate(rho0: DensityMatrix, params: HamiltonianParams, nm: NoiseModel, t_final, dt):
    """Propagate the master equation for one state, sampled on a fixed grid.

    The state evolves exactly (see ``_evolve``) under the configuration's
    standard-basis generator (``_pipeline``), sampled every ``dt``
    rounded to fit ``t_final``. The repeated propagator must agree with a
    single expm over ``t_final`` to 1e-8 in max-norm, and the final state
    must pass :meth:`DensityMatrix.validate` at ``_noise_eigen_floor(nm)``,
    the floor of purity traces. The trajectory's matrices are in the
    standard basis.
    """
    _check_times(t_final, dt)
    n_steps, dt = _grid(t_final, dt)
    history = np.empty((n_steps + 1, 16), dtype=complex)

    def record(start, block):
        history[start:start + len(block)] = block

    _evolve(_pipeline(params, nm)[1], rho0.matrix.reshape(16), dt, n_steps, record)

    times = np.arange(n_steps + 1) * dt
    traj = Trajectory(times=times, matrices=history.reshape(n_steps + 1, 4, 4))
    traj.final().validate(eigen_floor=_noise_eigen_floor(nm))
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

    def loss(self):
        """Purity loss 1 - P at the end of the run."""
        return float(1.0 - self.average[-1])


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


def initial_purity_slope(params: HamiltonianParams, nm: NoiseModel):
    """Analytic dP/dt at t = 0 for the 16-state gate purity, state by state.

    Computed as (1/16) sum_j 2 Re Tr(rho_j L rho_j) from the configuration's
    standard-basis generator L; no propagation or fitting involved. The
    reference for ``purity_slopes`` and the ``optimize`` purity term.
    """
    lmat = _pipeline(params, nm)[1]
    total = 0.0
    for rho in initial_product_states():
        total += 2.0 * np.einsum("ij,ji->", rho, (lmat @ rho.reshape(16)).reshape(4, 4)).real
    return float(total / 16)


#: W_a = (1/16) sum_j rho_j [rho_j, A_a] over the 16 product states, the
#: only way the states enter the closed-form slope (``purity_slopes``).
SLOPE_WEIGHTS = np.mean(
    [[rho @ (rho @ a - a @ rho) for a in (SZ1, SZ2)] for rho in initial_product_states()], axis=0
)
SLOPE_WEIGHTS.flags.writeable = False


def purity_slopes(energies, vectors, nm: NoiseModel):
    """Analytic 16-state dP/dt at t = 0 for a stack of eigensystems.

    ``energies`` (..., 4) and ``vectors`` (..., 4, 4) are what
    ``np.linalg.eigh`` returns for a stack of Hamiltonians (angular
    units); the result has the leading shape. The dissipator is
    D(rho) = -sum_a [A_a, M_a rho - rho M_a^dag] with the same M_a the
    generators are built from (``_dissipators``). The coherent part drops
    out of d Tr rho^2 / dt, and the 16-state mean is linear in M_a, so the
    slope is -4 sum_a Re Tr(M_a W_a) with the constant SLOPE_WEIGHTS W_a:
    no Liouvillian and no product state is built. Equal to
    :func:`initial_purity_slope` up to rounding.
    """
    m = _dissipators(energies, vectors, nm)
    return -4.0 * np.einsum("akm,...amk->...", SLOPE_WEIGHTS, m).real


def _purity_trace(segments, dt, nm: NoiseModel):
    """Propagate the 16 product states through piecewise-constant Hamiltonians.

    ``segments`` lists (hamiltonian, duration) pairs in physical angular
    units; each segment is sampled on the ``_grid`` nearest ``dt``. A
    negative duration, a ``dt`` that is not positive, an empty list or a
    Hamiltonian that is not 4x4 raises InvalidParameterError, and so does
    one with a non-finite entry. The eigensystems and standard-basis
    generators of all segments are built in one ``_generators`` call. The
    states start from PRODUCT_COEFFS and are propagated as real Pauli
    coefficients under each segment's ``_bloch_generator``; their purities
    are |c|^2 / 4. The initial slope is the closed form ``purity_slopes``
    on the first segment's eigensystem. Every final state is mapped back
    to a matrix and validated with its state index. Without a bath
    (``nm.alpha == 0``) the evolution is unitary, so after validation
    every purity is set to exactly 1 and the slope to exactly 0.
    """
    for _, duration in segments:
        _check_times(duration, dt)
    hs = [np.asarray(h, dtype=complex) for h, _ in segments]
    if not hs or any(h.shape != (4, 4) for h in hs):
        raise InvalidParameterError("need at least one segment, each with a 4x4 Hamiltonian")
    energies, vectors, lmats = _generators(np.array(hs), nm)
    # First, not last: taken right before a CLI writes the trace, this call
    # was measured to slow the CSV's float formatting by about a third.
    slope = float(purity_slopes(energies[0], vectors[0], nm))
    c = PRODUCT_COEFFS
    all_times = [np.zeros(1)]
    all_purity = [_purities(c[None])]
    t_offset = 0.0
    for lmat, (_, duration) in zip(lmats, segments):
        n_steps, seg_dt = _grid(duration, dt)
        seg_purity = np.empty((n_steps + 1, 16))

        def record(start, block):
            seg_purity[start:start + len(block)] = _purities(block)

        c = _evolve(_bloch_generator(lmat), c, seg_dt, n_steps, record)
        all_times.append(t_offset + np.arange(1, n_steps + 1) * seg_dt)
        all_purity.append(seg_purity[1:])
        t_offset += duration

    floor = _noise_eigen_floor(nm)
    rhos = (PAULI_ROWS.conj().T @ c / 4.0).T.reshape(16, 4, 4)
    for j, rho in enumerate(rhos):
        DensityMatrix(rho).validate(state_index=j, eigen_floor=floor)

    per_state = np.concatenate(all_purity)
    if nm.alpha == 0.0:
        per_state[:] = 1.0
        slope = 0.0
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
    a two-sample trace. The one-segment case of ``_purity_trace``, which
    validates the times and states and sets the slope.
    """
    if t_final is None:
        t_final = params.t0
    if dt is None:
        dt = params.t0 / DEFAULT_STEPS_PER_T0
    return _purity_trace([(build_hamiltonian(params), t_final)], dt, nm)


def sequence_gate_purity(segments, nm: NoiseModel):
    """Gate purity through a piecewise-constant Hamiltonian sequence.

    ``segments`` is a list of (hamiltonian, duration) pairs in physical
    angular units and time units (t0 = 1) respectively. Each segment is
    sampled every 1 / DEFAULT_STEPS_PER_T0, rounded to fit its duration
    (at least one step). ``_purity_trace`` validates the sequence and the
    states and sets the slope.
    """
    return _purity_trace(segments, 1.0 / DEFAULT_STEPS_PER_T0, nm)


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


def relax_time_check(delta, nm: NoiseModel):
    """Fit 1/T1 for a single uncoupled qubit and compare to (pi/2) S(Delta).

    ``delta`` is the qubit's sigma_x coefficient in the same angular units
    as the noise model. The excited-state population decays toward 1/2
    (the generator has no detailed balance); the decay constant is fitted
    log-linearly to 401 equally spaced samples of ``propagate``, which
    validates the final state. The returned ratio fitted/analytic is the
    normalization constant RELAXATION_NORMALIZATION (= 4/pi^2 as T -> 0),
    because the generator's exact rate is S(2 Delta)/pi.
    """
    if delta <= 0:
        raise InvalidParameterError("delta must be positive")
    if nm.alpha == 0.0:
        return RelaxationCheck(fitted_rate=0.0, analytic_rate=0.0)

    rate_guess = spectral_function(2.0 * delta, nm) / np.pi
    if rate_guess == 0.0:
        raise InvalidParameterError(
            f"level splitting 2*delta = {2.0 * delta:g} lies above the bath cutoff "
            f"{nm.cutoff:g}: S(2 delta) = 0 leaves no relaxation to fit"
        )
    t_final = 0.25 / rate_guess
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    up = np.array([1.0, 0.0])
    rho0 = DensityMatrix.from_ket(np.kron(plus, up))
    params = HamiltonianParams(delta1=delta / np.pi, t0=1.0)
    traj = propagate(rho0, params, nm, t_final, t_final / 400)

    proj = np.kron(np.outer(plus, plus), np.eye(2))
    pop = np.einsum("ij,tji->t", proj, traj.matrices).real
    t = traj.times
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

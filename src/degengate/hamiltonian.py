"""Two-qubit control Hamiltonian, its pulse unitary, its spectrum, and degeneracy diagnostics.

The Hamiltonian is

    H = sum_i B_i . sigma_i + sum_a J_a sigma^a_1 sigma^a_2,
    B_i = (Delta_i, 0, eps_i),

with seven real controls. Control values are stored in reduced units of
pi/t0; ``build_hamiltonian`` returns the matrix in physical angular units
(entries scaled by pi/t0), which is the unique convention under which the
published one-step CNOT parameters reproduce the gate exactly as
exp(-i pi/4 - i t0 H).
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from .errors import InvalidParameterError, NonHermitianError
from .pauli import pauli_tensor

PARAM_NAMES = ("delta1", "delta2", "eps1", "eps2", "jx", "jy", "jz")

HERMITICITY_TOL = 1e-10
DEFAULT_DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class HamiltonianParams:
    """The seven tunable controls, in reduced units of pi/t0.

    delta1, delta2 are the tunneling amplitudes, eps1, eps2 the biases,
    and (jx, jy, jz) the exchange couplings. ``t0`` is the pulse duration
    in the time unit of choice.
    """

    delta1: float = 0.0
    delta2: float = 0.0
    eps1: float = 0.0
    eps2: float = 0.0
    jx: float = 0.0
    jy: float = 0.0
    jz: float = 0.0
    t0: float = 1.0

    def __post_init__(self):
        values = self.as_array()
        if not np.all(np.isfinite(values)) or not np.isfinite(self.t0):
            raise InvalidParameterError("all control values and t0 must be finite")
        if self.t0 <= 0:
            raise InvalidParameterError("t0 must be positive")

    def as_array(self):
        """Controls as a float array ordered like PARAM_NAMES."""
        return np.array([getattr(self, name) for name in PARAM_NAMES], dtype=float)

    def replace(self, **changes):
        """Copy with some fields updated."""
        return replace(self, **changes)

    @property
    def angular_scale(self):
        """Physical angular frequency of one reduced unit, pi/t0."""
        return np.pi / self.t0

    @property
    def coupling_norm(self):
        """|J| = sqrt(jx^2 + jy^2 + jz^2) in reduced units."""
        return float(np.sqrt(self.jx**2 + self.jy**2 + self.jz**2))

    @classmethod
    def from_array(cls, values, t0=1.0):
        if len(values) != len(PARAM_NAMES):
            raise InvalidParameterError("expected 7 control values")
        return cls(**dict(zip(PARAM_NAMES, map(float, values))), t0=t0)


def build_hamiltonians(controls, t0=1.0):
    """The Hamiltonians of a stack of control points, in one pass.

    ``controls`` has shape (n, 7), or (7,) for one point, ordered like
    PARAM_NAMES, in reduced units; the result has shape (n, 4, 4), or
    (4, 4), in physical angular units (entries scaled by pi/t0). In the
    standard basis each matrix is

        [ Jz+e1+e2   D2          D1          Jx-Jy     ]
        [ D2         e1-e2-Jz    Jx+Jy       D1        ]
        [ D1         Jx+Jy       e2-e1-Jz    D2        ]
        [ Jx-Jy      D1          D2          -e1-e2+Jz ]

    times pi/t0: real symmetric, hence Hermitian, and traceless.
    """
    x = np.asarray(controls, dtype=float) * (np.pi / t0)
    d1, d2, e1, e2, jx, jy, jz = x.T
    h = np.array(
        [
            [jz + e1 + e2, d2, d1, jx - jy],
            [d2, e1 - e2 - jz, jx + jy, d1],
            [d1, jx + jy, e2 - e1 - jz, d2],
            [jx - jy, d1, d2, -e1 - e2 + jz],
        ],
        dtype=complex,
    )
    return h if x.ndim == 1 else h.transpose(2, 0, 1)


def build_hamiltonian(p: HamiltonianParams):
    """The 4x4 Hamiltonian of one control point (see :func:`build_hamiltonians`)."""
    return build_hamiltonians(p.as_array(), p.t0)


def pulse_unitary(h, duration=1.0):
    """The unitary of one constant pulse, exp(-i duration h), by ``scipy.linalg.expm``.

    Every closed-system gate unitary goes through here. Write exp(+i t A)
    as ``pulse_unitary(A, -t)``: it rounds like ``expm(1j * t * A)`` down to
    the sign of zero, which ``pulse_unitary(-A, t)`` does not always do.
    """
    return expm(-1j * duration * h)


def build_hamiltonian_from_paulis(p: HamiltonianParams):
    """Independent assembly from explicit Kronecker products (cross-check)."""
    s = p.angular_scale
    h = np.zeros((4, 4), dtype=complex)
    h += p.delta1 * s * pauli_tensor("x", "0")
    h += p.eps1 * s * pauli_tensor("z", "0")
    h += p.delta2 * s * pauli_tensor("0", "x")
    h += p.eps2 * s * pauli_tensor("0", "z")
    for axis, coupling in (("x", p.jx), ("y", p.jy), ("z", p.jz)):
        h += coupling * s * pauli_tensor(axis, axis)
    return h


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues and eigenvectors of a 4x4 Hermitian matrix.

    ``energies`` are ascending, in the units of the input matrix.
    ``vectors`` holds orthonormal eigenvectors as columns, as
    ``np.linalg.eigh`` returns them (see :func:`eigensystem`).
    ``omega[n, m] = energies[n] - energies[m]`` are the transition
    frequencies.
    """

    energies: np.ndarray
    vectors: np.ndarray

    @property
    def omega(self):
        return self.energies[:, None] - self.energies[None, :]

    def gaps(self):
        """All 12 ordered-pair transition frequencies as a dict."""
        w = self.omega
        return {
            (n + 1, m + 1): float(w[n, m])
            for n in range(4)
            for m in range(4)
            if n != m
        }

    def to_eigenbasis(self, op):
        """Matrix elements of ``op`` (standard basis) in the eigenbasis."""
        return self.vectors.conj().T @ op @ self.vectors

    def to_standard(self, op):
        """Inverse transformation of :meth:`to_eigenbasis`."""
        return self.vectors @ op @ self.vectors.conj().T


def eigensystem(h):
    """Diagonalize a Hermitian 4x4 matrix.

    Eigenvalues come out ascending; the eigenvectors are those of
    ``np.linalg.eigh``, with whatever phases, and whatever rotation inside
    a degenerate subspace, LAPACK returns. The eigenbasis reference form of
    the dissipator (``lambda_rates``, ``redfield_tensor``) depends on that
    choice; the operators M_a = V (A~_a o S(omega)) V^dag / 4pi, and so the
    operator-form standard-basis generator every state is propagated under,
    do not.

    Raises
    ------
    InvalidParameterError
        If an entry is not finite.
    NonHermitianError
        If ``max|h - h^dagger|`` exceeds 1e-10.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (4, 4):
        raise InvalidParameterError("expected a 4x4 matrix")
    energies, vectors = eigh_stack(h)
    return EigenSystem(energies=energies, vectors=vectors)


def eigh_stack(h):
    """``np.linalg.eigh`` of a Hermitian matrix or a stack of them, in one call.

    Raises InvalidParameterError if any entry is not finite, and
    NonHermitianError if any matrix deviates from its adjoint by more than
    1e-10 in max-norm.
    """
    if not np.isfinite(h).all():
        raise InvalidParameterError("input matrix has a non-finite entry")
    if (np.abs(h - h.conj().swapaxes(-1, -2)) > HERMITICITY_TOL).any():
        raise NonHermitianError("input matrix is not Hermitian within 1e-10")
    return np.linalg.eigh(h)


def spectrum_optimal_point(p: HamiltonianParams):
    """Closed-form spectrum at the qubits' optimal points (eps1 = eps2 = 0).

    Returns the four energies, ascending, in physical angular units:

        E_{1,2} = Jx -/+ sqrt((D1+D2)^2 + (Jy-Jz)^2)
        E_{3,4} = -Jx +/- sqrt((D1-D2)^2 + (Jy+Jz)^2)
    """
    if abs(p.eps1) > 0 or abs(p.eps2) > 0:
        raise InvalidParameterError("closed form requires eps1 = eps2 = 0")
    s = p.angular_scale
    lower = np.sqrt((p.delta1 + p.delta2) ** 2 + (p.jy - p.jz) ** 2)
    upper = np.sqrt((p.delta1 - p.delta2) ** 2 + (p.jy + p.jz) ** 2)
    energies = np.array(
        [p.jx - lower, p.jx + lower, -p.jx + upper, -p.jx - upper]
    ) * s
    return np.sort(energies)


@dataclass(frozen=True)
class DegeneracyReport:
    """Degeneracy diagnostics for a spectrum.

    ``classification`` is 'none', 'single' or 'double'. 'double' means the
    ascending spectrum splits into two pairs, each internally degenerate
    within the tolerance (the E1=E4, E2=E3 pattern after sorting);
    'single' means exactly one degenerate cluster of two (or three)
    levels. ``pair_gaps`` are the internal gaps of the lower and upper
    pair; ``pair_gap_measure`` is their maximum, the scalar used as a
    double-degeneracy violation measure.
    """

    min_gap: float
    pair_gaps: tuple
    classification: str

    @property
    def pair_gap_measure(self):
        return max(self.pair_gaps)


def degeneracy_classes(adjacent, tol):
    """Classification of spectra from their adjacent gaps, shape (..., 3).

    'double' when the lower and the upper gap are both below ``tol``,
    else 'single' when any gap is, else 'none'. Returns a string array of
    the leading shape; ``tol`` is not checked.
    """
    degenerate = adjacent < tol
    double = degenerate[..., 0] & degenerate[..., 2]
    return np.where(double, "double", np.where(degenerate.any(axis=-1), "single", "none"))


def constraint_gap(adjacent, constraint):
    """The gap a degeneracy constraint closes, from adjacent gaps of shape (..., 3).

    ``constraint`` is 'single' or 'double' (callers check it). 'single'
    closes the smallest gap; 'double' closes the lower and the upper pair,
    so its gap is the larger of the two (``pair_gap_measure``).
    """
    if constraint == "double":
        return np.maximum(adjacent[..., 0], adjacent[..., 2])
    return adjacent.min(axis=-1)


def classify_degeneracy(es, tol=DEFAULT_DEGENERACY_TOL):
    """Classify the degeneracy structure of an EigenSystem or energy array."""
    if tol <= 0:
        raise InvalidParameterError("tolerance must be positive")
    energies = es.energies if isinstance(es, EigenSystem) else np.sort(np.asarray(es, dtype=float))
    adjacent = np.diff(energies)
    return DegeneracyReport(
        min_gap=float(np.min(adjacent)),
        pair_gaps=(float(adjacent[0]), float(adjacent[2])),
        classification=str(degeneracy_classes(adjacent, tol)),
    )

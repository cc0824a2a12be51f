"""Gate distance, Makhlin local invariants, and the combined gate report.

The deviation of an evolution U from a target X is the Frobenius norm
||X - U|| = sqrt(Tr[(X-U)^dag (X-U)]); the physically meaningful variant
minimizes over a global phase, with closed-form optimum

    min_phi ||X - e^{i phi} U|| = sqrt(8 - 2 |Tr(X^dag U)|).

Two gates are locally equivalent (equal up to single-qubit rotations
before and after) iff their Makhlin invariants coincide:

    G1 = tr^2[m] / (16 det X),   G2 = (tr^2[m] - tr[m^2]) / (4 det X),

with m = X_B^T X_B and X_B the gate rotated to the Bell (magic) basis.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import NonUnitaryError
from .hamiltonian import HamiltonianParams, build_hamiltonian, pulse_unitary
from .noise import NoiseModel
from .redfield import gate_purity

UNITARITY_TOL = 1e-8
DEFAULT_EQUIVALENCE_TOL = 1e-6

# Bell ("magic") basis change. The printed form of Q lacks the 1/sqrt(2)
# needed for unitarity; the invariants are insensitive to that scale
# because of the det[X] denominator, but the unitary version keeps the
# intermediate matrices well conditioned.
MAGIC_BASIS = (1.0 / np.sqrt(2.0)) * np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
)


def assert_unitary(u, name="matrix"):
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise NonUnitaryError(f"{name} must be 4x4")
    defect = np.max(np.abs(u.conj().T @ u - np.eye(4)))
    if not defect <= UNITARITY_TOL:  # a NaN fails too
        raise NonUnitaryError(f"{name} is not unitary (defect {defect:.2e})")
    return u


@dataclass(frozen=True)
class GateTarget:
    """A named target unitary."""

    name: str
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "matrix", assert_unitary(self.matrix, name=f"target {self.name}")
        )


def gate_distance(u, x):
    """Frobenius distance of unitary ``u`` to unitary target ``x``.

    The phase-optimized distance is sqrt(max(8 - 8 F, 0)), F the fidelity_score.

    Returns
    -------
    (raw, phase_optimized) : tuple of float
        ``raw`` compares the matrices as given; ``phase_optimized``
        minimizes over a global phase of ``u`` and never exceeds ``raw``.
    """
    xm = x.matrix if isinstance(x, GateTarget) else np.asarray(x, dtype=complex)
    u = assert_unitary(u, name="gate")
    assert_unitary(xm, name="target")
    raw = float(np.linalg.norm(xm - u))
    return raw, float(np.sqrt(max(8.0 - 8.0 * fidelity_score(u, xm), 0.0)))


def fidelity_score(u, x):
    """Phase-insensitive overlap F = |Tr(X^dag U)| / 4, 1 iff equal up to a phase.

    The overlap rule of ``gate_distance``, ``optimize`` and ``sensitivity``
    (d^2 = 8 (1 - F)); neither argument is checked for unitarity."""
    xm = x.matrix if isinstance(x, GateTarget) else np.asarray(x, dtype=complex)
    return float(abs(np.trace(xm.conj().T @ u)) / 4.0)


@dataclass(frozen=True)
class MakhlinInvariants:
    """The pair (G1, G2); G1 is genuinely complex, G2 real up to noise.

    Equivalence tests compare ``distance`` (max rule) with a tolerance; the
    class-time scan, the B-gate polish and ``optimize`` use ``gap`` (sum rule).
    """

    g1: complex
    g2: complex

    def distance(self, other):
        return float(max(abs(self.g1 - other.g1), abs(self.g2 - other.g2)))

    def gap(self, other):
        """|G1 - G1'| + |G2 - G2'| to ``other``."""
        return float(abs(self.g1 - other.g1) + abs(self.g2 - other.g2))


def makhlin_invariants(x):
    """Makhlin local invariants of a two-qubit unitary."""
    xm = x.matrix if isinstance(x, GateTarget) else np.asarray(x, dtype=complex)
    assert_unitary(xm, name="gate")
    xb = MAGIC_BASIS.conj().T @ xm @ MAGIC_BASIS
    det = np.linalg.det(xb)
    m = xb.T @ xb
    tr2 = np.trace(m) ** 2
    g1 = tr2 / (16.0 * det)
    g2 = (tr2 - np.trace(m @ m)) / (4.0 * det)
    return MakhlinInvariants(g1=complex(g1), g2=complex(g2))


def is_equivalent(u, x):
    """Local equivalence test: Makhlin invariants within DEFAULT_EQUIVALENCE_TOL."""
    gu = u if isinstance(u, MakhlinInvariants) else makhlin_invariants(u)
    gx = x if isinstance(x, MakhlinInvariants) else makhlin_invariants(x)
    return gu.distance(gx) < DEFAULT_EQUIVALENCE_TOL


@dataclass(frozen=True)
class GateReport:
    """Everything one wants to know about a candidate gate in one record."""

    target: str
    distance_raw: float
    distance_phase_opt: float
    fidelity: float
    g1: complex
    g2: complex
    equivalent: bool
    purity_loss: float
    decay_rate: float
    t0: float
    params: HamiltonianParams = None
    noise: NoiseModel = None

    def to_dict(self):
        out = {
            "target": self.target,
            "distance_raw": self.distance_raw,
            "distance_phase_opt": self.distance_phase_opt,
            "fidelity": self.fidelity,
            "g1_re": self.g1.real,
            "g1_im": self.g1.imag,
            "g2_re": self.g2.real,
            "g2_im": self.g2.imag,
            "equivalent": self.equivalent,
            "purity_loss": self.purity_loss,
            "decay_rate": self.decay_rate,
            "t0": self.t0,
        }
        if self.params is not None:
            out["params"] = asdict(self.params)
        if self.noise is not None:
            out["noise"] = asdict(self.noise)
        return out


def report(params: HamiltonianParams, target: GateTarget, nm: NoiseModel, t0=None):
    """Assemble distance, invariants, equivalence and the two-sample
    ``gate_purity`` loss and rate over ``t0`` into a GateReport."""
    if t0 is None:
        t0 = params.t0
    u = pulse_unitary(build_hamiltonian(params), t0)
    raw, phase_opt = gate_distance(u, target)
    inv = makhlin_invariants(u)
    trace = gate_purity(params, nm, t_final=t0, dt=t0)
    return GateReport(
        target=target.name,
        distance_raw=raw,
        distance_phase_opt=phase_opt,
        fidelity=fidelity_score(u, target),
        g1=inv.g1,
        g2=inv.g2,
        equivalent=is_equivalent(inv, target),
        purity_loss=trace.loss(),
        decay_rate=trace.decay_rate,
        t0=t0,
        params=params,
        noise=nm,
    )

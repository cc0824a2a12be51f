"""Ohmic bath model for two independent dephasing reservoirs.

Each qubit couples through its sigma_z to its own bath; the baths are
uncorrelated, so no decoherence-free subspace exists. The bath is
characterized by the spectral function

    S(w) = alpha * w * coth(w / 2T) * Theta(wc - w),

evaluated exactly as written: the sharp cutoff acts on the positive side
only and Theta(0) = 1. Inside the cutoff S is even in w, which means the
generator it feeds has no detailed balance (absorption and emission rates
coincide); the stationary state of the dissipator is maximally mixed.
"""

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

WEAK_COUPLING_WARN = 0.1


@dataclass(frozen=True)
class NoiseModel:
    """Ohmic bath parameters in the same angular units as the Hamiltonian.

    ``alpha`` is the dimensionless coupling (weak-coupling regime
    alpha << 1), ``temperature`` and ``cutoff`` are energies in the units
    of the Hamiltonian matrix.
    """

    alpha: float
    temperature: float
    cutoff: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.alpha, self.temperature, self.cutoff])):
            raise InvalidParameterError("noise parameters must be finite")
        if self.alpha < 0:
            raise InvalidParameterError("alpha must be non-negative")
        if self.temperature < 0:
            raise InvalidParameterError("temperature must be non-negative")
        if self.cutoff <= 0:
            raise InvalidParameterError("cutoff must be positive")
        if self.alpha > WEAK_COUPLING_WARN:
            # Name the caller of NoiseModel(...) or NoiseModel.from_reduced(...):
            # skip __post_init__, the dataclass __init__ and this module's frames.
            stacklevel, frame = 3, sys._getframe(2)
            while frame.f_code.co_filename == __file__:
                stacklevel, frame = stacklevel + 1, frame.f_back
            warnings.warn(
                f"alpha={self.alpha:g} is outside the weak-coupling regime "
                f"(expected alpha << 1)",
                stacklevel=stacklevel,
            )

    @classmethod
    def from_reduced(cls, alpha=0.01, temperature=0.2, cutoff=20.0, t0=1.0):
        """Build from reduced (pi/t0) units, the units of the control values.

        The defaults are the package's desk-scale noise: alpha = 0.01,
        T = 0.2 and wc = 20 in units of pi/t0. ``t0`` must be positive and
        finite.
        """
        if not 0.0 < t0 < np.inf:
            raise InvalidParameterError(f"t0 must be positive and finite, got {t0}")
        scale = np.pi / t0
        return cls(alpha=alpha, temperature=temperature * scale, cutoff=cutoff * scale)


def spectral_function(omega, nm: NoiseModel):
    """Bath spectral function S(w), elementwise on ``omega``.

    Limits are taken analytically: S(0) = 2 alpha T, and at T = 0
    S(w) = alpha |w| inside the cutoff. The sharp cutoff Theta(wc - w)
    is applied literally, i.e. only for w > wc does S vanish.
    """
    w = np.asarray(omega, dtype=float)
    out = np.zeros_like(w)
    inside = w <= nm.cutoff
    if nm.temperature == 0.0:
        out[inside] = nm.alpha * np.abs(w[inside])
    else:
        small = np.abs(w) < 1e-12 * max(nm.temperature, 1.0)
        regular = inside & ~small
        # At a subnormal temperature w / 2T overflows to +-inf, and
        # tanh(+-inf) = +-1 gives the exact alpha |w|.
        with np.errstate(over="ignore"):
            x = w[regular] / (2.0 * nm.temperature)
        out[regular] = nm.alpha * w[regular] / np.tanh(x)
        out[inside & small] = 2.0 * nm.alpha * nm.temperature
    if np.ndim(omega) == 0:
        return float(out)
    return out

"""Exception types shared across the package."""


class DegengateError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(DegengateError, ValueError):
    """A control parameter or model input is out of its admissible range."""


class NonHermitianError(DegengateError, ValueError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NonUnitaryError(DegengateError, ValueError):
    """A matrix required to be unitary is not, beyond tolerance."""


class IntegrationError(DegengateError, RuntimeError):
    """Repeated propagator products drifted from the exact final state."""


class StateValidityError(DegengateError, RuntimeError):
    """A propagated density matrix violated trace/Hermiticity/positivity bounds."""

    def __init__(self, message, state_index=None):
        super().__init__(message)
        self.state_index = state_index


class ConfigError(DegengateError, ValueError):
    """A run configuration could not be parsed or validated."""

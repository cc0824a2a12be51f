"""Pauli matrices and two-qubit tensor products.

Basis ordering is fixed throughout the package: the standard product basis
|up,up>, |up,down>, |down,up>, |down,down> in which both sigma_z operators
are diagonal, qubit 1 being the slow (leftmost) index.
"""

import numpy as np

from .errors import InvalidParameterError

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_AXES = {
    "0": SIGMA_0,
    "x": SIGMA_X,
    "y": SIGMA_Y,
    "z": SIGMA_Z,
}


def single_qubit(axis):
    """Return the 2x2 Pauli matrix for axis '0', 'x', 'y' or 'z'."""
    try:
        return _AXES[str(axis)]
    except KeyError:
        raise InvalidParameterError(f"unknown Pauli axis {axis!r}; expected one of 0, x, y, z")


def pauli_tensor(a, b):
    """Kronecker product sigma^a (x) sigma^b in the standard product basis.

    Parameters
    ----------
    a, b : str
        Axis labels for qubit 1 and qubit 2; '0' is the identity.

    Returns
    -------
    ndarray, shape (4, 4), complex
    """
    return np.kron(single_qubit(a), single_qubit(b))


# Frequently used two-qubit operators, precomputed.
SZ1 = pauli_tensor("z", "0")
SZ2 = pauli_tensor("0", "z")
SX2 = pauli_tensor("0", "x")

import numpy as np
import pytest

from degengate import HamiltonianParams, lambda_rates, redfield_tensor


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_params(rng, scale=2.0, t0=1.0):
    vals = rng.uniform(-scale, scale, size=7)
    return HamiltonianParams.from_array(vals, t0=t0)


def random_hermitian(rng, scale=np.pi):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = 0.5 * (a + a.conj().T)
    return scale * h


def random_unitary(rng, dim=4):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_local_unitary(rng):
    return np.kron(random_unitary(rng, 2), random_unitary(rng, 2))


def eigen_liouvillian(es, nm):
    """Reference generator in the eigenbasis of ``es``: the relaxation tensor's."""
    return redfield_tensor(lambda_rates(es, nm), omega=es.omega).liouvillian()


def reference_liouvillian(es, nm):
    """The eigenbasis reference generator rotated to the standard basis."""
    v = es.vectors
    return np.kron(v, v.conj()) @ eigen_liouvillian(es, nm) @ np.kron(v.conj().T, v.T)

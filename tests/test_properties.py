"""Property tests of the standard-basis generator over random controls and noise.

Examples are derived deterministically (``derandomize=True``), so every run
checks the same draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degengate import (
    HamiltonianParams,
    NoiseModel,
    gate_purity,
    initial_product_states,
    initial_purity_slope,
    pauli_tensor,
)
from degengate.constructions import onestep_cnot
from degengate.redfield import _bloch_generator, _pipeline

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)

controls = st.lists(st.floats(-2.0, 2.0), min_size=7, max_size=7)
noise = st.tuples(st.floats(0.0, 0.05), st.floats(0.0, 2.0))
STATES = initial_product_states()  # a real basis of the Hermitian 4x4 matrices
CNOT = onestep_cnot(refined=True).params
DESK = NoiseModel.from_reduced()


def _apply(lmat, rho):
    return (lmat @ rho.reshape(16)).reshape(4, 4)


@PROPERTY_SETTINGS
@given(controls, noise)
def test_generator_preserves_trace_and_hermiticity(values, bath):
    params = HamiltonianParams.from_array(values)
    _, _, lmat = _pipeline(params, NoiseModel.from_reduced(*bath))
    for rho in STATES:
        drho = _apply(lmat, rho)
        assert abs(np.trace(drho)) <= 1e-10
        assert np.max(np.abs(drho - drho.conj().T)) <= 1e-10


@PROPERTY_SETTINGS
@given(controls, noise)
def test_generator_is_eigenbasis_generator_conjugated(values, bath):
    params = HamiltonianParams.from_array(values)
    es, tensor, lmat = _pipeline(params, NoiseModel.from_reduced(*bath))
    lmat_eig = tensor.liouvillian()
    v = es.vectors
    scale = max(np.max(np.abs(lmat_eig)), 1.0)
    for rho in STATES:
        by_hand = v @ _apply(lmat_eig, v.conj().T @ rho @ v) @ v.conj().T
        assert np.max(np.abs(_apply(lmat, rho) - by_hand)) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(controls, noise, st.floats(0.25, 4.0))
def test_loss_invariant_under_time_rescaling(values, bath, t0):
    # Controls and noise are in units of pi/t0, so rescaling t0 rescales
    # the generator and the duration inversely and leaves the loss alone.
    reference = gate_purity(HamiltonianParams.from_array(values),
                            NoiseModel.from_reduced(*bath)).loss()
    rescaled = gate_purity(HamiltonianParams.from_array(values, t0=t0),
                           NoiseModel.from_reduced(*bath, t0=t0)).loss()
    assert rescaled == pytest.approx(reference, rel=1e-10, abs=1e-14)


@PROPERTY_SETTINGS
@given(controls, noise)
def test_bloch_generator_is_real_pauli_form(values, bath):
    # Rows vec(sigma_a*) give the Pauli coefficients Tr(sigma_a rho) of vec(rho).
    t = np.array([pauli_tensor(a, b).conj().reshape(16) for a in "0xyz" for b in "0xyz"])
    _, _, lmat = _pipeline(HamiltonianParams.from_array(values), NoiseModel.from_reduced(*bath))
    by_hand = t @ lmat @ t.conj().T / 4.0
    scale = np.max(np.abs(lmat))
    bloch = _bloch_generator(lmat)
    assert bloch.dtype == float
    assert np.max(np.abs(by_hand.imag)) <= 1e-12 * scale
    assert np.max(np.abs(bloch - by_hand)) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(st.floats(-12.0, -2.0), st.sampled_from([-1.0, 1.0]))
def test_slope_continuous_off_cnot_degeneracy(exponent, sign):
    h = sign * 10.0**exponent
    moved = initial_purity_slope(CNOT.replace(jz=CNOT.jz + h), DESK)
    assert abs(moved - initial_purity_slope(CNOT, DESK)) <= 1e-2 * abs(h) + 1e-13

import warnings

import numpy as np
import pytest

from degengate import NoiseModel, spectral_function
from degengate.errors import InvalidParameterError


def test_zero_frequency_limit():
    nm = NoiseModel(alpha=0.01, temperature=0.5, cutoff=10.0)
    assert spectral_function(0.0, nm) == pytest.approx(2 * 0.01 * 0.5)


def test_zero_temperature_is_linear():
    nm = NoiseModel(alpha=0.01, temperature=0.0, cutoff=10.0)
    assert spectral_function(1.0, nm) == pytest.approx(0.01)
    assert spectral_function(-3.0, nm) == pytest.approx(0.03)
    assert spectral_function(0.0, nm) == 0.0


def test_subnormal_temperature_is_linear_without_warning():
    # w / 2T overflows to inf; tanh(inf) = 1 gives exactly alpha |w|.
    nm = NoiseModel(alpha=0.01, temperature=5e-324, cutoff=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = spectral_function(np.array([1.0, -3.0]), nm)
    np.testing.assert_array_equal(values, [0.01 * 1.0, 0.01 * 3.0])


def test_even_inside_cutoff():
    nm = NoiseModel(alpha=0.02, temperature=0.7, cutoff=10.0)
    for w in (0.3, 1.0, 4.0, 9.9):
        assert spectral_function(w, nm) == pytest.approx(spectral_function(-w, nm))


def test_cutoff_applied_literally():
    # Theta(wc - w): zero only above +wc, with Theta(0) = 1.
    nm = NoiseModel(alpha=0.02, temperature=0.7, cutoff=5.0)
    assert spectral_function(5.1, nm) == 0.0
    assert spectral_function(5.0, nm) > 0.0
    assert spectral_function(-5.1, nm) > 0.0


def test_small_frequency_continuity():
    nm = NoiseModel(alpha=0.01, temperature=0.3, cutoff=10.0)
    assert spectral_function(1e-14, nm) == pytest.approx(2 * 0.01 * 0.3, rel=1e-6)


def test_vectorized():
    nm = NoiseModel(alpha=0.01, temperature=0.5, cutoff=10.0)
    w = np.array([[0.0, 1.0], [-1.0, 20.0]])
    s = spectral_function(w, nm)
    assert s.shape == (2, 2)
    assert s[0, 0] == pytest.approx(0.01)
    assert s[0, 1] == pytest.approx(s[1, 0])
    assert s[1, 1] == 0.0


def test_validation():
    with pytest.raises(InvalidParameterError):
        NoiseModel(alpha=-0.1, temperature=0.0, cutoff=1.0)
    with pytest.raises(InvalidParameterError):
        NoiseModel(alpha=0.1, temperature=-1.0, cutoff=1.0)
    with pytest.raises(InvalidParameterError):
        NoiseModel(alpha=0.1, temperature=0.0, cutoff=0.0)


def test_strong_coupling_warns():
    with pytest.warns(UserWarning):
        NoiseModel(alpha=0.2, temperature=0.0, cutoff=1.0)


def test_from_reduced_defaults():
    nm = NoiseModel.from_reduced()
    assert nm.alpha == 0.01
    assert nm.temperature == pytest.approx(0.2 * np.pi)
    assert nm.cutoff == pytest.approx(20 * np.pi)

"""Time test functions: closed-form Fourier transforms and overlap
integrals checked against scipy quadrature."""

import numpy as np
import pytest
from scipy.integrate import quad

from lowdensity import FrequencyIndex, NumberSymbol, TestFunction, product_integral
from lowdensity.spectral import EnergyGrid


def quad_fourier(phi, xi):
    lo, hi = -30.0, 30.0
    if phi.family == "indicator":
        lo, hi = phi.lo - 1.0, phi.hi + 1.0
    val, _ = quad(lambda t: phi(t) * np.exp(1j * xi * t), lo, hi, complex_func=True, limit=300)
    return val


@pytest.mark.parametrize(
    "phi",
    [
        TestFunction.gaussian(),
        TestFunction.gaussian(amplitude=0.7, center=1.3, width=0.4),
        TestFunction.indicator(-0.5, 2.0),
        TestFunction.indicator(0.0, 1.0, height=2.5),
    ],
)
def test_fourier_matches_quadrature(phi):
    for xi in (-3.7, -1.0, 0.0, 0.31, 2.0, 8.5):
        assert phi.fourier(xi) == pytest.approx(quad_fourier(phi, xi), abs=1e-9)


def test_fourier_at_zero_is_the_integral():
    # closed forms: amplitude * width * sqrt(2 pi) and height * (hi - lo)
    cases = ((TestFunction.gaussian(0.9, 0.2, 1.1), 0.9 * 1.1 * np.sqrt(2.0 * np.pi)), (TestFunction.indicator(-1.0, 0.5, 1.7), 1.7 * 1.5))
    for phi, integral in cases:
        assert phi.fourier(0.0) == pytest.approx(integral, rel=1e-13)
        assert phi.fourier(np.array([0.0]))[0] == pytest.approx(integral, rel=1e-13)


def test_indicator_fourier_vectorized_and_continuous():
    phi = TestFunction.indicator(-1.0, 1.0)
    xs = np.array([-1e-9, 0.0, 1e-9])
    vals = phi.fourier(xs)
    assert np.allclose(vals, 2.0, atol=1e-12)


def test_call_evaluates_pointwise():
    g = TestFunction.gaussian(amplitude=2.0, center=1.0, width=0.5)
    assert g(1.0) == pytest.approx(2.0)
    assert g(1.5) == pytest.approx(2.0 * np.exp(-0.5))
    box = TestFunction.indicator(0.0, 1.0, height=3.0)
    assert box(0.5) == 3.0 and box(1.0) == 0.0 and box(-0.1) == 0.0


@pytest.mark.parametrize(
    "phis",
    [
        [TestFunction.gaussian(1.1, 0.3, 0.8), TestFunction.gaussian(0.6, -0.2, 1.3)],
        [TestFunction.gaussian(), TestFunction.gaussian(), TestFunction.gaussian(0.5, 0.1, 2.0)],
        [TestFunction.indicator(-0.5, 1.5), TestFunction.indicator(0.0, 1.0, 2.0)],
        [TestFunction.indicator(-1.0, 1.0), TestFunction.gaussian(1.0, 0.4, 0.6)],
        [TestFunction.gaussian(), TestFunction.indicator(0.0, 2.0), TestFunction.gaussian(0.8, 0.5, 0.9)],
    ],
)
def test_product_integral_matches_quadrature(phis):
    val, _ = quad(lambda t: np.prod([p(t) for p in phis]), -12.0, 12.0, limit=400)
    assert product_integral(phis) == pytest.approx(val, rel=1e-8, abs=1e-12)


def test_product_integral_disjoint_boxes_is_zero():
    phis = [TestFunction.indicator(0.0, 1.0), TestFunction.indicator(2.0, 3.0)]
    assert product_integral(phis) == 0.0


def test_product_integral_single_factor():
    phi = TestFunction.gaussian(0.8, -0.3, 1.2)
    assert product_integral([phi]) == pytest.approx(0.8 * 1.2 * np.sqrt(2.0 * np.pi), rel=1e-13)


def test_time_scale():
    assert TestFunction.gaussian(width=0.7).time_scale() == pytest.approx(0.7)
    box = TestFunction.indicator(-1.0, 3.0)
    assert box.time_scale() == pytest.approx(4.0 / (2 * np.pi))


def test_test_function_validation():
    with pytest.raises(ValueError):
        TestFunction.gaussian(width=0.0)
    with pytest.raises(ValueError):
        TestFunction.indicator(1.0, 1.0)
    # refused at construction, so no method ever sees another family
    with pytest.raises(ValueError, match="unknown test-function family 'triangle'"):
        TestFunction("triangle", 1.0, 0.0, 1.0, 0.0, 0.0)


def test_frequency_index_integral_and_omega():
    grid = EnergyGrid(e_max=4.0, bins=16)
    idx = FrequencyIndex(3)
    assert idx.omega(grid) == pytest.approx(3 * grid.delta_e)
    assert FrequencyIndex(0).is_zero
    with pytest.raises((TypeError, ValueError)):
        FrequencyIndex(1.5)


def test_number_symbol_make_coerces_index():
    sym = NumberSymbol.make("a", "b", 2, TestFunction.gaussian())
    assert sym.f == "a" and sym.g == "b"
    assert sym.omega.s == 2

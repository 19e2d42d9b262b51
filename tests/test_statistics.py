"""Moment/cumulant transforms, the Poisson shell family, and the
independence probe."""

import numpy as np
import pytest

from helpers import (
    gaussian_shell_model,
    moments_from_cumulants_oracle,
    random_model,
    random_symbols,
)
from lowdensity import (
    CorrelationFamily,
    FrequencyIndex,
    GridAlignmentError,
    NumberSymbol,
    TestFunction,
    correlation_smeared,
    cumulants_from_moments,
    full_from_truncated,
    independence_probe,
    limit_cumulant,
    moments_from_cumulants,
    poisson_cumulants,
    poisson_model,
    poisson_moments,
    rank_one_kernel,
    reference_box,
    touchard,
    truncated_from_full,
    truncated_smeared,
)
from lowdensity.spectral import TWO_PI, EnergyGrid
from lowdensity.statistics import _subsets
from lowdensity.symbols import product_integral


def random_family(rng, n):
    return CorrelationFamily(n, {s: complex(rng.normal(), rng.normal()) for s in _subsets(n)})


def test_transform_roundtrips(rng):
    for n in range(1, 7):
        fam = random_family(rng, n)
        back = full_from_truncated(truncated_from_full(fam))
        for s in _subsets(n):
            assert back.value(s) == pytest.approx(fam.value(s), abs=1e-12)
        table = cumulants_from_moments(fam)
        again = cumulants_from_moments(moments_from_cumulants(table))
        for s in _subsets(n):
            assert again.value(s) == pytest.approx(table.value(s), abs=1e-12)


def test_moments_from_cumulants_against_partition_oracle(rng):
    for n in range(1, 6):
        kappa = {s: complex(rng.normal(), rng.normal()) for s in _subsets(n)}
        fam = moments_from_cumulants(CorrelationFamily(n, kappa))
        for s in _subsets(n):
            assert fam.value(s) == pytest.approx(moments_from_cumulants_oracle(s, kappa), abs=1e-11)


def test_family_validation():
    with pytest.raises(ValueError):
        CorrelationFamily(2, {(1,): 1.0 + 0j})  # missing subsets
    with pytest.raises(ValueError):
        CorrelationFamily(1, {(1,): 1.0 + 0j, (1, 2): 0j})  # extra subset
    fam = CorrelationFamily.from_function(2, lambda s: float(len(s)))
    assert fam.value((1, 2)) == 2.0 + 0j


def test_independent_cumulants_vanish_across_factors():
    # moments with product structure m(S) = prod m_i: mixed cumulants are 0
    m = {(1,): 2.0 + 0j, (2,): 3.0 + 0j, (1, 2): 6.0 + 0j}
    table = cumulants_from_moments(CorrelationFamily(2, m))
    assert table.value((1, 2)) == pytest.approx(0.0, abs=1e-14)
    assert table.value((1,)) == pytest.approx(2.0)


def test_limit_cumulant_order_one_and_gate():
    model = gaussian_shell_model(bins=32)
    kern = rank_one_kernel(model, "a", "a")
    phi = TestFunction.gaussian(width=0.9)
    k1 = limit_cumulant(model, kern, FrequencyIndex(0), phi, 1)
    want = phi.integral() * np.sum(model.density.values * kern.diagonal()) * model.grid.delta_e
    assert k1 == pytest.approx(complex(want), rel=1e-12)
    assert limit_cumulant(model, kern, FrequencyIndex(2), phi, 3) == 0j
    with pytest.raises(ValueError):
        limit_cumulant(model, kern, FrequencyIndex(0), phi, 0)


def test_limit_cumulant_hand_formula_order_three():
    model = gaussian_shell_model(bins=24)
    kern = rank_one_kernel(model, "a", "b")
    phi = TestFunction.indicator(0.0, 2.0, 0.5)
    got = limit_cumulant(model, kern, FrequencyIndex(0), phi, 3)
    shell = np.sum(model.density.values * kern.diagonal() ** 3) * model.grid.delta_e
    want = TWO_PI**2 * product_integral([phi, phi, phi]) * shell
    assert got == pytest.approx(complex(want), rel=1e-12)


def test_smeared_cumulant_transform_matches_truncated(rng):
    # joint cumulants of the full finite-epsilon family are the truncated
    # correlations, at every epsilon
    model = random_model(rng, bins=8)
    symbols = random_symbols(rng, 3, s_choices=(0, 1, -1))
    eps = 0.25
    fam = CorrelationFamily.from_function(
        3, lambda s: correlation_smeared(model, [symbols[i - 1] for i in s], eps)
    )
    table = cumulants_from_moments(fam)
    for s in _subsets(3):
        want = truncated_smeared(model, [symbols[i - 1] for i in s], eps)
        assert table.value(s) == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))


def test_multilinearity_in_the_smearing_slot(rng):
    # the correlation is linear in each slot's test function; adjacent boxes
    # add exactly and height scales through
    model = random_model(rng, bins=8)
    base = random_symbols(rng, 2, s_choices=(0,))
    eps = 0.2

    def with_phi(phi):
        sym = NumberSymbol.make(base[0].f, base[0].g, 0, phi)
        return truncated_smeared(model, [sym, base[1]], eps)

    whole = with_phi(TestFunction.indicator(-1.0, 1.0))
    left = with_phi(TestFunction.indicator(-1.0, 0.0))
    right = with_phi(TestFunction.indicator(0.0, 1.0))
    assert whole == pytest.approx(left + right, abs=1e-10 * max(1.0, abs(whole)))
    tripled = with_phi(TestFunction.indicator(-1.0, 1.0, height=3.0))
    assert tripled == pytest.approx(3.0 * whole, abs=1e-12 * max(1.0, abs(whole)))


def test_reference_box_powers():
    box = reference_box()
    assert box.integral() == pytest.approx(1.0, rel=1e-14)
    for l in range(1, 6):
        assert product_integral([box] * l) == pytest.approx(TWO_PI ** (1 - l), rel=1e-13)


def test_poisson_cumulants_equal_lambda():
    grid = EnergyGrid(e_max=8.0, bins=64)
    for lam in (0.5, 1.0, 2.0, 1.25):
        for l, kappa in enumerate(poisson_cumulants(lam, 6, grid), start=1):
            assert kappa.real == pytest.approx(lam, abs=1e-12)
            assert abs(kappa.imag) < 1e-14


def test_poisson_nonzero_frequency_is_exactly_zero():
    grid = EnergyGrid(e_max=4.0, bins=32)
    for kappa in poisson_cumulants(1.0, 4, grid, omega_index=2):
        assert kappa == 0j


def test_poisson_alignment_guards():
    grid = EnergyGrid(e_max=4.0, bins=32)  # delta_e = 0.125
    with pytest.raises(GridAlignmentError):
        poisson_model(0.55, grid)
    with pytest.raises(GridAlignmentError):
        poisson_model(5.0, grid)
    with pytest.raises(GridAlignmentError):
        poisson_model(0.0, grid)
    model = poisson_model(0.5, grid)
    # hard shell: |v|^2 = 1 below lambda, 0 above
    weight = np.abs(model.amplitude("shell")) ** 2
    assert np.allclose(weight[:4], 1.0, atol=1e-12)
    assert np.allclose(weight[4:], 0.0)


def test_poisson_moments_are_touchard_and_bell():
    assert poisson_moments(1.0, 6) == pytest.approx([1, 2, 5, 15, 52, 203], abs=1e-12)
    for lam in (0.5, 2.0, 1.25):
        got = poisson_moments(lam, 6)
        want = [touchard(n, lam) for n in range(1, 7)]
        assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        poisson_moments(1.0, 0)


def test_independence_probe_decays_for_separated_groups():
    model = gaussian_shell_model(bins=256)
    phi_near = TestFunction.gaussian(width=0.5)
    phi_far = TestFunction.gaussian(center=10.0, width=0.5)
    g1 = [NumberSymbol.make("a", "a", 0, phi_near)]
    g2 = [NumberSymbol.make("b", "b", 0, phi_far)]
    report = independence_probe(model, [g1, g2], (0.2, 0.1))
    assert report.kind == "independence"
    assert not report.rows[0].warnings
    assert abs(report.rows[1].value) < abs(report.rows[0].value)

    co = [NumberSymbol.make("b", "b", 0, phi_near)]
    control = independence_probe(model, [g1, co], (0.2, 0.1))
    assert control.rows[0].warnings  # overlapping supports get flagged
    assert abs(report.rows[1].value) < abs(control.rows[1].value)


def test_independence_probe_needs_two_groups():
    model = gaussian_shell_model(bins=32)
    g = [NumberSymbol.make("a", "a", 0, TestFunction.gaussian())]
    with pytest.raises(ValueError):
        independence_probe(model, [g], (0.1,))

"""Moment/cumulant transforms, the Poisson shell family, and the
independence probe."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    cumulants_from_moments_oracle,
    gaussian_shell_model,
    independence_probe_oracle,
    symbol_centred_probe,
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
from lowdensity.finite_eps import _PairingFactors
from lowdensity.partitions import MAX_ENUM_PARTITION
from lowdensity.spectral import TWO_PI, EnergyGrid
from lowdensity.partitions import _subsets
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


@given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_transforms_match_partition_oracles(n, seed):
    rng = np.random.default_rng(seed)
    fam = random_family(rng, n)
    moments = moments_from_cumulants(fam)
    cumulants = cumulants_from_moments(fam)
    for s in _subsets(n):
        want = moments_from_cumulants_oracle(s, fam.values)
        assert abs(moments.value(s) - want) <= 1e-12 * max(1.0, abs(want))
        want = cumulants_from_moments_oracle(s, fam.values)
        assert abs(cumulants.value(s) - want) <= 1e-12 * max(1.0, abs(want))


@given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_truncated_full_truncated_roundtrip(n, seed):
    fam = random_family(np.random.default_rng(seed), n)
    back = truncated_from_full(full_from_truncated(fam))
    for s in _subsets(n):
        assert abs(back.value(s) - fam.value(s)) <= 1e-12 * max(1.0, abs(fam.value(s)))


def test_transforms_reject_arity_above_cap():
    fam = CorrelationFamily.from_function(MAX_ENUM_PARTITION + 1, lambda s: 1.0)
    for transform in (moments_from_cumulants, cumulants_from_moments, truncated_from_full, full_from_truncated):
        with pytest.raises(ValueError, match=f"arity <= {MAX_ENUM_PARTITION}"):
            transform(fam)
    with pytest.raises(ValueError, match=f"arity <= {MAX_ENUM_PARTITION}"):
        poisson_moments(1.0, MAX_ENUM_PARTITION + 1)


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
    want = product_integral([phi]) * np.sum(model.density * kern.diagonal()) * model.grid.delta_e
    assert k1 == pytest.approx(complex(want), rel=1e-12)
    assert limit_cumulant(model, kern, FrequencyIndex(2), phi, 3) == 0j
    with pytest.raises(ValueError):
        limit_cumulant(model, kern, FrequencyIndex(0), phi, 0)


def test_limit_cumulant_hand_formula_order_three():
    model = gaussian_shell_model(bins=24)
    kern = rank_one_kernel(model, "a", "b")
    phi = TestFunction.indicator(0.0, 2.0, 0.5)
    got = limit_cumulant(model, kern, FrequencyIndex(0), phi, 3)
    shell = np.sum(model.density * kern.diagonal() ** 3) * model.grid.delta_e
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
    assert product_integral([box]) == pytest.approx(1.0, rel=1e-14)
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


@pytest.mark.parametrize("lam", [0.125, 0.5, 1.0, 1.375, 2.0, 8.0])
def test_poisson_moments_are_touchard_to_the_cap(lam):
    got = poisson_moments(lam, MAX_ENUM_PARTITION)
    for n, m in enumerate(got, start=1):
        want = touchard(n, lam)
        assert abs(m - want) <= 1e-12 * want


@pytest.mark.parametrize("lam", [0.125, 0.5, 1.0, 1.375, 2.0, 8.0])
def test_transform_reproduces_poisson_moments(lam):
    # poisson_moments runs its own one-variable recursion; the subset
    # transform must agree with it on the constant-lambda family
    moments = moments_from_cumulants(CorrelationFamily.from_function(MAX_ENUM_PARTITION, lambda s: lam))
    direct = poisson_moments(lam, MAX_ENUM_PARTITION)
    for n in range(1, MAX_ENUM_PARTITION + 1):
        want = touchard(n, lam)
        got = moments.value(tuple(range(1, n + 1)))
        assert abs(got - want) <= 1e-12 * want
        assert abs(got - direct[n - 1]) <= 1e-12 * want


@pytest.mark.parametrize("lam", [0.125, 0.5, 1.0, 1.375, 2.0, 8.0])
def test_cumulants_of_touchard_moments_are_lambda(lam):
    # arity 11, not 12: kappa_n cancels moments up to touchard(n, lam), so
    # the inverse amplifies their rounding; touchard(12, 1.375) ~ 2.6e7 is
    # rounded and gives kappa_12 off by 1.6e-8 relative
    arity = MAX_ENUM_PARTITION - 1
    cumulants = cumulants_from_moments(CorrelationFamily.from_function(arity, lambda s: touchard(len(s), lam)))
    for s in _subsets(arity):
        assert abs(cumulants.value(s) - lam) <= 1e-12 * lam


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


@pytest.mark.parametrize("sizes", [(1, 1), (1, 1, 1), (2, 1), (1, 2), (2, 2)])
def test_independence_probe_matches_per_subset_oracle(rng, sizes):
    # the probe slices one set of pairing factors to every group union; the
    # oracle builds each union's factors from its own symbols
    names = ("a", "b", "c")
    model = random_model(rng, bins=12, names=names)
    symbols = random_symbols(rng, sum(sizes), names=names, s_choices=(-1, 0, 1))
    groups, start = [], 0
    for size in sizes:
        groups.append(symbols[start : start + size])
        start += size
    epsilons = (0.3, 0.15)
    report = independence_probe(model, groups, epsilons)
    for row, eps in zip(report.rows, epsilons):
        assert abs(row.value - independence_probe_oracle(model, groups, eps)) <= 1e-14


@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    bins=st.integers(4, 16),
    eps=st.floats(0.1, 0.5),
)
@settings(max_examples=25)
def test_singleton_groups_equal_symbol_form(n, seed, bins, eps):
    rng = np.random.default_rng(seed)
    names = ("a", "b", "c")
    model = random_model(rng, bins=bins, names=names)
    symbols = random_symbols(rng, n, names=names, s_choices=(-1, 0, 1))
    got = independence_probe(model, [[s] for s in symbols], (eps,)).rows[0].value
    want = symbol_centred_probe(_PairingFactors(model, symbols, eps).full_family(), n)
    assert got == want


def test_independence_rows_carry_resolution_warnings():
    phi_near = TestFunction.gaussian(width=0.5)
    phi_far = TestFunction.gaussian(center=10.0, width=0.5)
    groups = [[NumberSymbol.make("a", "a", 0, phi_near)], [NumberSymbol.make("b", "b", 0, phi_far)]]
    resolved = independence_probe(gaussian_shell_model(bins=64), groups, (0.5,))  # delta_e 0.0625 <= eps/(8 sigma_t) = 0.125
    assert resolved.rows[0].warnings == ()
    coarse = independence_probe(gaussian_shell_model(bins=16), groups, (0.5, 0.2))
    for row in coarse.rows:
        # the far symbol at t = 10 also turns 0.25 * 10 / eps > pi/2 per bin
        assert len(row.warnings) == 2 and row.warnings[0].startswith("grid resolution: delta_e=0.25 exceeds")
        assert row.warnings[1].startswith("Nyquist: delta_e*|c|/eps=")
    # separation warnings come first, the epsilon's resolution warning after
    near = [groups[0], [NumberSymbol.make("b", "b", 0, phi_near)]]
    both = independence_probe(gaussian_shell_model(bins=16), near, (0.5,))
    assert [w.split(" ")[0] for w in both.rows[0].warnings] == ["groups", "grid"]


def test_independence_probe_needs_two_groups():
    model = gaussian_shell_model(bins=32)
    g = [NumberSymbol.make("a", "a", 0, TestFunction.gaussian())]
    with pytest.raises(ValueError):
        independence_probe(model, [g], (0.1,))

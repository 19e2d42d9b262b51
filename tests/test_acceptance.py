"""The acceptance gate: one test per numbered criterion, at the stated
tolerance, so `pytest -v` prints a pass/fail line for each."""

import math
import time

import numpy as np
import pytest

from helpers import gaussian_shell_model, random_model, random_symbols
from lowdensity import (
    CorrelationFamily,
    FrequencyIndex,
    NumberSymbol,
    PairDiagram,
    TestFunction,
    classify,
    correlation_smeared,
    cumulants_from_moments,
    delta_lemma_check,
    enumerate_pair_diagrams,
    enumerate_set_partitions,
    evaluate_symbolic,
    free_moment,
    full_from_truncated,
    independence_probe,
    irreducible_diagrams,
    limit_truncated_coefficient,
    limit_truncated_smeared,
    make_model,
    moments_from_cumulants,
    pairing_term_smeared,
    poisson_cumulants,
    poisson_moments,
    rank_one_kernel,
    state_expectation,
    surviving_diagram,
    touchard,
    truncated_from_full,
    truncated_smeared,
    vacuum_expectation,
)
from lowdensity.spectral import DensityProfile, EnergyGrid, ShellAmplitude, TWO_PI
from lowdensity.statistics import _subsets
from lowdensity.symbols import product_integral


def reference_symbols(n, width=1.0):
    names = [("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")]
    return [NumberSymbol.make(f, g, 0, TestFunction.gaussian(width=width)) for f, g in names[:n]]


def orthogonal_sector_model(bins=32, e_max=4.0):
    """Two amplitudes with disjoint energy support, so cross-sector chains
    vanish identically and the partition structure is exposed."""
    grid = EnergyGrid(e_max=e_max, bins=bins)
    e = grid.centers
    lo = np.where(e < 2.0, np.exp(-((e - 1.0) ** 2)), 0.0).astype(complex)
    hi = np.where(e >= 2.0, np.exp(-((e - 3.0) ** 2)), 0.0).astype(complex)
    vectors = [ShellAmplitude("g0", lo), ShellAmplitude("g1", hi)]
    return make_model(grid, DensityProfile.flat(1.0, bins), vectors)


def test_criterion_01_order_one_exactness():
    start = time.monotonic()
    model = gaussian_shell_model(bins=256)
    sym = NumberSymbol.make("a", "b", 0, TestFunction.gaussian(width=1.0))
    want = product_integral([sym.phi]) * state_expectation(model, rank_one_kernel(model, "a", "b"))
    for eps in (0.2, 0.1, 0.05):
        got = correlation_smeared(model, [sym], eps)
        assert abs(got - want) <= 1e-12 * abs(want)
    assert time.monotonic() - start < 1.0


def test_criterion_02_order_two_convergence():
    start = time.monotonic()
    model = gaussian_shell_model(bins=256, e_max=4.0)
    symbols = reference_symbols(2)
    limit = limit_truncated_smeared(model, symbols)
    errs = []
    for eps in (0.2, 0.1, 0.05):
        value = truncated_smeared(model, symbols, eps)
        errs.append(abs(value - limit) / abs(limit))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] / errs[0] <= 0.5
    assert time.monotonic() - start < 10.0


def test_criterion_03_order_three_surviving_diagram():
    start = time.monotonic()
    model = gaussian_shell_model(bins=128)
    symbols = reference_symbols(3)
    surviving = surviving_diagram(3)
    other = next(
        d for d in irreducible_diagrams(3) if d.sigma != surviving.sigma
    )
    ratios = []
    for eps in (0.2, 0.1, 0.05):
        surv = pairing_term_smeared(model, symbols, surviving, eps).value
        cross = pairing_term_smeared(model, symbols, other, eps).value
        ratios.append(abs(cross) / abs(surv))
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[-1] <= 0.10
    assert time.monotonic() - start < 60.0


def test_criterion_04_frequency_gate():
    model = gaussian_shell_model(bins=256)
    symbols = [
        NumberSymbol.make("a", "b", 4, TestFunction.gaussian(width=1.0)),
        NumberSymbol.make("b", "a", -2, TestFunction.gaussian(width=1.0)),
    ]
    kernels = [rank_one_kernel(model, s.f, s.g) for s in symbols]
    coeff = limit_truncated_coefficient(model, kernels, [s.omega for s in symbols])
    assert coeff.value == 0j
    assert not coeff.omega_gate_passed
    assert limit_truncated_smeared(model, symbols) == 0j
    mags = [abs(truncated_smeared(model, symbols, eps)) for eps in (0.2, 0.1, 0.05, 0.025)]
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_criterion_05_free_algebra_equality():
    rng = np.random.default_rng(5)
    model = gaussian_shell_model(bins=128)
    names = sorted(model.vectors)
    for trial in range(20):
        n = int(rng.integers(2, 4))
        symbols = []
        for _ in range(n):
            f, g = str(rng.choice(names)), str(rng.choice(names))
            phi = TestFunction.gaussian(
                amplitude=float(rng.uniform(0.5, 1.5)),
                center=float(rng.uniform(-0.5, 0.5)),
                width=float(rng.uniform(0.5, 1.5)),
            )
            symbols.append(NumberSymbol.make(f, g, 0, phi))
        assert abs(free_moment(model, symbols) - limit_truncated_smeared(model, symbols)) <= 1e-12


def test_criterion_06_poisson_cumulants():
    grid = EnergyGrid(e_max=8.0, bins=64)
    for lam in (0.5, 1.0, 2.0):
        kappas = poisson_cumulants(lam, 6, grid)
        assert max(abs(k - lam) for k in kappas) <= 1e-12
    for kappa in poisson_cumulants(1.0, 6, grid, omega_index=3):
        assert kappa == 0j


def test_criterion_07_poisson_moments():
    bell_by_enumeration = [len(enumerate_set_partitions(n)) for n in range(1, 7)]
    assert bell_by_enumeration == [1, 2, 5, 15, 52, 203]
    moments = poisson_moments(1.0, 6)
    assert max(abs(m - b) for m, b in zip(moments, bell_by_enumeration)) <= 1e-12
    for lam in (0.5, 2.0, 1.25):
        got = poisson_moments(lam, 6)
        want = [touchard(n, lam) for n in range(1, 7)]
        assert max(abs(m - t) / max(1.0, abs(t)) for m, t in zip(got, want)) <= 1e-12


def test_criterion_08_truncation_equals_cycles():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        model = random_model(rng, bins=10 if n < 4 else 8)
        symbols = random_symbols(rng, n, s_choices=(0, 1, -1))
        eps = float(rng.uniform(0.15, 0.35))
        cyc = truncated_smeared(model, symbols, eps)
        full = CorrelationFamily.from_function(n, lambda s: correlation_smeared(model, [symbols[i - 1] for i in s], eps))
        rec = truncated_from_full(full).value(tuple(range(1, n + 1)))
        assert abs(cyc - rec) <= 1e-9 * max(1.0, abs(rec))


def test_criterion_09_diagram_census():
    for n in range(1, 7):
        assert len(irreducible_diagrams(n)) == math.factorial(n - 1)
    two = {d.sigma: classify(d) for d in enumerate_pair_diagrams(2)}
    assert two[(2, 1)].irreducible and two[(2, 1)].k == 1
    assert not two[(1, 2)].irreducible and two[(1, 2)].k == 2
    three = {d.sigma: classify(d) for d in enumerate_pair_diagrams(3)}
    assert {s for s, c in three.items() if c.irreducible} == {(3, 1, 2), (2, 3, 1)}
    assert three[(3, 1, 2)].k == 1 and surviving_diagram(3).sigma == (3, 1, 2)
    assert three[(2, 3, 1)].k == 2
    fixed = three[(1, 2, 3)]
    assert not fixed.irreducible and fixed.k == 3 and len(fixed.cycles) == 3


def test_criterion_10_white_noise_engine():
    model = orthogonal_sector_model()

    # k = 2..4 connected chains within one sector against the coefficient
    for k in (2, 3, 4):
        labels = [("g0", "g0")] * k
        vac = vacuum_expectation(labels, include_scalar=False)
        connected = evaluate_symbolic(vac, model).connected
        kerns = [rank_one_kernel(model, f, g) for f, g in labels]
        want = TWO_PI ** (k - 1) * limit_truncated_coefficient(model, kerns, [FrequencyIndex(0)] * k).value
        assert abs(connected - want) <= 1e-10 * max(1.0, abs(want))

    # mixed sectors with the scalar part: the engine's full value must equal
    # the full_from_truncated reconstruction from per-subset coefficients
    for k in (2, 3, 4):
        labels = [("g0", "g0"), ("g1", "g1"), ("g0", "g0"), ("g1", "g1")][:k]
        vac = vacuum_expectation(labels, include_scalar=True)
        full_engine = sum(evaluate_symbolic(vac, model).by_partition.values())

        def trunc(subset):
            kerns = [rank_one_kernel(model, *labels[i - 1]) for i in subset]
            c = limit_truncated_coefficient(model, kerns, [FrequencyIndex(0)] * len(subset))
            return TWO_PI ** (len(subset) - 1) * c.value

        family = CorrelationFamily(k, {s: complex(trunc(s)) for s in _subsets(k)})
        want = full_from_truncated(family).value(tuple(range(1, k + 1)))
        assert abs(full_engine - want) <= 1e-9 * max(1.0, abs(want))


def test_criterion_11_delta_lemma():
    start = time.monotonic()
    report = delta_lemma_check(
        TestFunction.gaussian(width=1.0),
        TestFunction.gaussian(width=1.0),
        (0.1, 0.05, 0.01),
    )
    errs = [row.rel_err for row in report.rows]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] <= 0.05
    assert time.monotonic() - start < 5.0


def test_criterion_12_transform_roundtrips():
    rng = np.random.default_rng(12)
    for n in range(1, 7):
        values = {s: complex(rng.normal(), rng.normal()) for s in _subsets(n)}
        fam = CorrelationFamily(n, values)
        back = full_from_truncated(truncated_from_full(fam))
        assert max(abs(back.value(s) - fam.value(s)) for s in _subsets(n)) <= 1e-12
        table = CorrelationFamily(n, values)
        again = cumulants_from_moments(moments_from_cumulants(table))
        assert max(abs(again.value(s) - table.value(s)) for s in _subsets(n)) <= 1e-12


def test_criterion_13_independence_probe():
    model = gaussian_shell_model(bins=256)
    width = 0.5
    near = TestFunction.gaussian(width=width)
    far = TestFunction.gaussian(center=10.0 * width, width=width)
    group_a = [NumberSymbol.make("a", "a", 0, near)]
    separated = independence_probe(model, [group_a, [NumberSymbol.make("b", "b", 0, far)]], (0.05,))
    control = independence_probe(model, [group_a, [NumberSymbol.make("b", "b", 0, near)]], (0.05,))
    probe = abs(separated.rows[0].value)
    baseline = abs(control.rows[0].value)
    assert probe <= 1e-3 * baseline

"""Finite-epsilon pairing sums.

The load-bearing test here pins pairing_term_smeared against a raw n-fold
lattice sum (helpers.pairing_oracle) that never factorizes over cycles.
Everything else checks the structural identities the expansion must obey:
factorization over components, the truncation recursion, hermiticity, and
the epsilon-order bookkeeping.
"""

import numpy as np
import pytest

from helpers import gaussian_shell_model, pairing_oracle, random_model, random_phi, random_symbols
from lowdensity import (
    CorrelationFamily,
    NumberSymbol,
    PairDiagram,
    TestFunction,
    correlation_fixed_times,
    correlation_smeared,
    delta_lemma_check,
    enumerate_pair_diagrams,
    enumerate_set_partitions,
    limit_truncated_smeared,
    pairing_term_smeared,
    rank_one_kernel,
    resolution_warnings,
    state_expectation,
    truncated_from_full,
    truncated_smeared,
)
from lowdensity.finite_eps import COMMUTATOR, DENSITY, two_point
from lowdensity.spectral import DensityProfile, EnergyGrid, ShellAmplitude, SpectralModel, make_model


def close(got, want, rel=1e-9):
    assert got == pytest.approx(want, abs=rel * max(1.0, abs(want)))


def test_two_point_hand_loop(rng):
    model = random_model(rng, bins=7)
    e = model.grid.centers
    va, vb = model.amplitude("a"), model.amplitude("b")
    tau, eps = 0.63, 0.1
    want_density = sum(
        model.density.values[i] * np.conj(vb[i]) * va[i] * np.exp(1j * tau * e[i]) * model.grid.delta_e
        for i in range(7)
    )
    close(two_point(model, "a", "b", DENSITY, tau, eps), want_density, rel=1e-12)
    want_comm = sum(
        (1.0 + eps * model.density.values[i]) * np.conj(vb[i]) * va[i] * np.exp(1j * tau * e[i]) * model.grid.delta_e
        for i in range(7)
    )
    close(two_point(model, "a", "b", COMMUTATOR, tau, eps), want_comm, rel=1e-12)
    with pytest.raises(ValueError):
        two_point(model, "a", "b", "mystery", tau, eps)


def test_two_point_conjugation_symmetry(rng):
    model = random_model(rng, bins=9)
    for kind in (DENSITY, COMMUTATOR):
        lhs = two_point(model, "a", "b", kind, 0.4, 0.07)
        rhs = np.conj(two_point(model, "b", "a", kind, -0.4, 0.07))
        close(lhs, rhs, rel=1e-12)


def test_pairing_term_against_lattice_sum_n2(rng):
    for trial in range(6):
        model = random_model(rng, bins=10)
        symbols = random_symbols(rng, 2, s_choices=(-1, 0, 1, 2))
        eps = float(rng.uniform(0.15, 0.5))
        for d in enumerate_pair_diagrams(2):
            got = pairing_term_smeared(model, symbols, d, eps).value
            close(got, pairing_oracle(model, symbols, d, eps))


def test_pairing_term_against_lattice_sum_n3(rng):
    for trial in range(3):
        model = random_model(rng, bins=8)
        symbols = random_symbols(rng, 3, s_choices=(-1, 0, 1))
        eps = float(rng.uniform(0.2, 0.5))
        for d in enumerate_pair_diagrams(3):
            got = pairing_term_smeared(model, symbols, d, eps).value
            close(got, pairing_oracle(model, symbols, d, eps))


def test_pairing_term_against_lattice_sum_n4(rng):
    model = random_model(rng, bins=6)
    symbols = random_symbols(rng, 4, s_choices=(0, 1))
    eps = 0.3
    for sigma in ((1, 2, 3, 4), (4, 1, 2, 3), (2, 1, 4, 3)):
        d = PairDiagram(sigma)
        got = pairing_term_smeared(model, symbols, d, eps).value
        close(got, pairing_oracle(model, symbols, d, eps))


def test_pairing_term_kind_bookkeeping(rng):
    model = random_model(rng, bins=6)
    symbols = random_symbols(rng, 3)
    term = pairing_term_smeared(model, symbols, PairDiagram((3, 1, 2)), 0.2)
    assert term.k == 1
    assert term.pair_kinds == (DENSITY, COMMUTATOR, COMMUTATOR)
    ident = pairing_term_smeared(model, symbols, PairDiagram((1, 2, 3)), 0.2)
    assert ident.pair_kinds == (DENSITY, DENSITY, DENSITY) and ident.k == 3


def test_reducible_terms_factor_over_components(rng):
    # Exact identity at every epsilon, not only in the limit: a reducible
    # diagram's value is the product of its cycles evaluated as standalone
    # diagrams with order-preserving relabeling.
    for trial in range(8):
        n = int(rng.integers(2, 5))
        model = random_model(rng, bins=12)
        symbols = random_symbols(rng, n, s_choices=(-1, 0, 1))
        eps = float(rng.uniform(0.1, 0.4))
        diagrams = [d for d in enumerate_pair_diagrams(n) if len(d.cycles()) > 1]
        d = diagrams[int(rng.integers(len(diagrams)))]
        whole = pairing_term_smeared(model, symbols, d, eps).value
        prod = 1.0 + 0j
        for cyc in d.cycles():
            order = sorted(cyc)
            pos = {slot: i + 1 for i, slot in enumerate(order)}
            sigma = [0] * len(order)
            for slot in order:
                sigma[pos[slot] - 1] = pos[d.image(slot)]
            sub_symbols = [symbols[slot - 1] for slot in order]
            prod *= pairing_term_smeared(model, sub_symbols, PairDiagram(tuple(sigma)), eps).value
        close(whole, prod)


def test_truncation_methods_agree(rng):
    for trial in range(5):
        n = int(rng.integers(2, 5))
        bins = 10 if n < 4 else 8
        model = random_model(rng, bins=bins)
        symbols = random_symbols(rng, n, s_choices=(-1, 0, 1))
        eps = float(rng.uniform(0.15, 0.4))
        a = truncated_smeared(model, symbols, eps)
        full = CorrelationFamily.from_function(n, lambda s: correlation_smeared(model, [symbols[i - 1] for i in s], eps))
        b = truncated_from_full(full).value(tuple(range(1, n + 1)))
        close(a, b)


def test_full_correlation_is_partition_sum_of_truncated(rng):
    for n in (2, 3, 4):
        model = random_model(rng, bins=8)
        symbols = random_symbols(rng, n, s_choices=(0, 1, -1))
        eps = 0.25
        full = correlation_smeared(model, symbols, eps)
        total = 0j
        for part in enumerate_set_partitions(n):
            prod = 1.0 + 0j
            for block in part.blocks:
                prod *= truncated_smeared(model, [symbols[i - 1] for i in block], eps)
            total += prod
        close(full, total)


def test_order_one_truncated_equals_full_and_limit():
    model = gaussian_shell_model(bins=64)
    sym = NumberSymbol.make("a", "b", 0, TestFunction.gaussian(width=0.8))
    for eps in (0.2, 0.05):
        full = correlation_smeared(model, [sym], eps)
        trunc = truncated_smeared(model, [sym], eps)
        close(full, trunc, rel=1e-12)
        # n = 1 carries no oscillating pair factor at all, so finite epsilon
        # already equals the limit
        close(full, limit_truncated_smeared(model, [sym]), rel=1e-12)


def test_epsilon_order_bookkeeping(rng):
    # an irreducible diagram scales as eps^(k-1); a reducible one is the
    # product of its cycles, so its sharp exponent is k - r with r cycles
    model = gaussian_shell_model(bins=48)
    symbols = random_symbols(rng, 3)
    sweep = (0.2, 0.1, 0.05)
    for d in enumerate_pair_diagrams(3):
        r = len(d.cycles())
        rescaled = [
            abs(pairing_term_smeared(model, symbols, d, eps).value) / eps ** (d.k - r)
            for eps in sweep
        ]
        assert rescaled[-1] <= 4.0 * rescaled[0] + 1e-9
        if r == 1:
            headline = [
                abs(pairing_term_smeared(model, symbols, d, eps).value) / eps ** (d.k - 1)
                for eps in sweep
            ]
            assert headline[-1] <= 4.0 * headline[0] + 1e-9


def test_hermiticity_of_smeared_correlations(rng):
    model = random_model(rng, bins=10, names=("a", "b", "c"))
    names = ("a", "b", "c")
    for trial in range(4):
        n = int(rng.integers(2, 4))
        symbols = []
        for _ in range(n):
            nm = str(names[rng.integers(3)])
            symbols.append(NumberSymbol.make(nm, nm, 0, random_phi(rng)))
        eps = float(rng.uniform(0.1, 0.4))
        lhs = correlation_smeared(model, symbols, eps)
        rhs = np.conj(correlation_smeared(model, symbols[::-1], eps))
        close(lhs, rhs, rel=1e-10)


def test_size_caps_raise():
    model = gaussian_shell_model(bins=8)
    symbols = [NumberSymbol.make("a", "b", 0, TestFunction.gaussian()) for _ in range(5)]
    with pytest.raises(ValueError):
        pairing_term_smeared(model, symbols, PairDiagram((5, 1, 2, 3, 4)), 0.1)
    with pytest.raises(ValueError):
        correlation_fixed_times(model, symbols + symbols[:1], [0.0] * 6, 0.1)
    with pytest.raises(ValueError):
        pairing_term_smeared(model, symbols[:2], PairDiagram((3, 1, 2)), 0.1)
    with pytest.raises(ValueError):
        pairing_term_smeared(model, symbols[:2], PairDiagram((2, 1)), 0.0)


def test_n4_coarsening_matches_manual_block_means():
    model = gaussian_shell_model(bins=128)
    symbols = [NumberSymbol.make("a", "b", 0, TestFunction.gaussian(width=1.0)) for _ in range(4)]
    d = PairDiagram((4, 1, 2, 3))
    term = pairing_term_smeared(model, symbols, d, 0.2)
    assert any("bins reduced 128 -> 64" in w for w in term.warnings)

    factor = 2
    coarse_grid = EnergyGrid(e_max=4.0, bins=64)
    dens = model.density.values.reshape(64, factor).mean(axis=1)
    vecs = [
        ShellAmplitude(nm, model.amplitude(nm).reshape(64, factor).mean(axis=1))
        for nm in ("a", "b")
    ]
    coarse = make_model(coarse_grid, DensityProfile(dens), vecs)
    manual = pairing_term_smeared(coarse, symbols, d, 0.2)
    close(term.value, manual.value, rel=1e-12)
    assert not any("bins reduced" in w for w in manual.warnings)


def test_resolution_warning_threshold():
    model = gaussian_shell_model(bins=16)  # delta_e = 0.25
    sym = NumberSymbol.make("a", "b", 0, TestFunction.gaussian(width=1.0))
    # bound = eps / (8 * sigma): eps = 0.5 -> 0.0625 < 0.25 warns
    assert resolution_warnings(model, [sym], 0.5)
    # a much finer grid at the same epsilon stays quiet
    fine = gaussian_shell_model(bins=512)
    assert resolution_warnings(fine, [sym], 0.5) == ()


def test_fixed_times_order_one():
    model = gaussian_shell_model(bins=32)
    sym = NumberSymbol.make("a", "b", 2, TestFunction.gaussian())
    eps, t = 0.1, 0.7
    got = correlation_fixed_times(model, [sym], [t], eps)
    omega = sym.omega.omega(model.grid)
    want = np.exp(-1j * omega * t / eps) * state_expectation(model, rank_one_kernel(model, "a", "b"))
    close(got, want, rel=1e-12)


def test_fixed_times_order_two_hand_wick(rng):
    model = random_model(rng, bins=9)
    s1 = NumberSymbol.make("a", "b", 1, TestFunction.gaussian())
    s2 = NumberSymbol.make("b", "a", -1, TestFunction.indicator(0.0, 1.0))
    eps = 0.2
    t1, t2 = 0.3, -0.5
    omega = [s.omega.omega(model.grid) for s in (s1, s2)]
    phase = np.exp(-1j * (omega[0] * t1 + omega[1] * t2) / eps)

    d11 = eps * two_point(model, "a", "b", DENSITY, 0.0, eps)
    d22 = eps * two_point(model, "b", "a", DENSITY, 0.0, eps)
    d12 = eps * two_point(model, "a", "a", DENSITY, (t1 - t2) / eps, eps)
    c21 = two_point(model, "b", "b", COMMUTATOR, (t2 - t1) / eps, eps)
    want = phase * eps ** (-2) * (d11 * d22 + d12 * c21)
    close(correlation_fixed_times(model, [s1, s2], [t1, t2], eps), want, rel=1e-12)


def test_delta_lemma_convergence_gaussian():
    report = delta_lemma_check(TestFunction.gaussian(width=1.0), TestFunction.gaussian(width=1.0), (0.1, 0.05, 0.02))
    errs = [r.abs_err for r in report.rows]
    assert errs[0] > errs[1] > errs[2]
    assert report.rows[-1].rel_err < 5e-3
    target = 2 * np.pi
    assert report.rows[0].limit == pytest.approx(target)


def test_delta_lemma_indicator_window():
    report = delta_lemma_check(
        TestFunction.gaussian(width=0.8),
        TestFunction.indicator(-1.0, 1.0),
        (0.1, 0.05),
    )
    assert report.rows[-1].abs_err < report.rows[0].abs_err
    assert report.kind == "delta_lemma"

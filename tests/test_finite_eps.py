"""Finite-epsilon pairing sums.

The load-bearing tests here pin pairing_term_smeared against a raw n-fold
lattice sum (helpers.pairing_oracle) that never factorizes over cycles, and
its Toeplitz/FFT contraction against dense M x M matrix chains
(helpers.pairing_chain_oracle).  correlation_smeared, which is built from
the single-cycle sums of every slot subset, is pinned against the sum of
those oracles over all n! diagrams.
Everything else checks the structural identities the expansion must obey:
factorization over components, the truncation recursion, hermiticity, and
the epsilon-order bookkeeping.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import gaussian_shell_model, pairing_chain_oracle, pairing_oracle, random_model, random_phi, random_symbols
from lowdensity import (
    CorrelationFamily,
    NumberSymbol,
    PairDiagram,
    TestFunction,
    correlation_fixed_times,
    convergence_sweep,
    correlation_smeared,
    default_config,
    delta_lemma_check,
    enumerate_pair_diagrams,
    enumerate_set_partitions,
    independence_probe,
    irreducible_diagrams,
    limit_truncated_smeared,
    model_from_config,
    pairing_term_smeared,
    rank_one_kernel,
    resolution_warnings,
    state_expectation,
    symbols_from_config,
    truncated_from_full,
    truncated_smeared,
)
from lowdensity.finite_eps import _BLOCK, BAND_CUT, COMMUTATOR, DENSITY, MODE_CUT, NYQUIST_MARGIN, _fft_len, _PairingFactors, two_point


def close(got, want, rel=1e-9):
    assert got == pytest.approx(want, abs=rel * max(1.0, abs(want)))


def test_two_point_hand_loop(rng):
    model = random_model(rng, bins=7)
    e = model.grid.centers
    va, vb = model.amplitude("a"), model.amplitude("b")
    tau, eps = 0.63, 0.1
    want_density = sum(
        model.density[i] * np.conj(vb[i]) * va[i] * np.exp(1j * tau * e[i]) * model.grid.delta_e
        for i in range(7)
    )
    close(two_point(model, "a", "b", DENSITY, tau, eps), want_density, rel=1e-12)
    want_comm = sum(
        (1.0 + eps * model.density[i]) * np.conj(vb[i]) * va[i] * np.exp(1j * tau * e[i]) * model.grid.delta_e
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
            for block in part:
                prod *= truncated_smeared(model, [symbols[i - 1] for i in block], eps)
            total += prod
        close(full, total)


def test_full_correlation_is_sum_over_all_diagrams(rng):
    # independent of the truncated family: each diagram from the nested-sum
    # oracle at tiny M, or from dense matrix chains at n = 4
    for n, bins, oracle in ((1, 6, pairing_oracle), (2, 6, pairing_oracle), (3, 5, pairing_oracle), (4, 37, pairing_chain_oracle)):
        model = random_model(rng, bins=bins)
        symbols = random_symbols(rng, n, s_choices=(-1, 0, 1))
        eps = float(rng.uniform(0.15, 0.4))
        want = sum(oracle(model, symbols, d, eps) for d in enumerate_pair_diagrams(n))
        close(correlation_smeared(model, symbols, eps), want, rel=1e-12)


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


def _adjoint(symbol):
    # N_{f,g,s}* = N_{g,f,-s}; phi is real, so it stays
    return NumberSymbol.make(symbol.g, symbol.f, -symbol.omega.s, symbol.phi)


_ADJOINT_SPEC = st.tuples(
    st.sampled_from(["a", "b"]),
    st.sampled_from(["a", "b"]),
    st.integers(-2, 2),
    st.sampled_from(["gaussian", "indicator"]),
    st.floats(-0.5, 0.5),
    st.floats(0.5, 1.5),
)


@pytest.mark.parametrize("fn", [correlation_smeared, truncated_smeared])
@given(
    bins=st.integers(4, 32),
    seed=st.integers(0, 2**32 - 1),
    eps=st.floats(0.05, 0.5),
    specs=st.lists(_ADJOINT_SPEC, min_size=1, max_size=3),
)
@example(
    bins=32, seed=7, eps=0.2,
    specs=[("a", "b", 1, "gaussian", 0.1, 1.0), ("b", "b", -2, "indicator", -0.3, 0.8),
           ("b", "a", 0, "gaussian", 0.4, 0.6), ("a", "a", 2, "indicator", 0.0, 1.2)],
)
@settings(max_examples=25)
def test_adjoint_symmetry(fn, bins, seed, eps, specs):
    # W(N_1 ... N_n)* = W(N_n* ... N_1*)
    model = random_model(np.random.default_rng(seed), bins=bins)
    symbols = [_symbol(*spec) for spec in specs]
    lhs = np.conj(fn(model, symbols, eps))
    rhs = fn(model, [_adjoint(s) for s in reversed(symbols)], eps)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


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


def test_n4_runs_at_full_grid():
    model = gaussian_shell_model(bins=128)
    symbols = [NumberSymbol.make("a", "b", 0, TestFunction.gaussian(width=1.0)) for _ in range(4)]
    term = pairing_term_smeared(model, symbols, PairDiagram((4, 1, 2, 3)), 0.2)
    # the term is built on the full 128-bin grid, so it carries that grid's own warnings
    assert term.warnings == resolution_warnings(model, symbols, 0.2)
    assert term.warnings  # the 8-bin rule asks for 160 bins at eps = 0.2


def test_n4_matches_dense_chain_at_full_grid():
    model = gaussian_shell_model(bins=128)
    symbols = [NumberSymbol.make("a", "b", 0, TestFunction.gaussian(width=1.0)) for _ in range(4)]
    for d in enumerate_pair_diagrams(4):
        got = pairing_term_smeared(model, symbols, d, 0.2).value
        close(got, pairing_chain_oracle(model, symbols, d, 0.2), rel=1e-12)


def _symbol(f, g, s, family, center, width):
    if family == "gaussian":
        phi = TestFunction.gaussian(amplitude=1.2, center=center, width=width)
    else:
        phi = TestFunction.indicator(center - width, center + width, height=0.9)
    return NumberSymbol.make(f, g, s, phi)


# M below the FFT row block, equal to it, and not a multiple of it; the
# examples give supports much narrower than the grid, and shifts s = -+110
# that leave an edge row block no column window at M = 201 and make both
# lag vectors identically zero at M = 37
@pytest.mark.parametrize("bins", [37, 128, 201])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@given(
    seed=st.integers(0, 2**32 - 1),
    eps=st.floats(0.05, 0.5),
    specs=st.lists(
        st.tuples(
            st.sampled_from(["a", "b"]),
            st.sampled_from(["a", "b"]),
            st.integers(-3, 3),
            st.sampled_from(["gaussian", "indicator"]),
            st.floats(-0.5, 0.5),
            st.floats(0.5, 1.5),
        ),
        min_size=4,
        max_size=4,
    ),
)
@example(seed=5, eps=0.02, specs=[("a", "b", 2, "gaussian", 0.3, 0.6), ("b", "a", -1, "gaussian", -0.2, 1.4),
                                  ("a", "a", 0, "gaussian", 0.0, 1.0), ("b", "b", 3, "gaussian", 0.4, 0.8)])
@example(seed=6, eps=0.02, specs=[("a", "b", -110, "gaussian", 0.1, 0.9), ("b", "a", 110, "gaussian", -0.3, 1.2),
                                  ("a", "a", 0, "gaussian", 0.2, 0.8), ("b", "b", 0, "indicator", 0.0, 1.0)])
@settings(max_examples=5)
def test_toeplitz_contraction_matches_dense_chain(n, bins, seed, eps, specs):
    model = random_model(np.random.default_rng(seed), bins=bins)
    symbols = [_symbol(*spec) for spec in specs[:n]]
    for d in enumerate_pair_diagrams(n):
        got = pairing_term_smeared(model, symbols, d, eps).value
        close(got, pairing_chain_oracle(model, symbols, d, eps), rel=1e-12)


def test_lag_support_cut():
    m = 201
    model = random_model(np.random.default_rng(11), bins=m)
    gaussian = _PairingFactors(model, (_symbol("a", "b", 30, "gaussian", 0.2, 0.8),), 0.05)
    lo, hi = gaussian.support[0]
    mag = np.abs(gaussian.lag[0])
    cut = 0.5 * BAND_CUT * np.sum(mag)
    # each dropped side holds at most half the cut, and one lag more would not
    assert np.sum(mag[: lo + m - 1]) <= cut and np.sum(mag[hi + m :]) <= cut
    assert np.sum(mag[: lo + m]) > cut and np.sum(mag[hi + m - 1 :]) > cut
    assert -(m - 1) < lo < 30 < hi < m - 1
    # a sinc never falls below the cut: every support is the whole lag range
    specs = [("a", "b", 2, "indicator", 0.1, 0.7), ("b", "a", -1, "indicator", -0.2, 1.1),
             ("a", "a", 0, "indicator", 0.3, 0.9), ("b", "b", 1, "indicator", 0.0, 1.3)]
    symbols = tuple(_symbol(*spec) for spec in specs)
    factors = _PairingFactors(model, symbols, 0.05)
    assert factors.support == [(-(m - 1), m - 1)] * 4
    for d in irreducible_diagrams(4):
        close(factors.epsilon ** (d.k - 4) * factors.cycle_value(d.cycles()[0]), pairing_chain_oracle(model, symbols, d, 0.05), rel=1e-12)


# the banded route, which contracts the cut lag vectors over lag offsets,
# and the mode route of one cycle, each called on its own; the flag puts
# a symbol's time centre on the Nyquist edge delta_e*|c|/eps = pi/2, and
# shifts s = -+110 leave those slots' lag vectors identically zero at M = 37
# and their mode sets empty
@pytest.mark.parametrize("bins", [37, 128, 201])
@pytest.mark.parametrize("n", [2, 3, 4])
@given(
    seed=st.integers(0, 2**32 - 1),
    eps=st.floats(0.02, 0.5),
    specs=st.lists(
        st.tuples(
            st.sampled_from(["a", "b"]),
            st.sampled_from(["a", "b"]),
            st.one_of(st.integers(-3, 3), st.sampled_from([-110, 110])),
            st.sampled_from(["gaussian", "indicator"]),
            st.floats(-0.5, 0.5),
            st.floats(0.5, 1.5),
            st.booleans(),
        ),
        min_size=4,
        max_size=4,
    ),
)
@example(seed=5, eps=0.2, specs=[("a", "b", 2, "gaussian", 0.3, 0.9, False), ("b", "a", -1, "gaussian", -0.2, 1.4, True),
                                 ("a", "a", 0, "gaussian", 0.4, 1.0, False), ("b", "b", -1, "gaussian", -0.1, 0.8, True)])
@example(seed=6, eps=0.02, specs=[("a", "b", -110, "gaussian", 0.1, 0.9, False), ("b", "a", 110, "gaussian", -0.3, 1.2, False),
                                  ("a", "a", 0, "gaussian", 0.2, 0.8, True), ("b", "b", 0, "indicator", 0.0, 1.0, False)])
@example(seed=7, eps=0.5, specs=[("a", "b", 3, "gaussian", 0.5, 0.5, True), ("b", "a", -3, "indicator", -0.5, 1.5, True),
                                 ("a", "a", 1, "gaussian", -0.5, 1.5, True), ("b", "b", -1, "gaussian", 0.0, 0.5, False)])
@settings(max_examples=5)
def test_mode_route_matches_lag_route_and_dense_chain(n, bins, seed, eps, specs):
    model = random_model(np.random.default_rng(seed), bins=bins)
    edge = NYQUIST_MARGIN * eps / model.grid.delta_e
    symbols = [_symbol(f, g, s, fam, np.copysign(edge, c) if at_edge else c, w) for f, g, s, fam, c, w, at_edge in specs[:n]]
    factors = _PairingFactors(model, tuple(symbols), eps)
    for d in irreducible_diagrams(n):
        cycle = d.cycles()[0]
        plan = factors._offset_windows(cycle)
        lag = factors._offset_cycle(cycle, plan) if plan[0] else 0j
        mode = factors._mode_cycle(cycle)
        scale = eps ** (d.k - n)
        want = pairing_chain_oracle(model, symbols, d, eps)
        close(scale * lag, want, rel=1e-12)
        close(scale * mode, want, rel=1e-12)
        close(scale * mode, scale * lag, rel=1e-12)


def test_mode_cut():
    m = 201
    model = random_model(np.random.default_rng(11), bins=m)
    symbols = tuple(_symbol(f, g, s, "gaussian", 0.2, 0.8) for f, g, s in [("a", "b", 30), ("b", "a", -20), ("a", "a", -10)])
    factors = _PairingFactors(model, symbols, 0.2)
    size, sets = factors._mode_sets()
    assert size == _fft_len(2 * m - 1)
    lo, hi = factors.support[0]
    lags = np.arange(lo, hi + 1)
    cut = factors.lag[0][lo + m - 1 : hi + m]
    tau = MODE_CUT * np.sum(np.abs(cut))
    circulant = np.zeros(size, dtype=complex)
    circulant[lags % size] = cut
    spectrum = np.fft.fft(circulant)
    keep, values = sets[0]
    # kept modes lie above the cut and dropped ones at or below it
    assert np.all(np.abs(spectrum[keep]) > tau)
    assert np.all(np.abs(np.delete(spectrum, keep)) <= tau)
    # the kept values are the circulant's eigenvalues, sum_d t[d] e^(-2 pi i d nu / L)
    dtft = np.exp(-2j * np.pi * np.outer(keep, lags) / size) @ cut
    assert np.max(np.abs(values - dtft)) <= 1e-13 * np.sum(np.abs(cut))
    assert 0 < len(keep) < size / 4
    # a wide band and a narrow spectrum: the 3-cycle takes the mode route
    assert factors._route((1, 2, 3), factors._offset_windows((1, 2, 3))) == "mode"
    # a lag vector that is identically zero keeps no mode
    tiny = random_model(np.random.default_rng(12), bins=37)
    zero = _PairingFactors(tiny, (_symbol("a", "b", 110, "gaussian", 0.0, 1.0),), 0.02)
    assert not np.any(zero.lag[0])
    assert len(zero._mode_sets()[1][0][0]) == 0


# both routes of one cycle, each called on its own, and the routed value, on
# the same cases as the mode-route test: Nyquist-edge time centres, and
# shifts s = -+110 that empty the M = 37 supports, so that no offset window
# can close
@pytest.mark.parametrize("bins", [37, 128, 201])
@pytest.mark.parametrize("n", [2, 3, 4])
@given(
    seed=st.integers(0, 2**32 - 1),
    eps=st.floats(0.02, 0.5),
    specs=st.lists(
        st.tuples(
            st.sampled_from(["a", "b"]),
            st.sampled_from(["a", "b"]),
            st.one_of(st.integers(-3, 3), st.sampled_from([-110, 110])),
            st.sampled_from(["gaussian", "indicator"]),
            st.floats(-0.5, 0.5),
            st.floats(0.5, 1.5),
            st.booleans(),
        ),
        min_size=4,
        max_size=4,
    ),
)
@example(seed=5, eps=0.05, specs=[("a", "b", 2, "gaussian", 0.3, 0.9, False), ("b", "a", -1, "gaussian", -0.2, 1.4, True),
                                  ("a", "a", 0, "gaussian", 0.4, 1.0, False), ("b", "b", -1, "gaussian", -0.1, 0.8, True)])
@example(seed=6, eps=0.02, specs=[("a", "b", -110, "gaussian", 0.1, 0.9, False), ("b", "a", 110, "gaussian", -0.3, 1.2, False),
                                  ("a", "a", 0, "gaussian", 0.2, 0.8, True), ("b", "b", 0, "indicator", 0.0, 1.0, False)])
@settings(max_examples=5)
def test_offset_route_matches_lag_and_mode_routes_and_dense_chain(n, bins, seed, eps, specs):
    model = random_model(np.random.default_rng(seed), bins=bins)
    edge = NYQUIST_MARGIN * eps / model.grid.delta_e
    symbols = [_symbol(f, g, s, fam, np.copysign(edge, c) if at_edge else c, w) for f, g, s, fam, c, w, at_edge in specs[:n]]
    factors = _PairingFactors(model, tuple(symbols), eps)
    for d in irreducible_diagrams(n):
        cycle = d.cycles()[0]
        plan = factors._offset_windows(cycle)
        scale = eps ** (d.k - n)
        want = pairing_chain_oracle(model, symbols, d, eps)
        for value in (factors._offset_cycle(cycle, plan) if plan[0] else 0j, factors._mode_cycle(cycle)):
            close(scale * value, want, rel=1e-12)
        close(scale * factors.cycle_value(cycle), want, rel=1e-12)


# the routed value on a grid of several row blocks: M = 300 is two and a
# bit blocks of _BLOCK rows and nine and a bit of the short blocks that full
# supports take.  Every shift but the last is drawn and the last closes the
# sum to 0, so the cycles do not vanish; the examples give indicator phi on
# every slot, whose supports are the whole lag range, and Gaussian shifts
# whose partial sums reach 290 of the 299 offsets the grid allows
@pytest.mark.parametrize("n", [2, 3, 4])
@given(
    seed=st.integers(0, 2**32 - 1),
    eps=st.floats(0.02, 0.3),
    specs=st.lists(
        st.tuples(
            st.sampled_from(["a", "b"]),
            st.sampled_from(["a", "b"]),
            st.integers(-150, 150),
            st.sampled_from(["gaussian", "indicator"]),
            st.floats(-0.5, 0.5),
            st.floats(0.5, 1.5),
        ),
        min_size=4,
        max_size=4,
    ),
)
@example(seed=8, eps=0.05, specs=[("a", "b", 0, "indicator", 0.1, 0.7), ("b", "a", 0, "indicator", -0.2, 1.1),
                                  ("a", "a", 0, "indicator", 0.3, 0.9), ("b", "b", 0, "indicator", 0.0, 1.3)])
@example(seed=9, eps=0.02, specs=[("a", "b", -40, "gaussian", 0.1, 0.9), ("b", "a", 200, "gaussian", -0.3, 1.2),
                                  ("a", "a", 90, "gaussian", 0.2, 0.8), ("b", "b", -250, "gaussian", 0.0, 1.0)])
@settings(max_examples=5, deadline=None)
def test_routed_cycles_on_several_row_blocks_match_dense_chain(n, seed, eps, specs):
    bins = 300
    model = random_model(np.random.default_rng(seed), bins=bins)
    shifts = [s for _, _, s, _, _, _ in specs[: n - 1]]
    specs = specs[: n - 1] + [specs[n - 1][:2] + (-sum(shifts),) + specs[n - 1][3:]]
    symbols = [_symbol(*spec) for spec in specs]
    factors = _PairingFactors(model, tuple(symbols), eps)
    assert bins % _BLOCK and bins % (_BLOCK // 4) and bins > 2 * _BLOCK
    for d in irreducible_diagrams(n):
        got = eps ** (d.k - n) * factors.cycle_value(d.cycles()[0])
        close(got, pairing_chain_oracle(model, symbols, d, eps), rel=1e-12)


def test_offset_route_unclosable_cycle_is_exactly_zero():
    model = random_model(np.random.default_rng(11), bins=201)
    # every support sits 10..70 lags to the right of 0, so no three lags sum to 0
    symbols = tuple(_symbol(f, g, 40, "gaussian", 0.0, 1.0) for f, g in [("a", "b"), ("b", "a"), ("a", "a")])
    factors = _PairingFactors(model, symbols, 0.05)
    assert all(lo > 0 for lo, _ in factors.support)
    assert factors._offset_windows((1, 2, 3))[0] == []  # no block's windows close
    assert factors.cycle_value((1, 2, 3)) == 0j
    d = PairDiagram((2, 3, 1))  # the 3-cycle (1 2 3)
    close(0j, pairing_chain_oracle(model, symbols, d, 0.05), rel=1e-12)


def test_indicator_cycles_take_the_banded_route():
    # a sinc keeps every lag and every mode of the circulant, so with
    # indicator phi on every slot the mode chain is the longest there is
    model = random_model(np.random.default_rng(11), bins=201)
    specs = [("a", "b", 2), ("b", "a", -1), ("a", "a", -1), ("b", "b", 0)]
    symbols = tuple(_symbol(f, g, s, "indicator", 0.0, 1.0) for f, g, s in specs)
    for eps in (0.02, 0.05, 0.1):
        factors = _PairingFactors(model, symbols, eps)
        for cycle in [(1, 2), (1, 2, 3), (1, 3, 2), (1, 2, 3, 4), (1, 4, 2, 3)]:
            assert factors._route(cycle, factors._offset_windows(cycle)) == "offset"


def test_full_support_gaussian_cycle_takes_the_mode_route():
    # a narrow phi at coarse eps: every lag is in the support, but the
    # spectrum is narrow, so the mode chain is far shorter than the banded
    # route's FFTs over the whole grid
    cfg = default_config()
    cfg["grid"]["bins"] = 384
    cfg["symbols"] = [dict(cfg["symbols"][i % 2], phi={"family": "gaussian", "center": 0.0, "width": 0.4}) for i in range(3)]
    model = model_from_config(cfg)
    symbols = tuple(symbols_from_config(cfg, model))
    factors = _PairingFactors(model, symbols, 0.2)
    assert factors.support == [(-383, 383)] * 3
    for d in irreducible_diagrams(3):
        cycle = d.cycles()[0]
        assert factors._route(cycle, factors._offset_windows(cycle)) == "mode"
        close(factors.epsilon ** (d.k - 3) * factors.cycle_value(cycle), pairing_chain_oracle(model, symbols, d, 0.2), rel=1e-12)


@pytest.mark.parametrize("eps", [0.0, -0.1, float("nan"), float("inf")])
def test_epsilon_must_be_finite_and_positive(eps):
    model = gaussian_shell_model(bins=16)
    sym = NumberSymbol.make("a", "b", 0, TestFunction.gaussian())
    with pytest.raises(ValueError, match="epsilon must be a finite positive number"):
        correlation_smeared(model, [sym, sym], eps)


def test_resolution_warning_threshold():
    model = gaussian_shell_model(bins=16)  # delta_e = 0.25
    sym = NumberSymbol.make("a", "b", 0, TestFunction.gaussian(width=1.0))
    # bound = eps / (8 * sigma): eps = 0.5 -> 0.0625 < 0.25 warns
    assert resolution_warnings(model, [sym], 0.5)
    # a much finer grid at the same epsilon stays quiet
    fine = gaussian_shell_model(bins=512)
    assert resolution_warnings(fine, [sym], 0.5) == ()


@pytest.mark.parametrize("bins, warns", [(64, True), (512, False)])
def test_nyquist_rule_reaches_every_smeared_path(bins, warns):
    # singletons at t = 0 and 10: delta_e * 10 / eps is 6.25 at 64 bins and
    # 0.78 <= pi/2 at 512 bins, eps = 0.1
    model = gaussian_shell_model(bins=bins)
    symbols = [
        NumberSymbol.make("a", "a", 0, TestFunction.gaussian(center=0.0)),
        NumberSymbol.make("b", "b", 0, TestFunction.gaussian(center=10.0)),
    ]
    paths = {
        "rule": resolution_warnings(model, symbols, 0.1),
        "sweep": convergence_sweep(model, symbols, (0.1,)).rows[0].warnings,
        "independence": independence_probe(model, [[s] for s in symbols], (0.1,)).rows[0].warnings,
        "diagram": pairing_term_smeared(model, symbols, PairDiagram((2, 1)), 0.1).warnings,
    }
    for path, warnings in paths.items():
        if warns:
            assert "Nyquist: delta_e*|c|/eps=6.25 exceeds pi/2 at eps=0.1" in warnings, path
        else:
            assert warnings == (), path


@pytest.mark.parametrize(
    "phi, warns",
    [
        (TestFunction.gaussian(center=20.0), True),  # 0.01 * 20 / 0.1 = 2 > pi/2
        (TestFunction.gaussian(center=-15.0), False),  # 1.5 <= pi/2
        (TestFunction.indicator(19.0, 21.0), True),  # the midpoint is the centre
        (TestFunction.indicator(-16.0, -14.0), False),
    ],
)
def test_nyquist_threshold_reads_the_time_centre(phi, warns):
    model = gaussian_shell_model(bins=400)  # delta_e = 0.01 passes the width rule at eps = 0.1
    got = resolution_warnings(model, [NumberSymbol.make("a", "b", 0, phi)], 0.1)
    assert got == (("Nyquist: delta_e*|c|/eps=2 exceeds pi/2 at eps=0.1",) if warns else ())


def test_fft_len_is_scipys_next_fast_len():
    from scipy.fft import next_fast_len

    sizes = range(1, 20001)
    assert [_fft_len(n) for n in sizes] == [next_fast_len(n) for n in sizes]


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

"""Spectral layer: grid/model validation, kernels, the star product, and
the limiting truncated coefficient."""

import tracemalloc

import numpy as np
import pytest

from helpers import coefficient_oracle, gaussian_shell_model, random_model, random_symbols
from lowdensity import (
    EnergyGrid,
    FrequencyIndex,
    NumberSymbol,
    ShellKernel,
    TestFunction,
    free_moment,
    limit_truncated_coefficient,
    limit_truncated_smeared,
    make_model,
    radial_to_shell,
    rank_one_kernel,
    star_product,
    state_expectation,
)
from lowdensity.spectral import TWO_PI
from lowdensity.symbols import product_integral


def test_grid_validation_and_centers():
    grid = EnergyGrid(e_max=4.0, bins=8)
    assert grid.delta_e == pytest.approx(0.5)
    assert grid.centers[0] == pytest.approx(0.25)
    assert grid.centers[-1] == pytest.approx(3.75)
    shifted = EnergyGrid(e_max=3.0, bins=4, e_min=1.0)
    assert shifted.centers[0] == pytest.approx(1.25)
    with pytest.raises(ValueError):
        EnergyGrid(e_max=4.0, bins=1)
    with pytest.raises(ValueError):
        EnergyGrid(e_max=0.0, bins=4)


def test_density_and_amplitude_validation():
    # make_model holds every model check: each bad array raises ValueError
    grid = EnergyGrid(e_max=1.0, bins=4)
    for density, vectors, message in [
        (np.ones(4), {"a": np.zeros((4, 4))}, "vector 'a' must be a 1-D array"),
        (np.ones(4), {"a": np.ones(3)}, "vector 'a' must be a 1-D array of 4 entries"),
        (np.ones(3), {"a": np.ones(4)}, "density must be a 1-D array of 4 entries"),
        (np.array([0.5, -0.1, 1.0, 1.0]), {"a": np.ones(4)}, "density must be nonnegative"),
        (np.ones(4), {"": np.ones(4)}, "nonempty name"),
    ]:
        with pytest.raises(ValueError, match=message):
            make_model(grid, density, vectors)
    model = make_model(grid, [1, 2, 3, 4], {"a": np.ones(4)})
    assert model.density.dtype == float and model.amplitude("a").dtype == complex
    with pytest.raises(KeyError):
        model.amplitude("missing")


def test_radial_to_shell_three_d_jacobian():
    # E = r^2 shells: |v(E)|^2 = 2 pi sqrt(E) |a(sqrt(E))|^2, so the radial
    # profile (2 pi r)^(-1/2) gives the flat unit shell function.
    grid = EnergyGrid(e_max=1.0, bins=10)
    shell = radial_to_shell(grid, lambda r: 1.0 / np.sqrt(TWO_PI * r))
    assert np.allclose(np.abs(shell) ** 2, 1.0, atol=1e-12)


def test_rank_one_kernel_entries():
    rng = np.random.default_rng(7)
    model = random_model(rng, bins=6)
    kern = rank_one_kernel(model, "a", "b")
    va, vb = model.amplitude("a"), model.amplitude("b")
    assert kern.entries(np.array([2]), np.array([4]))[0] == pytest.approx(va[2] * np.conj(vb[4]))
    assert np.allclose(kern.diagonal(), va * np.conj(vb))


def test_shell_kernel_rejects_malformed_vectors():
    grid = EnergyGrid(e_max=2.0, bins=5)
    good = np.ones(5, dtype=complex)
    for bad in (np.ones(4, dtype=complex), np.ones((5, 5), dtype=complex), np.ones(5)):
        with pytest.raises(ValueError):
            ShellKernel(grid, bad, good)
        with pytest.raises(ValueError):
            ShellKernel(grid, good, bad)


def _dense(kern):
    """The kernel as an M x M matrix, for comparison only."""
    m = kern.grid.bins
    rows, cols = np.divmod(np.arange(m * m), m)
    return kern.entries(rows, cols).reshape(m, m)


def test_star_product_hand_value_and_associativity():
    rng = np.random.default_rng(11)
    grid = EnergyGrid(e_max=2.0, bins=5)
    vecs = [rng.normal(size=5) + 1j * rng.normal(size=5) for _ in range(6)]
    t, u, v = (ShellKernel(grid, vecs[2 * i], vecs[2 * i + 1]) for i in range(3))
    tu = _dense(star_product(t, u))
    assert tu[1, 3] == pytest.approx(TWO_PI * _dense(t)[1, 1] * _dense(u)[1, 3])
    left = _dense(star_product(star_product(t, u), v))
    right = _dense(star_product(t, star_product(u, v)))
    assert np.allclose(left, right, atol=1e-12 * np.max(np.abs(left)))
    other = ShellKernel(EnergyGrid(e_max=2.0, bins=6), np.ones(6, dtype=complex), np.ones(6, dtype=complex))
    with pytest.raises(ValueError):
        star_product(t, other)


def test_state_expectation_hand_sum():
    rng = np.random.default_rng(3)
    model = random_model(rng, bins=5)
    kern = rank_one_kernel(model, "a", "a")
    expected = sum(
        model.density[a] * abs(model.amplitude("a")[a]) ** 2 * model.grid.delta_e
        for a in range(5)
    )
    assert state_expectation(model, kern) == pytest.approx(expected)


def test_limit_coefficient_order_one_is_state_expectation():
    model = gaussian_shell_model(bins=32)
    kern = rank_one_kernel(model, "a", "b")
    coeff = limit_truncated_coefficient(model, [kern], [FrequencyIndex(0)])
    assert coeff.omega_gate_passed
    assert coeff.delta_chain_order == 0
    assert coeff.value == pytest.approx(state_expectation(model, kern), rel=1e-13)


def test_limit_coefficient_gate_is_exact():
    model = gaussian_shell_model(bins=16)
    kerns = [rank_one_kernel(model, "a", "b"), rank_one_kernel(model, "b", "a")]
    coeff = limit_truncated_coefficient(model, kerns, [FrequencyIndex(1), FrequencyIndex(0)])
    assert coeff.value == 0j and not coeff.omega_gate_passed
    balanced = limit_truncated_coefficient(model, kerns, [FrequencyIndex(3), FrequencyIndex(-3)])
    assert balanced.omega_gate_passed
    # a shift wider than the grid leaves no bin whose every read is on it
    for s in (16, -20):
        off = limit_truncated_coefficient(model, kerns, [FrequencyIndex(s), FrequencyIndex(-s)])
        assert off.value == 0j and off.omega_gate_passed


def test_limit_coefficient_against_direct_loop(rng):
    for trial in range(25):
        n = int(rng.integers(1, 5))
        model = random_model(rng, bins=int(rng.integers(5, 10)))
        names = list(model.vectors)
        kerns = []
        for _ in range(n):
            f, g = rng.choice(names), rng.choice(names)
            kerns.append(rank_one_kernel(model, str(f), str(g)))
        s = [int(v) for v in rng.integers(-2, 3, size=n - 1)]
        s = s + [-sum(s)] if rng.random() < 0.8 else s + [int(rng.integers(1, 3))]
        got = limit_truncated_coefficient(model, kerns, [FrequencyIndex(v) for v in s])
        want = coefficient_oracle(model, kerns, s)
        assert got.value == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))


def test_limit_coefficient_cyclic_under_rotation_with_flat_density(rng):
    # With a scalar density the trace chain is invariant under rotating the
    # symbols one step (frequencies rotate along and keep a zero sum).
    grid = EnergyGrid(e_max=3.0, bins=24)
    density = np.full(24, 0.7)
    for trial in range(10):
        vecs = {nm: rng.normal(size=24) + 1j * rng.normal(size=24) for nm in ("a", "b", "c")}
        model = make_model(grid, density, vecs)
        pairs = [("a", "b"), ("b", "c"), ("c", "a")]
        s = [int(v) for v in rng.integers(-2, 3, size=2)]
        s.append(-sum(s))
        kerns = [rank_one_kernel(model, f, g) for f, g in pairs]
        freqs = [FrequencyIndex(v) for v in s]
        base = limit_truncated_coefficient(model, kerns, freqs).value
        rot = limit_truncated_coefficient(model, kerns[1:] + kerns[:1], freqs[1:] + freqs[:1]).value
        assert rot == pytest.approx(base, abs=1e-12 * max(1.0, abs(base)))


def test_limit_coefficient_bilinear_in_each_slot(rng):
    base = random_model(rng, bins=10, names=("a", "b", "c"))
    alpha, beta = 0.7 - 0.2j, 1.3 + 0.5j
    # |m><b| = alpha |a><b| + beta |c><b| for the model vector m = alpha a + beta c
    vectors = dict(base.vectors)
    vectors["m"] = alpha * base.amplitude("a") + beta * base.amplitude("c")
    model = make_model(base.grid, base.density, vectors)
    kerns = [rank_one_kernel(model, "a", "b"), rank_one_kernel(model, "b", "c")]
    freqs = [FrequencyIndex(1), FrequencyIndex(-1)]
    mixed = rank_one_kernel(model, "m", "b")
    lhs = limit_truncated_coefficient(model, [mixed, kerns[1]], freqs).value
    rhs = alpha * limit_truncated_coefficient(model, kerns, freqs).value + beta * limit_truncated_coefficient(
        model, [rank_one_kernel(model, "c", "b"), kerns[1]], freqs
    ).value
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


def test_smeared_limit_is_prefactor_times_coefficient(rng):
    model = gaussian_shell_model(bins=48)
    symbols = random_symbols(rng, 3, s_choices=(-1, 0, 1))
    kerns = [rank_one_kernel(model, s.f, s.g) for s in symbols]
    coeff = limit_truncated_coefficient(model, kerns, [s.omega for s in symbols])
    want = TWO_PI**2 * product_integral([s.phi for s in symbols]) * coeff.value
    assert limit_truncated_smeared(model, symbols) == pytest.approx(want, abs=1e-13 * max(1.0, abs(want)))


def test_free_moment_equals_smeared_limit_bin_exactly(rng):
    model = gaussian_shell_model(bins=64)
    for trial in range(8):
        n = int(rng.integers(1, 4))
        symbols = random_symbols(rng, n)
        lhs = free_moment(model, symbols)
        rhs = limit_truncated_smeared(model, symbols)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


def test_free_moment_rejects_nonzero_frequency():
    model = gaussian_shell_model(bins=16)
    sym = NumberSymbol.make("a", "b", 1, TestFunction.gaussian())
    with pytest.raises(ValueError):
        free_moment(model, [sym])


def test_free_moment_builds_no_dense_kernel():
    # rank-one star products keep the traced peak at a few M-vectors; the
    # dense M x M kernels peaked at 805 MB here
    model = gaussian_shell_model(bins=4096)
    symbols = [NumberSymbol.make(f, g, 0, TestFunction.gaussian()) for f, g in (("a", "b"), ("b", "a"), ("a", "a"))]
    tracemalloc.start()
    try:
        free_moment(model, symbols)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6

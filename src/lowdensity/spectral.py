"""Discretized energy shells, kernels, and the limiting correlation formulas.

The one-particle Hamiltonian is represented by a uniform grid of energy bins.
A delta-normalized spectral projection P_E restricted to the grid turns every
operator into its energy kernel K(E_a, E_b) evaluated at bin centers, and
every energy integral into a bin sum weighted by delta_e.  Rank-one symbols
|f><g| carry one complex shell amplitude per vector, with the density of
states already absorbed, so <g, P_E f> = conj(v_g(E)) * v_f(E) and no
geometric factors appear anywhere downstream.  A kernel is kept as those two
vectors, K(E_a, E_b) = v_f(E_a) conj(v_g(E_b)), never as an M x M matrix;
the star product of two rank-one kernels is again rank-one.

The limiting value of a truncated multi-time correlation function is a single
bin sum over a chain of frequency-shifted kernel entries; the delta chain in
the time variables is never materialized.  This module computes that
coefficient, the smeared limit, and the free star-product moment that must
agree with it at zero frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import pi, sqrt
from typing import Callable, Mapping

import numpy as np

from .symbols import FrequencyIndex, NumberSymbol, product_integral

TWO_PI = 2.0 * pi


@dataclass(frozen=True)
class EnergyGrid:
    """Uniform energy discretization on [e_min, e_max].

    Parameters
    ----------
    e_max : float
        Upper edge of the covered energy window.
    bins : int
        Number of bins, at least 2.
    e_min : float, optional
        Lower edge, 0 by default.

    Notes
    -----
    Bin a covers [e_min + a*delta_e, e_min + (a+1)*delta_e) and all kernel
    and amplitude samples live at the bin centers
    E_a = e_min + (a + 1/2) * delta_e.
    """

    e_max: float
    bins: int
    e_min: float = 0.0

    def __post_init__(self):
        if self.bins < 2 or int(self.bins) != self.bins:
            raise ValueError("bins must be an integer >= 2")
        if not self.e_max > self.e_min:
            raise ValueError("e_max must exceed e_min")

    @property
    def delta_e(self) -> float:
        return (self.e_max - self.e_min) / self.bins

    @cached_property
    def centers(self) -> np.ndarray:
        return self.e_min + (np.arange(self.bins) + 0.5) * self.delta_e


def radial_to_shell(grid: EnergyGrid, radial: Callable) -> np.ndarray:
    """Shell amplitudes of a radial wave function under the dispersion
    omega(k) = |k|^2: radial is sampled at r = sqrt(E_a), and the spherical
    shell measure is folded in, so <f, P_E f> = 2 pi sqrt(E) |radial(sqrt(E))|^2.
    """
    r = np.sqrt(grid.centers)
    return np.sqrt(TWO_PI * r) * np.asarray(radial(r), dtype=complex)


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """Grid, occupation density n(E_a) >= 0 per bin, and named complex shell
    amplitudes v(E_a) with the density of states folded in, so inner products
    against spectral projections are plain products:
    <g, P_E f> = conj(v_g(E)) v_f(E).  Build it with make_model."""

    grid: EnergyGrid
    density: np.ndarray
    vectors: Mapping[str, np.ndarray]

    def amplitude(self, name: str) -> np.ndarray:
        try:
            return self.vectors[name]
        except KeyError:
            raise KeyError(f"unknown vector {name!r}; model has {sorted(self.vectors)}") from None


def make_model(grid: EnergyGrid, density, vectors: Mapping) -> SpectralModel:
    """Check every model array and assemble a SpectralModel: the density is a
    nonnegative real 1-D array and each named vector a complex 1-D array,
    all with one entry per bin."""
    density = np.asarray(density, dtype=float)
    if density.shape != (grid.bins,):
        raise ValueError(f"density must be a 1-D array of {grid.bins} entries")
    if np.any(density < 0):
        raise ValueError("density must be nonnegative")
    table: dict[str, np.ndarray] = {}
    for name, v in vectors.items():
        if not name:
            raise ValueError("every vector needs a nonempty name")
        table[name] = np.asarray(v, dtype=complex)
        if table[name].shape != (grid.bins,):
            raise ValueError(f"vector {name!r} must be a 1-D array of {grid.bins} entries")
    return SpectralModel(grid=grid, density=density, vectors=table)


@dataclass(frozen=True, eq=False)
class ShellKernel:
    """Energy kernel of a rank-one symbol on the grid, kept as two vectors:
    K(E_a, E_b) = left[a] * right_conj[b]."""

    grid: EnergyGrid
    left: np.ndarray
    right_conj: np.ndarray

    def __post_init__(self):
        for name in ("left", "right_conj"):
            vec = getattr(self, name)
            if not (isinstance(vec, np.ndarray) and vec.ndim == 1 and np.iscomplexobj(vec)
                    and len(vec) == self.grid.bins):
                raise ValueError(f"kernel {name} must be a 1-D complex array of length {self.grid.bins}")

    def diagonal(self) -> np.ndarray:
        return self.left * self.right_conj

    def entries(self, rows: np.ndarray | slice, cols: np.ndarray | slice) -> np.ndarray:
        return self.left[rows] * self.right_conj[cols]


def rank_one_kernel(model: SpectralModel, f: str, g: str) -> ShellKernel:
    """Kernel of |f><g|: K(E_a, E_b) = v_f(E_a) conj(v_g(E_b))."""
    return ShellKernel(model.grid, model.amplitude(f), np.conj(model.amplitude(g)))


def star_product(t: ShellKernel, u: ShellKernel) -> ShellKernel:
    """Free white-noise product: (T * U)(E_a, E_b) = 2 pi T(E_a, E_a) U(E_a, E_b).

    This is the kernel of 2 pi * integral dE P_E T P_E U on the grid; the
    projection pins the first energy argument of both factors, so only the
    left vector of U is rescaled and the product stays rank-one.
    """
    if t.grid != u.grid:
        raise ValueError("star product needs kernels on the same grid")
    return ShellKernel(t.grid, TWO_PI * t.diagonal() * u.left, u.right_conj)


def state_expectation(model: SpectralModel, kernel: ShellKernel) -> complex:
    """Tr(n_hat T) = sum_a n(E_a) K(E_a, E_a) delta_e."""
    if kernel.grid != model.grid:
        raise ValueError("kernel grid does not match model grid")
    return complex(np.sum(model.density * kernel.diagonal()) * model.grid.delta_e)


@dataclass(frozen=True)
class LimitCoefficient:
    """Scalar part C of a limiting truncated correlation.

    The full limiting distribution is
    C * (2 pi)^(n-1) * delta(t_2 - t_1) ... delta(t_n - t_{n-1});
    only C and the chain order are materialized.
    """

    value: complex
    delta_chain_order: int
    omega_gate_passed: bool


def limit_truncated_coefficient(model: SpectralModel, kernels, freqs) -> LimitCoefficient:
    """Limiting truncated coefficient for a chain of kernels and frequencies.

    Parameters
    ----------
    kernels : sequence of ShellKernel
        Symbols T_1 .. T_n in time order; only entries(rows, cols) is read.
    freqs : sequence of FrequencyIndex
        Integer lattice frequencies omega_l = s_l * delta_e.

    Returns
    -------
    LimitCoefficient
        C = sum_a delta_e n(E_a) T_1(E_a + w_1, E_a + w_2) T_2(E_a + w_2, E_a + w_3)
            ... T_n(E_a + w_n, E_a)
        with w_l = omega_n + ... + omega_l the running suffix sums, read as
        integer bin shifts; reads outside the grid contribute 0.  The value is
        exactly 0 (gate not passed) unless w_1 = omega_1 + ... + omega_n = 0.
    """
    kernels = list(kernels)
    freqs = list(freqs)
    n = len(kernels)
    if n == 0 or len(freqs) != n:
        raise ValueError("need matching nonempty kernel and frequency lists")
    for k in kernels:
        if k.grid != model.grid:
            raise ValueError("kernel grid does not match model grid")
    # shifts[l-1] = s_l + ... + s_n, and shifts[n] = 0 for the last column
    shifts = list(accumulate(f.s for f in reversed(freqs)))[::-1] + [0]
    if shifts[0] != 0:
        return LimitCoefficient(0j, n - 1, omega_gate_passed=False)

    # the bins a whose every read a + w stays on the grid form one run lo <= a < hi
    lo = -min(shifts)
    hi = max(lo, model.grid.bins - max(shifts))
    acc = model.density[lo:hi].astype(complex)
    for l in range(n):
        rows = slice(lo + shifts[l], hi + shifts[l])
        cols = slice(lo + shifts[l + 1], hi + shifts[l + 1])
        acc = acc * kernels[l].entries(rows, cols)
    value = complex(acc.sum() * model.grid.delta_e)
    return LimitCoefficient(value, n - 1, omega_gate_passed=True)


def limit_truncated_smeared(model: SpectralModel, symbols) -> complex:
    """Limiting truncated correlation smeared with each symbol's test function.

    Smearing the delta chain gives (2 pi)^(n-1) * integral dt phi_1(t) ...
    phi_n(t) times the limiting coefficient; exactly 0 when the frequency
    gate fails.
    """
    symbols = list(symbols)
    kernels = [rank_one_kernel(model, s.f, s.g) for s in symbols]
    coeff = limit_truncated_coefficient(model, kernels, [s.omega for s in symbols])
    if not coeff.omega_gate_passed:
        return 0j
    n = len(symbols)
    return TWO_PI ** (n - 1) * product_integral([s.phi for s in symbols]) * coeff.value


def free_moment(model: SpectralModel, symbols) -> complex:
    """Mixed moment of the free white-noise functional at zero frequency.

    The multiplication rule N_T(t) N_U(t') = delta(t - t') N_{T*U}(t)
    collapses the product to one symbol; smearing contributes the same
    product integral as the limiting side, so this must reproduce
    limit_truncated_smeared exactly on the grid.
    """
    symbols = list(symbols)
    if not symbols:
        raise ValueError("free_moment needs at least one symbol")
    for s in symbols:
        if not s.omega.is_zero:
            raise ValueError("free_moment is defined at zero frequency only")
    kernel = rank_one_kernel(model, symbols[0].f, symbols[0].g)
    for s in symbols[1:]:
        kernel = star_product(kernel, rank_one_kernel(model, s.f, s.g))
    return state_expectation(model, kernel) * product_integral([s.phi for s in symbols])

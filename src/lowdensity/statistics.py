"""Moment / cumulant structure of the limiting number statistics.

The truncation recursion over set partitions with increasing blocks is the
same transform that connects classical moments and cumulants, so one core
implementation serves both names.  The Poisson family realizes the flagship
example: a hard shell of radius sqrt(lambda) at unit density, smeared with
the unit-mass box of width 2 pi, has every cumulant equal to lambda, hence
Touchard-polynomial moments and Bell-number moments at lambda = 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .finite_eps import correlation_smeared
from .partitions import enumerate_set_partitions
from .report import ConvergenceReport, SweepRow
from .spectral import (
    DensityProfile,
    EnergyGrid,
    ShellKernel,
    SpectralModel,
    TWO_PI,
    make_model,
    radial_to_shell,
    rank_one_kernel,
)
from .symbols import FrequencyIndex, TestFunction, product_integral


class GridAlignmentError(ValueError):
    """A model parameter must sit on the bin lattice and does not."""


def _subsets(n: int):
    for size in range(1, n + 1):
        yield from itertools.combinations(range(1, n + 1), size)


@dataclass(frozen=True, eq=False)
class CorrelationFamily:
    """Values of a correlation on every nonempty increasing index subset of
    {1..n}; the operands the truncation recursion consumes and produces,
    full correlations or moments on one side, truncated correlations or
    joint cumulants on the other."""

    arity: int
    values: dict[tuple[int, ...], complex]

    def __post_init__(self):
        expected = set(_subsets(self.arity))
        got = set(self.values)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise ValueError(f"incomplete correlation family: missing {missing[:4]}, extra {extra[:4]}")

    @classmethod
    def from_function(cls, arity: int, fn: Callable[[tuple[int, ...]], complex]) -> "CorrelationFamily":
        return cls(arity, {s: complex(fn(s)) for s in _subsets(arity)})

    def value(self, subset) -> complex:
        return self.values[tuple(subset)]


def _connected_from_full(arity: int, full: dict) -> dict:
    """kappa(S) = m(S) - sum over partitions of S with >= 2 blocks of
    prod kappa(block); resolved by increasing subset size."""
    conn: dict[tuple[int, ...], complex] = {}
    for subset in _subsets(arity):
        total = complex(full[subset])
        if len(subset) > 1:
            for part in enumerate_set_partitions(len(subset)):
                if len(part) < 2:
                    continue
                prod = 1.0 + 0j
                for block in part.blocks:
                    prod *= conn[tuple(subset[i - 1] for i in block)]
                total -= prod
        conn[subset] = total
    return conn


def _full_from_connected(arity: int, conn: dict) -> dict:
    full: dict[tuple[int, ...], complex] = {}
    for subset in _subsets(arity):
        total = 0j
        for part in enumerate_set_partitions(len(subset)):
            prod = 1.0 + 0j
            for block in part.blocks:
                prod *= conn[tuple(subset[i - 1] for i in block)]
            total += prod
        full[subset] = total
    return full


def truncated_from_full(family: CorrelationFamily) -> CorrelationFamily:
    return CorrelationFamily(family.arity, _connected_from_full(family.arity, family.values))


def full_from_truncated(family: CorrelationFamily) -> CorrelationFamily:
    return CorrelationFamily(family.arity, _full_from_connected(family.arity, family.values))


def cumulants_from_moments(family: CorrelationFamily) -> CorrelationFamily:
    """Joint cumulants of the family; by the truncation identity these are
    exactly the truncated correlations."""
    return CorrelationFamily(family.arity, _connected_from_full(family.arity, family.values))


def moments_from_cumulants(family: CorrelationFamily) -> CorrelationFamily:
    return CorrelationFamily(family.arity, _full_from_connected(family.arity, family.values))


def limit_cumulant(model: SpectralModel, kernel: ShellKernel, omega: FrequencyIndex, phi: TestFunction, order: int) -> complex:
    """Limiting cumulant of one smeared oscillating symbol at the given order:

    kappa_l = delta_{omega,0} (2 pi)^(l-1) [integral phi^l]
              sum_a delta_e n(E_a) K(E_a, E_a)^l
    """
    if order < 1:
        raise ValueError("cumulant order must be >= 1")
    if not omega.is_zero:
        return 0j
    diag = kernel.diagonal() ** order
    shell_sum = np.sum(model.density.values * diag) * model.grid.delta_e
    return complex(TWO_PI ** (order - 1) * product_integral([phi] * order) * shell_sum)


def reference_box(height: float = 1.0 / TWO_PI, width: float = TWO_PI) -> TestFunction:
    """Unit-mass box on [0, width): the smearing used by the Poisson family."""
    return TestFunction.indicator(0.0, width, height)


def poisson_model(lam: float, grid: EnergyGrid) -> SpectralModel:
    """Unit density with the hard-shell amplitude chi_[0, lambda) from the
    radial profile (2 pi r)^(-1/2) chi(r <= sqrt(lambda)) in three_d mode.

    lambda must land on a bin edge; otherwise the shell sum would misstate
    the interval length and the exact cumulants would drift.
    """
    de = grid.delta_e
    ratio = (lam - grid.e_min) / de
    if lam <= grid.e_min or lam > grid.e_max + 1e-12 * de:
        raise GridAlignmentError(f"lambda={lam} outside the grid window ({grid.e_min}, {grid.e_max}]")
    if abs(ratio - round(ratio)) > 1e-9:
        raise GridAlignmentError(f"lambda={lam} is not on the bin lattice (delta_e={de})")

    def radial(r):
        inside = (r * r) < lam
        return np.where(inside, 1.0 / np.sqrt(TWO_PI * r), 0.0)

    shell = radial_to_shell(grid, radial, name="shell", dos="three_d")
    return make_model(grid, DensityProfile.flat(1.0, grid.bins), [shell])


def poisson_cumulants(lam: float, l_max: int, grid: EnergyGrid, omega_index: int = 0) -> list[complex]:
    """kappa_1 .. kappa_{l_max} of the hard-shell element; all equal lambda
    at zero frequency, all exactly zero otherwise."""
    model = poisson_model(lam, grid)
    kernel = rank_one_kernel(model, "shell", "shell")
    phi = reference_box()
    omega = FrequencyIndex(int(omega_index))
    return [limit_cumulant(model, kernel, omega, phi, l) for l in range(1, l_max + 1)]


def poisson_moments(lam: float, n_max: int) -> list[float]:
    """Moments of a Poisson(lambda) variable via the cumulant transform;
    equal to the Touchard values sum_k S(n,k) lambda^k, Bell numbers at
    lambda = 1."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    family = moments_from_cumulants(CorrelationFamily.from_function(n_max, lambda s: lam))
    return [family.value(tuple(range(1, n + 1))).real for n in range(1, n_max + 1)]


def _group_locus(symbols) -> tuple[float, float]:
    """(center, width) of a group's time support."""
    centers = []
    widths = []
    for s in symbols:
        if s.phi.family == "gaussian":
            centers.append(s.phi.center)
            widths.append(s.phi.width)
        else:
            centers.append(0.5 * (s.phi.lo + s.phi.hi))
            widths.append(0.5 * (s.phi.hi - s.phi.lo))
    return float(np.mean(centers)), float(max(widths))


def independence_probe(model: SpectralModel, groups, epsilons, min_separation_widths: float = 10.0) -> ConvergenceReport:
    """Finite-epsilon expectation of the product of centered elements, one
    from each group, against the asymptotic value 0.

    Centering subtracts each element's own expectation, so the probe value
    expands over index subsets:
    sum_S (-1)^(n-|S|) prod_{i not in S} m_i * W_eps(S).
    Groups whose time supports are closer than min_separation_widths times
    the mean of their widths get a configuration warning (the decay claim
    needs separated supports).
    """
    groups = [list(g) for g in groups]
    if len(groups) < 2:
        raise ValueError("independence_probe needs at least two groups")
    symbols = [s for g in groups for s in g]
    n = len(symbols)

    warnings: list[str] = []
    loci = [_group_locus(g) for g in groups]
    for (i, (ci, wi)), (j, (cj, wj)) in itertools.combinations(enumerate(loci), 2):
        need = min_separation_widths * 0.5 * (wi + wj)
        if abs(ci - cj) < need:
            warnings.append(f"groups {i} and {j} separated by {abs(ci - cj):.3g} < {need:.3g}")

    rows = []
    for eps in epsilons:
        singles = [correlation_smeared(model, [s], eps) for s in symbols]
        total = 0j
        for size in range(0, n + 1):
            for subset in itertools.combinations(range(1, n + 1), size):
                outside = 1.0 + 0j
                for i in range(1, n + 1):
                    if i not in subset:
                        outside *= singles[i - 1]
                w = correlation_smeared(model, [symbols[i - 1] for i in subset], eps) if subset else 1.0
                total += (-1.0) ** (n - size) * outside * w
        rows.append(SweepRow(epsilon=float(eps), value=complex(total), limit=0j, warnings=tuple(warnings)))
    meta = {
        "n": n,
        "groups": [len(g) for g in groups],
        "epsilons": [float(e) for e in epsilons],
    }
    return ConvergenceReport(kind="independence", rows=tuple(rows), metadata=meta)

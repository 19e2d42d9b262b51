"""Moment / cumulant structure of the limiting number statistics.

The truncation identity over set partitions with increasing blocks is the
same transform that connects classical moments and cumulants, so one core
implementation, partitions._first_block_transform, serves both names for
every family of subset values; no set partition is ever listed.  The
Poisson family realizes the flagship example: a hard shell of radius
sqrt(lambda) at unit density, smeared with the unit-mass box of width
2 pi, has every cumulant equal to lambda, hence Touchard-polynomial moments
and Bell-number moments at lambda = 1.  With one cumulant value the
identity depends only on block sizes, so poisson_moments runs it on
moment orders instead of subsets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .finite_eps import _PairingFactors, _check_smeared_order
from .partitions import _check_arity, _first_block_transform, _subsets
from .report import ConvergenceReport, SweepRow
from .spectral import (
    EnergyGrid,
    ShellKernel,
    SpectralModel,
    TWO_PI,
    limit_truncated_coefficient,
    make_model,
    radial_to_shell,
    rank_one_kernel,
)
from .symbols import FrequencyIndex, TestFunction, product_integral


class GridAlignmentError(ValueError):
    """A model parameter must sit on the bin lattice and does not."""


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


def truncated_from_full(family: CorrelationFamily) -> CorrelationFamily:
    """Truncated correlations; the inverse, as accurate as cumulants_from_moments."""
    return CorrelationFamily(family.arity, _first_block_transform(family.arity, family.values, inverse=True))


def full_from_truncated(family: CorrelationFamily) -> CorrelationFamily:
    return CorrelationFamily(family.arity, _first_block_transform(family.arity, family.values, inverse=False))


def cumulants_from_moments(family: CorrelationFamily) -> CorrelationFamily:
    """Joint cumulants of the family; by the truncation identity these are
    exactly the truncated correlations.  Unflagged accuracy loss: the inverse
    cancels moments up to ~touchard(n, lambda), so on the Touchard family at
    arity 12 it misses lambda by 1.9e-8 relative at lambda = 1.1, 8.5e-7 at 3.7.
    """
    return CorrelationFamily(family.arity, _first_block_transform(family.arity, family.values, inverse=True))


def moments_from_cumulants(family: CorrelationFamily) -> CorrelationFamily:
    return CorrelationFamily(family.arity, _first_block_transform(family.arity, family.values, inverse=False))


def limit_cumulant(model: SpectralModel, kernel: ShellKernel, omega: FrequencyIndex, phi: TestFunction, order: int) -> complex:
    """Limiting cumulant of one smeared oscillating symbol at the given order:
    the limiting truncated correlation of the symbol repeated order times,

    kappa_l = (2 pi)^(l-1) [integral phi^l] C(K, ..., K; omega, ..., omega),

    with C the chain coefficient of limit_truncated_coefficient.  Its gate
    passes only at omega = 0, where C = sum_a delta_e n(E_a) K(E_a, E_a)^l;
    otherwise the cumulant is exactly 0.
    """
    if order < 1:
        raise ValueError("cumulant order must be >= 1")
    chain = limit_truncated_coefficient(model, [kernel] * order, [omega] * order).value
    return complex(TWO_PI ** (order - 1) * product_integral([phi] * order) * chain)


def reference_box(height: float = 1.0 / TWO_PI, width: float = TWO_PI) -> TestFunction:
    """Unit-mass box on [0, width): the smearing used by the Poisson family."""
    return TestFunction.indicator(0.0, width, height)


def poisson_model(lam: float, grid: EnergyGrid) -> SpectralModel:
    """Unit density with the hard-shell amplitude chi_[0, lambda) from the
    radial profile (2 pi r)^(-1/2) chi(r <= sqrt(lambda)) on E = r^2 shells.

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

    return make_model(grid, np.ones(grid.bins), {"shell": radial_to_shell(grid, radial)})


def poisson_cumulants(lam: float, l_max: int, grid: EnergyGrid, omega_index: int = 0) -> list[complex]:
    """kappa_1 .. kappa_{l_max} of the hard-shell element; all equal lambda
    at zero frequency, all exactly zero otherwise."""
    model = poisson_model(lam, grid)
    kernel = rank_one_kernel(model, "shell", "shell")
    phi = reference_box()
    omega = FrequencyIndex(int(omega_index))
    return [limit_cumulant(model, kernel, omega, phi, l) for l in range(1, l_max + 1)]


def poisson_moments(lam: float, n_max: int) -> list[float]:
    """m_1 .. m_{n_max} of a Poisson(lambda) variable from its cumulants,
    all equal to lambda.  With one cumulant value the first-block identity
    depends only on the size j of the block left after the first:

        m_n = lambda * sum_{j<n} C(n-1, j) m_j,  m_0 = 1,

    n (n + 1) / 2 terms in all.  The values are the Touchard polynomials
    sum_k S(n,k) lambda^k, Bell numbers at lambda = 1.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _check_arity(n_max)  # the same range as the transform it stands in for
    m = [1.0]
    for n in range(1, n_max + 1):
        m.append(lam * sum(math.comb(n - 1, j) * m[j] for j in range(n)))
    return m[1:]


def _group_locus(symbols) -> tuple[float, float]:
    """(center, width) of a group's time support."""
    centers = [s.phi.time_center() for s in symbols]
    widths = [s.phi.width if s.phi.family == "gaussian" else 0.5 * (s.phi.hi - s.phi.lo) for s in symbols]
    return float(np.mean(centers)), float(max(widths))


def independence_probe(model: SpectralModel, groups, epsilons, min_separation_widths: float = 10.0) -> ConvergenceReport:
    """Finite-epsilon expectation of the product of the centered group
    elements, each group's product minus its own expectation, against the
    asymptotic value 0.

    Centering expands the probe over the subsets G of the g groups:
    sum_G (-1)^(g-|G|) prod_{h not in G} W_eps(h) * W_eps(union of G), with
    every W_eps from one set of pairing factors per epsilon.  With singleton
    groups this is the expansion over index subsets.  Groups whose
    time supports are closer than min_separation_widths times the mean of
    their widths get a warning (the decay claim needs separated supports),
    followed by the epsilon's grid warnings (width and Nyquist rules).
    """
    groups = [list(g) for g in groups]
    if len(groups) < 2:
        raise ValueError("independence_probe needs at least two groups")
    symbols = tuple(s for g in groups for s in g)
    n = len(symbols)
    _check_smeared_order(n)

    warnings: list[str] = []
    loci = [_group_locus(g) for g in groups]
    for (i, (ci, wi)), (j, (cj, wj)) in itertools.combinations(enumerate(loci), 2):
        need = min_separation_widths * 0.5 * (wi + wj)
        if abs(ci - cj) < need:
            warnings.append(f"groups {i} and {j} separated by {abs(ci - cj):.3g} < {need:.3g}")

    # each group's 1-based slots; a union of groups in group order is increasing
    index = iter(range(1, n + 1))
    slots = [tuple(itertools.islice(index, len(g))) for g in groups]
    n_groups = len(groups)
    rows = []
    for eps in epsilons:
        factors = _PairingFactors(model, symbols, float(eps))
        full = factors.full_family()
        total = 0j
        for size in range(0, n_groups + 1):
            for chosen in itertools.combinations(range(n_groups), size):
                outside = math.prod((full[slots[h]] for h in range(n_groups) if h not in chosen), start=1.0 + 0j)
                union = tuple(i for h in chosen for i in slots[h])
                total += (-1.0) ** (n_groups - size) * outside * (full[union] if chosen else 1.0)
        rows.append(SweepRow(epsilon=float(eps), value=complex(total), limit=0j, warnings=tuple(warnings) + factors.warnings))
    meta = {
        "n": n,
        "groups": [len(g) for g in groups],
        "epsilons": [float(e) for e in epsilons],
    }
    return ConvergenceReport(kind="independence", rows=tuple(rows), metadata=meta)

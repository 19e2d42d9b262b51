"""Finite-epsilon correlation functions by quasi-free pairing sums.

A product of n oscillating number operators in the quasi-free gauge-invariant
state expands over all n! pairing diagrams; each diagram contributes a
product of two-point factors, one per creator/annihilator pair.  Smearing
each time against a test function turns every oscillatory time integral into
one closed-form Fourier factor, so a diagram's value is an n-dimensional bin
lattice sum

    eps^(k-n) * sum_{E_1..E_n} delta_e^n  prod_l kern_l(E_l)
               * prod_m ft_m((E_m - E_{sigma^-1(m)} - omega_m)/eps)

with kern a density factor n(E) for creator-first pairs and a commutator
factor (1 + eps n(E)) otherwise.  The kernel and Fourier factors both
factorize over the cycles of sigma, so the lattice sum is evaluated exactly
as a product of traces of M x M matrix chains, one chain per cycle; a
brute-force nested sum would cost M^n.  Reducible diagrams therefore equal
the product of their irreducible components by construction, and the tests
pin the contraction against an independent nested-sum oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np
from scipy.integrate import quad

from .partitions import PairDiagram, classify, enumerate_pair_diagrams
from .report import ConvergenceReport, SweepRow
from .spectral import DensityProfile, EnergyGrid, ShellAmplitude, SpectralModel, limit_truncated_smeared
from .symbols import GAUSSIAN, INDICATOR, TestFunction

DENSITY = "density"
COMMUTATOR = "commutator"

MAX_FIXED_TIME_N = 5
MAX_SMEARED_N = 4
COARSE_BIN_LIMIT = 64  # n = 4 lattice guard
RESOLUTION_BINS = 8.0  # bins required across a Fourier factor's width eps/sigma


def two_point(model: SpectralModel, f: str, g: str, kind: str, tau: float, epsilon: float) -> complex:
    """One pair factor at time offset tau (already divided by epsilon).

    density:    <g, n_hat S_tau f>          = sum n conj(v_g) v_f e^{i tau E} delta_e
    commutator: <g, (1 + eps n_hat) S_tau f>
    """
    e = model.grid.centers
    w = np.conj(model.amplitude(g)) * model.amplitude(f) * np.exp(1j * tau * e)
    if kind == DENSITY:
        w = w * model.density.values
    elif kind == COMMUTATOR:
        w = w * (1.0 + epsilon * model.density.values)
    else:
        raise ValueError(f"unknown two-point kind {kind!r}")
    return complex(np.sum(w) * model.grid.delta_e)


def correlation_fixed_times(model: SpectralModel, symbols, times, epsilon: float) -> complex:
    """Full correlation at fixed times: the oscillating prefactor times the
    pairing sum over all diagrams.  Sharp-time values are the raw object the
    smeared sums integrate; they oscillate on scale eps and do not converge
    pointwise.
    """
    symbols = list(symbols)
    n = len(symbols)
    if not 1 <= n <= MAX_FIXED_TIME_N:
        raise ValueError(f"correlation_fixed_times supports 1 <= n <= {MAX_FIXED_TIME_N}")
    if len(times) != n:
        raise ValueError("times length must match symbols")
    grid = model.grid
    omegas = [s.omega.omega(grid) for s in symbols]
    phase = np.exp(-1j * sum(w * t for w, t in zip(omegas, times)) / epsilon)

    # factor[(l, j)] for creator slot l paired with annihilator slot j
    factor: dict[tuple[int, int], complex] = {}
    for l in range(1, n + 1):
        for j in range(1, n + 1):
            tau = (times[l - 1] - times[j - 1]) / epsilon
            if l <= j:
                factor[(l, j)] = epsilon * two_point(model, symbols[l - 1].f, symbols[j - 1].g, DENSITY, tau, epsilon)
            else:
                factor[(l, j)] = two_point(model, symbols[l - 1].f, symbols[j - 1].g, COMMUTATOR, tau, epsilon)

    total = 0j
    for diagram in enumerate_pair_diagrams(n):
        term = 1.0 + 0j
        for l in range(1, n + 1):
            term *= factor[(l, diagram.image(l))]
        total += term
    return complex(phase * epsilon ** (-n) * total)


@dataclass(frozen=True, eq=False)
class PairingTerm:
    """Evaluated smeared contribution of one diagram."""

    diagram: PairDiagram
    epsilon: float
    value: complex
    k: int
    pair_kinds: tuple[str, ...]
    warnings: tuple[str, ...]


def resolution_warnings(model: SpectralModel, symbols, epsilon: float) -> tuple[str, ...]:
    """Grid-resolution rule: each Fourier factor has width eps/sigma_t in
    energy and must be sampled by >= RESOLUTION_BINS bins."""
    sigma = max(s.phi.time_scale() for s in symbols)
    bound = epsilon / (RESOLUTION_BINS * sigma)
    de = model.grid.delta_e
    if de > bound:
        return (
            f"grid resolution: delta_e={de:.6g} exceeds eps/({RESOLUTION_BINS:g}*sigma_t)={bound:.6g} at eps={epsilon:g}",
        )
    return ()


def _coarsen_model(model: SpectralModel, max_bins: int) -> tuple[SpectralModel, str]:
    grid = model.grid
    factor = ceil(grid.bins / max_bins)
    new_bins = grid.bins // factor
    used = new_bins * factor
    # block means land exactly on the coarse bin centers for smooth profiles
    density = model.density.values[:used].reshape(new_bins, factor).mean(axis=1)
    vectors = {
        name: ShellAmplitude(name, amp.values[:used].reshape(new_bins, factor).mean(axis=1))
        for name, amp in model.vectors.items()
    }
    new_grid = EnergyGrid(e_min=grid.e_min, e_max=grid.e_min + used * grid.delta_e, bins=new_bins)
    coarse = SpectralModel(grid=new_grid, density=DensityProfile(density), vectors=vectors)
    note = f"bins reduced {grid.bins} -> {new_bins} (factor {factor}) for the n=4 lattice sum"
    return coarse, note


def pairing_term_smeared(model: SpectralModel, symbols, diagram: PairDiagram, epsilon: float) -> PairingTerm:
    """Smeared value of one pairing diagram, evaluated cycle by cycle."""
    symbols = list(symbols)
    n = len(symbols)
    if not 1 <= n <= MAX_SMEARED_N:
        raise ValueError(f"pairing_term_smeared supports 1 <= n <= {MAX_SMEARED_N}")
    if diagram.n != n:
        raise ValueError("diagram size does not match symbols")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    warnings = list(resolution_warnings(model, symbols, epsilon))
    if n == 4 and model.grid.bins > COARSE_BIN_LIMIT:
        model, note = _coarsen_model(model, COARSE_BIN_LIMIT)
        warnings.append(note)

    grid = model.grid
    e = grid.centers
    diff = e[None, :] - e[:, None]  # diff[a, b] = E_b - E_a
    omegas = [s.omega.omega(grid) for s in symbols]

    kinds = tuple(DENSITY if l <= diagram.image(l) else COMMUTATOR for l in range(1, n + 1))

    def kern(l: int) -> np.ndarray:
        j = diagram.image(l)
        base = np.conj(model.amplitude(symbols[j - 1].g)) * model.amplitude(symbols[l - 1].f)
        if kinds[l - 1] == DENSITY:
            return base * model.density.values
        return base * (1.0 + epsilon * model.density.values)

    value = complex(epsilon ** (diagram.k - n))
    for cycle in diagram.cycles():
        r = len(cycle)
        if r == 1:
            l = cycle[0]
            ft = symbols[l - 1].phi.fourier(-omegas[l - 1] / epsilon)
            value *= grid.delta_e * np.sum(kern(l)) * ft
            continue
        chain = None
        for i in range(r):
            l_here, l_next = cycle[i], cycle[(i + 1) % r]
            ft = symbols[l_next - 1].phi.fourier((diff - omegas[l_next - 1]) / epsilon)
            b = kern(l_here)[:, None] * ft
            chain = b if chain is None else chain @ b
        value *= grid.delta_e**r * np.trace(chain)

    return PairingTerm(
        diagram=diagram,
        epsilon=epsilon,
        value=complex(value),
        k=diagram.k,
        pair_kinds=kinds,
        warnings=tuple(warnings),
    )


def correlation_smeared(model: SpectralModel, symbols, epsilon: float) -> complex:
    """Full smeared correlation: sum over all pairing diagrams."""
    symbols = list(symbols)
    return complex(sum(pairing_term_smeared(model, symbols, d, epsilon).value for d in enumerate_pair_diagrams(len(symbols))))


def _irreducible_terms(model: SpectralModel, symbols: list, epsilon: float):
    """Pairing terms of the irreducible (single-cycle) diagrams, the only
    ones that contribute to the truncated correlation."""
    for d in enumerate_pair_diagrams(len(symbols)):
        if classify(d).irreducible:
            yield pairing_term_smeared(model, symbols, d, epsilon)


def truncated_smeared(model: SpectralModel, symbols, epsilon: float) -> complex:
    """Truncated smeared correlation: the sum of the irreducible
    (single-cycle) diagrams only.  It equals the defining recursion
    W^T(S) = W(S) - sum over partitions of S into >= 2 increasing blocks of
    the product of W^T(block), i.e. truncated_from_full applied to the
    correlation_smeared family; the tests cross the two."""
    symbols = list(symbols)
    return complex(sum(term.value for term in _irreducible_terms(model, symbols, epsilon)))


def convergence_sweep(model: SpectralModel, symbols, epsilons) -> ConvergenceReport:
    """Finite-epsilon truncated values against the limiting value, one row
    per epsilon, with a per-cycle-diagram breakdown."""
    symbols = list(symbols)
    n = len(symbols)
    limit = limit_truncated_smeared(model, symbols)
    rows = []
    for eps in epsilons:
        breakdown: dict[str, complex] = {}
        warnings: tuple[str, ...] = ()
        total = 0j
        for term in _irreducible_terms(model, symbols, eps):
            breakdown[term.diagram.label()] = term.value
            warnings = term.warnings
            total += term.value
        rows.append(SweepRow(epsilon=float(eps), value=complex(total), limit=limit, warnings=warnings, breakdown=breakdown))
    meta = {
        "n": n,
        "bins": model.grid.bins,
        "e_min": model.grid.e_min,
        "e_max": model.grid.e_max,
        "epsilons": [float(e) for e in epsilons],
    }
    return ConvergenceReport(kind="sweep", rows=tuple(rows), metadata=meta)


def _quad_window(f_space: TestFunction, phi_time: TestFunction, epsilon: float) -> tuple[float, float]:
    # phi(eps tau) always bounds the window; a gaussian f tightens it further
    if phi_time.family == INDICATOR:
        window = (phi_time.lo / epsilon, phi_time.hi / epsilon)
    else:
        half = 16.0 * phi_time.width / epsilon
        mid = phi_time.center / epsilon
        window = (mid - half, mid + half)
    if f_space.family == GAUSSIAN:
        cap = 16.0 / f_space.width
        window = (max(window[0], -cap), min(window[1], cap))
    return window


def delta_lemma_check(f_space: TestFunction, phi_time: TestFunction, epsilons) -> ConvergenceReport:
    """Numerical check that exp(i t x / eps)/eps acts like 2 pi delta(t) delta(x).

    Pairing the double-oscillating expression with phi(t) f(x) and doing the
    x integral analytically leaves I(eps) = integral dtau phi(eps tau)
    ft_f(tau), which must tend to 2 pi phi(0) f(0).  The remaining 1-D
    integral is done by adaptive quadrature over the analytically supported
    window.
    """
    target = complex(2.0 * np.pi * float(phi_time(0.0)) * float(f_space(0.0)))
    rows = []
    for eps in epsilons:
        lo, hi = _quad_window(f_space, phi_time, eps)
        val, _ = quad(lambda tau: complex(phi_time(eps * tau) * f_space.fourier(tau)), lo, hi, limit=400, complex_func=True)
        rows.append(SweepRow(epsilon=float(eps), value=complex(val), limit=target))
    meta = {"n": 1, "epsilons": [float(e) for e in epsilons]}
    return ConvergenceReport(kind="delta_lemma", rows=tuple(rows), metadata=meta)

"""Time smearing functions and smeared number-operator symbols.

Fourier convention throughout: ft(xi) = integral dt f(t) exp(+i t xi), so the
oscillatory time integrals that appear in pairing sums reduce to evaluating
ft at energy-difference arguments.  Both supported families are closed under
this transform, and products of members of either family integrate in closed
form (erf for gaussian / interval mixtures), so no time quadrature is ever
needed on the pairing path.

Frequencies live on the integer lattice of the energy grid: a FrequencyIndex
s stands for omega = s * delta_e.  This keeps the zero-sum gate of the
limiting formula an exact integer test instead of a float comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erf, exp, pi, sqrt

import numpy as np

GAUSSIAN = "gaussian"
INDICATOR = "indicator"


@dataclass(frozen=True)
class TestFunction:
    """Real time-domain test function, either a gaussian bump or a box.

    gaussian:  amplitude * exp(-(t - center)^2 / (2 width^2))
    indicator: amplitude on [lo, hi), zero elsewhere

    The family is checked once, at construction; every method then reads
    any family other than gaussian as the indicator.
    """

    family: str
    amplitude: float = 1.0
    center: float = 0.0
    width: float = 1.0
    lo: float = 0.0
    hi: float = 0.0

    def __post_init__(self):
        if self.family not in (GAUSSIAN, INDICATOR):
            raise ValueError(f"unknown test-function family {self.family!r}")

    @classmethod
    def gaussian(cls, amplitude: float = 1.0, center: float = 0.0, width: float = 1.0) -> "TestFunction":
        if width <= 0:
            raise ValueError("gaussian width must be positive")
        return cls(GAUSSIAN, amplitude=amplitude, center=center, width=width)

    @classmethod
    def indicator(cls, lo: float, hi: float, height: float = 1.0) -> "TestFunction":
        if hi <= lo:
            raise ValueError("indicator needs hi > lo")
        return cls(INDICATOR, amplitude=height, lo=lo, hi=hi)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == GAUSSIAN:
            return self.amplitude * np.exp(-((t - self.center) ** 2) / (2.0 * self.width**2))
        return self.amplitude * ((t >= self.lo) & (t < self.hi)).astype(float)

    def fourier(self, xi):
        """ft(xi) = integral dt f(t) exp(i t xi), exact for both families."""
        xi = np.asarray(xi, dtype=float)
        if self.family == GAUSSIAN:
            a, c, s = self.amplitude, self.center, self.width
            return a * s * sqrt(2.0 * pi) * np.exp(1j * c * xi - 0.5 * s**2 * xi**2)
        w = self.hi - self.lo
        mid = 0.5 * (self.hi + self.lo)
        # (e^{i hi xi} - e^{i lo xi})/(i xi) written in sinc form, finite at xi = 0
        return self.amplitude * w * np.sinc(w * xi / (2.0 * pi)) * np.exp(1j * mid * xi)

    def time_center(self) -> float:
        """Centre c of the time support; ft carries the phase exp(i c xi)."""
        if self.family == GAUSSIAN:
            return self.center
        return 0.5 * (self.lo + self.hi)

    def time_scale(self) -> float:
        """Width proxy used by the grid-resolution rule: the fourier factor of
        this function is resolved over |xi| ~ 1/time_scale."""
        if self.family == GAUSSIAN:
            return self.width
        return (self.hi - self.lo) / (2.0 * pi)


def product_integral(phis) -> float:
    """integral dt phi_1(t) ... phi_n(t), in closed form.

    Gaussian factors combine into a single quadratic exponent; indicator
    factors intersect to one interval; the mixed case is an erf difference.
    """
    phis = list(phis)
    if not phis:
        raise ValueError("product_integral needs at least one factor")
    gaussians = [p for p in phis if p.family == GAUSSIAN]
    boxes = [p for p in phis if p.family == INDICATOR]

    coeff = 1.0
    for p in phis:
        coeff *= p.amplitude
    if coeff == 0.0:
        return 0.0

    lo = max((p.lo for p in boxes), default=-np.inf)
    hi = min((p.hi for p in boxes), default=np.inf)
    if hi <= lo:
        return 0.0

    if not gaussians:
        return coeff * (hi - lo)

    # sum_l (t - c_l)^2 / (2 s_l^2) = p (t - c)^2 + r
    weights = [1.0 / (2.0 * p.width**2) for p in gaussians]
    p_tot = sum(weights)
    c = sum(w * q.center for w, q in zip(weights, gaussians)) / p_tot
    r = sum(w * q.center**2 for w, q in zip(weights, gaussians)) - p_tot * c**2
    coeff *= exp(-r)

    if not boxes:
        return coeff * sqrt(pi / p_tot)
    u_hi = erf(sqrt(p_tot) * (hi - c)) if np.isfinite(hi) else 1.0
    u_lo = erf(sqrt(p_tot) * (lo - c)) if np.isfinite(lo) else -1.0
    return coeff * 0.5 * sqrt(pi / p_tot) * (u_hi - u_lo)


@dataclass(frozen=True)
class FrequencyIndex:
    """Oscillation frequency as an integer multiple of the grid spacing."""

    s: int

    def __post_init__(self):
        if not isinstance(self.s, int):
            raise ValueError("frequency index must be an integer bin multiple")

    def omega(self, grid) -> float:
        return self.s * grid.delta_e

    @property
    def is_zero(self) -> bool:
        return self.s == 0


@dataclass(frozen=True)
class NumberSymbol:
    """One smeared, oscillating number operator: rank-one kernel |f><g|,
    frequency index omega, time test function phi."""

    f: str
    g: str
    omega: FrequencyIndex
    phi: TestFunction

    @classmethod
    def make(cls, f: str, g: str, s: int, phi: TestFunction) -> "NumberSymbol":
        return cls(f=f, g=g, omega=FrequencyIndex(int(s)), phi=phi)

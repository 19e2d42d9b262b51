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
factorize over the cycles of sigma, so the lattice sum is a product of one
trace per cycle, trace(D_1 T_1 ... D_r T_r) with diagonal kernels D_i and
Fourier factors T_i[a, b] = ft((E_b - E_a - omega)/eps); a brute-force
nested sum would cost M^n.  On the uniform grid T_i depends only on the lag
b - a, so each target slot needs one lag vector of 2M - 1 Fourier points,
and the M x M factors are zero-copy Toeplitz views of it.

Each lag vector is cut to its support: the smallest lag range whose
dropped head and tail each hold at most BAND_CUT/2 = 2^-61 of sum |t|.  For
Gaussian phi that is about 9 eps/(sigma delta_e) lags either side of
omega/delta_e, a band of fixed width on a grid resolved at eps; the sinc of
an indicator phi decays like 1/xi and keeps every lag.

The banded route indexes each path state by its start row a and its offset
o = a_i - a_1 from it.  With o_1 = o_{r+1} = 0,

    value = delta_e^r sum_a sum_{o_2..o_r} prod_i kern_i(a + o_i) t_i(o_{i+1} - o_i),

t_i the cut lag vector of link i's target.  It runs over blocks of start
rows [r0, r1).  After each link but the closing one the offsets lie in a
window: the supports summed so far, clipped to what the later links can
carry back to 0 and to [1 - r1, M - r0), the offsets that put a + o on the
grid for some row of the block.  The clip drops only entries that the next
kernel multiplies by 0, and takes a window over a full support from 2M - 1
offsets to M + r1 - r0 - 1; a block is _BLOCK rows, a quarter of that in a
cycle with a support wider than the grid, where the clip binds.  A window
that runs empty makes the block's cut value exactly 0.  The state after the
first link is x[a, o] = kern_1(a) t_1(o); each middle link multiplies it
elementwise by kern_i(a + o), a zero-copy Hankel view of the zero-padded
kernel, and takes its Toeplitz product with T_i[o, o'] = t_i(o' - o) by FFT
on a circulant embedding (Golub & Van Loan, Matrix Computations, 4.7), on
the smallest 11-smooth length that keeps the outputs on the next window
free of circular wrap; the closing link's Hankel view, a column sum and a
dot with t_r(-o) end the cycle.  A product costs about L log L per row for
an FFT length L of about the two windows' widths added, linear in M at
fixed support width, and 2M + r1 - r0 points for a full support; a 2-cycle
takes none.

The cut moves an r-cycle value by at most
r 2^-60 M delta_e^r prod_i max|kern_i| prod_i sum|t_i|: the same norm bound
the FFT products' own rounding meets with a few 2^-53 log2(L) in place of
r 2^-60 (N. J. Higham, Accuracy and Stability of Numerical Algorithms,
2nd ed., SIAM 2002, ch. 24), so the cut loses no more than the rounding and
needs no diagnostic; the clip drops only exact zeros and leaves the bound
as it is.  The FFTs are numpy's pocketfft; scipy is imported only by the
adaptive quadrature of delta_lemma_check.

The support that makes a Gaussian lag band wide makes its spectrum
narrow, so a cycle of r >= 3 links can also be contracted on Fourier
modes.  Place each cut lag vector in a circulant of length
L = _fft_len(2M - 1), lag d at index d mod L.  Every circulant is diagonal
in the Fourier basis, with eigenvalues c_j = fft of that placed vector, and
every zero-padded diagonal kernel turns there into the circulant of
K_i = fft(kern_i, L), so the cycle value is exactly

    (delta_e/L)^r trace(B_1 ... B_r),
    B_i[mu, nu] = K_i((nu - mu) mod L) c_{l_{i+1}}(nu),

with mu over the modes of l_i and nu over those of l_{i+1}.  Each slot keeps
the modes with |c_j| > MODE_CUT sum|t_cut| = 2^-52 sum|t_cut|; for Gaussian
phi that is about 2 * 9.1 sigma delta_e L/(2 pi eps) modes, narrow exactly
where the lag band is wide.  Dropping the modes below the cut moves a
circulant product x C by at most 2^-52 sum|t_cut| ||x||_2 in 2-norm, while
the same product by FFT already carries a normwise rounding error of a few
2^-53 log2(L) max|c_j| ||x||_2 <= 2^-53 log2(L) sum|t_cut| ||x||_2
(Higham, ch. 24): the dropped modes sit at the FFT's own rounding level,
which the banded route's products already carry, so the mode cut needs no
diagnostic either.  The mode chain costs r - 2 dense products of mode-set
sized matrices.

Each r >= 3 cycle compares the FFT work of its banded plan, rows times
sum L_i log2 L_i, with _MODE_COST times the multiply-adds of the mode chain,
and takes the cheaper route: on a resolved grid the coarse eps rows, whose
bands are widest and spectra narrowest, go to the mode route and the fine
ones to the banded route.  A sinc keeps every lag and every mode, so a
cycle with indicator phi on every slot takes the banded route.

Every smeared sum takes one path.  Lag vectors, their supports, kernel
vectors and resolution warnings are built once per (model, symbols, eps),
and a slot subset reads them under its own slot numbers.  The truncated
value of a slot set is the sum of its single-cycle diagrams; a diagram is
the product of its cycles, so the first-block transform of the truncated
values of all subsets gives the full ones.  The tests pin the contraction
against an independent nested-sum oracle and the dense matrix chain, and
the full value against the sum over all n! diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, pi

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .partitions import PairDiagram, _first_block_transform, _subsets, enumerate_pair_diagrams, irreducible_diagrams
from .report import ConvergenceReport, SweepRow
from .spectral import SpectralModel, limit_truncated_smeared
from .symbols import GAUSSIAN, INDICATOR, TestFunction

DENSITY = "density"
COMMUTATOR = "commutator"

MAX_FIXED_TIME_N = 5
MAX_SMEARED_N = 4
RESOLUTION_BINS = 8.0  # bins required across a Fourier factor's width eps/sigma
NYQUIST_MARGIN = pi / 2  # largest phase turn delta_e*|c|/eps of a Fourier factor per bin
BAND_CUT = 2.0**-60  # lag mass a lag vector's support may drop, as a share of sum |t|
# start rows per banded block, a quarter of it where a support is wider
# than the grid (see _offset_windows)
_BLOCK = 128
MODE_CUT = 2.0**-52  # spectrum modulus, as a share of sum |t|, a kept mode of a cut lag vector exceeds
# weight of one multiply-add of the mode chain against one unit of the
# banded route's FFT work (a row times L log2 L per FFT product).  Measured
# per cycle on a 2-core x86 box (numpy 2.4 with pocketfft and OpenBLAS
# 0.3.31 at one thread, best of 3; the default model repeated to n = 3 and 4
# at M = 400-3200, eps = 0.01-0.32), a mode multiply-add cost 0.044-0.125
# units for 270 modes or more and 0.065-0.3 below, where gathering the links
# costs more than the products but the mode route wins 4 to 3000 times
# over.  At 0.06 all 48 of those cycles took their faster route, and so
# did the 72 3-cycles of 12 sweep-fine benchmark inputs at M = 640 (mode at
# eps = 0.2 and 0.1, banded at 0.05) at one and at two threads
_MODE_COST = 0.06


def _fft_len(target: int) -> int:
    """Smallest 11-smooth length >= target, the lengths pocketfft factors
    fastest; equal to scipy.fft.next_fast_len(target) for complex input."""
    n = max(target, 1)
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _support(t: np.ndarray) -> tuple[int, int]:
    """Lag range [lo, hi] of the smallest run of the lag vector t whose
    dropped head and tail each hold at most BAND_CUT/2 of sum |t|; lo > hi
    when t is identically zero."""
    mag = np.abs(t)
    cut = 0.5 * BAND_CUT * np.sum(mag)
    head = int(np.searchsorted(np.cumsum(mag), cut, side="right"))
    tail = int(np.searchsorted(np.cumsum(mag[::-1]), cut, side="right"))
    centre = (len(t) - 1) // 2  # index of lag 0
    return head - centre, centre - tail


def two_point(model: SpectralModel, f: str, g: str, kind: str, tau: float, epsilon: float) -> complex:
    """One pair factor at time offset tau (already divided by epsilon).

    density:    <g, n_hat S_tau f>          = sum n conj(v_g) v_f e^{i tau E} delta_e
    commutator: <g, (1 + eps n_hat) S_tau f>
    """
    e = model.grid.centers
    w = np.conj(model.amplitude(g)) * model.amplitude(f) * np.exp(1j * tau * e)
    if kind == DENSITY:
        w = w * model.density
    elif kind == COMMUTATOR:
        w = w * (1.0 + epsilon * model.density)
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
    """Grid rules for the Fourier factors, one warning per broken rule.

    Width: each factor has width eps/sigma_t in energy and must be sampled
    by >= RESOLUTION_BINS bins.  Nyquist: a test function centred at time c
    turns a factor's phase by delta_e*|c|/eps per bin, which must stay
    <= NYQUIST_MARGIN, or the lattice sum aliases.
    """
    warnings = []
    de = model.grid.delta_e
    sigma = max(s.phi.time_scale() for s in symbols)
    bound = epsilon / (RESOLUTION_BINS * sigma)
    if de > bound:
        warnings.append(f"grid resolution: delta_e={de:.6g} exceeds eps/({RESOLUTION_BINS:g}*sigma_t)={bound:.6g} at eps={epsilon:g}")
    phase = de * max(abs(s.phi.time_center()) for s in symbols) / epsilon
    if phase > NYQUIST_MARGIN:
        warnings.append(f"Nyquist: delta_e*|c|/eps={phase:.6g} exceeds pi/2 at eps={epsilon:g}")
    return tuple(warnings)


def _check_smeared_order(n: int) -> None:
    if not 1 <= n <= MAX_SMEARED_N:
        raise ValueError(f"smeared pairing sums support 1 <= n <= {MAX_SMEARED_N} symbols, got n={n}")


class _PairingFactors:
    """The diagram-independent part of every pairing diagram of one
    (model, symbols, epsilon): the resolution warnings, one lag vector per
    target slot m,

        t_m[d] = ft_m((d delta_e - omega_m)/eps),   d = -(M-1) .. M-1,

    stored at index d + M - 1, its support (see _support), and the kernel
    vectors kern(l, j) of every slot pair; the mode route's kept modes per
    slot and kernel spectra per pair are built on first use.  An increasing
    slot subset reads the same vectors as if built from its own symbols.
    """

    def __init__(self, model: SpectralModel, symbols: tuple, epsilon: float):
        _check_smeared_order(len(symbols))
        if not (isfinite(epsilon) and epsilon > 0):
            raise ValueError("epsilon must be a finite positive number")
        grid = model.grid
        self.epsilon = epsilon
        m = grid.bins
        self.m = m
        self.delta_e = grid.delta_e
        self.warnings = resolution_warnings(model, symbols, epsilon)
        lags = np.arange(1 - m, m) * grid.delta_e  # E_b - E_a at lag b - a
        self.lag = [s.phi.fourier((lags - s.omega.omega(grid)) / epsilon) for s in symbols]
        self.support = [_support(t) for t in self.lag]
        occupation = {DENSITY: model.density, COMMUTATOR: 1.0 + epsilon * model.density}
        self.kern = {
            (l, j): np.conj(model.amplitude(sj.g)) * model.amplitude(sl.f) * occupation[DENSITY if l <= j else COMMUTATOR]
            for l, sl in enumerate(symbols, start=1)
            for j, sj in enumerate(symbols, start=1)
        }
        self._modes = None  # see _mode_sets
        self._kern_hat: dict[tuple[int, int], np.ndarray] = {}  # fft(kern(l, j), L), per pair on first use

    def cycle_value(self, cycle: tuple[int, ...]) -> complex:
        """delta_e^r trace(D_1 T_1 ... D_r T_r) for the cycle l_1 -> .. -> l_r,
        with D_i = diag(kern(l_i, l_{i+1})) and T_i[a, b] = t_{l_{i+1}}[b - a],
        each T_i cut to the lags of its support, by the banded route or, for
        an r >= 3 cycle it makes cheaper, the mode route (module docstring)."""
        if len(cycle) == 1:
            kern = self.kern[(cycle[0], cycle[0])]
            return self.delta_e * np.sum(kern) * self.lag[cycle[0] - 1][self.m - 1]
        plan = self._offset_windows(cycle)
        if not plan[0]:
            return 0j
        if self._route(cycle, plan) == "mode":
            return self._mode_cycle(cycle)
        return self._offset_cycle(cycle, plan)

    def _offset_windows(self, cycle: tuple[int, ...]):
        """The banded route's plan of an r >= 2 cycle: per block of start
        rows [r0, r1), (r0, r1, windows) with the half-open window of
        o = a_i - a_1 after each link but the closing one, and the FFT length
        of each middle link, the largest any block needs.  A window is the
        supports summed so far, clipped to what the later links carry back
        to 0 and to the offsets that put a + o on the grid for some row of
        the block; a block whose windows run empty is left out."""
        m = self.m
        band = [self.support[j - 1] for j in cycle[1:] + cycle[:1]]  # an empty one empties every window
        back = [(-band[-1][1], -band[-1][0])]  # back[i]: offsets the links after i carry back to 0
        for lo, hi in band[-2:0:-1]:
            back.insert(0, (back[0][0] - hi, back[0][1] - lo))
        # a support wider than the grid makes windows that only the grid
        # clip bounds, M + rows - 1 wide, so such a cycle takes short blocks
        height = _BLOCK // 4 if any(hi - lo >= m for lo, hi in band) else _BLOCK
        blocks = []
        for r0 in range(0, m, height):
            r1 = min(r0 + height, m)
            o0, o1, windows = 0, 1, []
            for (lo, hi), (b_lo, b_hi) in zip(band, back):
                o0, o1 = max(o0 + lo, b_lo, 1 - r1), min(o1 + hi, b_hi + 1, m - r0)
                if o0 >= o1:
                    break
                windows.append((o0, o1))
            else:
                blocks.append((r0, r1, windows))
        # middle link i maps window p to window q by a linear convolution with
        # the cut lag vector, output k at offset p0 + lo_i + k; a circulant
        # keeps the outputs on q unwrapped when it reaches past offset q1 - 1
        # and spans from offset q0 to the last output, p1 - 1 + hi_i
        sizes = []
        for i in range(1, len(cycle) - 1):
            lo, hi = band[i]
            need = 0
            for _, _, w in blocks:
                (p0, p1), (q0, q1) = w[i - 1], w[i]
                need = max(need, q1 - p0 - lo, p1 + hi - q0)
            sizes.append(_fft_len(need))
        return blocks, sizes

    def _mode_sets(self):
        """The circulant length L and, per target slot, the kept modes of
        its cut lag vector's circulant spectrum with their values, built on
        first use."""
        if self._modes is None:
            m = self.m
            size = _fft_len(2 * m - 1)
            sets = []
            for t, (lo, hi) in zip(self.lag, self.support):
                cut = np.zeros(size, dtype=complex)
                cut[np.arange(lo, hi + 1) % size] = t[lo + m - 1 : hi + m]  # lag d at index d mod L
                spectrum = np.fft.fft(cut)
                keep = np.flatnonzero(np.abs(spectrum) > MODE_CUT * np.sum(np.abs(cut)))
                sets.append((keep, spectrum[keep]))
            self._modes = (size, sets)
        return self._modes

    def _route(self, cycle: tuple[int, ...], plan) -> str:
        """The route of least predicted work, "offset" (the banded route)
        or "mode", ties to the first: the plan's FFT work, its rows times
        sum L_i log2 L_i, against _MODE_COST times the mode chain's
        multiply-adds.  A 2-cycle takes no product and stays banded."""
        if len(cycle) < 3:
            return "offset"
        blocks, sizes = plan
        _, sets = self._mode_sets()
        s = [len(sets[j - 1][0]) for j in cycle[1:] + cycle[:1]]
        work = {
            "offset": sum(r1 - r0 for r0, r1, _ in blocks) * sum(size * np.log2(size) for size in sizes),
            "mode": _MODE_COST * s[-1] * sum(s[i - 1] * s[i] for i in range(1, len(s) - 1)),
        }
        return min(work, key=work.get)

    def _mode_cycle(self, cycle: tuple[int, ...]) -> complex:
        """The mode route: (delta_e/L)^r trace(B_1 ... B_r) with
        B_i[mu, nu] = K_i((nu - mu) mod L) c_{l_{i+1}}(nu), mu over the kept
        modes of l_i and nu over those of l_{i+1}."""
        size, sets = self._mode_sets()

        def link(l, j):
            if (l, j) not in self._kern_hat:
                self._kern_hat[(l, j)] = np.fft.fft(self.kern[(l, j)], size)
            rows, (cols, spectrum) = sets[l - 1][0], sets[j - 1]
            return np.take(self._kern_hat[(l, j)], cols[None, :] - rows[:, None], mode="wrap") * spectrum

        pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
        x = link(*pairs[0])
        for pair in pairs[1:-1]:
            x = x @ link(*pair)
        # trace(x B) without the off-diagonal of the product
        return (self.delta_e / size) ** len(cycle) * complex(np.sum(x * link(*pairs[-1]).T))

    def _offset_cycle(self, cycle: tuple[int, ...], plan) -> complex:
        """The banded route: per block of the plan, the path product over
        start rows a and offsets o = a_i - a_1, one Hankel-view kernel
        product and one Toeplitz product t(o' - o) by FFT per middle link,
        then the closing link's kernels summed against its lags -o."""
        blocks, sizes = plan
        m, r = self.m, len(cycle)
        targets = cycle[1:] + cycle[:1]
        band = [self.support[j - 1] for j in targets]
        block = max(r1 - r0 for r0, r1, _ in blocks)
        # hankel[i - 1][a + o0 + m - 1, o - o0] = kern_i(a + o), zero off the
        # grid, for any block's window [o0, o1) that link i >= 2 reads; the
        # view is as wide as the widest one, and the padding keeps every
        # block's rows inside it
        hankel = []
        for i, pair in enumerate(zip(cycle[1:], targets[1:])):
            width = max(w[i][1] - w[i][0] for _, _, w in blocks)
            padded = np.zeros(2 * m + block + width, dtype=complex)
            padded[m - 1 : 2 * m - 1] = self.kern[pair]
            hankel.append(sliding_window_view(padded, width))
        ffts = [
            np.fft.fft(self.lag[j - 1][lo + m - 1 : hi + m], size)  # the cut lag vector, lag lo at index 0
            for j, (lo, hi), size in zip(targets[1:-1], band[1:-1], sizes)
        ]
        first, kern = self.lag[targets[0] - 1], self.kern[(cycle[0], targets[0])]
        close = self.lag[targets[-1] - 1][::-1]  # close[o + m - 1] = t(-o)
        # work arrays made once per cycle and written in place: fresh
        # megabyte-sized temporaries per block would each be mapped and
        # page-faulted anew by the allocator
        work = np.empty(block * max(w[0][1] - w[0][0] for _, _, w in blocks), dtype=complex)
        pads = [np.empty(block * max(sizes), dtype=complex) for _ in range(min(r - 2, 2))]
        total = 0j
        for r0, r1, windows in blocks:
            nb = r1 - r0
            p0, p1 = windows[0]
            # every window lies in the supports, so the first and closing
            # links read their lag vectors uncut
            x = np.multiply(kern[r0:r1, None], first[p0 + m - 1 : p1 + m - 1], out=work[: nb * (p1 - p0)].reshape(nb, p1 - p0))
            # the two pads alternate so that x never overlaps the product written
            for i in range(1, r - 1):
                (p0, p1), (q0, q1) = windows[i - 1], windows[i]
                size, lo = sizes[i - 1], band[i][0]
                pad = pads[(i - 1) % 2][: nb * size].reshape(nb, size)
                np.multiply(x, hankel[i - 1][r0 + p0 + m - 1 : r1 + p0 + m - 1, : p1 - p0], out=pad[:, : p1 - p0])
                pad[:, p1 - p0 :] = 0
                np.fft.fft(pad, axis=1, out=pad)
                pad *= ffts[i - 1]
                x = np.fft.ifft(pad, axis=1, out=pad)[:, q0 - p0 - lo : q1 - p0 - lo]
            c0, c1 = windows[-1]
            x *= hankel[-1][r0 + c0 + m - 1 : r1 + c0 + m - 1, : c1 - c0]
            total += x.sum(axis=0) @ close[c0 + m - 1 : c1 + m - 1]
        return self.delta_e**r * total

    def single_cycles(self, subset: tuple[int, ...]):
        """(diagram, eps^(k-r) times its cycle value) for every single-cycle
        diagram on the increasing slot subset, r = len(subset), in
        irreducible_diagrams(r) order; the diagram is numbered 1..r and read
        on the subset's slots."""
        r = len(subset)
        for d in irreducible_diagrams(r):
            cycle = tuple(subset[l - 1] for l in d.cycles()[0])
            yield d, complex(complex(self.epsilon ** (d.k - r)) * self.cycle_value(cycle))

    def truncated(self, subset: tuple[int, ...]) -> complex:
        return complex(sum(value for _, value in self.single_cycles(subset)))

    def full_family(self) -> dict[tuple[int, ...], complex]:
        """Full correlation of every nonempty increasing slot subset."""
        n = len(self.lag)
        return _first_block_transform(n, {s: self.truncated(s) for s in _subsets(n)}, inverse=False)


def pairing_term_smeared(model: SpectralModel, symbols, diagram: PairDiagram, epsilon: float) -> PairingTerm:
    """Smeared value of one pairing diagram, eps^(k-n) times one trace per
    cycle of sigma.

    A 1-cycle is delta_e sum(kern) ft(-omega/eps).  An r-cycle with r >= 2
    is delta_e^r trace(D_1 T_1 ... D_r T_r) over the Toeplitz factors
    T_i[a, b] = ft((E_b - E_a - omega)/eps), zero-copy views of one lag
    vector per target slot cut to its support, contracted by the banded
    route over start rows and the offsets a_i - a_1 its supports reach
    (r - 2 Toeplitz products by FFT, none for a 2-cycle) or, where that
    costs less, by a chain of dense products on the Fourier modes its lag
    vectors keep (module docstring).  Each call builds its own pairing
    factors; the smeared sums below never call it.
    """
    symbols = tuple(symbols)
    n = len(symbols)
    factors = _PairingFactors(model, symbols, float(epsilon))
    if diagram.n != n:
        raise ValueError("diagram size does not match symbols")
    value = complex(epsilon ** (diagram.k - n))
    for cycle in diagram.cycles():
        value *= factors.cycle_value(cycle)

    return PairingTerm(
        diagram=diagram,
        epsilon=epsilon,
        value=complex(value),
        k=diagram.k,
        pair_kinds=tuple(DENSITY if l <= diagram.image(l) else COMMUTATOR for l in range(1, n + 1)),
        warnings=factors.warnings,
    )


def correlation_smeared(model: SpectralModel, symbols, epsilon: float) -> complex:
    """Full smeared correlation, the sum over all n! pairing diagrams: the
    truncated value of every slot subset turned into the full value of the
    whole slot set by the first-block transform."""
    symbols = tuple(symbols)
    return complex(_PairingFactors(model, symbols, float(epsilon)).full_family()[tuple(range(1, len(symbols) + 1))])


def truncated_smeared(model: SpectralModel, symbols, epsilon: float) -> complex:
    """Truncated smeared correlation: the sum of the irreducible
    (single-cycle) diagrams only.  It satisfies the defining recursion
    W^T(S) = W(S) - sum over partitions of S into >= 2 increasing blocks of
    the product of W^T(block), which correlation_smeared runs the other way;
    the tests pin both against the sum over all diagrams."""
    symbols = tuple(symbols)
    return _PairingFactors(model, symbols, float(epsilon)).truncated(tuple(range(1, len(symbols) + 1)))


def convergence_sweep(model: SpectralModel, symbols, epsilons) -> ConvergenceReport:
    """Finite-epsilon truncated values against the limiting value, one row
    per epsilon, with a per-cycle-diagram breakdown."""
    symbols = tuple(symbols)
    n = len(symbols)
    _check_smeared_order(n)  # before the limit is computed
    limit = limit_truncated_smeared(model, symbols)
    rows = []
    for eps in epsilons:
        factors = _PairingFactors(model, symbols, float(eps))
        breakdown: dict[str, complex] = {}
        total = 0j
        for d, value in factors.single_cycles(tuple(range(1, n + 1))):
            breakdown[d.label()] = value
            total += value
        rows.append(SweepRow(epsilon=float(eps), value=complex(total), limit=limit, warnings=factors.warnings, breakdown=breakdown))
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
    from scipy.integrate import quad  # the only scipy use; kept off the import path of every other command

    target = complex(2.0 * np.pi * float(phi_time(0.0)) * float(f_space(0.0)))
    rows = []
    for eps in epsilons:
        lo, hi = _quad_window(f_space, phi_time, eps)
        val, _ = quad(lambda tau: complex(phi_time(eps * tau) * f_space.fourier(tau)), lo, hi, limit=400, complex_func=True)
        rows.append(SweepRow(epsilon=float(eps), value=complex(val), limit=target))
    meta = {"n": 1, "epsilons": [float(e) for e in epsilons]}
    return ConvergenceReport(kind="delta_lemma", rows=tuple(rows), metadata=meta)

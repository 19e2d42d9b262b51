"""Shared model builders and independent oracles.

The oracles here deliberately avoid the library's factored code paths:
partitions come from restricted growth strings, pairing values from a raw
n-fold lattice sum or from dense M x M matrix chains, limit coefficients
from an explicit shifted-diagonal loop, vacuum expectations from full
normal ordering of every expansion branch.  They are slow and only meant for
tiny sizes.  The cross-checks at the end (the closure test for irreducible
diagrams, the commutator of two expressions, anti-normal ordering) exist only
to test the library's own rules against a second route.  Nothing here
repeats the library's banded or mode contraction of a cycle: both routes are
held to pairing_chain_oracle.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from lowdensity import (
    Coefficient,
    EnergyGrid,
    NumberSymbol,
    TestFunction,
    VacuumExpectation,
    VacuumTerm,
    WnExpression,
    WnTerm,
    canonicalize,
    commutator,
    correlation_smeared,
    make_model,
    normal_order,
    number_symbol_expansion,
)
from lowdensity import white_noise

# Known Bell numbers B_0 .. B_12.
BELL_VALUES = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]


def gaussian_shell_model(bins=128, e_max=4.0, density=1.0):
    """Two smooth shell amplitudes on a flat state; the workhorse model."""
    grid = EnergyGrid(e_max=e_max, bins=bins)
    e = grid.centers
    vectors = {
        "a": np.exp(-((e - 1.2) ** 2) / (2 * 0.35**2)),
        "b": 0.8 * np.exp(-((e - 2.1) ** 2) / (2 * 0.5**2)),
    }
    return make_model(grid, np.full(bins, float(density)), vectors)


def random_model(rng, bins=12, e_max=3.0, names=("a", "b")):
    grid = EnergyGrid(e_max=e_max, bins=bins)
    density = rng.uniform(0.1, 1.5, bins)
    vectors = {nm: rng.normal(size=bins) + 1j * rng.normal(size=bins) for nm in names}
    return make_model(grid, density, vectors)


def random_phi(rng):
    if rng.random() < 0.5:
        return TestFunction.gaussian(
            amplitude=float(rng.uniform(0.5, 1.5)),
            center=float(rng.uniform(-0.4, 0.4)),
            width=float(rng.uniform(0.6, 1.4)),
        )
    lo = float(rng.uniform(-1.0, 0.0))
    return TestFunction.indicator(lo, lo + float(rng.uniform(0.8, 2.0)), height=float(rng.uniform(0.5, 1.5)))


def random_symbols(rng, n, names=("a", "b"), s_choices=(0,)):
    return [
        NumberSymbol.make(
            str(names[rng.integers(len(names))]),
            str(names[rng.integers(len(names))]),
            int(rng.choice(s_choices)),
            random_phi(rng),
        )
        for _ in range(n)
    ]


def rgs_partitions(n):
    """All set partitions of {1..n} as tuples of increasing blocks ordered
    by least element, generated from restricted growth strings."""
    out = []

    def grow(prefix, top):
        if len(prefix) == n:
            blocks = {}
            for i, b in enumerate(prefix, start=1):
                blocks.setdefault(b, []).append(i)
            out.append(tuple(tuple(blocks[j]) for j in sorted(blocks)))
            return
        for b in range(top + 2):
            grow(prefix + [b], max(top, b))

    grow([], -1)
    return out


def pairing_oracle(model, symbols, diagram, epsilon):
    """Raw lattice sum for one smeared diagram.

    value = eps^(k-n) delta_e^n sum over bin assignments of
            prod_l kern_l(E_l) prod_m phi_m~((E_m - E_{prev(m)} - w_m)/eps)
    with prev(m) the slot paired onto m and kern_l carrying the density or
    commutator occupation factor.  No cycle factorization anywhere.
    """
    grid = model.grid
    e = grid.centers
    n = len(symbols)
    total = 0j
    for assign in itertools.product(range(grid.bins), repeat=n):
        term = 1.0 + 0j
        for l in range(1, n + 1):
            j = diagram.image(l)
            a = assign[l - 1]
            pair = np.conj(model.amplitude(symbols[j - 1].g)[a]) * model.amplitude(symbols[l - 1].f)[a]
            occ = model.density[a]
            term *= pair * (occ if l <= j else 1.0 + epsilon * occ)
        for m in range(1, n + 1):
            prev = diagram.preimage(m)
            xi = (e[assign[m - 1]] - e[assign[prev - 1]] - symbols[m - 1].omega.omega(grid)) / epsilon
            term *= symbols[m - 1].phi.fourier(xi)
        total += term
    return complex(total * grid.delta_e**n * epsilon ** (diagram.k - n))


def pairing_chain_oracle(model, symbols, diagram, epsilon):
    """Dense cycle contraction for one smeared diagram: every cycle edge
    builds its full M x M kernel-times-Fourier matrix from the energy
    differences E_b - E_a, and each cycle is the trace of their matrix
    product.  Same factorization as the library, none of its Toeplitz, FFT
    or shared-factor machinery; cost M^3 per edge."""
    grid = model.grid
    e = grid.centers
    n = len(symbols)
    diff = e[None, :] - e[:, None]  # diff[a, b] = E_b - E_a
    omegas = [s.omega.omega(grid) for s in symbols]

    def kern(l):
        j = diagram.image(l)
        base = np.conj(model.amplitude(symbols[j - 1].g)) * model.amplitude(symbols[l - 1].f)
        occ = model.density
        return base * (occ if l <= j else 1.0 + epsilon * occ)

    value = complex(epsilon ** (diagram.k - n))
    for cycle in diagram.cycles():
        r = len(cycle)
        if r == 1:
            l = cycle[0]
            value *= grid.delta_e * np.sum(kern(l)) * symbols[l - 1].phi.fourier(-omegas[l - 1] / epsilon)
            continue
        chain = None
        for i in range(r):
            l_here, l_next = cycle[i], cycle[(i + 1) % r]
            b = kern(l_here)[:, None] * symbols[l_next - 1].phi.fourier((diff - omegas[l_next - 1]) / epsilon)
            chain = b if chain is None else chain @ b
        value *= grid.delta_e**r * np.trace(chain)
    return complex(value)


def independence_probe_oracle(model, groups, epsilon):
    """Centered-group probe sum_G (-1)^(g-|G|) prod_{h not in G} W(h) W(union G)
    over the subsets G of the g groups, from one correlation_smeared call per
    group union, each building its pairing factors from that union's own
    symbols."""
    groups = [list(grp) for grp in groups]
    g = len(groups)
    singles = [correlation_smeared(model, grp, epsilon) for grp in groups]
    total = 0j
    for size in range(g + 1):
        for chosen in itertools.combinations(range(g), size):
            outside = 1.0 + 0j
            for h in range(g):
                if h not in chosen:
                    outside *= singles[h]
            union = [s for h in chosen for s in groups[h]]
            w = correlation_smeared(model, union, epsilon) if chosen else 1.0
            total += (-1.0) ** (g - size) * outside * w
    return complex(total)


def symbol_centred_probe(full, n):
    """The probe with every symbol centred on its own,
    sum_S (-1)^(n-|S|) prod_{i not in S} W(i) W(S) over index subsets S, read
    from a full-correlation family; with singleton groups independence_probe
    sums the same terms in the same order."""
    total = 0j
    for size in range(0, n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            outside = math.prod((full[(i,)] for i in range(1, n + 1) if i not in subset), start=1.0 + 0j)
            total += (-1.0) ** (n - size) * outside * (full[subset] if subset else 1.0)
    return total


def coefficient_oracle(model, kernels, s_indices):
    """Shifted-diagonal chain sum with explicit per-bin range checks."""
    grid = model.grid
    n = len(kernels)
    w = [sum(s_indices[l:]) for l in range(n)] + [0]
    if w[0] != 0:
        return 0j
    total = 0j
    for a in range(grid.bins):
        term = complex(model.density[a])
        ok = True
        for l in range(n):
            row, col = a + w[l], a + w[l + 1]
            if not (0 <= row < grid.bins and 0 <= col < grid.bins):
                ok = False
                break
            term *= kernels[l].left[row] * kernels[l].right_conj[col]
        if ok:
            total += term
    return complex(total * grid.delta_e)


def moments_from_cumulants_oracle(subset, kappa):
    """m(S) = sum over partitions of S of prod_B kappa(B), partitions from
    restricted growth strings."""
    subset = tuple(subset)
    total = 0j
    for part in rgs_partitions(len(subset)):
        prod = 1.0 + 0j
        for block in part:
            prod *= kappa[tuple(subset[i - 1] for i in block)]
        total += prod
    return total


def cumulants_from_moments_oracle(subset, m):
    """Moebius inversion on the partition lattice,
    kappa(S) = sum over partitions pi of S of (-1)^(|pi|-1) (|pi|-1)!
    prod_B m(B), partitions from restricted growth strings."""
    subset = tuple(subset)
    total = 0j
    for part in rgs_partitions(len(subset)):
        prod = complex((-1) ** (len(part) - 1) * math.factorial(len(part) - 1))
        for block in part:
            prod *= m[tuple(subset[i - 1] for i in block)]
        total += prod
    return total


def _slot_partition(k, t_deltas):
    rep = white_noise._classes(t_deltas)
    classes = {}
    for slot in range(1, k + 1):
        v = f"t{slot}"
        classes.setdefault(rep.get(v, v), []).append(slot)
    return tuple(sorted((tuple(sorted(c)) for c in classes.values()), key=lambda c: c[0]))


def _vacuum_terms(k, merged):
    """Integrate the energy deltas of merged generator-free terms of a
    k-symbol product into VacuumTerms, sorted by structure.  A VacuumTerm
    carries no numeric factor, so a merged term whose numeric is not 1 is
    an error here."""
    out = []
    for term in merged.terms:
        c = term.coeff
        if c.numeric != 1:
            raise ValueError(f"vacuum term with numeric {c.numeric}, not 1: {term}")
        e_rep = white_noise._classes(c.e_deltas)
        groups = {}
        for a, b, e in c.ips:
            groups.setdefault(e_rep.get(e, e), []).append(("ip", a, b))
        for a, b, e in c.ipns:
            groups.setdefault(e_rep.get(e, e), []).append(("ipn", a, b))
        # one free integration per energy class; every class carries atoms
        n_free = len(set(e_rep.get(f"E{l}", f"E{l}") for l in range(1, k + 1)))
        if n_free != len(groups):
            raise ValueError("energy variable without atoms in a vacuum term")
        out.append(
            VacuumTerm(
                two_pi=c.two_pi,
                time_partition=_slot_partition(k, c.t_deltas),
                energy_groups=tuple(sorted(tuple(sorted(g)) for g in groups.values())),
            )
        )
    out.sort(key=lambda t: (t.time_partition, t.energy_groups))
    return tuple(out)


def vacuum_trace_oracle(labels, include_scalar=True):
    """The normal-ordering route: normal-order every one of the expansion
    branches in full and keep its generator-free terms.  Returns one
    (branch word, its scalar terms) entry per branch that has any, in
    branch order."""
    choices = [number_symbol_expansion(l, str(f), str(g), include_scalar) for l, (f, g) in enumerate(labels, start=1)]
    route = []
    for combo in itertools.product(*choices):
        coeff = Coefficient()
        for part in combo:
            coeff = coeff * part.coeff
        word = WnTerm(coeff, tuple(g for part in combo for g in part.factors))
        scalars = tuple(t for t in normal_order(WnExpression((word,))).terms if not t.factors)
        if scalars:
            route.append((word, WnExpression(scalars)))
    return route


def vacuum_expectation_oracle(labels, include_scalar=True):
    """Vacuum expectation by normal ordering: the scalar terms of every
    branch of `vacuum_trace_oracle`, merged, with the energy deltas
    integrated by union-find."""
    labels = tuple((str(f), str(g)) for f, g in labels)
    collected = tuple(t for _, scalars in vacuum_trace_oracle(labels, include_scalar) for t in scalars.terms)
    merged = canonicalize(WnExpression(collected))
    return VacuumExpectation(len(labels), labels, include_scalar, _vacuum_terms(len(labels), merged))


def is_irreducible_by_closure(diagram):
    """Closure criterion: reducible iff some proper nonempty subset of slots
    is mapped onto itself by sigma.  Equivalent to the single-cycle test."""
    n = diagram.n
    slots = range(1, n + 1)
    for r in range(1, n):
        for subset in itertools.combinations(slots, r):
            if set(diagram.image(l) for l in subset) == set(subset):
                return False
    return True


def commutator_expr(x, y):
    """Bilinear extension of the generator commutator via the derivation rule
    [g_1..g_m, h] = sum_i g_1..g_{i-1} [g_i, h] g_{i+1}..g_m; scalar parts
    commute, so only generator pairs contribute."""
    terms = []
    for tx in x.terms:
        for ty in y.terms:
            coeff = tx.coeff * ty.coeff
            for j, h in enumerate(ty.factors):
                prefix_y = ty.factors[:j]
                suffix_y = ty.factors[j + 1 :]
                for i, g in enumerate(tx.factors):
                    for it in commutator(g, h).terms:
                        terms.append(
                            WnTerm(
                                coeff * it.coeff,
                                prefix_y + tx.factors[:i] + it.factors + tx.factors[i + 1 :] + suffix_y,
                            )
                        )
    return canonicalize(WnExpression(tuple(terms)))


def anti_normal_order(expr):
    """Annihilators left: the opposite ordering, a confluence check that
    rewriting preserves the algebra element."""
    ranks = {white_noise.ANNIHILATE: 0, white_noise.GAUGE: 1, white_noise.CREATE: 2}
    return normal_order(expr, ranks=ranks)

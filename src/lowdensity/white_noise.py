"""Symbolic commutator engine for the limiting white-noise generators.

Three generator kinds act on the limit Fock space: creators B+, gauge
(number-like) generators NG, and annihilators B-.  Each carries two vector
labels and symbolic energy / time variables.  Scalars are tracked exactly:
a complex numeric, a power of 2 pi, symmetric delta atoms linking time or
energy variables, and inner-product atoms

    ip(a, b, E)  = <a, P_E b>
    ipn(a, b, E) = <a, P_E n_hat b>

The closed commutation relations:

    [B-_{f,g}(E,t), B+_{f',g'}(E',t')] = 2pi d(t'-t) d(E'-E) ip(f,f',E) ipn(g',g,E)
    [B-_{f,g}(E,t), NG_{f',g'}(E',t')] = 2pi d(t'-t) d(E-E')  ip(f,f',E)  B-_{g',g}(E,t)
    [NG_{a,b}(E',t'), B+_{f,g}(E,t)]  = 2pi d(t-t')  d(E-E')  ip(b,f,E)   B+_{a,g}(E,t)
    [NG_{f,g}(E,t), NG_{f',g'}(E',t')] = 2pi d(t'-t) d(E'-E)
            ( ip(g,f',E) NG_{f,g'}(E,t) - ip(g',f,E) NG_{f',g}(E,t) )

with like-kind B commutators vanishing.  The third line is the adjoint
companion of the second (NG* swaps labels).  Delta atoms are symmetric, and
within any product each delta graph stays a forest, so a term's delta
structure is canonically the induced partition of its variables.

Normal order puts creators left, gauge middle, annihilators right
(`normal_order`).  Each smeared number symbol expands as
N_{f,g}(t) = integral dE [ NG_{f,g} + B-_{g,f} + B+_{f,g} ](E,t) plus, by
default, the scalar gamma_{f,g} = integral dE ipn(g,f,E).

A vacuum expectation of k symbols is a sum over the set partitions of the
slots 1..k, one term of numeric 1 each (`vacuum_expectation`).  Read right
to left on Omega, B- and NG annihilate Omega, so they act on a state
B+ ... B+ Omega only through their commutator with one creator: [NG, B+]
relabels it and [B-, B+] removes it, each with numeric 1, one 2 pi and
deltas joining the two slots.  So a block b_1 < ... < b_m of slots is
opened by B+ at b_m, relabelled by NG at each interior slot and closed by
B- at b_1, and it contributes the chain

    2pi^(m-1) ip(g_{b_1},f_{b_2}) ... ip(g_{b_(m-1)},f_{b_m}) ipn(g_{b_m},f_{b_1})

on one energy; a singleton block is the scalar part.  Every partition is
reached by exactly one choice per slot and one join order, and distinct
partitions have distinct time deltas, so no two terms merge.  Without the
scalar part only partitions with no singleton block remain, the truncated
correlations, and the listing opens no other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import lru_cache
from math import pi
from typing import Iterable, Mapping, Sequence

import numpy as np

from .partitions import enumerate_set_partitions

CREATE = "create"
GAUGE = "gauge"
ANNIHILATE = "annihilate"

_NORMAL_RANK = {CREATE: 0, GAUGE: 1, ANNIHILATE: 2}
_KIND_MARK = {CREATE: "B+", GAUGE: "NG", ANNIHILATE: "B-"}

NORMAL_ORDER_STEP_CAP = 5_000_000
MAX_VACUUM_ORDER = 8

_VAR_RE = re.compile(r"^([A-Za-z]+)(\d+)$")


@lru_cache(maxsize=256)  # names come from a small set (E1..Ek, t1..tk); parse each once
def _var_key(name: str):
    m = _VAR_RE.match(name)
    if m:
        return (m.group(1), int(m.group(2)), "")
    return (name, -1, name)


@dataclass(frozen=True)
class WnGenerator:
    kind: str
    left: str
    right: str
    energy: str
    time: str

    def __post_init__(self):
        if self.kind not in _KIND_MARK:
            raise ValueError(f"unknown generator kind {self.kind!r}")

    def __str__(self) -> str:
        return f"{_KIND_MARK[self.kind]}[{self.left},{self.right}]({self.energy},{self.time})"


def creator(left: str, right: str, energy: str, time: str) -> WnGenerator:
    return WnGenerator(CREATE, left, right, energy, time)


def gauge(left: str, right: str, energy: str, time: str) -> WnGenerator:
    return WnGenerator(GAUGE, left, right, energy, time)


def annihilator(left: str, right: str, energy: str, time: str) -> WnGenerator:
    return WnGenerator(ANNIHILATE, left, right, energy, time)


@dataclass(frozen=True)
class Coefficient:
    """Exact scalar prefactor of a term."""

    numeric: complex = 1.0 + 0j
    two_pi: int = 0
    t_deltas: tuple[tuple[str, str], ...] = ()
    e_deltas: tuple[tuple[str, str], ...] = ()
    ips: tuple[tuple[str, str, str], ...] = ()
    ipns: tuple[tuple[str, str, str], ...] = ()

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        return Coefficient(
            numeric=self.numeric * other.numeric,
            two_pi=self.two_pi + other.two_pi,
            t_deltas=self.t_deltas + other.t_deltas,
            e_deltas=self.e_deltas + other.e_deltas,
            ips=self.ips + other.ips,
            ipns=self.ipns + other.ipns,
        )

    def scaled(self, z: complex) -> "Coefficient":
        return replace(self, numeric=self.numeric * z)


def _delta(a: str, b: str) -> tuple[str, str]:
    return (a, b) if _var_key(a) <= _var_key(b) else (b, a)


@dataclass(frozen=True)
class WnTerm:
    coeff: Coefficient
    factors: tuple[WnGenerator, ...] = ()

    def __str__(self) -> str:
        c = self.coeff
        bits = []
        if c.numeric != 1 or (not c.two_pi and not self.factors and not c.ips and not c.ipns):
            bits.append(f"{c.numeric:g}" if c.numeric.imag == 0 else f"({c.numeric:g})")
        if c.two_pi:
            bits.append(f"2pi^{c.two_pi}" if c.two_pi != 1 else "2pi")
        bits += [f"dt({a},{b})" for a, b in c.t_deltas]
        bits += [f"dE({a},{b})" for a, b in c.e_deltas]
        bits += [f"ip({a},{b};{e})" for a, b, e in c.ips]
        bits += [f"ipn({a},{b};{e})" for a, b, e in c.ipns]
        bits += [str(g) for g in self.factors]
        return " ".join(bits) if bits else "1"


@dataclass(frozen=True)
class WnExpression:
    terms: tuple[WnTerm, ...] = ()

    def __add__(self, other: "WnExpression") -> "WnExpression":
        return WnExpression(self.terms + other.terms)

    def scaled(self, z: complex) -> "WnExpression":
        return WnExpression(tuple(WnTerm(t.coeff.scaled(z), t.factors) for t in self.terms))

    def __str__(self) -> str:
        return " + ".join(str(t) for t in self.terms) if self.terms else "0"


def _classes(pairs: Iterable[tuple[str, str]]) -> dict[str, str]:
    """Union-find over delta pairs; returns var -> representative (least by
    natural variable order)."""
    parent: dict[str, str] = {}

    def find(v: str) -> str:
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if _var_key(ra) <= _var_key(rb) else (rb, ra)
            parent[hi] = lo
    return {v: find(v) for v in parent}


def _partition_tuple(rep: dict[str, str]) -> tuple[tuple[str, ...], ...]:
    groups: dict[str, list[str]] = {}
    for v, r in rep.items():
        groups.setdefault(r, []).append(v)
    classes = [tuple(sorted(g, key=_var_key)) for g in groups.values()]
    return tuple(sorted(classes, key=lambda c: _var_key(c[0])))


def canonical_term(term: WnTerm) -> WnTerm:
    """Rewrite every variable to its delta-class representative and store the
    delta structure as the induced partition (one pair per extra member)."""
    c = term.coeff
    t_rep = _classes(c.t_deltas)
    e_rep = _classes(c.e_deltas)
    # forest check: a delta graph with a cycle would square a delta
    t_classes = _partition_tuple(t_rep)
    e_classes = _partition_tuple(e_rep)
    if len(c.t_deltas) != sum(len(cl) - 1 for cl in t_classes):
        raise ValueError("time delta atoms form a cycle")
    if len(c.e_deltas) != sum(len(cl) - 1 for cl in e_classes):
        raise ValueError("energy delta atoms form a cycle")

    def t_of(v: str) -> str:
        return t_rep.get(v, v)

    def e_of(v: str) -> str:
        return e_rep.get(v, v)

    coeff = Coefficient(
        numeric=c.numeric,
        two_pi=c.two_pi,
        t_deltas=tuple(_delta(cl[0], v) for cl in t_classes for v in cl[1:]),
        e_deltas=tuple(_delta(cl[0], v) for cl in e_classes for v in cl[1:]),
        ips=tuple(sorted((a, b, e_of(e)) for a, b, e in c.ips)),
        ipns=tuple(sorted((a, b, e_of(e)) for a, b, e in c.ipns)),
    )
    factors = tuple(replace(g, energy=e_of(g.energy), time=t_of(g.time)) for g in term.factors)
    return WnTerm(coeff, factors)


def canonicalize(expr: WnExpression) -> WnExpression:
    """Merge terms equal up to delta-induced variable identification."""
    acc: dict[tuple, tuple[complex, WnTerm]] = {}
    for term in expr.terms:
        ct = canonical_term(term)
        c = ct.coeff
        key = (c.two_pi, c.t_deltas, c.e_deltas, c.ips, c.ipns, ct.factors)
        if key in acc:
            acc[key] = (acc[key][0] + c.numeric, ct)
        else:
            acc[key] = (c.numeric, ct)
    terms = []
    for numeric, ct in acc.values():
        if numeric != 0:
            terms.append(WnTerm(replace(ct.coeff, numeric=numeric), ct.factors))
    return WnExpression(tuple(sorted(terms, key=str)))


def _cr_bminus_bplus(bm: WnGenerator, bp: WnGenerator) -> WnExpression:
    coeff = Coefficient(
        two_pi=1,
        t_deltas=(_delta(bp.time, bm.time),),
        e_deltas=(_delta(bp.energy, bm.energy),),
        ips=((bm.left, bp.left, bm.energy),),
        ipns=((bp.right, bm.right, bm.energy),),
    )
    return WnExpression((WnTerm(coeff),))


def _cr_bminus_gauge(bm: WnGenerator, ng: WnGenerator) -> WnExpression:
    coeff = Coefficient(
        two_pi=1,
        t_deltas=(_delta(ng.time, bm.time),),
        e_deltas=(_delta(bm.energy, ng.energy),),
        ips=((bm.left, ng.left, bm.energy),),
    )
    out = annihilator(ng.right, bm.right, bm.energy, bm.time)
    return WnExpression((WnTerm(coeff, (out,)),))


def _cr_gauge_bplus(ng: WnGenerator, bp: WnGenerator) -> WnExpression:
    coeff = Coefficient(
        two_pi=1,
        t_deltas=(_delta(bp.time, ng.time),),
        e_deltas=(_delta(bp.energy, ng.energy),),
        ips=((ng.right, bp.left, bp.energy),),
    )
    out = creator(ng.left, bp.right, bp.energy, bp.time)
    return WnExpression((WnTerm(coeff, (out,)),))


def _cr_gauge_gauge(n1: WnGenerator, n2: WnGenerator) -> WnExpression:
    base = Coefficient(
        two_pi=1,
        t_deltas=(_delta(n2.time, n1.time),),
        e_deltas=(_delta(n2.energy, n1.energy),),
    )
    plus = WnTerm(
        base * Coefficient(ips=((n1.right, n2.left, n1.energy),)),
        (gauge(n1.left, n2.right, n1.energy, n1.time),),
    )
    minus = WnTerm(
        (base * Coefficient(ips=((n2.right, n1.left, n1.energy),))).scaled(-1.0),
        (gauge(n2.left, n1.right, n1.energy, n1.time),),
    )
    return WnExpression((plus, minus))


def commutator(a: WnGenerator, b: WnGenerator) -> WnExpression:
    """[a, b] from the closed relations; like-kind B commutators vanish."""
    if a.kind == ANNIHILATE and b.kind == CREATE:
        return _cr_bminus_bplus(a, b)
    if a.kind == CREATE and b.kind == ANNIHILATE:
        return _cr_bminus_bplus(b, a).scaled(-1.0)
    if a.kind == ANNIHILATE and b.kind == GAUGE:
        return _cr_bminus_gauge(a, b)
    if a.kind == GAUGE and b.kind == ANNIHILATE:
        return _cr_bminus_gauge(b, a).scaled(-1.0)
    if a.kind == GAUGE and b.kind == CREATE:
        return _cr_gauge_bplus(a, b)
    if a.kind == CREATE and b.kind == GAUGE:
        return _cr_gauge_bplus(b, a).scaled(-1.0)
    if a.kind == GAUGE and b.kind == GAUGE:
        return _cr_gauge_gauge(a, b)
    return WnExpression(())


def normal_order(expr: WnExpression, ranks: Mapping[str, int] = _NORMAL_RANK) -> WnExpression:
    """Rewrite xy -> yx + [x,y] at the leftmost disordered pair until no
    adjacent pair is disordered, then merge equal terms.

    Every commutator branch strictly shortens the word and every swap lowers
    the inversion count, so this terminates; the step cap only guards
    against implementation bugs.
    """
    done: list[WnTerm] = []
    stack = list(expr.terms)
    steps = 0
    while stack:
        steps += 1
        if steps > NORMAL_ORDER_STEP_CAP:
            raise RuntimeError(f"normal ordering exceeded {NORMAL_ORDER_STEP_CAP} rewrite steps")
        term = stack.pop()
        fs = term.factors
        spot = next((i for i in range(len(fs) - 1) if ranks[fs[i].kind] > ranks[fs[i + 1].kind]), None)
        if spot is None:
            done.append(term)
            continue
        x, y = fs[spot], fs[spot + 1]
        head, tail = fs[:spot], fs[spot + 2 :]
        stack.append(WnTerm(term.coeff, head + (y, x) + tail))
        for ct in commutator(x, y).terms:
            stack.append(WnTerm(term.coeff * ct.coeff, head + ct.factors + tail))
    return canonicalize(WnExpression(tuple(done)))


def number_symbol_expansion(slot: int, f: str, g: str, include_scalar: bool) -> list[WnTerm]:
    """The four expansion choices of one smeared number symbol at slot l."""
    e, t = f"E{slot}", f"t{slot}"
    out = [
        WnTerm(Coefficient(), (gauge(f, g, e, t),)),
        WnTerm(Coefficient(), (annihilator(g, f, e, t),)),
        WnTerm(Coefficient(), (creator(f, g, e, t),)),
    ]
    if include_scalar:
        out.append(WnTerm(Coefficient(ipns=((g, f, e),))))
    return out


@dataclass(frozen=True)
class VacuumTerm:
    """One scalar contribution to a vacuum expectation after integrating the
    energy deltas; time deltas stay symbolic as a partition of the slots.
    Its numeric factor is always 1, so the term stores none: the value is
    2pi^two_pi times the product of its energy groups' integrals."""

    two_pi: int  # also the delta-chain order: slots minus blocks
    time_partition: tuple[tuple[int, ...], ...]
    energy_groups: tuple[tuple[tuple[str, str, str], ...], ...]  # atoms ("ip"|"ipn", a, b) per free energy variable


@dataclass(frozen=True)
class VacuumExpectation:
    k: int
    labels: tuple[tuple[str, str], ...]
    include_scalar: bool
    terms: tuple[VacuumTerm, ...]

    def connected_terms(self) -> tuple[VacuumTerm, ...]:
        full = tuple(range(1, self.k + 1))
        return tuple(t for t in self.terms if t.time_partition == (full,))


def vacuum_expectation(labels: Sequence[tuple[str, str]], include_scalar: bool = True, trace=None) -> VacuumExpectation:
    """<Omega, N_{f_1,g_1}(t_1) ... N_{f_k,g_k}(t_k) Omega> symbolically.

    One term per set partition of the slots, its numeric factor 1: a block
    is one time class and one energy class, and its chain atoms (module
    docstring) form one energy group.  With include_scalar the result
    reproduces full correlation functions; without it, only the partitions
    with no singleton block, where every slot is contracted into some chain,
    and the listing opens no singleton block at all.  A trace list
    receives one (branch, its scalar terms) entry per expansion branch that
    reaches the vacuum, in branch order: a partition's branch takes the
    scalar at a singleton, B- at a block's least slot, B+ at its largest and
    NG in between; its terms are sorted by their text, as `canonicalize` does.
    """
    labels = tuple((str(f), str(g)) for f, g in labels)
    k = len(labels)
    if not 1 <= k <= MAX_VACUUM_ORDER:
        raise ValueError(f"vacuum_expectation supports 1 <= k <= {MAX_VACUUM_ORDER} symbols")

    @lru_cache(maxsize=None)  # a block recurs in many partitions
    def block_atoms(block: tuple[int, ...]) -> tuple[tuple[str, str, str], ...]:
        f, g = zip(*(labels[s - 1] for s in block))
        return tuple(sorted([("ip", g[i], f[i + 1]) for i in range(len(block) - 1)] + [("ipn", g[-1], f[0])]))

    partitions = enumerate_set_partitions(k, singletons=include_scalar)
    terms = sorted(
        (
            VacuumTerm(
                two_pi=k - len(blocks),
                time_partition=blocks,
                energy_groups=tuple(sorted(map(block_atoms, blocks))),
            )
            for blocks in partitions
        ),
        key=lambda t: (t.time_partition, t.energy_groups),
    )
    if trace is not None:
        choices = [number_symbol_expansion(l, f, g, include_scalar) for l, (f, g) in enumerate(labels, start=1)]
        by_branch: dict[tuple[int, ...], list[WnTerm]] = {}
        for blocks in partitions:
            branch = [0] * k  # indices into choices: NG 0, B- 1, B+ 2, scalar 3
            for b in blocks:
                branch[b[0] - 1], branch[b[-1] - 1] = (3, 3) if len(b) == 1 else (1, 2)
            by_branch.setdefault(tuple(branch), []).append(_scalar_term(blocks, map(block_atoms, blocks)))
        for branch in sorted(by_branch):
            parts = [choices[l][c] for l, c in enumerate(branch)]
            coeff = Coefficient()
            for part in parts:
                coeff = coeff * part.coeff
            before = WnTerm(coeff, tuple(g for part in parts for g in part.factors))
            trace.append((before, WnExpression(tuple(sorted(by_branch[branch], key=str)))))
    return VacuumExpectation(k=k, labels=labels, include_scalar=include_scalar, terms=tuple(terms))


def _scalar_term(blocks, groups) -> WnTerm:
    """A partition's term as a generator-free WnTerm: each block one time and
    one energy delta class, its atoms on the block's energy and sorted, as
    `canonical_term` would leave them."""
    t_deltas, e_deltas, ips, ipns = [], [], [], []
    for slots, atoms in zip(blocks, groups):
        head = slots[0]
        t_deltas += [(f"t{head}", f"t{s}") for s in slots[1:]]
        e_deltas += [(f"E{head}", f"E{s}") for s in slots[1:]]
        for kind, a, b in atoms:
            (ips if kind == "ip" else ipns).append((a, b, f"E{head}"))
    return WnTerm(Coefficient(1.0 + 0j, len(t_deltas), tuple(t_deltas), tuple(e_deltas), tuple(sorted(ips)), tuple(sorted(ipns))))


def _atom_values(atoms, model) -> np.ndarray:
    vals = np.ones(model.grid.bins, dtype=complex)
    for kind, a, b in atoms:
        if kind == "ip":
            vals = vals * np.conj(model.amplitude(a)) * model.amplitude(b)
        elif kind == "ipn":
            vals = vals * np.conj(model.amplitude(a)) * model.density * model.amplitude(b)
        else:
            raise ValueError(f"unknown atom kind {kind!r}")
    return vals


def evaluate_symbolic(vac: VacuumExpectation, model) -> dict[tuple[tuple[int, ...], ...], complex]:
    """Numeric value of each delta-chain structure on a grid model, keyed by
    time partition: every free energy integral becomes a bin sum of its atom
    product, computed once per distinct energy group.  The connected value is
    the entry of the one-block partition, absent (0) without terms there."""
    table: dict[tuple, complex] = {}
    integrals: dict[tuple, complex] = {}
    two_pi = 2.0 * pi
    for term in vac.terms:
        val = complex(two_pi**term.two_pi)
        for atoms in term.energy_groups:
            if atoms not in integrals:
                integrals[atoms] = complex(np.sum(_atom_values(atoms, model)) * model.grid.delta_e)
            val *= integrals[atoms]
        table[term.time_partition] = table.get(term.time_partition, 0j) + val
    return table

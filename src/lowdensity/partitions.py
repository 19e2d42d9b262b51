"""Set partitions, pairing diagrams and the first-block transform.

A set partition of {1..n} is a plain tuple of blocks, each block an
increasing tuple, blocks ordered by their least element.  The listing can
leave out every partition with a one-element block, the ones a truncated
(connected) vacuum value never reaches, without opening them.

A pairing diagram on n number symbols assigns to each creator slot l the
annihilator slot sigma(l) it is contracted with; sigma runs over all of S_n.
The diagram is irreducible exactly when sigma is a single n-cycle, and the
one diagram that survives the scaling limit is sigma = (1 -> n, l -> l-1).
_first_block_transform turns the truncated (single-cycle) values of every
subset into the full ones, a sum over set partitions, and back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

MAX_ENUM_PARTITION = 12
MAX_ENUM_DIAGRAM = 8
MAX_BELL = 20


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into k nonempty blocks.

    >>> [stirling2(4, k) for k in range(5)]
    [0, 1, 7, 6, 1]
    """
    if n < 0 or k < 0:
        raise ValueError("stirling2 needs n >= 0 and k >= 0")
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def bell(n: int) -> int:
    """Bell number B_n, the number of partitions of an n-set.

    >>> [bell(n) for n in range(7)]
    [1, 1, 2, 5, 15, 52, 203]
    """
    if not 0 <= n <= MAX_BELL:
        raise ValueError(f"bell supports 0 <= n <= {MAX_BELL}, got {n}")
    return sum(stirling2(n, k) for k in range(n + 1))


def touchard(n: int, lam: float) -> float:
    """Touchard polynomial sum_k S(n,k) lam^k; touchard(n, 1) == bell(n)."""
    if n < 1:
        raise ValueError("touchard needs n >= 1")
    return float(sum(stirling2(n, k) * lam**k for k in range(1, n + 1)))


def _subsets(n: int):
    for size in range(1, n + 1):
        yield from itertools.combinations(range(1, n + 1), size)


def _check_arity(arity: int) -> None:
    if arity > MAX_ENUM_PARTITION:
        raise ValueError(f"moment/cumulant transforms support arity <= {MAX_ENUM_PARTITION}, got {arity}")


def _first_block_transform(arity: int, values: dict, inverse: bool) -> dict:
    """Full (moment) family from the truncated (cumulant) one, or back when
    inverse is set, by the identity over the first block:

        m(S) = sum over B subset S with min S in B of kappa(B) m(S - B),

    with m(empty) = 1: (3^n - 1) / 2 block terms for arity n.  Subsets are
    bitmasks (element i is bit i - 1) and are visited in increasing order,
    so every proper subset of S is already known.  The first blocks
    B = low | sub run over the submasks sub of S ^ low; the inverse solves
    the same identity for kappa(S)."""
    _check_arity(arity)
    keys = {s: sum(1 << (i - 1) for i in s) for s in _subsets(arity)}
    given = [0j] * (1 << arity)
    for s, mask in keys.items():
        given[mask] = complex(values[s])
    solved = [0j] * (1 << arity)
    conn, full = (solved, given) if inverse else (given, solved)
    for mask in range(1, 1 << arity):
        low = mask & -mask
        rest = mask ^ low
        # every first block but B = S, whose term is kappa(S) m(empty)
        acc = 0j
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            acc += conn[low | sub] * full[rest ^ sub]
        solved[mask] = given[mask] - acc if inverse else given[mask] + acc
    return {s: solved[mask] for s, mask in keys.items()}


def enumerate_set_partitions(n: int, singletons: bool = True) -> list[tuple[tuple[int, ...], ...]]:
    """All partitions of {1..n} as tuples of blocks, each block increasing,
    blocks ordered by their least element; len(result) == bell(n).

    Without singletons, only the partitions with no one-element block, in
    the same order: a branch ends as soon as its one-element blocks
    outnumber the elements still left to join them.

    >>> [len(p) for p in enumerate_set_partitions(3)]
    [1, 2, 2, 2, 3]
    >>> enumerate_set_partitions(4, singletons=False)
    [((1, 2, 3, 4),), ((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]
    """
    if not 1 <= n <= MAX_ENUM_PARTITION:
        raise ValueError(f"enumerate_set_partitions supports 1 <= n <= {MAX_ENUM_PARTITION}")
    out: list[tuple[tuple[int, ...], ...]] = []

    def extend(element: int, blocks: list[list[int]], lone: int) -> None:
        if not singletons and lone > n - element + 1:
            return
        if element > n:
            out.append(tuple(map(tuple, blocks)))
            return
        for b in blocks:
            b.append(element)
            extend(element + 1, blocks, lone - (len(b) == 2))  # b was one-element before
            b.pop()
        blocks.append([element])
        extend(element + 1, blocks, lone + 1)
        blocks.pop()

    extend(1, [], 0)
    return out


@dataclass(frozen=True)
class PairDiagram:
    """Contraction pattern: creator slot l is paired with annihilator slot
    sigma(l).  Stored 1-based, sigma[l-1] is the image of l.

    k counts the creator-first pairs (l <= sigma(l)); each diagram scales as
    epsilon^(k-1) in the limit, so only k == 1 diagrams can survive.
    """

    sigma: tuple[int, ...]

    def __post_init__(self):
        n = len(self.sigma)
        if sorted(self.sigma) != list(range(1, n + 1)):
            raise ValueError("sigma is not a permutation of 1..n")

    @property
    def n(self) -> int:
        return len(self.sigma)

    @property
    def k(self) -> int:
        return sum(1 for l in range(1, self.n + 1) if l <= self.sigma[l - 1])

    def image(self, l: int) -> int:
        return self.sigma[l - 1]

    def preimage(self, m: int) -> int:
        return self.sigma.index(m) + 1

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of sigma, each starting at its least element, ordered by
        least element."""
        seen: set[int] = set()
        cycles: list[tuple[int, ...]] = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            m = self.sigma[start - 1]
            while m != start:
                cyc.append(m)
                seen.add(m)
                m = self.sigma[m - 1]
            cycles.append(tuple(cyc))
        return tuple(cycles)

    def label(self) -> str:
        return "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles())


@dataclass(frozen=True)
class DiagramClass:
    cycles: tuple[tuple[int, ...], ...]
    irreducible: bool
    k: int


def classify(diagram: PairDiagram) -> DiagramClass:
    """Cycle decomposition; irreducible iff sigma is one n-cycle.

    >>> classify(PairDiagram((2, 1, 3))).cycles
    ((1, 2), (3,))
    """
    cycles = diagram.cycles()
    return DiagramClass(cycles=cycles, irreducible=len(cycles) == 1, k=diagram.k)


def enumerate_pair_diagrams(n: int) -> list[PairDiagram]:
    """All n! pairing diagrams on n symbols."""
    if not 1 <= n <= MAX_ENUM_DIAGRAM:
        raise ValueError(f"enumerate_pair_diagrams supports 1 <= n <= {MAX_ENUM_DIAGRAM}")
    return [PairDiagram(p) for p in itertools.permutations(range(1, n + 1))]


def irreducible_diagrams(n: int) -> list[PairDiagram]:
    return [d for d in enumerate_pair_diagrams(n) if classify(d).irreducible]


def surviving_diagram(n: int) -> PairDiagram:
    """The unique diagram with a nonzero limit: 1 -> n and l -> l-1 for l >= 2.

    >>> surviving_diagram(4).sigma
    (4, 1, 2, 3)
    >>> surviving_diagram(4).k
    1
    """
    if n < 1:
        raise ValueError("surviving_diagram needs n >= 1")
    return PairDiagram((n,) + tuple(range(1, n)))


if __name__ == "__main__":
    for n in range(2, 7):
        diags = enumerate_pair_diagrams(n)
        irr = [d for d in diags if classify(d).irreducible]
        print(f"n={n}: {len(diags)} diagrams, {len(irr)} irreducible")

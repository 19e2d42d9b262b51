"""Combinatorial layer: set partitions, Bell/Stirling/Touchard numbers,
pairing diagrams and their cycle classification."""

import math

import pytest

from helpers import BELL_VALUES, is_irreducible_by_closure, rgs_partitions
from lowdensity import (
    PairDiagram,
    bell,
    classify,
    enumerate_pair_diagrams,
    enumerate_set_partitions,
    irreducible_diagrams,
    stirling2,
    surviving_diagram,
    touchard,
)
from lowdensity.partitions import MAX_BELL, MAX_ENUM_DIAGRAM, MAX_ENUM_PARTITION


def test_stirling2_matches_block_counts():
    for n in range(1, 8):
        parts = rgs_partitions(n)
        for k in range(0, n + 2):
            expected = sum(1 for p in parts if len(p) == k)
            assert stirling2(n, k) == expected


def test_stirling2_edge_rows():
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(5, 6) == 0
    assert stirling2(6, 2) == 31
    with pytest.raises(ValueError):
        stirling2(-1, 0)


def test_bell_known_values():
    for n, value in enumerate(BELL_VALUES):
        assert bell(n) == value
    with pytest.raises(ValueError):
        bell(MAX_BELL + 1)


def test_touchard_probabilistic_oracle():
    # E[X^n] for X ~ Poisson(lam): truncate the series far past the mass.
    for lam in (0.5, 1.0, 2.0):
        for n in range(1, 7):
            expected = sum(k**n * math.exp(-lam) * lam**k / math.factorial(k) for k in range(0, 80))
            assert touchard(n, lam) == pytest.approx(expected, rel=1e-12)
    assert touchard(3, 1.0) == bell(3)
    with pytest.raises(ValueError):
        touchard(0, 1.0)


def test_enumerate_set_partitions_against_growth_strings():
    for n in range(1, 8):
        # the same blocks in the same order: growth strings in lexicographic order
        assert enumerate_set_partitions(n) == rgs_partitions(n)
        assert len(enumerate_set_partitions(n)) == bell(n)


def test_enumerate_set_partitions_caps():
    with pytest.raises(ValueError):
        enumerate_set_partitions(0)
    with pytest.raises(ValueError):
        enumerate_set_partitions(MAX_ENUM_PARTITION + 1)


def test_singleton_free_listing_is_the_filtered_full_listing():
    counts = []
    for n in range(1, 10):
        kept = [p for p in enumerate_set_partitions(n) if min(map(len, p)) > 1]
        assert enumerate_set_partitions(n, singletons=False) == kept
        counts.append(len(kept))
    assert counts == [0, 1, 1, 4, 11, 41, 162, 715, 3425]


def test_pair_diagram_basics():
    d = PairDiagram((3, 1, 2))
    assert d.n == 3
    assert d.image(1) == 3 and d.preimage(3) == 1
    assert d.cycles() == ((1, 3, 2),)
    assert d.label() == "(1 3 2)"
    assert d.k == 1  # only slot 1 has l <= sigma(l)
    with pytest.raises(ValueError):
        PairDiagram((1, 1, 2))


def test_diagram_census():
    for n in range(1, 7):
        diagrams = enumerate_pair_diagrams(n)
        assert len(diagrams) == math.factorial(n)
        assert len({d.sigma for d in diagrams}) == len(diagrams)
        assert len(irreducible_diagrams(n)) == math.factorial(n - 1)
    with pytest.raises(ValueError):
        enumerate_pair_diagrams(MAX_ENUM_DIAGRAM + 1)


def test_classify_agrees_with_closure_criterion():
    for n in range(1, 7):
        for d in enumerate_pair_diagrams(n):
            cls = classify(d)
            assert cls.irreducible == is_irreducible_by_closure(d)
            assert cls.k == d.k
            assert sorted(l for c in cls.cycles for l in c) == list(range(1, n + 1))


def test_reducible_components_are_irreducible_cycles():
    for n in range(2, 6):
        for d in enumerate_pair_diagrams(n):
            for cyc in d.cycles():
                # relabel the cycle onto 1..r preserving order of slots
                order = sorted(cyc)
                pos = {slot: i + 1 for i, slot in enumerate(order)}
                sigma = [0] * len(order)
                for slot in order:
                    sigma[pos[slot] - 1] = pos[d.image(slot)]
                sub = PairDiagram(tuple(sigma))
                assert classify(sub).irreducible


def test_surviving_diagram_unique_k1_irreducible():
    for n in range(1, 7):
        winners = [d for d in irreducible_diagrams(n) if d.k == 1]
        assert len(winners) == 1
        assert winners[0].sigma == surviving_diagram(n).sigma
    assert surviving_diagram(1).sigma == (1,)
    assert surviving_diagram(4).sigma == (4, 1, 2, 3)


def test_n2_and_n3_classification_tables():
    by_label = {d.label(): classify(d) for d in enumerate_pair_diagrams(2)}
    assert by_label["(1)(2)"].irreducible is False and by_label["(1)(2)"].k == 2
    assert by_label["(1 2)"].irreducible is True and by_label["(1 2)"].k == 1

    cls3 = {d.sigma: classify(d) for d in enumerate_pair_diagrams(3)}
    assert sum(c.irreducible for c in cls3.values()) == 2
    assert cls3[(3, 1, 2)].k == 1  # the surviving chain
    assert cls3[(2, 3, 1)].k == 2  # the other 3-cycle
    assert cls3[(1, 2, 3)].k == 3 and len(cls3[(1, 2, 3)].cycles) == 3

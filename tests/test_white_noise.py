"""Symbolic white-noise algebra: commutation relations, delta-graph
canonicalization, normal ordering, and vacuum expectations."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import BELL_VALUES, _vacuum_terms, anti_normal_order, commutator_expr, random_model, rgs_partitions, vacuum_expectation_oracle, vacuum_trace_oracle
from lowdensity import (
    Coefficient,
    FrequencyIndex,
    WnExpression,
    WnTerm,
    annihilator,
    bell,
    canonicalize,
    commutator,
    creator,
    evaluate_symbolic,
    gauge,
    limit_truncated_coefficient,
    normal_order,
    number_symbol_expansion,
    rank_one_kernel,
    state_expectation,
    vacuum_expectation,
)
from lowdensity import white_noise as wn
from lowdensity.spectral import TWO_PI


def word(*factors):
    return WnExpression((WnTerm(Coefficient(), tuple(factors)),))


def is_zero(expr):
    return canonicalize(expr).terms == ()


def test_annihilator_creator_relation_atoms():
    bm = annihilator("u", "v", "E1", "t1")
    bp = creator("x", "y", "E2", "t2")
    out = commutator(bm, bp)
    assert len(out.terms) == 1
    c = out.terms[0].coeff
    assert out.terms[0].factors == ()
    assert c.two_pi == 1 and c.numeric == 1
    assert c.t_deltas == (("t1", "t2"),)
    assert c.e_deltas == (("E1", "E2"),)
    assert c.ips == (("u", "x", "E1"),)
    assert c.ipns == (("y", "v", "E1"),)


def test_annihilator_gauge_relation():
    bm = annihilator("u", "v", "E1", "t1")
    ng = gauge("x", "y", "E2", "t2")
    out = commutator(bm, ng)
    assert len(out.terms) == 1
    term = out.terms[0]
    assert term.coeff.ips == (("u", "x", "E1"),)
    assert term.coeff.ipns == ()
    assert term.factors == (annihilator("y", "v", "E1", "t1"),)


def test_gauge_creator_relation():
    ng = gauge("u", "v", "E1", "t1")
    bp = creator("x", "y", "E2", "t2")
    out = commutator(ng, bp)
    assert len(out.terms) == 1
    term = out.terms[0]
    assert term.coeff.ips == (("v", "x", "E2"),)
    assert term.factors == (creator("u", "y", "E2", "t2"),)


def test_gauge_gauge_relation_two_terms():
    n1 = gauge("u", "v", "E1", "t1")
    n2 = gauge("x", "y", "E2", "t2")
    out = commutator(n1, n2)
    assert len(out.terms) == 2
    plus = [t for t in out.terms if t.coeff.numeric == 1]
    minus = [t for t in out.terms if t.coeff.numeric == -1]
    assert len(plus) == 1 and len(minus) == 1
    assert plus[0].factors == (gauge("u", "y", "E1", "t1"),)
    assert plus[0].coeff.ips == (("v", "x", "E1"),)
    assert minus[0].factors == (gauge("x", "v", "E1", "t1"),)
    assert minus[0].coeff.ips == (("y", "u", "E1"),)


def test_like_kind_commutators_vanish():
    a = creator("u", "v", "E1", "t1")
    b = creator("x", "y", "E2", "t2")
    assert commutator(a, b).terms == ()
    am = annihilator("u", "v", "E1", "t1")
    bm = annihilator("x", "y", "E2", "t2")
    assert commutator(am, bm).terms == ()


def test_commutator_antisymmetry():
    gens = [
        annihilator("u", "v", "E1", "t1"),
        gauge("x", "y", "E2", "t2"),
        creator("p", "q", "E3", "t3"),
        gauge("p", "u", "E4", "t4"),
    ]
    for a in gens:
        for b in gens:
            if a is b:
                continue  # a commutator of a slot with itself is degenerate
            assert is_zero(WnExpression(commutator(a, b).terms + commutator(b, a).terms))


def random_generator(rng, i):
    kind = [creator, gauge, annihilator][int(rng.integers(3))]
    labels = ["u", "v", "w", "x"]
    return kind(
        str(labels[rng.integers(4)]),
        str(labels[rng.integers(4)]),
        f"E{i}",
        f"t{i}",
    )


def test_jacobi_identity_on_random_triples(rng):
    for trial in range(12):
        a, b, c = (random_generator(rng, i + 1) for i in range(3))
        total = (
            commutator_expr(commutator(a, b), word(c)).terms
            + commutator_expr(commutator(b, c), word(a)).terms
            + commutator_expr(commutator(c, a), word(b)).terms
        )
        assert is_zero(WnExpression(total))


def test_leibniz_expansion_of_word_commutator():
    a = creator("u", "v", "E1", "t1")
    b = gauge("w", "x", "E2", "t2")
    c = annihilator("p", "q", "E3", "t3")
    got = commutator_expr(word(a, b), word(c))
    manual = []
    for t in commutator(a, c).terms:
        manual.append(WnTerm(t.coeff, t.factors + (b,)))
    for t in commutator(b, c).terms:
        manual.append(WnTerm(t.coeff, (a,) + t.factors))
    assert canonicalize(got) == canonicalize(WnExpression(tuple(manual)))


def test_canonicalize_merges_equivalent_delta_graphs():
    # two spanning trees of the same variable classes must merge
    atoms = Coefficient(ips=(("u", "v", "E1"),))
    t1 = WnTerm(Coefficient(e_deltas=(("E1", "E2"), ("E2", "E3"))) * atoms)
    t2 = WnTerm(Coefficient(e_deltas=(("E1", "E3"), ("E1", "E2"))) * atoms)
    merged = canonicalize(WnExpression((t1, t2)))
    assert len(merged.terms) == 1
    assert merged.terms[0].coeff.numeric == 2
    assert merged.terms[0].coeff.e_deltas == (("E1", "E2"), ("E1", "E3"))


def test_canonicalize_rewrites_generator_variables():
    t = WnTerm(
        Coefficient(t_deltas=(("t1", "t2"),), e_deltas=(("E1", "E2"),)),
        (gauge("u", "v", "E2", "t2"),),
    )
    out = canonicalize(WnExpression((t,)))
    assert out.terms[0].factors == (gauge("u", "v", "E1", "t1"),)


def test_delta_cycle_raises():
    t = WnTerm(Coefficient(e_deltas=(("E1", "E2"), ("E1", "E2"))))
    with pytest.raises(ValueError):
        canonicalize(WnExpression((t,)))


def test_normal_order_sorts_and_preserves():
    w = word(
        annihilator("u", "v", "E1", "t1"),
        creator("x", "y", "E2", "t2"),
    )
    out = normal_order(w)
    # re-ordered word plus the scalar commutator term
    kinds = [tuple(g.kind for g in t.factors) for t in out.terms]
    assert (wn.CREATE, wn.ANNIHILATE) in kinds
    assert () in kinds
    for t in out.terms:
        ranks = [wn._NORMAL_RANK[g.kind] for g in t.factors]
        assert ranks == sorted(ranks)
    assert normal_order(out) == out


def test_normal_order_confluence(rng):
    for trial in range(10):
        m = int(rng.integers(2, 7))
        factors = [random_generator(rng, i + 1) for i in range(m)]
        w = word(*factors)
        direct = normal_order(w)
        via_anti = normal_order(anti_normal_order(w))
        assert direct == via_anti


def test_normal_order_ten_generator_word_completes():
    factors = [annihilator("u", "v", f"E{i}", f"t{i}") for i in range(1, 6)]
    factors += [creator("x", "y", f"E{i}", f"t{i}") for i in range(6, 11)]
    out = normal_order(word(*factors))
    assert len(out.terms) > 100
    for t in out.terms:
        ranks = [wn._NORMAL_RANK[g.kind] for g in t.factors]
        assert ranks == sorted(ranks)


def test_step_cap_guard(monkeypatch):
    monkeypatch.setattr(wn, "NORMAL_ORDER_STEP_CAP", 3)
    factors = [annihilator("u", "v", f"E{i}", f"t{i}") for i in range(1, 4)]
    factors += [creator("x", "y", f"E{i}", f"t{i}") for i in range(4, 7)]
    with pytest.raises(RuntimeError):
        normal_order(word(*factors))


def test_number_symbol_expansion_choices():
    parts = number_symbol_expansion(2, "f", "g", include_scalar=True)
    assert len(parts) == 4
    kinds = [p.factors[0].kind for p in parts if p.factors]
    assert sorted(kinds) == sorted([wn.GAUGE, wn.ANNIHILATE, wn.CREATE])
    scalar = [p for p in parts if not p.factors][0]
    assert scalar.coeff.ipns == (("g", "f", "E2"),)
    assert len(number_symbol_expansion(2, "f", "g", include_scalar=False)) == 3


def test_vacuum_expectation_order_one():
    vac = vacuum_expectation([("a", "b")])
    assert len(vac.terms) == 1
    term = vac.terms[0]
    assert term.two_pi == 0
    assert term.time_partition == ((1,),)
    assert term.energy_groups == ((("ipn", "b", "a"),),)
    empty = vacuum_expectation([("a", "b")], include_scalar=False)
    assert empty.terms == ()


def test_oracle_refuses_a_vacuum_term_whose_numeric_is_not_one():
    # VacuumTerm stores no numeric, so the normal-ordering oracle must see 1
    merged = WnExpression((WnTerm(Coefficient(numeric=2.0 + 0j, ipns=(("b", "a", "E1"),))),))
    with pytest.raises(ValueError, match="numeric"):
        _vacuum_terms(1, merged)
    assert len(_vacuum_terms(1, WnExpression((WnTerm(Coefficient(ipns=(("b", "a", "E1"),))),)))) == 1


def test_vacuum_term_census_is_bell(rng):
    for k in range(1, wn.MAX_VACUUM_ORDER + 1):
        labels = [("a", "b") if i % 2 == 0 else ("b", "a") for i in range(k)]
        vac = vacuum_expectation(labels)
        assert len(vac.terms) == bell(k) == BELL_VALUES[k]
        partitions = {t.time_partition for t in vac.terms}
        assert len(partitions) == bell(k)


def test_connected_only_census_is_singleton_free():
    # without the scalar part every slot sits in a chain of length >= 2
    counts = {2: 1, 3: 1, 4: 4, 5: 11, 6: 41, 7: 162, 8: 715}
    for k, count in counts.items():
        labels = [("a", "b") if i % 2 == 0 else ("b", "a") for i in range(k)]
        vac = vacuum_expectation(labels, include_scalar=False)
        assert len(vac.terms) == count
        want = {p for p in rgs_partitions(k) if min(len(b) for b in p) > 1}
        assert {t.time_partition for t in vac.terms} == want


def test_connected_term_structure():
    for k in range(2, 5):
        vac = vacuum_expectation([("a", "b")] * k, include_scalar=False)
        conn = vac.connected_terms()
        assert len(conn) == 1
        term = conn[0]
        assert term.two_pi == k - 1
        assert len(term.energy_groups) == 1


def test_vacuum_expectation_size_guard():
    with pytest.raises(ValueError):
        vacuum_expectation([("a", "b")] * (wn.MAX_VACUUM_ORDER + 1))
    with pytest.raises(ValueError):
        vacuum_expectation([])


def test_trace_records_every_branch():
    # of the 16 expansion branches only the empty word and B- B+ reach the
    # vacuum; each dropped branch normal-orders to generator terms alone
    trace = []
    vacuum_expectation([("a", "b")] * 2, trace=trace)
    kinds = sorted(tuple(g.kind for g in before.factors) for before, _ in trace)
    assert kinds == [(), (wn.ANNIHILATE, wn.CREATE)]
    for before, after in trace:
        assert isinstance(before, WnTerm)
        assert isinstance(after, WnExpression)
        assert after.terms and all(not t.factors for t in after.terms)
    traced = {before.factors for before, _ in trace}
    choices = [number_symbol_expansion(l, "a", "b", include_scalar=True) for l in (1, 2)]
    dropped = [
        WnTerm(p1.coeff * p2.coeff, p1.factors + p2.factors)
        for p1, p2 in itertools.product(*choices)
        if p1.factors + p2.factors not in traced
    ]
    assert len(dropped) == 14
    for branch in dropped:
        assert all(t.factors for t in normal_order(WnExpression((branch,))).terms)


@given(
    labels=st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("abc")), min_size=1, max_size=4),
    include_scalar=st.booleans(),
)
@settings(max_examples=40)
def test_trace_matches_normal_ordering_route(labels, include_scalar):
    trace = []
    vacuum_expectation(labels, include_scalar=include_scalar, trace=trace)
    route = vacuum_trace_oracle(labels, include_scalar=include_scalar)
    assert [before for before, _ in trace] == [before for before, _ in route]
    assert [(str(before), str(after)) for before, after in trace] == [(str(before), str(after)) for before, after in route]


K5_LABELS = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "a"), ("b", "c")]
K6_LABELS = K5_LABELS + [("c", "b")]


@given(
    labels=st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("abc")), min_size=1, max_size=4),
    include_scalar=st.booleans(),
)
@example(labels=K5_LABELS, include_scalar=True)
@example(labels=K5_LABELS, include_scalar=False)
@example(labels=K6_LABELS, include_scalar=True)
@example(labels=K6_LABELS, include_scalar=False)
def test_pruned_vacuum_expectation_matches_full_ordering(labels, include_scalar):
    got = vacuum_expectation(labels, include_scalar=include_scalar)
    assert got.terms == vacuum_expectation_oracle(labels, include_scalar=include_scalar).terms


@given(
    labels=st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("abc")), min_size=1, max_size=6),
    include_scalar=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    bins=st.integers(4, 12),
)
@example(labels=K6_LABELS, include_scalar=True, seed=0, bins=10)
@example(labels=K6_LABELS, include_scalar=False, seed=0, bins=10)
@settings(max_examples=40)
def test_evaluate_connected_matches_limit_coefficient(labels, include_scalar, seed, bins):
    model = random_model(np.random.default_rng(seed), bins=bins, names=("a", "b", "c"))
    k = len(labels)
    vac = vacuum_expectation(labels, include_scalar=include_scalar)
    value = evaluate_symbolic(vac, model).get((tuple(range(1, k + 1)),), 0j)
    kerns = [rank_one_kernel(model, f, g) for f, g in labels]
    coeff = limit_truncated_coefficient(model, kerns, [FrequencyIndex(0)] * k)
    want = TWO_PI ** (k - 1) * coeff.value
    if k == 1 and not include_scalar:
        # a lone symbol's vacuum value is all scalar part: <g, n f>
        want = 0j
    assert value == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))


def test_evaluate_partition_table_factorizes(rng):
    model = random_model(rng, bins=8, names=("a", "b"))
    labels = [("a", "b"), ("b", "a"), ("a", "a")]
    vac = vacuum_expectation(labels)
    table = dict(sorted(evaluate_symbolic(vac, model).items()))
    for partition, got in table.items():
        want = 1.0 + 0j
        for block in partition:
            kerns = [rank_one_kernel(model, *labels[i - 1]) for i in block]
            c = limit_truncated_coefficient(model, kerns, [FrequencyIndex(0)] * len(block))
            want *= TWO_PI ** (len(block) - 1) * c.value
        assert got == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))


def test_evaluate_order_one_is_state_expectation(rng):
    model = random_model(rng, bins=12)
    vac = vacuum_expectation([("a", "b")])
    total = sum(evaluate_symbolic(vac, model).values())
    want = state_expectation(model, rank_one_kernel(model, "a", "b"))
    assert total == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))


def test_product_commutation_identity():
    # xy and yx + [x, y] are the same element; ordering both must agree
    bm = annihilator("u", "v", "E1", "t1")
    bp = creator("x", "y", "E2", "t2")
    xy = word(bm, bp)
    rhs = WnExpression(word(bp, bm).terms + commutator(bm, bp).terms)
    assert normal_order(xy) == normal_order(rhs)
    # pure gauge words are already ordered and carry no scalar part
    gauge_word = word(gauge("a", "b", "E1", "t1"), gauge("b", "a", "E2", "t2"))
    assert normal_order(gauge_word) == canonicalize(gauge_word)
    assert [t for t in normal_order(gauge_word).terms if not t.factors] == []

import itertools
import json
import random

import pytest

from conftest import system
from quasired.classify import (
    FlagSpec,
    classify_parabolic,
    dkt_flag_test,
    enumerate_index_zero,
    enumerate_verdicts,
    identify_subsystem,
    non_qr_subsets,
    pi_to_flag,
    single_root_test,
    transitivity_descend,
)
from quasired.rootsys import MAX_CLASSICAL_RANK, SimpleType, _cartan_and_symmetrizer
from quasired.seaweed import parabolic, seaweed_index

D6_NON_QR = [
    {2}, {4}, {1, 4}, {2, 4}, {2, 5}, {2, 6},
    {1, 2, 4}, {2, 3, 4}, {2, 4, 5}, {2, 4, 6}, {2, 5, 6},
    {2, 4, 5, 6},
]

E6_INDEX_ZERO = [
    {1, 5}, {3, 6}, {1, 4, 5}, {3, 4, 6}, {1, 5, 6}, {1, 3, 6}, {1, 3, 5},
    {3, 5, 6}, {1, 3, 4}, {4, 5, 6}, {1, 3, 4, 5}, {3, 4, 5, 6},
    {1, 2, 3, 4}, {2, 4, 5, 6},
]

E6_NON_QR = {
    (2,): (3, 2),
    (1, 2): (2, 1), (2, 6): (2, 1),
    (2, 3): (2, 1), (2, 5): (2, 1),
    (1, 2, 5): (1, 0), (2, 3, 6): (1, 0),
    (1, 2, 6): (3, 2),
    (2, 3, 5): (3, 2),
    (1, 2, 3): (2, 1), (2, 5, 6): (2, 1),
    (1, 2, 3, 5): (1, 0), (2, 3, 5, 6): (1, 0),
    (1, 2, 3, 6): (1, 0), (1, 2, 5, 6): (1, 0),
    (1, 2, 3, 5, 6): (3, 2),
    (1, 2, 3, 4, 6): (1, 0), (1, 2, 4, 5, 6): (1, 0),
}

FAILING_CONNECTED = {
    ("G", 2): {(1,): (1, None)},
    ("F", 4): {(1,): (1, 0)},
    ("E", 7): {
        (1,): (1, 0), (4,): (1, 0), (6,): (1, 0),
        (1, 3, 4): (2, 1), (4, 5, 6): (2, 1), (1, 3, 4, 5, 6): (3, 2),
    },
    ("E", 8): {
        (1,): (1, 0), (4,): (1, 0), (6,): (1, 0), (8,): (1, 0),
        (1, 3, 4): (2, 1), (4, 5, 6): (2, 1), (6, 7, 8): (2, 1),
        (1, 3, 4, 5, 6): (3, 2), (4, 5, 6, 7, 8): (3, 2),
        (1, 3, 4, 5, 6, 7, 8): (4, 3),
    },
}


def all_subsets(rank):
    items = list(range(1, rank + 1))
    for n in range(rank + 1):
        for combo in itertools.combinations(items, n):
            yield frozenset(combo)


def test_flagspec_validation():
    with pytest.raises(ValueError):
        FlagSpec(10, ())
    with pytest.raises(ValueError):
        FlagSpec(10, (2, 2))
    with pytest.raises(ValueError):
        FlagSpec(10, (3, 6))
    # the smallest subspace is a nonzero one, and every number is an int
    for n, dims in [(7, (0, 2)), (7, (-1, 2)), (7, (1.5,)), (7, (True,)), (7.0, (1,)), (True, (1,))]:
        with pytest.raises(ValueError):
            FlagSpec(n, dims)
    FlagSpec(12, (1, 3, 6))


def test_enumerations_refuse_ranks_above_the_cap():
    # each builds all 2^rank subsets up front: A11 is the least rank refused
    t = SimpleType("A", 11)
    for f in (enumerate_verdicts, non_qr_subsets, enumerate_index_zero):
        with pytest.raises(ValueError, match="2\\^11 subsets"):
            f(t)


def test_dkt_flag_test_basics():
    assert not dkt_flag_test(FlagSpec(12, (1, 3)))
    assert dkt_flag_test(FlagSpec(12, (2, 4)))
    # last dim odd and equal to N/2 is dropped before scanning
    assert dkt_flag_test(FlagSpec(14, (5, 7)))
    assert not dkt_flag_test(FlagSpec(14, (3, 5)))
    assert dkt_flag_test(FlagSpec(9, (1,)))


def test_pi_to_flag_rules():
    assert pi_to_flag(SimpleType("B", 3), {1, 2}).dims == (3,)
    assert pi_to_flag(SimpleType("D", 6), {2}).dims == (1, 3, 4, 5, 6)
    assert pi_to_flag(SimpleType("D", 6), frozenset(range(1, 6))).dims == (6,)
    assert pi_to_flag(SimpleType("D", 6), {1, 2, 3, 4, 6}).dims == (6,)
    assert pi_to_flag(SimpleType("D", 6), {1, 2, 3, 4}).dims == (5, 6)
    with pytest.raises(ValueError):
        pi_to_flag(SimpleType("D", 6), frozenset(range(1, 7)))
    with pytest.raises(ValueError):
        pi_to_flag(SimpleType("A", 3), {1})


def test_d6_non_qr_list_exact():
    got = [set(v.subset) for v in non_qr_subsets(SimpleType("D", 6))]
    assert len(got) == 12
    for s in D6_NON_QR:
        assert s in got


def test_e6_index_zero_exact():
    got = [set(s) for s in enumerate_index_zero(SimpleType("E", 6))]
    assert len(got) == 14
    for s in E6_INDEX_ZERO:
        assert s in got


def test_enumerate_index_zero_a1():
    assert enumerate_index_zero(SimpleType("A", 1)) == [frozenset()]


def test_index_of_empty_subset_is_corank():
    for family, rank, k in [("A", 4, 2), ("E", 6, 4), ("B", 5, 5)]:
        assert seaweed_index(parabolic(SimpleType(family, rank), frozenset())) == rank - k


def test_e6_non_qr_table_exact():
    verdicts = {v.subset: v for v in non_qr_subsets(SimpleType("E", 6))}
    assert set(verdicts) == set(E6_NON_QR)
    for sub, (idx, torus) in E6_NON_QR.items():
        v = verdicts[sub]
        assert v.index == idx, sub
        assert v.torus_dim == torus, sub


def test_failing_connected_tables_exact():
    for (family, rank), table in FAILING_CONNECTED.items():
        st = SimpleType(family, rank)
        rs = system(family, rank)
        got = {}
        for v in non_qr_subsets(st):
            if rs.is_connected(v.subset):
                got[v.subset] = (v.index, v.torus_dim)
        assert got == table, (family, rank)


def test_classify_spec_examples():
    assert not classify_parabolic(SimpleType("G", 2), {1}).quasi_reductive
    assert classify_parabolic(SimpleType("G", 2), {2}).quasi_reductive
    v = classify_parabolic(SimpleType("E", 8), {1, 3, 4, 5, 6, 7, 8})
    assert not v.quasi_reductive and v.index == 4
    assert not classify_parabolic(SimpleType("E", 6), {1, 2, 3, 4, 6}).quasi_reductive
    assert classify_parabolic(SimpleType("E", 6), {1, 2, 4, 6}).quasi_reductive
    assert not classify_parabolic(SimpleType("D", 6), {2, 3, 4}).quasi_reductive
    assert classify_parabolic(SimpleType("A", 5), {2, 4}).quasi_reductive
    assert classify_parabolic(SimpleType("C", 4), {1, 2}).quasi_reductive


def test_full_subset_is_quasi_reductive_everywhere():
    for family, rank in [("A", 2), ("B", 3), ("D", 4), ("G", 2), ("E", 6)]:
        v = classify_parabolic(SimpleType(family, rank), range(1, rank + 1))
        assert v.quasi_reductive and v.index == rank


def test_verdict_trace_and_json():
    v = classify_parabolic(SimpleType("E", 7), {1, 5, 7})
    assert v.trace
    d = json.loads(v.to_json())
    assert d["family"] == "E" and d["rank"] == 7 and d["subset"] == [1, 5, 7]
    assert d["qr"] == v.quasi_reductive and d["index"] == v.index
    v2 = classify_parabolic(SimpleType("E", 6), {2})
    assert json.loads(v2.to_json())["torus_dim"] == 2


def test_single_root_matches_failing_table():
    expectations = {
        ("G", 2): {1},
        ("F", 4): {1},
        ("E", 6): {2},
        ("E", 7): {1, 4, 6},
        ("E", 8): {1, 4, 6, 8},
    }
    for (family, rank), failing in expectations.items():
        st = SimpleType(family, rank)
        for i in range(1, rank + 1):
            assert single_root_test(st, i) == (i not in failing), (family, i)
    for l in (3, 4, 7, 10):
        st = SimpleType("B", l)
        for i in range(1, l + 1):
            assert single_root_test(st, i) == (not (i % 2 == 0 and i <= l - 1))
    for l in (4, 5, 8, 9):
        st = SimpleType("D", l)
        for i in range(1, l + 1):
            assert single_root_test(st, i) == (not (i % 2 == 0 and i <= l - 2))
    for l in (1, 2, 5):
        st = SimpleType("A", l)
        assert all(single_root_test(st, i) for i in range(1, l + 1))
    for l in (3, 6):
        st = SimpleType("C", l)
        assert all(single_root_test(st, i) for i in range(1, l + 1))


def test_single_root_agrees_with_classify_on_b_and_d():
    for family, ranks in (("B", (2, 3, 5, 6)), ("D", (4, 5, 6, 7))):
        for l in ranks:
            st = SimpleType(family, l)
            for i in range(1, l + 1):
                v = classify_parabolic(st, {i})
                assert v.quasi_reductive == single_root_test(st, i), (family, l, i)


def test_single_root_agrees_with_classify_everywhere():
    for family, rank in [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]:
        st = SimpleType(family, rank)
        for i in range(1, rank + 1):
            assert classify_parabolic(st, {i}).quasi_reductive == single_root_test(st, i)


def _orthogonal_disjoint_pairs(rs, subsets):
    for p1 in subsets:
        for p2 in subsets:
            if not p1 or not p2 or (p1 & p2):
                continue
            if any(rs.cartan[a - 1][b - 1] for a in p1 for b in p2):
                continue
            yield p1, p2


def test_additivity_exhaustive_g2_f4_e7():
    for family, rank in [("G", 2), ("F", 4), ("E", 7)]:
        st = SimpleType(family, rank)
        rs = system(family, rank)
        subsets = list(all_subsets(rank))
        for p1, p2 in _orthogonal_disjoint_pairs(rs, subsets):
            lhs = classify_parabolic(st, p1 | p2).quasi_reductive
            rhs = (
                classify_parabolic(st, p1).quasi_reductive
                and classify_parabolic(st, p2).quasi_reductive
            )
            assert lhs == rhs, (family, p1, p2)


def test_additivity_failures_in_e6_are_exactly_two():
    st = SimpleType("E", 6)
    rs = system("E", 6)
    bad_unions = set()
    for p1, p2 in _orthogonal_disjoint_pairs(rs, list(all_subsets(6))):
        lhs = classify_parabolic(st, p1 | p2).quasi_reductive
        rhs = (
            classify_parabolic(st, p1).quasi_reductive
            and classify_parabolic(st, p2).quasi_reductive
        )
        if lhs != rhs:
            assert rhs and not lhs  # conjunction true but union fails
            bad_unions.add(p1 | p2)
    assert bad_unions == {
        frozenset({1, 2, 3, 4, 6}),
        frozenset({1, 2, 4, 5, 6}),
    }


def test_star_condition_with_qr_union_forces_qr_parts_e6():
    from quasired.cascade import condition_star

    st = SimpleType("E", 6)
    rs = system("E", 6)
    for p1, p2 in _orthogonal_disjoint_pairs(rs, list(all_subsets(6))):
        if not condition_star(rs, p1, p2):
            continue
        if classify_parabolic(st, p1 | p2).quasi_reductive:
            assert classify_parabolic(st, p1).quasi_reductive
            assert classify_parabolic(st, p2).quasi_reductive


def test_identify_subsystem_shapes():
    rs8 = system("E", 8)
    t, m = identify_subsystem(rs8, {1, 3, 4, 5, 6, 7, 8})
    assert t == SimpleType("A", 7)
    t, m = identify_subsystem(rs8, {2, 3, 4, 5})
    assert t == SimpleType("D", 4)
    t, m = identify_subsystem(rs8, range(1, 8))
    assert t == SimpleType("E", 7) and m == (1, 2, 3, 4, 5, 6, 7)
    rsf = system("F", 4)
    t, m = identify_subsystem(rsf, {2, 3, 4})
    assert t == SimpleType("C", 3) and m == (4, 3, 2)
    t, m = identify_subsystem(rsf, {1, 2, 3})
    assert t == SimpleType("B", 3) and m == (1, 2, 3)
    t, m = identify_subsystem(rsf, {2, 3})
    assert t == SimpleType("B", 2) and m == (2, 3)
    rsg = system("G", 2)
    t, m = identify_subsystem(rsg, {1, 2})
    assert t == SimpleType("G", 2) and m == (1, 2)
    rsb = system("B", 5)
    t, m = identify_subsystem(rsb, {2, 3, 4, 5})
    assert t == SimpleType("B", 4) and m == (2, 3, 4, 5)
    t, m = identify_subsystem(rsb, {1, 2, 3})
    assert t == SimpleType("A", 3)


# every type up to rank 8, and the range `quasired tables` covers
TYPES_TO_RANK_8 = (
    [("A", l) for l in range(1, 9)]
    + [("B", l) for l in range(2, 9)]
    + [("C", l) for l in range(3, 9)]
    + [("D", l) for l in range(4, 9)]
    + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
)
TABLE_TYPES = TYPES_TO_RANK_8 + [(f, l) for f in "ABCD" for l in (9, 10)]


def _transports_cartan(rs, t, mapping):
    C_new, _ = _cartan_and_symmetrizer(t)
    return all(
        C_new[i][j] == rs.cartan[oi - 1][oj - 1]
        for i, oi in enumerate(mapping)
        for j, oj in enumerate(mapping)
    )


def test_identify_subsystem_cartan_consistency():
    # the mapping must transport the Cartan matrix of the named type, on
    # every connected subset of every type up to rank 8; up to size 5 it must
    # also be the least such mapping (ties come from diagram automorphisms)
    seen = 0
    for family, rank in TYPES_TO_RANK_8:
        rs = system(family, rank)
        for sub in all_subsets(rank):
            if not sub or not rs.is_connected(sub):
                continue
            seen += 1
            t, mapping = identify_subsystem(rs, sub)
            assert sorted(mapping) == sorted(sub), (family, rank, sub)
            assert _transports_cartan(rs, t, mapping), (family, rank, sub, t)
            if len(sub) <= 5:
                least = min(
                    m for m in itertools.permutations(sorted(sub))
                    if _transports_cartan(rs, t, m)
                )
                assert mapping == least, (family, rank, sub)
    assert seen == 596


@pytest.mark.parametrize(
    "family,rank", TABLE_TYPES + [(f, MAX_CLASSICAL_RANK) for f in "ABCD"]
)
def test_identify_subsystem_labels_a_full_system_by_itself(family, rank):
    rs = system(family, rank)
    assert identify_subsystem(rs, rs.full_subset()) == (rs.type, tuple(range(1, rank + 1)))


def test_transitivity_descend_examples():
    step = transitivity_descend(SimpleType("F", 4), {2, 3})
    assert step.subtype == SimpleType("C", 3)
    assert classify_parabolic(step.subtype, step.subset).quasi_reductive

    step = transitivity_descend(SimpleType("E", 6), {1, 3, 4})
    assert step.subtype == SimpleType("A", 5)

    step = transitivity_descend(SimpleType("E", 8), {4, 5, 6})
    assert step.subtype == SimpleType("E", 7)
    assert sorted(step.subset) == [4, 5, 6]
    assert not classify_parabolic(step.subtype, step.subset).quasi_reductive

    with pytest.raises(ValueError):
        transitivity_descend(SimpleType("E", 6), {2, 4})
    with pytest.raises(ValueError):
        transitivity_descend(SimpleType("B", 4), {1})


@pytest.mark.parametrize("family,rank", [("F", 4), ("E", 6), ("E", 7)])
def test_descent_preserves_verdict_exhaustively(family, rank):
    st = SimpleType(family, rank)
    rs = system(family, rank)
    from quasired.cascade import tilde_pi

    tail, attach = tilde_pi(rs, rs.full_subset())
    for sub in all_subsets(rank):
        if attach in sub:
            continue
        step = transitivity_descend(st, sub)
        inner = classify_parabolic(step.subtype, step.subset)
        outer = classify_parabolic(st, sub)
        assert inner.quasi_reductive == outer.quasi_reductive, (family, sub)


def test_descent_preserves_verdict_sampled_e8():
    st = SimpleType("E", 8)
    rng = random.Random(64)
    for _ in range(60):
        sub = frozenset(i for i in range(1, 8) if rng.random() < 0.5)
        step = transitivity_descend(st, sub)
        assert (
            classify_parabolic(step.subtype, step.subset).quasi_reductive
            == classify_parabolic(st, sub).quasi_reductive
        )


def test_enumerate_verdicts_order_and_reproducibility():
    vs = enumerate_verdicts(SimpleType("G", 2))
    assert [v.subset for v in vs] == [(), (1,), (2,), (1, 2)]
    assert [v.quasi_reductive for v in vs] == [True, False, True, True]
    assert vs == enumerate_verdicts(SimpleType("G", 2))

import pytest

from conftest import system, x_row
from quasired.cascade import (
    _cascade,
    condition_star,
    half_difference_roots,
    k_minus_set,
    k_plus,
    kostant_cascade,
    tilde_delta_plus,
    tilde_pi,
    well_interlaced,
)
from quasired.classify import identify_subsystem, pi_to_flag, transitivity_descend
from quasired.rootsys import SimpleType, bracket
from quasired.seaweed import parabolic, rank2_data


def expected_k(family, l):
    if family == "A":
        return (l + 1) // 2
    if family in ("B", "C"):
        return l
    if family == "D":
        return 2 * (l // 2)
    if family == "G":
        return 2
    if family == "F":
        return 4
    return {6: 4, 7: 7, 8: 8}[l]


def test_cascade_sizes_known_values():
    assert len(kostant_cascade(system("E", 7), range(1, 8))) == 7
    assert len(kostant_cascade(system("D", 6), range(1, 7))) == 6
    assert len(kostant_cascade(system("A", 5), range(1, 6))) == 3


def test_empty_cascade():
    c = kostant_cascade(system("A", 1), frozenset())
    assert len(c) == 0 and c.eps_set == ()


def test_disconnected_union():
    rs = system("A", 5)
    c = kostant_cascade(rs, {1, 3, 5})
    assert len(c) == 3
    assert {n.eps for n in c.nodes} == {rs.simple_root(1), rs.simple_root(3), rs.simple_root(5)}


@pytest.mark.parametrize(
    "family,rank",
    [("A", 6), ("B", 5), ("C", 5), ("D", 6), ("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)],
)
def test_strong_orthogonality_and_partition(family, rank):
    rs = system(family, rank)
    c = kostant_cascade(rs, rs.full_subset())
    assert len(c) == expected_k(family, rank)
    eps = c.eps_set
    for i in range(len(eps)):
        for j in range(i + 1, len(eps)):
            assert rs.root_sum(eps[i], eps[j]) is None
            assert not rs.is_root(tuple(a - b for a, b in zip(eps[i], eps[j])))
    seen = [a for n in c.nodes for a in c.gamma(n)]
    assert len(seen) == len(set(seen)) == rs.n_pos


def test_gamma_heisenberg_structure():
    rs = system("F", 4)
    c = kostant_cascade(rs, rs.full_subset())
    for node in c.nodes:
        gamma0 = c.gamma(node) - {node.eps}
        for a in gamma0:
            # there is a partner closing to eps, and no sum escapes the gamma set
            partner = tuple(x - y for x, y in zip(node.eps, a))
            assert partner in gamma0
            for b in gamma0:
                s = rs.root_sum(a, b)
                assert s is None or s == node.eps
            z = bracket(rs, x_row(rs, a), x_row(rs, partner))
            assert [k for k, _ in z] == [rs.idx_x(node.eps)]


def test_k_plus_of_eps_is_own_node():
    rs = system("F", 4)
    c = kostant_cascade(rs, rs.full_subset())
    for n in c.nodes:
        assert k_plus(c, n.eps) is n


def test_k_plus_e6_outer_pair():
    rs = system("E", 6)
    c = kostant_cascade(rs, rs.full_subset())
    n1 = k_plus(c, rs.simple_root(1))
    n6 = k_plus(c, rs.simple_root(6))
    assert n1 is n6 and n1.support == frozenset({1, 3, 4, 5, 6})


def test_k_plus_partition_exhaustive_f4():
    rs = system("F", 4)
    c = kostant_cascade(rs, rs.full_subset())
    for a in rs.positive_roots:
        k_plus(c, a)  # asserts uniqueness internally


def test_k_plus_rejects_foreign_roots():
    rs = system("E", 6)
    c = kostant_cascade(rs, {1, 3})
    with pytest.raises(ValueError):
        k_plus(c, rs.simple_root(5))


def test_k_minus_of_eps_empty():
    rs = system("E", 7)
    c = kostant_cascade(rs, rs.full_subset())
    for n in c.nodes:
        assert k_minus_set(c, n.eps) == ()


def test_k_minus_multiple_nodes_e7():
    rs = system("E", 7)
    c = kostant_cascade(rs, rs.full_subset())
    a = tuple(1 if i in (3, 4, 5) else 0 for i in range(7))  # alpha_4+alpha_5+alpha_6
    assert len(k_minus_set(c, a)) >= 3


def test_k_minus_unique_on_half_difference_roots():
    # uniqueness holds in G2, F4, C and even-rank B
    for family, rank in [("G", 2), ("F", 4), ("C", 4), ("C", 5), ("B", 4), ("B", 6)]:
        rs = system(family, rank)
        c = kostant_cascade(rs, rs.full_subset())
        for half, up, lo in half_difference_roots(c):
            km = k_minus_set(c, half)
            assert len(km) == 1 and km[0] is lo
    # in B of odd rank the short simple root joins the set as a second node
    rs = system("B", 3)
    c = kostant_cascade(rs, rs.full_subset())
    ((half, up, lo),) = half_difference_roots(c)
    km = k_minus_set(c, half)
    assert len(km) == 2 and lo in km
    assert tuple(u - 2 * h for u, h in zip(up.eps, half)) == lo.eps


def test_tilde_delta_empty_for_simply_laced():
    for family, rank in [("A", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8)]:
        assert tilde_delta_plus(system(family, rank)) == ()


def test_tilde_delta_counts_and_identity():
    assert len(tilde_delta_plus(system("G", 2))) == 1
    assert len(tilde_delta_plus(system("F", 4))) == 6
    for l in range(2, 9):
        assert len(tilde_delta_plus(system("B", l))) == l // 2
    for l in range(3, 9):
        assert len(tilde_delta_plus(system("C", l))) == l * (l - 1) // 2
    for family, rank in [("G", 2), ("F", 4), ("B", 5), ("C", 6)]:
        for half, up, lo in tilde_delta_plus(system(family, rank)):
            assert tuple(2 * h + l for h, l in zip(half, lo.eps)) == up.eps


def test_g2_half_difference_root():
    ((half, up, lo),) = tilde_delta_plus(system("G", 2))
    assert half == (1, 1)


def test_well_interlaced_empty_side():
    rs = system("E", 6)
    ok, counts = well_interlaced(rs, frozenset(), rs.full_subset())
    assert ok and counts.dim_intersection == 0


def test_well_interlaced_e6_examples():
    rs = system("E", 6)
    ok, _ = well_interlaced(rs, {2, 3, 4}, rs.full_subset())
    assert ok
    ok, _ = well_interlaced(rs, {2, 3, 4, 6}, rs.full_subset())
    assert ok
    ok, _ = well_interlaced(rs, {1, 2, 3, 4}, rs.full_subset())
    assert ok
    ok, counts = well_interlaced(rs, {2, 4}, rs.full_subset())
    assert not ok and counts.dim_intersection == 1 and counts.combinatorial_total == 0


def test_well_interlaced_f4_mixed_counts():
    rs = system("F", 4)
    ok, counts = well_interlaced(rs, {3, 4}, rs.full_subset())
    assert ok and counts.half_in_second == 1 and counts.shared_nodes == 0


def test_tilde_pi_shapes():
    assert tilde_pi(system("F", 4), range(1, 5)) == (frozenset({2, 3, 4}), 1)
    assert tilde_pi(system("E", 6), range(1, 7)) == (frozenset({1, 3, 4, 5, 6}), 2)
    assert tilde_pi(system("E", 7), range(1, 8)) == (frozenset({2, 3, 4, 5, 6, 7}), 1)
    assert tilde_pi(system("E", 8), range(1, 9)) == (frozenset({1, 2, 3, 4, 5, 6, 7}), 8)
    assert tilde_pi(system("G", 2), {1, 2}) == (frozenset({2}), 1)
    # classical full systems report no attachment root
    assert tilde_pi(system("B", 4), range(1, 5))[1] is None
    # singleton: empty tail
    assert tilde_pi(system("E", 6), {3}) == (frozenset(), None)
    with pytest.raises(ValueError):
        tilde_pi(system("E", 6), {1, 6})
    with pytest.raises(ValueError):
        tilde_pi(system("E", 6), frozenset())


def test_tilde_pi_tail_supports_cascade():
    # the tail is exactly the union of the node supports below the top node
    for family, rank in [("F", 4), ("E", 7), ("B", 5), ("D", 6)]:
        rs = system(family, rank)
        c = kostant_cascade(rs, rs.full_subset())
        tail, _ = tilde_pi(rs, rs.full_subset())
        union = frozenset().union(*(n.support for n in c.nodes[1:])) if len(c) > 1 else frozenset()
        assert tail == union


def test_condition_star():
    rs7 = system("E", 7)
    assert condition_star(rs7, {1, 3}, {5, 6, 7}) is True
    assert condition_star(rs7, {2}, {5}) is True
    rs6 = system("E", 6)
    assert condition_star(rs6, {1, 2, 3, 4}, {6}) is False
    assert condition_star(rs6, {2, 4, 5, 6}, {1}) is False
    assert condition_star(rs6, {2, 3, 4}, {6}) is True
    assert condition_star(rs6, {2, 4, 5}, {1}) is True
    with pytest.raises(ValueError):
        condition_star(rs6, {1, 3}, {4})  # connected to each other


@pytest.mark.parametrize(
    "call",
    [
        # an unchecked index 0 would read Cartan row -1, and G2 {0, 1} as connected
        pytest.param(lambda: system("G", 2).is_connected({0, 1}), id="is_connected-0"),
        pytest.param(lambda: system("G", 2).components({1, 99}), id="components-99"),
        pytest.param(lambda: system("E", 6).components({-1}), id="components-negative"),
        pytest.param(lambda: tilde_pi(system("G", 2), {1, 99}), id="tilde_pi"),
        pytest.param(lambda: rank2_data(system("E", 6), {2, 99}), id="rank2_data"),
        pytest.param(lambda: identify_subsystem(system("G", 2), {99}), id="identify_subsystem"),
        pytest.param(lambda: condition_star(system("G", 2), {99}, {1}), id="condition_star-pi1"),
        pytest.param(lambda: condition_star(system("E", 6), {1}, {0}), id="condition_star-pi2"),
        pytest.param(lambda: kostant_cascade(system("B", 3), {4}), id="kostant_cascade"),
        pytest.param(lambda: system("E", 6).subsystem_positive({1, 99}), id="subsystem_positive"),
        # without the range check the flag of B4 {0, 9} is the Borel's
        pytest.param(lambda: pi_to_flag(SimpleType("B", 4), {0, 9}), id="pi_to_flag"),
        # 9 is no simple root of E6, let alone the attachment root
        pytest.param(lambda: transitivity_descend(SimpleType("E", 6), {9}), id="transitivity_descend"),
        # elements equal to an index but not ints, each after the int subset
        # it equals is cached: the check runs before any cache lookup
        pytest.param(lambda: [kostant_cascade(system("E", 6), s) for s in ({2}, {2.0})], id="float"),
        pytest.param(
            lambda: [system("E", 6).subsystem_positive(s) for s in ({1}, {True})],
            id="bool-subsystem_positive",
        ),
        pytest.param(
            lambda: [well_interlaced(system("E", 6), s, {1, 3}) for s in ({2}, {2.0})],
            id="float-well_interlaced",
        ),
        pytest.param(lambda: parabolic(SimpleType("E", 6), {True, 3}), id="bool"),
        # mixed types, which the message must not sort against each other
        pytest.param(lambda: SimpleType("E", 6).checked_subset({"a", 1}), id="str"),
    ],
)
def test_simple_root_indices_outside_the_rank_are_rejected(call):
    with pytest.raises(ValueError, match=r"not within 1\.\."):
        call()


def test_rejected_subsystem_leaves_no_cache_entry():
    # the int subsets are cached first, so a bad subset equal to one of them
    # must be rejected before the lookup, not served from the cache
    rs = system("E", 6)
    rs.subsystem_positive({1})
    kostant_cascade(rs, {2})
    cached = type(rs)._subsystem_positive.cache_info().currsize
    for bad, shown in (({1, 99}, r"\[1, 99\]"), ({True}, r"\[True\]")):
        with pytest.raises(ValueError, match=rf"subset {shown} not within 1\.\.6"):
            rs.subsystem_positive(bad)
    assert type(rs)._subsystem_positive.cache_info().currsize == cached
    cascades = _cascade.cache_info().currsize
    with pytest.raises(ValueError, match=r"subset \[2\.0\] not within 1\.\.6"):
        kostant_cascade(rs, {2.0})
    assert _cascade.cache_info().currsize == cascades


def test_cascade_cache_returns_same_object():
    rs = system("E", 6)
    assert kostant_cascade(rs, {1, 3}) is kostant_cascade(rs, frozenset({3, 1}))


def test_cascades_of_different_systems_differ():
    # the same source and nodes over another system is another cascade, so
    # tables keyed by a cascade are not shared across systems
    a3 = kostant_cascade(system("A", 3), {1})
    b3 = kostant_cascade(system("B", 3), {1})
    assert a3.source == b3.source and a3.nodes == b3.nodes
    assert a3 != b3
    c3 = kostant_cascade(system("C", 3), {2, 3})
    b3 = kostant_cascade(system("B", 3), {2, 3})
    assert half_difference_roots(c3) != half_difference_roots(b3)
    assert [h for h, _, _ in half_difference_roots(c3)] == [(0, 1, 0)]
    assert [h for h, _, _ in half_difference_roots(b3)] == [(0, 0, 1)]

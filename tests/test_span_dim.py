"""dim E from the cascades' blocks (``cascade.blocks`` and ``meet_dim``)
against the plain exact rank it replaces, on every subset of the 39 types
``quasired tables`` covers."""

import itertools
from dataclasses import fields

import pytest

from conftest import system
from quasired import linalg
from quasired.cascade import Cascade, _cascade, blocks, meet_dim, tilde_delta_plus, well_interlaced
from quasired.classify import _subsets_sorted as subsets, identify_subsystem, single_root_test
from quasired.cli import _ALL_TYPES
from quasired.rootsys import SimpleType, _one_to
from quasired.seaweed import BiparabolicSpec, seaweed_index

# the types whose full cascade has one node per simple root, so spans h*
FULL_RANK_TYPES = [
    (f, l) for f, l in _ALL_TYPES if len(_cascade(system(f, l), _one_to(l))) == l
]
OTHER_TYPES = [t for t in _ALL_TYPES if t not in FULL_RANK_TYPES]

RANK = linalg.rank  # the oracle, kept from before ``no_elimination`` replaces it


def plain_rank(*groups):
    return RANK([list(a) for g in groups for a in g])


@pytest.fixture
def no_elimination(monkeypatch):
    def refuse(rows):
        raise AssertionError("linalg.rank ran on the way to dim E")

    monkeypatch.setattr(linalg, "rank", refuse)


def test_full_rank_types_are_a1_b_c_d_even_g2_f4_e7_e8():
    assert FULL_RANK_TYPES == [
        (f, l) for f, l in _ALL_TYPES
        if f in "BCGF" or (f == "D" and l % 2 == 0) or (f, l) in (("A", 1), ("E", 7), ("E", 8))
    ]


@pytest.mark.parametrize("family,rank", _ALL_TYPES)
def test_every_cascade_has_independent_eps(family, rank):
    """Strongly orthogonal roots are independent, so the eps rows of each
    cascade have rank its size, and dim E = k1 + k2 - dim(E1 & E2)."""
    r = system(family, rank)
    for sub in subsets(rank):
        c = _cascade(r, sub)
        assert plain_rank(c.eps_set) == len(c), sorted(sub)


@pytest.mark.parametrize("family,rank", _ALL_TYPES)
def test_blocks_partition_each_source_into_orbits(family, rank):
    """On every cascade: the blocks partition the source, one per node; each
    holds one root, or the two ends of a type-A support; every eps is
    constant on every block, as the span E of ``blocks`` requires; and
    ``pairs`` holds the two-root blocks in node order."""
    r = system(family, rank)
    ends = {}
    for sub in subsets(rank):
        c = _cascade(r, sub)
        bs = blocks(c)
        assert c.pairs == tuple(b for b in bs if len(b) == 2), sorted(sub)
        assert len(bs) == len(c)
        assert sorted(i for b in bs for i in b) == sorted(sub)
        for n, b in zip(c.nodes, bs):
            assert b and set(b) <= n.support
            assert len(b) == 1 or len(b) == 2, (sorted(sub), b)
            if len(b) == 2:
                if n.support not in ends:
                    t, labels = identify_subsystem(r, n.support)
                    assert t.family == "A", (sorted(n.support), t)
                    ends[n.support] = {labels[0], labels[-1]}
                assert set(b) == ends[n.support]
        for e, b in itertools.product(c.eps_set, bs):
            assert len({e[i - 1] for i in b}) == 1, (sorted(sub), e, b)


def test_pairs_stay_out_of_equality_and_hashing():
    """A cascade rebuilt from its source, nodes and system equals the
    memoized one and hashes alike, so ``pairs`` never enters a cache key."""
    assert [f.name for f in fields(Cascade) if f.compare] == ["source", "nodes", "system"]
    for f, l in (("A", 3), ("D", 5), ("E", 6)):
        r = system(f, l)
        for sub in subsets(l):
            c = _cascade(r, sub)
            twin = Cascade(c.source, c.nodes, c.system)
            assert twin == c and hash(twin) == hash(c) and twin.pairs == c.pairs


@pytest.mark.parametrize("family,rank", _ALL_TYPES)
def test_seaweed_index_agrees_with_the_plain_rank(family, rank, no_elimination):
    """Every pair (pi1, pi2) up to rank 6, every parabolic above it."""
    r = system(family, rank)
    st = SimpleType(family, rank)
    subs = subsets(rank)
    pairs = itertools.product(subs, subs) if rank <= 6 else ((s, _one_to(rank)) for s in subs)
    for p1, p2 in pairs:
        e1, e2 = _cascade(r, p1).eps_set, _cascade(r, p2).eps_set
        dim_e = plain_rank(e1, e2)
        want = (rank - dim_e) + (len(e1) + len(e2) - dim_e)
        assert seaweed_index(BiparabolicSpec(st, p1, p2)) == want, (sorted(p1), sorted(p2))


@pytest.mark.parametrize("family,rank", _ALL_TYPES)
def test_single_root_test_agrees_with_the_plain_rank(family, rank, no_elimination):
    r = system(family, rank)
    eps = _cascade(r, _one_to(rank)).eps_set
    halves = {h for h, _, _ in tilde_delta_plus(r)}
    for i in range(1, rank + 1):
        a = r.simple_root(i)
        want = a in eps or a in halves or plain_rank(eps, (a,)) == len(eps) + 1
        assert single_root_test(SimpleType(family, rank), i) == want, i


def _run_dim_e_queries(family, rank):
    """Every parabolic in both orientations through ``seaweed_index`` and
    ``well_interlaced``, and every simple root through ``single_root_test``."""
    r = system(family, rank)
    st = SimpleType(family, rank)
    full = _one_to(rank)
    for sub in subsets(rank):
        for p1, p2 in ((sub, full), (full, sub)):
            seaweed_index(BiparabolicSpec(st, p1, p2))
            well_interlaced(r, p1, p2)
    for i in range(1, rank + 1):
        single_root_test(st, i)


@pytest.mark.parametrize("family,rank", FULL_RANK_TYPES)
def test_no_parabolic_of_a_full_rank_type_eliminates(family, rank, no_elimination):
    _run_dim_e_queries(family, rank)


@pytest.mark.parametrize("family,rank", OTHER_TYPES)
def test_no_parabolic_of_another_type_eliminates(family, rank, no_elimination):
    """The types whose full cascade leaves h* unspanned, where the bounds
    max(k_i) <= dim E <= min(l, k1 + k2) do not meet."""
    _run_dim_e_queries(family, rank)


def _sorted_blocks(c):
    return [sorted(b) for b in blocks(c)]


def test_block_rule_hand_cases():
    a3, d5, e6 = system("A", 3), system("D", 5), system("E", 6)
    # A3 {1,3}/{2}: three one-root blocks and no shared root, so m = 0 and
    # the seaweed is Frobenius
    c1, c2 = _cascade(a3, frozenset({1, 3})), _cascade(a3, frozenset({2}))
    assert _sorted_blocks(c1) == [[1], [3]] and _sorted_blocks(c2) == [[2]]
    assert meet_dim(c1, c2) == 0
    assert seaweed_index(BiparabolicSpec(SimpleType("A", 3), {1, 3}, {2})) == 0
    # D5: the highest root meets alpha_2 alone; below it {1} and the A3 {3,4,5}
    # whose ends are 4 and 5
    full = _cascade(d5, _one_to(5))
    assert [sorted(n.support) for n in full.nodes] == [[1, 2, 3, 4, 5], [1], [3, 4, 5], [3]]
    assert _sorted_blocks(full) == [[2], [1], [4, 5], [3]]
    assert meet_dim(full, full) == 4
    # E6: the blocks are the orbits of the diagram involution 1<->6, 3<->5
    full = _cascade(e6, _one_to(6))
    assert _sorted_blocks(full) == [[2], [1, 6], [3, 5], [4]]
    assert meet_dim(full, full) == 4
    # A3 full/{1,2}: the part {1,2} of pi1 & pi2 is joined to 3 by the
    # block {1,3} of the full cascade, so it counts for nothing
    c1, c2 = _cascade(a3, _one_to(3)), _cascade(a3, frozenset({1, 2}))
    assert _sorted_blocks(c1) == [[1, 3], [2]] and _sorted_blocks(c2) == [[1, 2]]
    assert meet_dim(c1, c2) == 0 == plain_rank(c1.eps_set) + 1 - plain_rank(c1.eps_set, c2.eps_set)
    assert seaweed_index(BiparabolicSpec(SimpleType("A", 3), _one_to(3), {1, 2})) == 0
    # the empty cascade meets nothing
    assert meet_dim(_cascade(a3, frozenset()), c1) == 0

"""``cascade.span_dim`` against the plain exact rank it replaces where its
bounds meet, on every subset of the 39 types ``quasired tables`` covers."""

import itertools

import pytest

from conftest import system
from quasired import linalg
from quasired.cascade import _cascade, span_dim, tilde_delta_plus
from quasired.classify import _subsets_sorted as subsets, single_root_test
from quasired.cli import _ALL_TYPES
from quasired.rootsys import SimpleType, _one_to
from quasired.seaweed import BiparabolicSpec, seaweed_index

# the types whose full cascade has one node per simple root, so spans h*
FULL_RANK_TYPES = [
    (f, l) for f, l in _ALL_TYPES if len(_cascade(system(f, l), _one_to(l))) == l
]


def plain_rank(*groups):
    return linalg.rank([list(a) for g in groups for a in g])


@pytest.fixture
def no_elimination(monkeypatch):
    def refuse(rows):
        raise AssertionError("linalg.rank ran where the bounds meet")

    monkeypatch.setattr(linalg, "rank", refuse)


def test_full_rank_types_are_a1_b_c_d_even_g2_f4_e7_e8():
    assert FULL_RANK_TYPES == [
        (f, l) for f, l in _ALL_TYPES
        if f in "BCGF" or (f == "D" and l % 2 == 0) or (f, l) in (("A", 1), ("E", 7), ("E", 8))
    ]


@pytest.mark.parametrize("family,rank", _ALL_TYPES)
def test_every_cascade_has_independent_eps(family, rank):
    """The fact the lower bound rests on: strongly orthogonal roots are
    independent, so the eps rows of each cascade have rank its size."""
    r = system(family, rank)
    for sub in subsets(rank):
        c = _cascade(r, sub)
        assert plain_rank(c.eps_set) == len(c), sorted(sub)


@pytest.mark.parametrize("family,rank", _ALL_TYPES)
def test_seaweed_index_agrees_with_the_plain_rank(family, rank):
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
def test_single_root_test_agrees_with_the_plain_rank(family, rank):
    r = system(family, rank)
    eps = _cascade(r, _one_to(rank)).eps_set
    halves = {h for h, _, _ in tilde_delta_plus(r)}
    for i in range(1, rank + 1):
        a = r.simple_root(i)
        want = a in eps or a in halves or plain_rank(eps, (a,)) == len(eps) + 1
        assert single_root_test(SimpleType(family, rank), i) == want, i


@pytest.mark.parametrize("family,rank", FULL_RANK_TYPES)
def test_no_parabolic_of_a_full_rank_type_eliminates(family, rank, no_elimination):
    st = SimpleType(family, rank)
    for sub in subsets(rank):
        seaweed_index(BiparabolicSpec(st, sub, _one_to(rank)))
        seaweed_index(BiparabolicSpec(st, _one_to(rank), sub))
    for i in range(1, rank + 1):
        single_root_test(st, i)


def test_span_dim_eliminates_only_where_the_bounds_differ(monkeypatch):
    calls = []
    real = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: calls.append(rows) or real(rows))
    a, b, ab = (1, 0, 0), (0, 1, 0), (1, 1, 0)
    assert span_dim(3) == 0 and span_dim(3, (), ()) == 0
    assert span_dim(3, (a, b)) == 2 and span_dim(3, (a,), ()) == 1
    assert calls == []
    assert span_dim(3, (a,), (a,)) == 1
    assert span_dim(3, (a, b), (ab,)) == 2
    assert span_dim(3, (a, b), ((0, 0, 1),)) == 3
    assert len(calls) == 3
    # rank 2 caps the span of three roots in h*, so nothing is eliminated
    assert span_dim(2, (a[:2], b[:2]), (ab[:2],)) == 2 and len(calls) == 3

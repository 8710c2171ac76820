"""The block-sparse integer form stabilizer against the dense oracle route.

``form_stabilizer`` splits the form matrix into blocks and eliminates each on
its own; ``form_oracle.dense_form_stabilizer`` takes the kernel of the whole
matrix in one piece. Both return canonical rref rows, so they must agree
exactly.
"""

import random

import pytest

from conftest import system
from form_oracle import dense_form_stabilizer
from quasired.rootsys import AlgebraElement, SimpleType
from quasired.seaweed import BiparabolicSpec, biparabolic_basis, build_u, sample_cv
from quasired.stabilizer import form_stabilizer

TYPES = [("G", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("E", 6)]


def _random_spec(rng, family, rank):
    p1 = frozenset(i for i in range(1, rank + 1) if rng.random() < 0.5)
    p2 = frozenset(i for i in range(1, rank + 1) if rng.random() < 0.5)
    return BiparabolicSpec(SimpleType(family, rank), p1, p2)


@pytest.mark.parametrize("family,rank", TYPES)
def test_cascade_forms_match_dense_route(family, rank):
    rng = random.Random(f"{family}{rank}")
    for _ in range(8):
        spec = _random_spec(rng, family, rank)
        P = biparabolic_basis(spec)
        u = build_u(spec, sample_cv(spec, rng))
        assert form_stabilizer(P, u).rows == dense_form_stabilizer(P, u).rows, spec


@pytest.mark.parametrize("family,rank", TYPES)
def test_zero_form_matches_dense_route(family, rank):
    rng = random.Random(rank)
    spec = _random_spec(rng, family, rank)
    P = biparabolic_basis(spec)
    u = AlgebraElement(system(family, rank))
    S = form_stabilizer(P, u)
    assert S.dim == P.dim
    assert S.rows == dense_form_stabilizer(P, u).rows


@pytest.mark.parametrize("family,rank", TYPES)
def test_forms_with_cartan_components_match_dense_route(family, rank):
    # kappa(u, .) of a u with Cartan components is nonzero on Cartan indices,
    # which brings in the bracket_into tables of h_1..h_l
    rs = system(family, rank)
    rng = random.Random(f"cartan {family}{rank}")
    for _ in range(4):
        spec = _random_spec(rng, family, rank)
        P = biparabolic_basis(spec)
        coords = [(rs.idx_h(i), rng.randint(-9, 9)) for i in range(1, rank + 1)]
        coords += [(rng.randrange(rs.dim), rng.randint(-9, 9)) for _ in range(3)]
        u = AlgebraElement(rs, coords)
        assert any(rs.index_root(k) is None for k in u.coords)
        assert form_stabilizer(P, u).rows == dense_form_stabilizer(P, u).rows, spec

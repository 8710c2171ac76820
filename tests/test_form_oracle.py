"""The sparse integer kernel and the pattern-compiled form stabilizer
against the dense oracle routes.

``linalg._kernel`` eliminates sparse rows in a pivot order chosen for
sparsity or replayed from an earlier matrix; ``form_oracle.dense_kernel``
runs one dense Gauss-Jordan elimination. ``form_stabilizer`` compiles the
form matrix into blocks once per basis and support, and eliminates each
block on its own; ``form_oracle.dense_form_stabilizer`` takes the kernel of
the whole matrix in one piece. All of them return canonical rref rows, so
they must agree exactly.
"""

import random
from fractions import Fraction

import pytest

from conftest import system
from form_oracle import dense_form_stabilizer, dense_kernel
from quasired import linalg, stabilizer
from quasired.rootsys import AlgebraElement, SimpleType
from quasired.seaweed import BiparabolicSpec, biparabolic_basis, build_u, sample_cv
from quasired.stabilizer import certify_quasi_reductive, form_stabilizer

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


def _unit_rows(red, pivots):
    return [[Fraction(v, r[p]) for v in r] for r, p in zip(red, pivots)]


def _sparse(dense):
    return [{j: v for j, v in enumerate(row) if v} for row in dense]


def _sparse_kernel(dense, ncols, order=()):
    red, pivots, taken = linalg._kernel(_sparse(dense), ncols, order)
    return _unit_rows(red, pivots), taken


def _random_sparse(rng, m, n, per_row, values):
    rows = [[0] * n for _ in range(m)]
    for row in rows:
        for j in rng.sample(range(n), min(per_row, n)):
            row[j] = rng.choice(values)
    return rows


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_sparse_kernel_matches_dense_on_random_sparse_matrices():
    rng = random.Random(20081)
    for _ in range(150):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        dense = _random_sparse(rng, m, n, rng.randint(0, 3), [-3, -2, -1, 1, 2, 5])
        got, _ = _sparse_kernel(dense, n)
        assert got == _unit_rows(*dense_kernel(dense, n)), dense


def test_sparse_kernel_matches_dense_on_rank_deficient_products():
    # B * C with an inner dimension below both sides is rank deficient, and
    # its entries are sums of products that often cancel to 0
    rng = random.Random(20082)
    deficient = cancelled = 0
    for _ in range(120):
        m, n, k = rng.randint(2, 10), rng.randint(2, 10), rng.randint(1, 4)
        b = _random_sparse(rng, m, k, 2, [-2, -1, 1, 2])
        c = _random_sparse(rng, k, n, 3, [-2, -1, 1, 2])
        dense = _product(b, c)
        want = _unit_rows(*dense_kernel(dense, n))
        deficient += linalg.rank(dense) < min(m, n)
        cancelled += any(
            not dense[i][j] and any(b[i][t] and c[t][j] for t in range(k))
            for i in range(m)
            for j in range(n)
        )
        assert _sparse_kernel(dense, n)[0] == want, dense
    assert deficient > 60 and cancelled > 20


def test_sparse_kernel_falls_back_where_a_replayed_pivot_is_zero():
    # an order taken on one matrix and replayed on another of the same
    # pattern can name a pivot that is 0 there: at the start, or only after
    # the earlier steps cancel it
    rows = [[1, 1, 0], [1, 2, 1], [0, 1, 2]]
    order = [(0, 0), (1, 1), (2, 2)]
    assert _sparse_kernel(rows, 3, order)[1] == order
    singular = [[1, 1, 0], [1, 1, 1], [0, 1, 2]]  # (1, 1) cancels after (0, 0)
    got, taken = _sparse_kernel(singular, 3, order)
    assert taken != order and got == _unit_rows(*dense_kernel(singular, 3))
    got, taken = _sparse_kernel(rows, 3, [(2, 0), (0, 2)])  # both entries are 0
    assert (2, 0) not in taken and got == _unit_rows(*dense_kernel(rows, 3))

    rng = random.Random(20083)
    fell_back = 0
    for _ in range(200):
        m, n = rng.randint(2, 9), rng.randint(2, 9)
        first = _random_sparse(rng, m, n, 3, [-7, -5, 3, 4, 11])
        again = [[rng.choice([-1, 1]) if v else 0 for v in row] for row in first]
        _, order = _sparse_kernel(first, n)
        got, taken = _sparse_kernel(again, n, order)
        fell_back += taken != order
        assert got == _unit_rows(*dense_kernel(again, n)), (first, again)
    assert fell_back > 20


@pytest.mark.parametrize("family,rank", TYPES)
def test_every_trial_of_a_search_matches_dense_route(monkeypatch, family, rank):
    # trials of one search share their basis P and so one compiled pattern;
    # failing every abelian check makes each search run all of its trials
    real = stabilizer.form_stabilizer
    patterns = []

    def form_stabilizer_checked(P, u):
        S = real(P, u)
        assert S.rows == dense_form_stabilizer(P, u).rows, P.spec
        patterns.append(P.form_pattern)
        return S

    monkeypatch.setattr(stabilizer, "form_stabilizer", form_stabilizer_checked)
    monkeypatch.setattr(stabilizer, "is_abelian", lambda S: False)
    rng = random.Random(f"search {family}{rank}")
    for _ in range(4):
        spec = _random_spec(rng, family, rank)
        assert certify_quasi_reductive(spec, trials=5, seed=rng.randrange(99)) is None
    assert len(patterns) == 20 and len(set(map(id, patterns))) == 4


def _cartan_form(rs, h):
    return AlgebraElement(rs, [(rs.idx_h(i + 1), c) for i, c in enumerate(h)])


def _cartan_weights(rs, h):
    lo = rs.n_pos
    w = [0] * rs.rank
    for i, c in enumerate(h):
        for j, v in rs.killing_row(lo + i):
            w[j - lo] += c * v
    return w


@pytest.mark.parametrize("family,rank", TYPES)
def test_cartan_forms_sharing_a_pattern_match_dense_route(family, rank):
    # u in the Cartan: kappa(u, .) lives on h_1..h_l, and the cell of
    # (x_a, x_-a) is kappa(u, h_a), a sum over several h_k when a is not
    # simple; a u with kappa(u, h_a) = 0 cancels that cell and makes its
    # 2-index block singular, under the pattern compiled for a generic u
    rs = system(family, rank)
    full = frozenset(range(1, rank + 1))
    P = biparabolic_basis(BiparabolicSpec(SimpleType(family, rank), full, full))
    non_simple = [rs.coroot_coeffs(a) for a in rs.positive_roots[rank:]]
    rng = random.Random(f"cartan pattern {family}{rank}")
    generic, singular = None, []
    while generic is None or len(singular) < 3:
        h = [rng.randint(-4, 4) for _ in range(rank)]
        w = _cartan_weights(rs, h)
        if not all(w):
            continue
        zeros = sum(not sum(x * y for x, y in zip(w, co)) for co in non_simple)
        if not zeros and generic is None:
            generic = h
        elif zeros and len(singular) < 3:
            singular.append(h)
    S = form_stabilizer(P, _cartan_form(rs, generic))
    pattern = P.form_pattern
    assert S.rows == dense_form_stabilizer(P, _cartan_form(rs, generic)).rows
    for h in singular:
        u = _cartan_form(rs, h)
        S = form_stabilizer(P, u)
        assert P.form_pattern is pattern
        assert S.dim > rank and S.rows == dense_form_stabilizer(P, u).rows, h

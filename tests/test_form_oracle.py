"""The sparse integer kernel, the form stabilizer and the search's compiled
form pattern against the dense oracle routes.

``linalg._kernel`` eliminates sparse rows in a pivot order chosen for
sparsity or replayed from an earlier matrix; ``form_oracle.dense_kernel``
runs one dense Gauss-Jordan elimination. ``form_stabilizer`` takes the
sparse kernel of the whole integer form matrix of one form.
``stabilizer._form_pattern`` compiles the form matrix of a basis and a
search's support into blocks whose leaf pairs are peeled off, once per
search, and per draw only eliminates each block's residual core and
back-substitutes over the peeled pairs; ``form_oracle.dense_form_stabilizer``
takes the kernel of the whole matrix in one piece. All of them return
canonical rref rows once the raw basis of ``linalg._kernel`` is reduced,
so they must agree exactly. Synthetic skew patterns, one term per cell as
in every search, drive the peeling through ``stabilizer._peel_blocks``
directly.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from conftest import raw_kernel, system
from form_oracle import (
    basis_elements,
    dense_form_stabilizer,
    dense_kernel,
    subspace_from_vectors,
)
from quasired import linalg, stabilizer
from quasired.rootsys import SimpleType
from quasired.seaweed import (
    BiparabolicSpec,
    _draw_layout,
    biparabolic_basis,
    build_u,
    sample_cv,
)
from quasired.stabilizer import (
    _form_pattern,
    _sparse_int_row,
    certify_quasi_reductive,
    form_stabilizer,
)

TYPES = [("G", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("E", 6)]


def _random_spec(rng, family, rank):
    p1 = frozenset(i for i in range(1, rank + 1) if rng.random() < 0.5)
    p2 = frozenset(i for i in range(1, rank + 1) if rng.random() < 0.5)
    return BiparabolicSpec(SimpleType(family, rank), p1, p2)


def _dense(spec, u):
    """The dense oracle's stabilizer on the basis vectors of the spec."""
    return dense_form_stabilizer(spec.system(), basis_elements(spec), u)


def _subsets(rank):
    return [
        frozenset(s) for n in range(rank + 1) for s in itertools.combinations(range(1, rank + 1), n)
    ]


def _every_spec(family, rank):
    """Every seaweed (pi1, pi2) of the type; for E6, whose 4096 pairs take
    too long for the dense oracle, every parabolic in both orientations."""
    st = SimpleType(family, rank)
    subsets = _subsets(rank)
    full = frozenset(range(1, rank + 1))
    if family == "E":
        return [BiparabolicSpec(st, *p) for s in subsets for p in ((s, full), (full, s))]
    return [BiparabolicSpec(st, p1, p2) for p1 in subsets for p2 in subsets]


@pytest.mark.parametrize("family,rank", TYPES)
def test_cascade_forms_match_dense_route(family, rank):
    rng = random.Random(f"{family}{rank}")
    specs = _every_spec(family, rank)
    assert len(specs) == {2: 16, 3: 64, 4: 256, 6: 128}[rank]
    for spec in specs:
        u = build_u(spec, sample_cv(spec, rng))
        assert form_stabilizer(spec, u) == _dense(spec, u), spec


@pytest.mark.parametrize("family,rank", TYPES)
def test_zero_form_matches_dense_route(family, rank):
    rng = random.Random(rank)
    spec = _random_spec(rng, family, rank)
    u = ()
    S = form_stabilizer(spec, u)
    assert S.dim == len(biparabolic_basis(spec))
    assert S == _dense(spec, u)


@pytest.mark.parametrize("family,rank", TYPES)
def test_forms_with_cartan_components_match_dense_route(family, rank):
    # kappa(u, .) of a u with Cartan components is nonzero on Cartan indices,
    # which brings in the bracket_into tables of h_1..h_l
    rs = system(family, rank)
    rng = random.Random(f"cartan {family}{rank}")
    for _ in range(4):
        spec = _random_spec(rng, family, rank)
        coords = [(rs.idx_h(i), rng.randint(-9, 9)) for i in range(1, rank + 1)]
        coords += [(rng.randrange(rs.dim), rng.randint(-9, 9)) for _ in range(3)]
        u = rs.checked_row(coords)
        assert any(rs.index_root(k) is None for k, _ in u)
        assert form_stabilizer(spec, u) == _dense(spec, u), spec


def _unit_rows(red, pivots):
    return [[Fraction(v, r[p]) for v in r] for r, p in zip(red, pivots)]


def _sparse(dense):
    return [{j: v for j, v in enumerate(row) if v} for row in dense]


def _sparse_kernel(dense, ncols, order=()):
    """The reduced kernel, after checking the raw basis: one vector per free
    column (one no pivot took), in column order, nonzero at its own free
    column and zero at every other."""
    basis, taken = linalg._kernel(_sparse(dense), ncols, order)
    free = sorted(set(range(ncols)) - {c for _, c in taken})
    assert len(basis) == len(free), dense
    for v, f in zip(basis, free):
        assert v[f] and not any(v[g] for g in free if g != f), (dense, v, f)
    return _unit_rows(*linalg._eliminate(basis, True)), taken


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
    # trials of one search share their spec and support, and so one
    # pattern, which the search compiles exactly once; failing every
    # commutation check makes each search run all of its trials. The
    # commutation check runs last, after the Killing check, which an
    # identity Gram matrix passes here, and gets the trial's raw kernel
    # basis fully extended, which is recorded and reduced here, and must be
    # independent, as the dimension check counts it; every trial of these
    # searches passes that check and reaches the commutation check. A trial
    # draws integers and never builds u, so each trial's u is rebuilt by
    # replaying sample_cv on the search's seed, which also pins the search's
    # draws to those of sample_cv
    got = []

    def commuting_recorded(r, rows):
        vecs = [[0] * r.dim for _ in rows]
        for v, row in zip(vecs, rows):
            for k, c in row:
                v[k] = c
        got.append((len(rows), subspace_from_vectors(r, vecs)))
        return False

    compiles = []

    def form_pattern_counted(spec, support):
        compiles.append((spec, sorted(support)))
        return _form_pattern(spec, support)

    def identity_gram(pairs, rows):
        return [[int(a == b) for b in range(len(rows))] for a in range(len(rows))]

    monkeypatch.setattr(stabilizer, "_commuting", commuting_recorded)
    monkeypatch.setattr(stabilizer, "_killing_gram", identity_gram)
    monkeypatch.setattr(stabilizer, "_form_pattern", form_pattern_counted)
    rng = random.Random(f"search {family}{rank}")
    compared = 0
    for _ in range(4):
        spec = _random_spec(rng, family, rank)
        seed = rng.randrange(99)
        got.clear()
        compiles.clear()
        assert certify_quasi_reductive(spec, trials=5, seed=seed) is None
        a, b = _draw_layout(spec)
        assert compiles == [(spec, sorted(s.dual for s in a + b))], spec
        assert len(got) == 5, spec
        replay = random.Random(seed)
        for n, S in got:
            assert S.dim == n and S == _dense(spec, build_u(spec, sample_cv(spec, replay))), spec
            compared += 1
    assert compared == 20


def _cartan_form(rs, h):
    return rs.checked_row([(rs.idx_h(i + 1), c) for i, c in enumerate(h)])


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
    # simple. A u with kappa(u, h_a) = 0 cancels that cell, which
    # form_stabilizer drops, so x_a and x_-a join the stabilizer; the
    # generic u cancels none and its stabilizer is the Cartan. Every u here
    # shares the support h_1..h_l
    rs = system(family, rank)
    full = frozenset(range(1, rank + 1))
    spec = BiparabolicSpec(SimpleType(family, rank), full, full)
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
    u = _cartan_form(rs, generic)
    S = form_stabilizer(spec, u)
    assert S.dim == rank and S == _dense(spec, u)
    for h in singular:
        u = _cartan_form(rs, h)
        S = form_stabilizer(spec, u)
        assert S.dim > rank and S == _dense(spec, u), h


def test_equal_bases_share_a_compile_and_another_support_recompiles():
    spec, twin = (
        BiparabolicSpec(SimpleType("E", 6), frozenset({2, 3, 4}), frozenset(range(1, 7)))
        for _ in range(2)
    )
    assert spec is not twin and spec == twin
    assert biparabolic_basis(spec) == biparabolic_basis(twin)
    u = build_u(spec, sample_cv(spec, random.Random(3)))
    assert form_stabilizer(spec, u) == form_stabilizer(twin, u) == _dense(spec, u)
    # a Cartan u: kappa(u, .) lives on h_1..h_6, another support
    rs = system("E", 6)
    h = _cartan_form(rs, [1, 2, 3, 4, 5, 7])
    assert form_stabilizer(twin, h) == _dense(twin, h)


def test_search_patterns_have_one_term_per_cell():
    # a search's support is the Killing duals of its cascade slots, each a
    # root-vector index, and a bracket of two basis vectors has at most one
    # root-vector component; so no cell of a compiled pattern receives two
    # support indices, and _form_pattern stores one term per cell. Every
    # biparabolic of the small types, every parabolic of E6, E7 and E8 in
    # both orientations
    small = (("G", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4))
    specs = [s for f, r in small for s in _every_spec(f, r)]
    specs += [s for r in (6, 7, 8) for s in _every_spec("E", r)]
    assert len(specs) == 16 + 64 + 64 + 256 + 256 + 2 * (64 + 128 + 256)
    for spec in specs:
        rs = spec.system()
        basis = set(biparabolic_basis(spec))
        a, b = _draw_layout(spec)
        duals = [s.dual for s in a + b]
        assert len(set(duals)) == len(duals), spec
        assert all(rs.index_root(k) is not None for k in duals), spec
        cells = set()
        for k in duals:
            for i, j, _ in rs.bracket_into(k):
                if i in basis and j in basis:
                    assert (i, j) not in cells, (spec, i, j)
                    cells.add((i, j))


def _skew_terms(n, edges):
    """The pattern of a skew matrix on vertices 0..n-1: edges maps (i, j),
    i < j, to the one (weight index, constant) of M[i][j]."""
    terms = {i: {} for i in range(n)}
    for (i, j), (k, c) in edges.items():
        terms[i][j] = (k, c)
        terms[j][i] = (k, -c)
    return terms


def _peeled_kernel(terms, w):
    blocks = stabilizer._peel_blocks(terms)
    return list(stabilizer._canonical_rows((b.idx, raw_kernel(b, w)) for b in blocks)), blocks


def _dense_rows(terms, w):
    n = len(terms)
    M = [[0] * n for _ in range(n)]
    for i, t in terms.items():
        for j, (k, c) in t.items():
            M[i][j] = w[k] * c
    return sorted(_sparse_int_row(enumerate(r)) for r in dense_kernel(M, n)[0])


def test_peeling_a_path_scales_by_the_back_substitution_denominator():
    # 0 - 1 - 2 plus the lone vertex 3: peeling the leaf 0 with 1 leaves 2
    # isolated, and x_0 = M[1][2] / M[0][1], which is no integer here
    terms = _skew_terms(4, {(0, 1): (7, 1), (1, 2): (8, 1)})
    rows, (block, lone) = _peeled_kernel(terms, {7: 3, 8: 2})
    assert block.idx == (0, 2) and len(block.steps) == 1
    assert block.isolated == [1] and block.systems == ()
    assert lone.idx == (3,) and lone.isolated == [0] and lone.steps == []
    assert rows == [((0, 2), (2, 3)), ((3, 1),)]
    for w in ({7: 3, 8: 2}, {7: -3, 8: 2}, {7: 4, 8: -6}, {7: -5, 8: -7}):
        assert _peeled_kernel(terms, w)[0] == _dense_rows(terms, w), w


def test_peeling_leaves_an_even_cycle_to_the_core():
    # no vertex of the 4-cycle is a leaf; its Pfaffian M01 M23 + M03 M12
    # vanishes for the second weights, which gives a 2-dimensional kernel
    cycle = {(0, 1): (1, 1), (1, 2): (2, 1), (2, 3): (3, 1), (0, 3): (4, 1)}
    terms = _skew_terms(4, cycle)
    _, (block,) = _peeled_kernel(terms, {1: 1, 2: 1, 3: 1, 4: 1})
    assert block.steps == [] and block.isolated == []
    assert [s[:2] for s in block.systems] == [([0, 2], [1, 3]), ([1, 3], [0, 2])]
    for w, dim in (({1: 1, 2: 1, 3: 1, 4: 1}, 0), ({1: 1, 2: 1, 3: 1, 4: -1}, 2)):
        rows = _peeled_kernel(terms, w)[0]
        assert len(rows) == dim and rows == _dense_rows(terms, w), w


def test_peeling_skips_a_leaf_whose_cell_has_several_terms():
    # no cell of a search's pattern has several terms: each is one term
    # w_k * c, nonzero for every draw, so every leaf is peeled. A lone edge
    # peels to nothing, and its block, whose 2 x 2 matrix is invertible for
    # every weight, is dropped
    single = _skew_terms(2, {(0, 1): (1, 2)})
    assert stabilizer._peel_blocks(single) == []
    for w in ({1: 1}, {1: -3}):
        assert _dense_rows(single, w) == [], w


def test_peeling_matches_dense_on_random_skew_patterns():
    # random patterns over four weights, one term per cell
    rng = random.Random(20084)
    peeled = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        density = rng.choice([0.15, 0.3, 0.5])
        edges = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    edges[i, j] = (rng.randrange(4), rng.choice([-2, -1, 1, 3]))
        terms = _skew_terms(n, edges)
        for _ in range(3):
            w = {k: rng.choice([-3, -2, -1, 1, 2, 5]) for k in range(4)}
            rows, blocks = _peeled_kernel(terms, w)
            assert rows == _dense_rows(terms, w), (edges, w)
            peeled += sum(len(b.steps) for b in blocks)
    assert peeled > 300


# ---------------------------------------------------------------------------
# the core split: ker M = ker M[Y][X] (on X) + ker M[X][Y] (on Y) for a core
# 2-coloured into halves X and Y, the second of dimension |X| - rank M[X][Y].
# Measured over the G2, F4, E6-E8, A7, B6, B8, C6, D6 and D8 parabolics and
# every F4 and E6 pair: 3,713 of 3,713 cores were bipartite, and 1,964 had
# unequal halves. No core met has an odd cycle, and the seven cores the
# verify benchmarks meet never eliminate their second half, so synthetic
# cores drive those cases below


def _core_kernels(block, terms, w):
    """The canonical rows of a block's core kernel, eliminated through the
    block's systems and as the unsplit ``linalg._kernel`` of the whole
    core's skew matrix."""
    split = dataclasses.replace(block, isolated=[]).core_kernel(w)
    core = sorted({t for rows, cols, _, _ in block.systems for t in rows + cols})
    verts = [block.idx[t] for t in core]
    at = {i: a for a, i in enumerate(verts)}
    m = [{at[j]: w[k] * c for j, (k, c) in terms[i].items() if j in at} for i in verts]
    whole, _ = linalg._kernel(m, len(verts))
    return (
        stabilizer._canonical_rows([(block.idx, split)]),
        stabilizer._canonical_rows([(tuple(verts), whole)]),
    )


def _search_terms(spec):
    """The pattern ``_form_pattern`` compiles for the search of the spec."""
    rs = spec.system()
    a, b = _draw_layout(spec)
    terms = {i: {} for i in biparabolic_basis(spec)}
    for k in sorted(s.dual for s in a + b):
        for i, j, c in rs.bracket_into(k):
            if i in terms and j in terms:
                terms[i][j] = (k, c)
    return terms


def _exceptional_specs():
    """Every G2, F4, E6, E7 and E8 parabolic and every F4 pair."""
    specs = []
    for f, r in (("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)):
        full = frozenset(range(1, r + 1))
        specs += [BiparabolicSpec(SimpleType(f, r), s, full) for s in _subsets(r)]
    return specs + _every_spec("F", 4)


def test_split_cores_match_the_whole_core_kernel():
    # every core of every G2, F4, E6, E7 and E8 parabolic and of every F4
    # pair, three weight draws each
    rng = random.Random(20085)
    cores = unequal = second = 0
    for spec in _exceptional_specs():
        terms = _search_terms(spec)
        weights = sorted({k for t in terms.values() for k, _ in t.values()})
        for block in stabilizer._peel_blocks(terms):
            if not block.systems:
                continue
            (x, y, _, _), (y2, x2, _, _) = block.systems
            assert (x, y) == (x2, y2) and len(x) <= len(y), spec
            cores += 1
            unequal += len(x) < len(y)
            for _ in range(3):
                w = {k: rng.choice([-1, 1]) * rng.randint(1, 50) for k in weights}
                split, whole = _core_kernels(block, terms, w)
                assert split == whole, (spec, w)
                second += len(whole) > len(y) - len(x)
    assert (cores, unequal) == (344, 91)
    assert second > 200  # draws whose B drops rank, eliminating both halves


@pytest.fixture
def kernel_shapes(monkeypatch):
    """The (rows, columns) of every ``linalg._kernel`` call, in order."""
    shapes = []
    kernel = linalg._kernel

    def recorded(rows, ncols, order=()):
        shapes.append((len(rows), ncols))
        return kernel(rows, ncols, order)

    monkeypatch.setattr(linalg, "_kernel", recorded)
    return shapes


def _split_rows(terms, w):
    (block,) = stabilizer._peel_blocks(terms)
    return list(stabilizer._canonical_rows([(block.idx, raw_kernel(block, w))])), block


def test_an_odd_cycle_is_one_system(kernel_shapes):
    # a triangle is leaf-free and has no 2-colouring: its core is the one
    # system (core, core), and an odd skew matrix always has a kernel
    terms = _skew_terms(3, {(0, 1): (1, 1), (1, 2): (2, -1), (0, 2): (3, 2)})
    for w in ({1: 1, 2: 1, 3: 1}, {1: 3, 2: -5, 3: 7}):
        rows, block = _split_rows(terms, w)
        assert [s[:2] for s in block.systems] == [([0, 1, 2], [0, 1, 2])]
        assert len(rows) == 1 and rows == _dense_rows(terms, w), w
    assert kernel_shapes == [(3, 3), (3, 3)]


def _k23(ks):
    """K_{2,3} on X = {0, 1} and Y = {2, 3, 4}: M[x][y] has weight
    ks[x][y - 2] and constant x + 1, so B = M[X][Y] has rank 1 when the two
    rows of ks are equal."""
    return _skew_terms(5, {(x, y): (ks[x][y - 2], x + 1) for x in (0, 1) for y in (2, 3, 4)})


def test_an_unequal_core_eliminates_the_second_half_only_below_full_rank(kernel_shapes):
    # the smaller half X comes first: M[X][Y] is 2 x 3, and the kernel of
    # M[Y][X] on X has dimension 2 - rank B, so it is eliminated only when
    # B drops rank
    full = _k23([(1, 2, 3), (4, 5, 6)])
    w = {1: 1, 2: 2, 3: 3, 4: 1, 5: 1, 6: 1}
    rows, block = _split_rows(full, w)
    assert [s[:2] for s in block.systems] == [([0, 1], [2, 3, 4]), ([2, 3, 4], [0, 1])]
    assert len(rows) == 1 and rows == _dense_rows(full, w)
    assert kernel_shapes == [(2, 3)]
    kernel_shapes.clear()
    # the same pattern with proportional rows of B: rank 1 for this draw
    w = {1: 1, 2: 2, 3: 3, 4: 2, 5: 4, 6: 6}
    rows, _ = _split_rows(full, w)
    assert len(rows) == 3 and rows == _dense_rows(full, w)
    assert kernel_shapes == [(2, 3), (3, 2)]
    kernel_shapes.clear()
    # a pattern whose B has rank 1 for every draw
    low = _k23([(1, 2, 3), (1, 2, 3)])
    for w in ({1: 1, 2: 1, 3: 1}, {1: -4, 2: 9, 3: 2}):
        rows, _ = _split_rows(low, w)
        assert len(rows) == 3 and rows == _dense_rows(low, w), w
    assert kernel_shapes == [(2, 3), (3, 2)] * 2


def test_an_equal_core_with_singular_b_eliminates_both_halves(kernel_shapes):
    # the 4-cycle's B = M[{0, 2}][{1, 3}] is singular exactly where the
    # Pfaffian M01 M23 + M03 M12 vanishes
    cycle = {(0, 1): (1, 1), (1, 2): (2, 1), (2, 3): (3, 1), (0, 3): (4, 1)}
    terms = _skew_terms(4, cycle)
    for w, dim, shapes in (
        ({1: 1, 2: 1, 3: 1, 4: 1}, 0, [(2, 2)]),
        ({1: 1, 2: 1, 3: 1, 4: -1}, 2, [(2, 2), (2, 2)]),
        ({1: 2, 2: 3, 3: -3, 4: 2}, 2, [(2, 2), (2, 2)]),
    ):
        kernel_shapes.clear()
        rows, _ = _split_rows(terms, w)
        assert len(rows) == dim and rows == _dense_rows(terms, w), w
        assert kernel_shapes == shapes, w


@pytest.mark.parametrize(
    "rank,pi1,halves",
    [(7, (1, 3, 4), [6]), (7, (2, 3, 4, 5, 6, 7), [8, 8, 8]), (8, (2, 3, 4, 5, 6, 7), [8, 8, 8])],
    ids=["E7-134", "E7-234567", "E8-234567"],
)
def test_the_verify_benchmark_cores_skip_their_second_half(kernel_shapes, rank, pi1, halves):
    # the seven cores the verify benchmarks meet, one in E7 {1,3,4} and
    # three each in E7 and E8 {2,...,7}, have equal halves and full-rank B
    # for every draw of these searches: each trial eliminates one half
    spec = BiparabolicSpec(SimpleType("E", rank), frozenset(pi1), frozenset(range(1, rank + 1)))
    a, b = _draw_layout(spec)
    _, blocks, _ = _form_pattern(spec, [s.dual for s in a + b])
    cored = [block for block in blocks if block.systems]
    assert [len(block.systems[0][0]) for block in cored] == halves
    assert all([len(s[0]) for s in block.systems] == [n, n] for block, n in zip(cored, halves))
    for seed in range(6):
        kernel_shapes.clear()
        cert = certify_quasi_reductive(spec, trials=20, seed=seed)
        assert kernel_shapes == [(n, n) for n in halves] * (cert.trial + 1 if cert else 20)


# ---------------------------------------------------------------------------
# the Killing steps: a trial extends its vectors over the steps that its
# Killing positions depend on, which ``_killing_first`` moves to the front,
# builds the Gram matrix from those positions alone, and extends over the
# other steps only when that matrix has full rank


def _positive_multiple(y, x):
    """Whether y = c * x for some c > 0, or both are 0."""
    t0 = next((t for t, v in enumerate(x) if v), None)
    if t0 is None:
        return not any(y)
    return y[t0] * x[t0] > 0 and all(a * x[t0] == v * y[t0] for a, v in zip(y, x))


def test_the_killing_steps_carry_the_gram_matrix():
    # every block of every G2, F4, E6, E7 and E8 parabolic and of every F4
    # pair, three weight draws each: after the Killing steps alone, each
    # vector's entries at the Killing positions are those of the full raw
    # kernel up to one positive scale, the Gram rank is the full rows' rank,
    # and the reordered steps give the canonical rows of the peeling order
    rng = random.Random(20086)
    blocks_met = steps = killing_steps = full_rank = degenerate = 0
    for spec in _exceptional_specs():
        a, b = _draw_layout(spec)
        support = [s.dual for s in a + b]
        _, blocks, kpairs = _form_pattern(spec, support)
        peeled = stabilizer._peel_blocks(_search_terms(spec))
        assert [block.idx for block in blocks] == [twin.idx for twin in peeled], spec
        blocks_met += len(blocks)
        steps += sum(len(block.steps) for block in blocks)
        killing_steps += sum(block.split for block in blocks)
        for _ in range(3):
            w = {k: rng.choice([-1, 1]) * rng.randint(1, 50) for k in support}
            part, full = [], []
            for block, twin in zip(blocks, peeled):
                xs = block.core_kernel(w)
                stabilizer._back_substitute(xs, w, block.steps[: block.split])
                ys = raw_kernel(block, w)
                assert len(xs) == len(ys), spec
                for x, y in zip(xs, ys):
                    at = block.killing
                    assert _positive_multiple([y[t] for t in at], [x[t] for t in at]), (spec, w)
                part += [[(block.idx[t], x[t]) for t in block.killing if x[t]] for x in xs]
                full += [[(block.idx[t], v) for t, v in enumerate(y) if v] for y in ys]
                assert stabilizer._canonical_rows([(block.idx, ys)]) == stabilizer._canonical_rows(
                    [(twin.idx, raw_kernel(twin, w))]
                ), (spec, w)
            n = linalg.rank(stabilizer._killing_gram(kpairs, part))
            assert n == linalg.rank(stabilizer._killing_gram(kpairs, full)), (spec, w)
            full_rank += n == len(full)
            degenerate += n < len(full)
    # about half of the steps are Killing steps, and both Gram verdicts occur
    assert (blocks_met, steps, killing_steps) == (914, 6931, 3326)
    assert (full_rank, degenerate) == (1467, 705)


@pytest.mark.parametrize(
    "rank,pi1,split",
    [
        (7, (1,), [(3, 3, 10)]),
        (7, (1, 3, 4), [(0, 0, 4), (3, 2, 10)]),
        (7, (1, 2, 6), [(2, 1, 13)]),
        (7, (1, 2, 5, 7), [(6, 3, 10)]),
        (8, (2, 4, 8), [(2, 4, 15)]),
        (8, (1, 2, 5), [(5, 3, 11)]),
    ],
    ids=["E7-1", "E7-134", "E7-126", "E7-1257", "E8-248", "E8-125"],
)
def test_the_verify_benchmark_trials_extend_only_their_killing_steps(monkeypatch, rank, pi1, split):
    # each block of the exhausted verify panel as (Killing positions,
    # Killing steps, steps); the core block of E7 {1,3,4} reads none. Every
    # trial of these searches fails the Killing check, so it extends its
    # vectors over the Killing steps alone, and the search still runs all
    # of its 20 trials
    spec = BiparabolicSpec(SimpleType("E", rank), frozenset(pi1), frozenset(range(1, rank + 1)))
    a, b = _draw_layout(spec)
    _, blocks, _ = _form_pattern(spec, [s.dual for s in a + b])
    assert [(len(block.killing), block.split, len(block.steps)) for block in blocks] == split
    extended = []
    back_substitute = stabilizer._back_substitute

    def recorded(vecs, w, steps):
        extended.append(len(steps))
        back_substitute(vecs, w, steps)

    monkeypatch.setattr(stabilizer, "_back_substitute", recorded)
    for seed in range(6):
        extended.clear()
        assert certify_quasi_reductive(spec, trials=20, seed=seed) is None
        assert extended == [k for _, k, _ in split] * 20, seed

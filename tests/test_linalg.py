from fractions import Fraction

import minpoly_oracle as mp
from quasired import linalg


def F(a, b=1):
    return Fraction(a, b)


def test_rref_is_canonical():
    rows1 = [[2, 4, 6], [1, 1, 1]]
    rows2 = [[3, 5, 7], [1, 2, 3]]  # same row space
    r1, p1 = linalg.rref(rows1)
    r2, p2 = linalg.rref(rows2)
    assert r1 == r2 and p1 == p2 == [0, 1]


def test_rank_and_nullspace():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert linalg.rank(m) == 2
    ns = linalg.nullspace(m, 3)
    assert len(ns) == 1
    v = ns[0]
    for row in m:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_nullspace_of_zero_matrix():
    ns = linalg.nullspace([[0, 0], [0, 0]], 2)
    assert len(ns) == 2


def test_poly_gcd_and_squarefree():
    # (x-1)^2 (x+2) has gcd (x-1) with its derivative
    p = mp.poly_mul([F(1), F(-2), F(1)], [F(2), F(1)])
    g = mp.poly_gcd(p, mp.poly_derivative(p))
    assert len(g) == 2 and g[1] == 1 and g[0] == -1
    assert not mp.is_squarefree(p)
    assert mp.is_squarefree([F(-2), F(-1), F(1)])  # (x-2)(x+1)
    assert mp.is_squarefree([F(5)])
    assert mp.is_squarefree([F(0), F(1)])


def test_poly_lcm():
    a = [F(-1), F(1)]  # x - 1
    b = [F(1), F(1)]  # x + 1
    l = mp.poly_lcm(a, b)
    assert l == [F(-1), F(0), F(1)]
    assert mp.poly_lcm(a, a) == a


def _cols_from_rows(rows):
    cols = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                cols.setdefault(j, {})[i] = Fraction(v)
    return cols


def test_minimal_polynomial_diagonal():
    cols = _cols_from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 5]])
    m = mp.minimal_polynomial(cols, 3)
    # (x-2)(x-5)
    assert m == [F(10), F(-7), F(1)]


def test_minimal_polynomial_jordan_block():
    cols = _cols_from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    m = mp.minimal_polynomial(cols, 3)
    assert len(m) == 4  # (x-1)^3
    assert not mp.is_squarefree(m)


def test_kernel_stabilizes_detects_nilpotency():
    nil = _cols_from_rows([[0, 1], [0, 0]])
    assert not linalg.kernel_stabilizes(nil, 2)
    diag = _cols_from_rows([[3, 0], [0, 0]])
    assert linalg.kernel_stabilizes(diag, 2)
    # nonzero-eigenvalue defect is invisible to the kernel test by design;
    # elements of a semisimple Lie algebra never produce it (see stabilizer tests)
    mixed = _cols_from_rows([[1, 1], [0, 1]])
    assert linalg.kernel_stabilizes(mixed, 2)


def test_echelon_insert_and_contains():
    e = mp.Echelon()
    assert e.insert([1, 2, 0])
    assert e.insert([0, 1, 1])
    assert not e.insert([1, 3, 1])
    assert e.contains([2, 5, 1])
    assert not e.contains([0, 0, 1])


def _naive_rref(rows):
    # plain Fraction Gauss-Jordan elimination, written independently as an oracle
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    pivots = []
    for col in range(len(m[0]) if m else 0):
        piv = None
        for i in range(rank, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
    return m[:rank], pivots


def _draw(rng, kind):
    # pure Fractions, pure ints, or ints mixed with Fractions: each takes its
    # own path through the primitive-row scaling
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        return rng.randint(-6, 6)
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def test_rank_and_nullspace_against_naive_oracle():
    import random

    rng = random.Random(123)
    for _ in range(120):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        kind = rng.choice(["fraction", "int", "mixed"])
        rows = [[_draw(rng, kind) for _ in range(m)] for _ in range(n)]
        want_rows, want_pivots = _naive_rref(rows)
        r = linalg.rank(rows)
        assert r == len(want_rows)
        assert linalg.rref(rows) == (want_rows, want_pivots)
        ns = linalg.nullspace(rows, m)
        assert len(ns) == m - r
        for v in ns:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0

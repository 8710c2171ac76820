import hashlib
import random
from fractions import Fraction

import pytest

from conftest import jacobi_defect, reflection_closure, root_set, string_below, system
from quasired import linalg
from quasired.rootsys import (
    MAX_CLASSICAL_RANK,
    AlgebraElement,
    SimpleType,
    ad_columns,
    bracket,
    build_root_system,
    h_vector,
    killing,
    x_vector,
)


def classical_count(family, l):
    if family == "A":
        return l * (l + 1) // 2
    if family in ("B", "C"):
        return l * l
    if family == "D":
        return l * (l - 1)
    if family == "G":
        return 6
    if family == "F":
        return 24
    return {6: 36, 7: 63, 8: 120}[l]


ALL_TYPES = (
    [("A", l) for l in range(1, 11)]
    + [("B", l) for l in range(2, 11)]
    + [("C", l) for l in range(3, 11)]
    + [("D", l) for l in range(4, 11)]
    + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_positive_root_counts(family, rank):
    rs = system(family, rank)
    assert rs.n_pos == classical_count(family, rank)
    assert rs.dim == 2 * rs.n_pos + rank


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_roots_match_reflection_closure(family, rank):
    # the same roots, in (height, lex) order
    rs = system(family, rank)
    closure = reflection_closure(rs.cartan)
    assert rs.positive_roots == tuple(sorted(closure, key=lambda r: (sum(r), r)))


# sha256 of repr(positive_roots) at the largest classical rank
ROOT_ORDER_DIGESTS = {
    "A": "a294973f8e60042bb8d0b0cf114f438bab674fa3b828d44c1206f270b017f7a6",
    "B": "3c6f71d18487dc89d1014c63e88d6144da63605e0496182fb17810e18e1defd3",
    "C": "b8ff338ef46e09b3b36c9d1febd75cd726f6dd6cd1f4918ab10fc9d89dde85e7",
    "D": "0b5a8bbf759c9693b764da470ef63873b4e689fae41a4b1271c68a5f52039822",
}


@pytest.mark.parametrize("family", sorted(ROOT_ORDER_DIGESTS))
def test_root_order_is_pinned_at_the_rank_cap(family):
    rs = system(family, MAX_CLASSICAL_RANK)
    digest = hashlib.sha256(repr(rs.positive_roots).encode()).hexdigest()
    assert digest == ROOT_ORDER_DIGESTS[family]


def test_dimension_a1_and_e8():
    assert system("A", 1).dim == 3
    assert system("E", 8).dim == 248


@pytest.mark.parametrize(
    "family,rank",
    [
        ("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9), ("F", 5), ("G", 3), ("H", 2),
        ("A", MAX_CLASSICAL_RANK + 1), ("D", 100000),
        # a rank that is not an int
        ("E", 6.5), ("E", 6.0), ("E", "6"), ("E", Fraction(6)), ("A", True),
    ],
)
def test_rank_bounds_rejected(family, rank):
    with pytest.raises(ValueError):
        SimpleType(family, rank)


def test_root_sum():
    rs = system("A", 2)
    a1, a2 = rs.simple_root(1), rs.simple_root(2)
    assert rs.root_sum(a1, a2) == (1, 1)
    assert rs.root_sum(a1, a1) is None
    assert rs.root_sum(a1, rs.negative(a1)) is None
    with pytest.raises(ValueError):
        rs.root_sum((5, 5), a1)


def test_pairing_values():
    rs = system("G", 2)
    for a in rs.positive_roots:
        assert rs.pairing(a, a) == 2
    # the highest root pairs to zero with the short simple root here
    assert rs.pairing(rs.simple_root(2), rs.highest_root({1, 2})) == 0
    rs6 = system("E", 6)
    from quasired.cascade import kostant_cascade

    c = kostant_cascade(rs6, rs6.full_subset())
    assert rs6.pairing(c.nodes[1].eps, c.nodes[0].eps) == 0


def test_bracket_basic_relations():
    for family, rank in [("A", 2), ("B", 3), ("G", 2), ("F", 4)]:
        rs = system(family, rank)
        for i in range(1, rank + 1):
            a = rs.simple_root(i)
            h = bracket(rs, x_vector(rs, a), x_vector(rs, rs.negative(a)))
            # h_a from its coroot coefficients over h_1..h_l
            h_a = AlgebraElement(rs, [(rs.idx_h(k + 1), c) for k, c in enumerate(rs.coroot_coeffs(a))])
            assert h == h_a
            # alpha(h_alpha) = 2 read off the eigenvalue on x_alpha
            back = bracket(rs, h, x_vector(rs, a))
            assert back == 2 * x_vector(rs, a)


def test_bracket_cartan_acts_by_pairing():
    rs = system("C", 3)
    h = h_vector(rs, 2)
    for a in rs.positive_roots:
        assert bracket(rs, h, x_vector(rs, a)) == rs.pairing(a, rs.simple_root(2)) * x_vector(rs, a)


def test_bracket_g2_simple_pair_coefficient():
    rs = system("G", 2)
    z = bracket(rs, x_vector(rs, rs.simple_root(1)), x_vector(rs, rs.simple_root(2)))
    (coeff,) = z.coords.values()
    assert abs(coeff) == 1  # the string through alpha_2 starts at alpha_2


@pytest.mark.parametrize("v", [(5, 5), (0, 0), (2, 0), (1, -1)])
def test_root_numbers_reject_non_roots(v):
    rs = system("G", 2)
    for f in (rs.norm2, rs.coroot_coeffs, lambda a: rs.pairing(rs.simple_root(1), a)):
        with pytest.raises(ValueError, match="not a root"):
            f(v)


def test_bracket_rejects_mixed_systems():
    rs1, rs2 = system("A", 2), system("A", 3)
    with pytest.raises(ValueError):
        bracket(rs1, x_vector(rs1, rs1.simple_root(1)), x_vector(rs2, rs2.simple_root(1)))


def test_struct_const_magnitudes_small_types():
    for family, rank in [("G", 2), ("B", 3), ("C", 3), ("A", 3)]:
        rs = system(family, rank)
        roots = root_set(rs.cartan)
        for a in roots:
            for b in roots:
                if tuple(x + y for x, y in zip(a, b)) in roots:
                    assert abs(rs.struct_const(a, b)) == string_below(roots, a, b) + 1


@pytest.mark.parametrize(
    "a,b",
    [
        ((0, 0), (1, 0)),
        ((2, 0), (-1, 1)),
        ((5, 5), (-4, -5)),
        ((1, 1), (-1, -1)),
        ((1, 0), (1, 1)),
    ],
    ids=["zero", "non-root", "non-roots-with-root-sum", "zero-sum", "sum-not-root"],
)
def test_struct_const_rejects_pairs_without_root_sum(a, b):
    with pytest.raises(ValueError):
        system("A", 2).struct_const(a, b)


def test_jacobi_exhaustive_g2():
    rs = system("G", 2)
    n = rs.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                assert not jacobi_defect(rs, i, j, k)


def test_killing_grading_and_values():
    rs = system("A", 1)
    a = rs.simple_root(1)
    e, f, h = x_vector(rs, a), x_vector(rs, rs.negative(a)), h_vector(rs, 1)
    assert killing(rs, h, h) == 8
    assert killing(rs, e, e) == 0
    assert killing(rs, e, f) != 0
    assert killing(rs, e, h) == 0

    rs = system("B", 3)
    roots = rs.positive_roots
    for a in roots[:4]:
        for b in roots[:4]:
            val = killing(rs, x_vector(rs, a), x_vector(rs, rs.negative(b)))
            assert (val != 0) == (a == b)


def test_killing_symmetric_invariant_sampled():
    rs = system("F", 4)
    rng = random.Random(17)
    for _ in range(150):
        i, j, k = (rng.randrange(rs.dim) for _ in range(3))
        x, y, z = (AlgebraElement(rs, [(t, 1)]) for t in (i, j, k))
        assert killing(rs, x, y) == killing(rs, y, x)
        assert killing(rs, bracket(rs, x, y), z) == killing(rs, x, bracket(rs, y, z))


def test_killing_nondegenerate():
    rs = system("B", 2)
    gram = [
        [killing(rs, AlgebraElement(rs, [(i, 1)]), AlgebraElement(rs, [(j, 1)])) for j in range(rs.dim)]
        for i in range(rs.dim)
    ]
    assert linalg.rank(gram) == rs.dim


def ad_dense(rs, x):
    """The matrix of ad x, densified from its sparse columns."""
    rows = [[0] * rs.dim for _ in range(rs.dim)]
    for j, col in ad_columns(rs, x).items():
        for i, v in col.items():
            rows[i][j] = v
    return rows


def test_ad_matrix():
    rs = system("A", 1)
    zero = ad_dense(rs, AlgebraElement(rs))
    assert all(v == 0 for row in zero for v in row)
    h = ad_dense(rs, h_vector(rs, 1))
    assert [h[i][i] for i in range(3)] == [2, 0, -2]
    e = ad_dense(rs, x_vector(rs, rs.simple_root(1)))

    def matmul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]

    e2 = matmul(e, e)
    assert any(v != 0 for row in e2 for v in row)
    e3 = matmul(e2, e)
    assert all(v == 0 for row in e3 for v in row)


def test_ad_matrix_cartan_diagonal():
    rs = system("G", 2)
    m = ad_dense(rs, h_vector(rs, 1))
    for i in range(rs.dim):
        for j in range(rs.dim):
            if i != j:
                assert m[i][j] == 0
    for idx, a in enumerate(rs.positive_roots):
        assert m[idx][idx] == rs.pairing(a, rs.simple_root(1))


def test_highest_root():
    rs = system("G", 2)
    assert rs.highest_root({1}) == rs.simple_root(1)
    assert rs.highest_root({1, 2}) == (2, 3)
    rs6 = system("E", 6)
    from quasired.cascade import kostant_cascade

    c = kostant_cascade(rs6, rs6.full_subset())
    assert rs6.highest_root(rs6.full_subset()) == c.nodes[0].eps == (1, 2, 2, 3, 2, 1)
    with pytest.raises(ValueError):
        rs6.highest_root(frozenset())
    with pytest.raises(ValueError):
        rs6.highest_root({1, 6})  # disconnected


def test_algebra_element_normalization():
    rs = system("A", 2)
    x = AlgebraElement(rs, [(0, Fraction(1, 2)), (0, Fraction(-1, 2)), (1, 3)])
    assert x.coords == {1: Fraction(3)}
    assert (x - x).coords == {}
    assert not AlgebraElement(rs)


@pytest.mark.parametrize("index", [-1, 14, 10**6, 2.0, True], ids=repr)
def test_algebra_element_rejects_basis_indices_outside_the_algebra(index):
    # G2 has dimension 14. Unchecked, -1 is accepted: killing and bracket
    # with it return 0, form_stabilizer returns a stabilizer and leaves a
    # killing_row(-1) cache entry; 14 fails inside killing_row with an
    # IndexError
    rs = system("G", 2)
    rows = type(rs).killing_row.cache_info().currsize
    for coords in ([(index, 1)], {index: 0}, [(0, 1), (index, 2)]):
        with pytest.raises(ValueError, match=r"not within 0\.\.13"):
            AlgebraElement(rs, coords)
    assert type(rs).killing_row.cache_info().currsize == rows
    assert AlgebraElement(rs, [(0, 1), (13, 2)]).coords == {0: 1, 13: 2}


def test_shared_system_identity():
    assert build_root_system(SimpleType("E", 7)) is build_root_system(SimpleType("E", 7))


def test_ad_matrix_agrees_with_bracket():
    rs = system("C", 3)
    rng = random.Random(29)
    for _ in range(10):
        x = AlgebraElement(rs, [(rng.randrange(rs.dim), rng.randint(-3, 3)) for _ in range(3)])
        y = AlgebraElement(rs, [(rng.randrange(rs.dim), rng.randint(-3, 3)) for _ in range(3)])
        M = ad_dense(rs, x)
        vy = y.dense()
        expected = bracket(rs, x, y).dense()
        got = [sum(M[i][j] * vy[j] for j in range(rs.dim)) for i in range(rs.dim)]
        assert got == expected

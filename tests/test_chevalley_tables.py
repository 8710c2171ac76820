"""The Chevalley tables against their definitions.

Killing values are checked against the trace tr(ad e_i ad e_j) read off the
bracket table; pairings and coroots against their rational formulas over the
bilinear form; the structure constants against SHA-256 digests of the whole
bracket table, so that no sign can move unnoticed; and each memoized
bracket row against the brackets computed pair by pair from their
definitions.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from quasired.rootsys import SimpleType, build_root_system


def system(family, rank):
    return build_root_system(SimpleType(family, rank))


def killing_trace(rs, i, j):
    """kappa(e_i, e_j) = tr(ad e_i ad e_j), summed over the basis."""
    tot = 0
    for k in range(rs.dim):
        for m, c1 in rs.bracket_row(j).get(k, ()):
            for q, c2 in rs.bracket_row(i).get(m, ()):
                if q == k:
                    tot += c1 * c2
    return tot


def killing_value(rs, i, j):
    """kappa(e_i, e_j) read from the memoized Killing row of e_i."""
    return dict(rs.killing_row(i)).get(j, 0)


def all_roots(rs):
    return list(rs.positive_roots) + [rs.negative(a) for a in rs.positive_roots]


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)])
def test_killing_closed_form_matches_trace_every_pair(family, rank):
    rs = system(family, rank)
    for i in range(rs.dim):
        assert all(v for _, v in rs.killing_row(i)), i
        for j in range(rs.dim):
            assert killing_value(rs, i, j) == killing_trace(rs, i, j), (i, j)


@pytest.mark.parametrize("rank", [6, 7, 8])
def test_killing_closed_form_matches_trace_exceptional(rank):
    rs = system("E", rank)
    hs = [rs.idx_h(i) for i in range(1, rank + 1)]
    for i in hs:
        for j in hs:
            assert killing_value(rs, i, j) == killing_trace(rs, i, j), (i, j)
    for a in rs.positive_roots:
        i, j = rs.idx_x(a), rs.idx_x(rs.negative(a))
        assert killing_value(rs, i, j) == killing_trace(rs, i, j) != 0, a
        assert killing_value(rs, j, i) == killing_trace(rs, j, i), a


def form(rs, u, v):
    """(u, v) straight from the Cartan matrix and the symmetrizer."""
    return sum(
        a * b * rs.symmetrizer[j] * rs.cartan[i][j]
        for i, a in enumerate(u)
        for j, b in enumerate(v)
    )


@pytest.mark.parametrize(
    "family,rank",
    [
        ("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8), ("B", 4), ("C", 4), ("D", 5),
        ("B", 9), ("C", 9), ("D", 9),
    ],
)
def test_pairing_and_coroots_match_fraction_formulas(family, rank):
    rs = system(family, rank)
    roots = all_roots(rs)
    rng = random.Random(rank)
    # lattice vectors that are mostly not roots
    lams = roots + [tuple(rng.randint(-9, 9) for _ in range(rank)) for _ in range(50)]
    for alpha in roots:
        n2 = form(rs, alpha, alpha)
        assert rs.norm2(alpha) == n2
        expected = [Fraction(2 * m * d, n2) for m, d in zip(alpha, rs.symmetrizer)]
        assert list(rs.coroot_coeffs(alpha)) == expected
        for lam in lams:
            assert rs.pairing(lam, alpha) == Fraction(2 * form(rs, lam, alpha), n2)


# one digest of the nonzero brackets [e_i, e_j], i < j, per type
BRACKET_DIGESTS = {
    ("A", 1): "d156ddb3192f2b126b5aa993b6ec647e388d93d1ff96171ee49ad48cb18d7298",
    ("A", 5): "b689fdcca2aee96a63431f525dd422b132c68b3b5b231b9ec6faa914a9f10f06",
    ("B", 2): "d5db887bb5f8f895fc6cd522203047cccd9957d5bcefa024aa2d7f2baa023b42",
    ("G", 2): "9c49f71cb187033bd7a68012909bcd83f07c77be3cfbf963968765b5b4fe0c29",
    ("F", 4): "5ebf35cff8aa1ade74658fb9dbbf4e0df26ac4426505ca4b9d52c3fb313a079c",
    ("E", 6): "a773096041b822ced83f868aa300e48103e093adf6605548d014494acc5b09b0",
    ("E", 7): "9da976186eaa4a5d1af08587c06afd9f3a2b6d62519742bb88c6d2ed7c904dad",
    ("E", 8): "7d1bbbcc5a2dd7cf669c118df01ecba6d99bbbd46c8c4ce69a5c5d2375b82dd5",
    ("B", 4): "9cacfd41dd6444ac394be686a0ceafda9ce64196043f72e020b8876e88d523a5",
    ("C", 4): "f3cb7b6f366566f1ad4f9a034b3155867ae7a2df2275c1aecf45901b29611f4b",
    ("D", 5): "73afdd4faa54e21d24eeab63f6bc18e16494c12b9fbe215795c57f11b7e2aefd",
}


@pytest.mark.parametrize("family,rank", sorted(BRACKET_DIGESTS))
def test_structure_constants_are_pinned(family, rank):
    rs = system(family, rank)
    h = hashlib.sha256()
    for i in range(rs.dim):
        for j in range(i + 1, rs.dim):
            for k, c in rs.bracket_row(i).get(j, ()):
                if c:
                    h.update(f"{i} {j} {k} {c}\n".encode())
    assert h.hexdigest() == BRACKET_DIGESTS[(family, rank)]


@pytest.mark.parametrize("family,rank", sorted(BRACKET_DIGESTS))
def test_bracket_table_is_antisymmetric(family, rank):
    # the digests pin only i < j; the table must give [e_j, e_i] = -[e_i, e_j]
    rs = system(family, rank)
    for i in range(rs.dim):
        for j in range(i, rs.dim):
            assert rs.bracket_row(j).get(i, ()) == tuple((k, -c) for k, c in rs.bracket_row(i).get(j, ()))


@pytest.mark.parametrize("family,rank", sorted(BRACKET_DIGESTS))
def test_bracket_into_inverts_bracket_basis(family, rank):
    rs = system(family, rank)
    into = {k: [] for k in range(rs.dim)}
    for i in range(rs.dim):
        for j in range(rs.dim):
            for k, c in rs.bracket_row(i).get(j, ()):
                into[k].append((i, j, c))
    for k in range(rs.dim):
        assert rs.bracket_into(k) == tuple(into[k]), k


def direct_bracket(rs, i, j):
    """[e_i, e_j] from its definition, pair by pair: N_{a,b} x_{a+b}, h_a for
    b = -a, and <b, alpha_m^v> against h_m."""
    a, b = rs.index_root(i), rs.index_root(j)
    if a is None and b is None:
        return ()
    if a is None:
        c = rs.pairing(b, rs.simple_root(i - rs.n_pos + 1))
        return ((j, c),) if c else ()
    if b is None:
        c = rs.pairing(a, rs.simple_root(j - rs.n_pos + 1))
        return ((i, -c),) if c else ()
    s = tuple(x + y for x, y in zip(a, b))
    if not any(s):
        return tuple((rs.idx_h(k + 1), c) for k, c in enumerate(rs.coroot_coeffs(a)) if c)
    if not rs.is_root(s):
        return ()
    return ((rs.idx_x(s), rs.struct_const(a, b)),)


@pytest.mark.parametrize(
    "family,rank", [("G", 2), ("B", 3), ("C", 4), ("D", 4), ("F", 4), ("E", 6)]
)
def test_bracket_row_matches_direct_brackets(family, rank):
    rs = system(family, rank)
    for i in range(rs.dim):
        want = {j: t for j in range(rs.dim) if (t := direct_bracket(rs, i, j))}
        row = rs.bracket_row(i)
        assert row == want and list(row) == sorted(row), i

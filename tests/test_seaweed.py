import itertools
import random
from fractions import Fraction

import pytest

from conftest import system
from quasired.cascade import kostant_cascade, well_interlaced
from quasired.rootsys import (
    AlgebraElement,
    SimpleType,
    bracket,
    bracket_coords,
    h_vector,
    killing_coords,
    x_vector,
)
from quasired.seaweed import (
    BiparabolicSpec,
    CoefficientVector,
    _draw,
    biparabolic_basis,
    build_u,
    build_u_minus,
    interlaced_torus_elements,
    parabolic,
    rank2_data,
    rank2_stabilizer_element,
    sample_cv,
    seaweed_index,
)
from quasired.stabilizer import is_semisimple_element


def stabilizes(spec, u, x):
    r = spec.system()
    w = killing_coords(r, u.coords.items())
    for p in biparabolic_basis(spec):
        z = bracket_coords(r, x.coords.items(), ((p, 1),))
        if sum((c * w.get(k, 0) for k, c in z.items()), Fraction(0)):
            return False
    return True


def all_subsets(rank):
    items = list(range(1, rank + 1))
    for n in range(rank + 1):
        for combo in itertools.combinations(items, n):
            yield frozenset(combo)


def test_borel_and_full_dimensions():
    st = SimpleType("E", 6)
    rs = system("E", 6)
    borel = parabolic(st, frozenset())
    assert len(biparabolic_basis(borel)) == rs.n_pos + rs.rank
    whole = BiparabolicSpec(st, rs.full_subset(), rs.full_subset())
    assert len(biparabolic_basis(whole)) == rs.dim


def test_e7_parabolic_dimension_90():
    spec = parabolic(SimpleType("E", 7), {1, 2, 3, 4, 5})
    assert len(biparabolic_basis(spec)) == 90


def test_basis_closed_under_bracket():
    st = SimpleType("B", 3)
    rs = system("B", 3)
    spec = BiparabolicSpec(st, {1, 2}, {2, 3})
    basis = biparabolic_basis(spec)
    for i in basis:
        for j in basis:
            z = bracket(rs, AlgebraElement(rs, [(i, 1)]), AlgebraElement(rs, [(j, 1)]))
            assert set(z.coords) <= set(basis)


@pytest.mark.parametrize(
    "family,rank", [("G", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("E", 6)]
)
def test_basis_indices_match_element_construction(family, rank):
    # every seaweed of the type; for E6 every parabolic in both orientations
    rs = system(family, rank)
    st = SimpleType(family, rank)
    full = rs.full_subset()
    subs = list(all_subsets(rank))
    if family == "E":
        pairs = [p for s in subs for p in ((s, full), (full, s))]
    else:
        pairs = [(p1, p2) for p1 in subs for p2 in subs]
    for p1, p2 in pairs:
        spec = BiparabolicSpec(st, p1, p2)
        # n+ of pi2, the Cartan, n- of pi1, built as elements
        els = [x_vector(rs, a) for a in rs.subsystem_positive(p2)]
        els += [h_vector(rs, i) for i in range(1, rank + 1)]
        els += [x_vector(rs, rs.negative(a)) for a in rs.subsystem_positive(p1)]
        want = [i for e in els for i in e.coords]
        assert list(biparabolic_basis(spec)) == want == sorted(set(want)), (p1, p2)


def test_index_examples():
    st6 = SimpleType("E", 6)
    assert seaweed_index(parabolic(st6, frozenset())) == 2
    assert seaweed_index(parabolic(st6, {2})) == 3
    assert seaweed_index(parabolic(st6, {1, 5})) == 0
    assert seaweed_index(parabolic(SimpleType("E", 8), {1, 3, 4})) == 2
    assert seaweed_index(parabolic(SimpleType("E", 7), {1, 2, 3, 4, 5})) == 4


def test_index_of_whole_algebra_is_rank():
    for family, rank in [("A", 3), ("G", 2), ("D", 4)]:
        st = SimpleType(family, rank)
        full = frozenset(range(1, rank + 1))
        assert seaweed_index(BiparabolicSpec(st, full, full)) == rank


def test_index_symmetry_random():
    rng = random.Random(5)
    st = SimpleType("F", 4)
    for _ in range(40):
        p1 = frozenset(i for i in range(1, 5) if rng.random() < 0.5)
        p2 = frozenset(i for i in range(1, 5) if rng.random() < 0.5)
        spec = BiparabolicSpec(st, p1, p2)
        assert seaweed_index(spec) == seaweed_index(spec.transpose())


def test_intersection_of_opposite_seaweeds_is_levi():
    rs = system("B", 3)
    st = SimpleType("B", 3)
    for p1 in all_subsets(3):
        for p2 in all_subsets(3):
            levi = len(rs.subsystem_positive(p1 & p2)) * 2 + 3
            n1 = rs.subsystem_positive(p1)
            n2 = rs.subsystem_positive(p2)
            inter = len(set(n1) & set(n2)) * 2 + 3
            assert inter == levi


def test_index_zero_characterization_e6():
    from quasired import linalg

    rs = system("E", 6)
    st = SimpleType("E", 6)
    full = rs.full_subset()
    kf = len(kostant_cascade(rs, full))
    for sub in all_subsets(6):
        spec = parabolic(st, sub)
        c = kostant_cascade(rs, sub)
        joint = [list(e) for e in c.eps_set] + [
            list(n.eps) for n in kostant_cascade(rs, full).nodes
        ]
        indep = linalg.rank(joint) == len(c) + kf if joint else kf == 0
        zero_expected = indep and len(c) + kf == 6
        assert (seaweed_index(spec) == 0) == zero_expected


def test_transitivity_index_shift():
    # whenever the cascade of pi' sits inside the full cascade:
    # ind q(pi'', pi') = ind q(pi'', pi) + (k_pi - k_pi')
    for family, rank in [("F", 4), ("E", 7)]:
        rs = system(family, rank)
        st = SimpleType(family, rank)
        full = rs.full_subset()
        kfull = len(kostant_cascade(rs, full))
        full_supports = kostant_cascade(rs, full).supports()
        rng = random.Random(9)
        subs = list(all_subsets(rank)) if rank == 4 else [
            frozenset(i for i in range(1, rank + 1) if rng.random() < 0.5)
            for _ in range(40)
        ]
        checked = 0
        for p_mid in subs:
            c_mid = kostant_cascade(rs, p_mid)
            if not c_mid.supports() <= full_supports:
                continue
            for p_small in (frozenset(), min(p_mid, default=None) and frozenset(list(p_mid)[:1])):
                if p_small is None:
                    continue
                if not p_small <= p_mid:
                    continue
                lhs = seaweed_index(BiparabolicSpec(st, p_small, p_mid))
                rhs = seaweed_index(BiparabolicSpec(st, p_small, full))
                assert lhs == rhs + (kfull - len(c_mid)), (family, p_mid, p_small)
                checked += 1
        assert checked > 3


def test_additivity_identity():
    # orthogonal pairs: ind p(union) = ind p' + ind p'' - (rk + k - 2 dim(E' cap E''))
    from quasired import linalg

    for family, rank, exhaustive in [("F", 4, True), ("E", 7, False)]:
        rs = system(family, rank)
        st = SimpleType(family, rank)
        full = rs.full_subset()
        k_full = len(kostant_cascade(rs, full))
        eps_full = [list(n.eps) for n in kostant_cascade(rs, full).nodes]
        pairs = []
        if exhaustive:
            for p1 in all_subsets(rank):
                for p2 in all_subsets(rank):
                    pairs.append((p1, p2))
        else:
            rng = random.Random(3)
            for _ in range(200):
                p1 = frozenset(i for i in range(1, rank + 1) if rng.random() < 0.35)
                p2 = frozenset(i for i in range(1, rank + 1) if rng.random() < 0.35)
                pairs.append((p1, p2))
        checked = 0
        for p1, p2 in pairs:
            if p1 & p2:
                continue
            if any(rs.cartan[a - 1][b - 1] for a in p1 for b in p2):
                continue

            def edim(sub):
                c = kostant_cascade(rs, sub)
                return linalg.rank([list(n.eps) for n in c.nodes] + eps_full)

            d1, d2, d12 = edim(p1), edim(p2), edim(p1 | p2)
            inter = d1 + d2 - d12
            lhs = seaweed_index(parabolic(st, p1 | p2))
            rhs = (
                seaweed_index(parabolic(st, p1))
                + seaweed_index(parabolic(st, p2))
                - (rank + k_full - 2 * inter)
            )
            assert lhs == rhs, (family, p1, p2)
            checked += 1
        assert checked > 5


def test_spec_subsets_outside_the_rank_are_rejected_by_checked_subset():
    st = SimpleType("E", 6)
    with pytest.raises(ValueError, match=r"^subset \[9\] not within 1\.\.6$"):
        parabolic(st, {9})
    with pytest.raises(ValueError, match=r"^subset \[0, 1\] not within 1\.\.6$"):
        BiparabolicSpec(st, {1}, {0, 1})
    assert BiparabolicSpec(st, [1, 1], (2,)).pi1 == frozenset({1})


def test_build_u_counts():
    st = SimpleType("E", 7)
    rs = system("E", 7)
    spec = parabolic(st, {1, 2, 3, 4, 5})
    cpi = kostant_cascade(rs, rs.full_subset())
    cp1 = kostant_cascade(rs, spec.pi1)
    cv = CoefficientVector.from_maps(
        {n.support: v for n, v in zip(cpi.nodes, [-3, 5, 7, 11, 13, -17, 19])},
        {n.support: v for n, v in zip(cp1.nodes, [23, -29, 31, 37])},
    )
    u = build_u(spec, cv)
    assert len(u.coords) == 11

    borel = parabolic(st, frozenset())
    cv0 = CoefficientVector.from_maps({n.support: 1 for n in cpi.nodes}, {})
    assert build_u(borel, cv0) == build_u_minus(borel)


def test_draw_reads_the_randint_stream():
    # _draw reads getrandbits(7) as randint(-50, 50) does; equal values and
    # equal generator states after each draw keep every later trial of a
    # search on the stream of the loop below
    for seed in range(1000):
        for n in range(1, 21):
            want_rng = random.Random(seed)
            want = []
            while len(want) < n:
                v = want_rng.randint(-50, 50)
                if v:
                    want.append(v)
            rng = random.Random(seed)
            assert _draw(n, rng) == want, (seed, n)
            assert rng.getrandbits(64) == want_rng.getrandbits(64), (seed, n)


def test_build_u_rejects_bad_coefficients():
    st = SimpleType("A", 2)
    rs = system("A", 2)
    spec = parabolic(st, frozenset())
    cpi = kostant_cascade(rs, rs.full_subset())
    with pytest.raises(ValueError):
        build_u(spec, CoefficientVector.from_maps({}, {}))
    bad = CoefficientVector.from_maps({n.support: 0 for n in cpi.nodes}, {})
    with pytest.raises(ValueError):
        build_u(spec, bad)


def test_build_u_minus_cases():
    st = SimpleType("F", 4)
    rs = system("F", 4)
    k = len(kostant_cascade(rs, rs.full_subset()))
    assert len(build_u_minus(parabolic(st, frozenset())).coords) == k
    assert not build_u_minus(BiparabolicSpec(st, rs.full_subset(), rs.full_subset()))
    assert len(build_u_minus(parabolic(st, {3, 4})).coords) == 4


def test_interlaced_elements_shared_nodes():
    st = SimpleType("F", 4)
    rs = system("F", 4)
    full = rs.full_subset()
    spec = BiparabolicSpec(st, full, full)
    rng = random.Random(2)
    cv = sample_cv(spec, rng)
    els = interlaced_torus_elements(spec, cv)
    assert len(els) == 4
    am, bm = dict(cv.a), dict(cv.b)
    for n, x in zip(kostant_cascade(rs, full).nodes, els):
        up = x.coords[rs.idx_x(n.eps)]
        dn = x.coords[rs.idx_x(rs.negative(n.eps))]
        assert dn / up == am[n.support] / bm[n.support]
    u = build_u(spec, cv)
    for x in els:
        assert stabilizes(spec, u, x)
        assert is_semisimple_element(x)


@pytest.mark.parametrize(
    "family,rank,p1,p2",
    [
        ("F", 4, frozenset({3, 4}), frozenset({1, 2, 3, 4})),
        ("C", 5, frozenset({1, 2, 3, 4}), frozenset({1, 2, 3, 4, 5})),
        ("C", 5, frozenset({1, 2, 3, 4, 5}), frozenset({1, 2, 3, 4})),
        ("B", 6, frozenset({6}), frozenset({1, 2, 3, 4, 5, 6})),
    ],
)
def test_interlaced_elements_stabilize_and_semisimple(family, rank, p1, p2):
    st = SimpleType(family, rank)
    rs = system(family, rank)
    ok, counts = well_interlaced(rs, p1, p2)
    assert ok, "fixture subsets must be well-interlaced"
    spec = BiparabolicSpec(st, p1, p2)
    rng = random.Random(23)
    cv = sample_cv(spec, rng)
    els = interlaced_torus_elements(spec, cv)
    assert len(els) == counts.combinatorial_total
    u = build_u(spec, cv)
    for x in els:
        assert stabilizes(spec, u, x)
        assert is_semisimple_element(x)
    # linear independence of the produced family
    from quasired import linalg

    assert linalg.rank([x.dense() for x in els]) == len(els)


@pytest.mark.parametrize(
    "family,rank,pair",
    [("F", 4, {1, 2}), ("E", 6, {2, 4}), ("E", 7, {1, 3}), ("E", 8, {7, 8})],
)
def test_rank2_element(family, rank, pair):
    st = SimpleType(family, rank)
    rs = system(family, rank)
    data = rank2_data(rs, pair)
    # the four coroot coefficients recombine exactly
    full = kostant_cascade(rs, rs.full_subset())
    acc = [Fraction(0)] * rank
    for ck, j in zip(data.c, data.nodes):
        for t, v in enumerate(rs.coroot_coeffs(full.nodes[j].eps)):
            acc[t] += ck * v
    assert acc == [Fraction(v) for v in rs.coroot_coeffs(rs.highest_root(pair))]
    spec = parabolic(st, pair)
    rng = random.Random(41)
    cv = sample_cv(spec, rng)
    x = rank2_stabilizer_element(rs, pair, cv)
    u = build_u(spec, cv)
    assert stabilizes(spec, u, x)
    assert is_semisimple_element(x)
    # the lowering term on the eps_{j1} side is the semisimplicity witness
    j1_eps = full.nodes[data.nodes[1]].eps
    assert x.coords[rs.idx_x(rs.negative(j1_eps))] != 0


def test_rank2_rejects_wrong_shapes():
    rs = system("E", 6)
    with pytest.raises(ValueError):
        rank2_data(rs, {3, 4})  # misses the attachment root
    with pytest.raises(ValueError):
        rank2_data(rs, {2})  # not rank two
    with pytest.raises(ValueError):
        rank2_data(system("B", 4), {1, 2})  # wrong family

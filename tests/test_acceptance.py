"""Acceptance suite: one test per shipped guarantee, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
timing report. Every check is exact; the time budgets are asserted as well.
"""

import itertools
import random
import time

from conftest import jacobi_defect, root_set, string_below, system
from form_oracle import subspace_elements
from quasired import linalg
from quasired.cascade import kostant_cascade
from quasired.classify import (
    enumerate_index_zero,
    enumerate_verdicts,
    non_qr_subsets,
    single_root_test,
)
from quasired.rootsys import AlgebraElement, SimpleType, bracket, killing
from quasired.seaweed import (
    BiparabolicSpec,
    biparabolic_basis,
    build_u,
    parabolic,
    sample_cv,
    seaweed_index,
)
from quasired.stabilizer import (
    certify_quasi_reductive,
    form_stabilizer,
    is_abelian,
    is_semisimple_element,
    killing_radical_on,
)

ALL_TYPES = (
    [("A", l) for l in range(1, 11)]
    + [("B", l) for l in range(2, 11)]
    + [("C", l) for l in range(3, 11)]
    + [("D", l) for l in range(4, 11)]
    + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
)


def _report(name, t0, budget):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget"


def expected_k(family, l):
    if family == "A":
        return (l + 1) // 2
    if family in ("B", "C"):
        return l
    if family == "D":
        return 2 * (l // 2)
    return {("G", 2): 2, ("F", 4): 4, ("E", 6): 4, ("E", 7): 7, ("E", 8): 8}[(family, l)]


def all_subsets(rank):
    items = list(range(1, rank + 1))
    for n in range(rank + 1):
        for combo in itertools.combinations(items, n):
            yield frozenset(combo)


def test_criterion_01_cascade_sizes():
    t0 = time.time()
    for family, rank in ALL_TYPES:
        rs = system(family, rank)
        k = len(kostant_cascade(rs, rs.full_subset()))
        assert k == expected_k(family, rank), (family, rank, k)
    assert expected_k("E", 7) == 7 and expected_k("D", 6) == 6 and expected_k("A", 5) == 3
    _report("01 cascade sizes", t0, 5)


def test_criterion_02_cascade_structure():
    t0 = time.time()
    for family, rank in ALL_TYPES:
        rs = system(family, rank)
        c = kostant_cascade(rs, rs.full_subset())
        eps = c.eps_set
        for i in range(len(eps)):
            for j in range(i + 1, len(eps)):
                assert rs.root_sum(eps[i], eps[j]) is None
                assert not rs.is_root(tuple(a - b for a, b in zip(eps[i], eps[j])))
        seen = [a for n in c.nodes for a in n.gamma]
        assert len(seen) == len(set(seen)) == rs.n_pos, (family, rank)
    for family, rank, size in [("F", 4, 4), ("E", 6, 4), ("E", 7, 7), ("E", 8, 8)]:
        rs = system(family, rank)
        assert len(set(kostant_cascade(rs, rs.full_subset()).eps_set)) == size
    _report("02 cascade structure", t0, 10)


def test_criterion_03_e6_index_zero_list():
    t0 = time.time()
    got = {tuple(sorted(s)) for s in enumerate_index_zero(SimpleType("E", 6))}
    expected = {
        (1, 5), (3, 6), (1, 4, 5), (3, 4, 6), (1, 5, 6), (1, 3, 6), (1, 3, 5),
        (3, 5, 6), (1, 3, 4), (4, 5, 6), (1, 3, 4, 5), (3, 4, 5, 6),
        (1, 2, 3, 4), (2, 4, 5, 6),
    }
    assert got == expected
    _report("03 index-zero parabolics in E6", t0, 5)


def test_criterion_04_d6_flag_classification():
    t0 = time.time()
    got = {v.subset for v in non_qr_subsets(SimpleType("D", 6))}
    expected = {
        (2,), (4,), (1, 4), (2, 4), (2, 5), (2, 6),
        (1, 2, 4), (2, 3, 4), (2, 4, 5), (2, 4, 6), (2, 5, 6),
        (2, 4, 5, 6),
    }
    assert got == expected
    _report("04 orthogonal flag criterion on D6", t0, 5)


def test_criterion_05_exceptional_tables():
    t0 = time.time()
    failing_single = {
        ("G", 2): {1},
        ("F", 4): {1},
        ("E", 6): {2},
        ("E", 7): {1, 4, 6},
        ("E", 8): {1, 4, 6, 8},
    }
    for (family, rank), bad in failing_single.items():
        st = SimpleType(family, rank)
        for i in range(1, rank + 1):
            assert single_root_test(st, i) == (i not in bad)

    connected_tables = {
        ("G", 2): {(1,): 1},
        ("F", 4): {(1,): 1},
        ("E", 7): {
            (1,): 1, (4,): 1, (6,): 1,
            (1, 3, 4): 2, (4, 5, 6): 2, (1, 3, 4, 5, 6): 3,
        },
        ("E", 8): {
            (1,): 1, (4,): 1, (6,): 1, (8,): 1,
            (1, 3, 4): 2, (4, 5, 6): 2, (6, 7, 8): 2,
            (1, 3, 4, 5, 6): 3, (4, 5, 6, 7, 8): 3,
            (1, 3, 4, 5, 6, 7, 8): 4,
        },
    }
    for (family, rank), table in connected_tables.items():
        st = SimpleType(family, rank)
        rs = system(family, rank)
        got = {
            v.subset: v.index
            for v in non_qr_subsets(st)
            if rs.is_connected(v.subset)
        }
        assert got == table, (family, rank)

    e6 = {v.subset: v.index for v in non_qr_subsets(SimpleType("E", 6))}
    e6_expected = {
        (2,): 3,
        (1, 2): 2, (2, 6): 2, (2, 3): 2, (2, 5): 2,
        (1, 2, 5): 1, (2, 3, 6): 1, (1, 2, 6): 3, (2, 3, 5): 3,
        (1, 2, 3): 2, (2, 5, 6): 2,
        (1, 2, 3, 5): 1, (2, 3, 5, 6): 1, (1, 2, 3, 6): 1, (1, 2, 5, 6): 1,
        (1, 2, 3, 5, 6): 3,
        (1, 2, 3, 4, 6): 1, (1, 2, 4, 5, 6): 1,
    }
    assert e6 == e6_expected
    _report("05 exceptional classification tables", t0, 30)


def test_criterion_06_e7_stabilizer_replication():
    t0 = time.time()
    spec = parabolic(SimpleType("E", 7), {1, 2, 3, 4, 5})
    assert len(biparabolic_basis(spec)) == 90
    assert seaweed_index(spec) == 4
    cert = certify_quasi_reductive(spec, trials=4, seed=2026)
    assert cert is not None and cert.trial <= 3
    assert cert.stab.dim == 4
    assert killing_radical_on(cert.stab).dim == 0
    assert is_abelian(cert.stab)
    assert all(is_semisimple_element(e) for e in subspace_elements(cert.stab))
    _report("06 rank-seven stabilizer replication", t0, 60)


def test_criterion_07_certificate_sweep():
    t0 = time.time()
    totals = {}
    for family, rank in [("G", 2), ("F", 4), ("E", 6)]:
        st = SimpleType(family, rank)
        n_qr = n_non = 0
        for v in enumerate_verdicts(st):
            spec = parabolic(st, frozenset(v.subset))
            cert = certify_quasi_reductive(spec, trials=20, seed=101)
            if v.quasi_reductive:
                assert cert is not None, (family, rank, v.subset)
                n_qr += 1
            else:
                assert cert is None, (family, rank, v.subset)
                n_non += 1
        totals[(family, rank)] = (n_qr, n_non)
    assert totals[("G", 2)] == (3, 1)
    assert totals[("F", 4)] == (12, 4)
    assert totals[("E", 6)] == (46, 18)
    _report("07 certificate sweep G2/F4/E6", t0, 1800)


def test_criterion_08_chevalley_properties():
    t0 = time.time()
    # Jacobi identity: exhaustive on G2 and F4
    for family, rank in [("G", 2), ("F", 4)]:
        rs = system(family, rank)
        n = rs.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    assert not jacobi_defect(rs, i, j, k), (family, i, j, k)
    # Jacobi identity: sampled on E6..E8
    for family, rank in [("E", 6), ("E", 7), ("E", 8)]:
        rs = system(family, rank)
        rng = random.Random(1000 + rank)
        for _ in range(10_000):
            i, j, k = (rng.randrange(rs.dim) for _ in range(3))
            assert not jacobi_defect(rs, i, j, k), (family, i, j, k)
    # structure constant magnitudes: exhaustive per type
    for family, rank in [("A", 5), ("B", 5), ("C", 5), ("D", 5), ("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]:
        rs = system(family, rank)
        roots = root_set(rs.cartan)
        for a in roots:
            for b in roots:
                if tuple(x + y for x, y in zip(a, b)) in roots:
                    assert abs(rs.struct_const(a, b)) == string_below(roots, a, b) + 1
    # Killing invariance on random basis triples
    for family, rank in [("F", 4), ("E", 6)]:
        rs = system(family, rank)
        rng = random.Random(2000 + rank)
        for _ in range(1000):
            i, j, k = (rng.randrange(rs.dim) for _ in range(3))
            x, y, z = (AlgebraElement(rs, [(t, 1)]) for t in (i, j, k))
            assert killing(rs, bracket(rs, x, y), z) == killing(rs, x, bracket(rs, y, z))
    _report("08 Chevalley basis properties", t0, 300)


def test_criterion_09_index_identities():
    t0 = time.time()
    # symmetry, exhaustively on F4 and randomly on E7
    stf, rsf = SimpleType("F", 4), system("F", 4)
    subsets_f = list(all_subsets(4))
    for p1 in subsets_f:
        for p2 in subsets_f:
            spec = BiparabolicSpec(stf, p1, p2)
            assert seaweed_index(spec) == seaweed_index(spec.transpose())
    ste, rse = SimpleType("E", 7), system("E", 7)
    rng = random.Random(900)
    pairs_e = [
        (
            frozenset(i for i in range(1, 8) if rng.random() < 0.5),
            frozenset(i for i in range(1, 8) if rng.random() < 0.5),
        )
        for _ in range(120)
    ]
    for p1, p2 in pairs_e:
        spec = BiparabolicSpec(ste, p1, p2)
        assert seaweed_index(spec) == seaweed_index(spec.transpose())

    # transitivity shift whenever the middle cascade embeds in the full one
    for st, rs, cands in ((stf, rsf, subsets_f), (ste, rse, [p for p, _ in pairs_e])):
        full = rs.full_subset()
        k_full = len(kostant_cascade(rs, full))
        full_supports = kostant_cascade(rs, full).supports()
        checked = 0
        for mid in cands:
            cm = kostant_cascade(rs, mid)
            if not cm.supports() <= full_supports:
                continue
            for small in all_subsets(rs.rank):
                if not small <= mid:
                    continue
                lhs = seaweed_index(BiparabolicSpec(st, small, mid))
                rhs = seaweed_index(BiparabolicSpec(st, small, full))
                assert lhs == rhs + (k_full - len(cm)), (st, mid, small)
                checked += 1
        assert checked > 10

    # additivity for orthogonal unions; draw the second subset inside the
    # orthogonal complement of the first so the sample is not vacuous
    ortho_e = []
    rng2 = random.Random(901)
    while len(ortho_e) < 60:
        p1 = frozenset(i for i in range(1, 8) if rng2.random() < 0.3)
        allowed = [
            j
            for j in range(1, 8)
            if j not in p1 and all(rse.cartan[j - 1][a - 1] == 0 for a in p1)
        ]
        p2 = frozenset(j for j in allowed if rng2.random() < 0.6)
        ortho_e.append((p1, p2))
    for st, rs, pairs in (
        (stf, rsf, [(a, b) for a in subsets_f for b in subsets_f]),
        (ste, rse, ortho_e),
    ):
        full = rs.full_subset()
        k_full = len(kostant_cascade(rs, full))
        eps_full = [list(n.eps) for n in kostant_cascade(rs, full).nodes]
        checked = 0
        for p1, p2 in pairs:
            if p1 & p2 or any(rs.cartan[a - 1][b - 1] for a in p1 for b in p2):
                continue

            def edim(sub):
                c = kostant_cascade(rs, sub)
                return linalg.rank([list(n.eps) for n in c.nodes] + eps_full)

            inter = edim(p1) + edim(p2) - edim(p1 | p2)
            lhs = seaweed_index(parabolic(st, p1 | p2))
            rhs = (
                seaweed_index(parabolic(st, p1))
                + seaweed_index(parabolic(st, p2))
                - (rs.rank + k_full - 2 * inter)
            )
            assert lhs == rhs, (st, p1, p2)
            checked += 1
        assert checked > 10
    _report("09 index identities", t0, 120)


def test_criterion_10_generic_regularity():
    t0 = time.time()
    draws = 0
    hits = 0
    for family, rank, n_draws, seed in [("F", 4, 50, 31), ("E", 6, 50, 32)]:
        st = SimpleType(family, rank)
        rng = random.Random(seed)
        for _ in range(n_draws):
            p1 = frozenset(i for i in range(1, rank + 1) if rng.random() < 0.5)
            p2 = frozenset(i for i in range(1, rank + 1) if rng.random() < 0.5)
            spec = BiparabolicSpec(st, p1, p2)
            cv = sample_cv(spec, rng)
            S = form_stabilizer(spec, build_u(spec, cv))
            idx = seaweed_index(spec)
            assert S.dim >= idx, (family, p1, p2)
            draws += 1
            if S.dim == idx:
                hits += 1
    assert draws == 100
    assert hits >= 90, f"only {hits} regular draws out of {draws}"
    print(f"  (regular draws: {hits}/{draws})")
    _report("10 generic regularity", t0, 600)

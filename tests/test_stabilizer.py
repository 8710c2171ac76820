import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from conftest import build_u_minus, dense, h_row, raw_kernel, scaled, system, x_row
from form_oracle import basis_elements, dense_form_stabilizer, subspace_from_vectors
from minpoly_oracle import is_squarefree, minimal_polynomial
from test_verify_golden import LATE_CERTIFICATES, PARABOLICS
from quasired import linalg
from quasired.cascade import kostant_cascade
from quasired.classify import classify_parabolic, non_qr_subsets
from quasired.rootsys import MAX_CLASSICAL_RANK, RootSystem, SimpleType, ad_columns, killing
from quasired.seaweed import (
    BiparabolicSpec,
    CoefficientVector,
    _draw,
    _draw_cv,
    _draw_layout,
    biparabolic_basis,
    build_u,
    parabolic,
    sample_cv,
    seaweed_index,
)
from quasired.stabilizer import (
    MAX_TRIALS,
    Subspace,
    _attempt,
    _commuting,
    _form_pattern,
    _killing_gram,
    _killing_pairs,
    _sparse_int_row,
    certificate_from_text,
    certificate_to_text,
    certify_quasi_reductive,
    form_stabilizer,
    is_abelian,
    is_semisimple_element,
    killing_radical_on,
    reverify_certificate,
)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 4), ("G", 2), ("F", 4), ("E", 6)])
def test_borel_stabilizer_is_eps_kernel_in_cartan(family, rank):
    rs = system(family, rank)
    st = SimpleType(family, rank)
    spec = parabolic(st, frozenset())
    S = form_stabilizer(spec, build_u_minus(spec))
    c = kostant_cascade(rs, rs.full_subset())
    assert S.dim == rank - len(c)
    for e in S.int_rows:
        # inside the Cartan and killed by every cascade eps functional
        assert all(rs.index_root(i) is None for i, _ in e)
        coeffs = [dict(e).get(rs.idx_h(i), 0) for i in range(1, rank + 1)]
        for n in c.nodes:
            val = sum(
                ci * rs.pairing(n.eps, rs.simple_root(i + 1))
                for i, ci in enumerate(coeffs)
            )
            assert val == 0


def test_zero_form_gives_whole_subalgebra():
    st = SimpleType("B", 3)
    rs = system("B", 3)
    spec = BiparabolicSpec(st, {1}, {2, 3})
    S = form_stabilizer(spec, ())
    assert S.dim == len(biparabolic_basis(spec))


def test_form_stabilizer_dim_at_least_index_random():
    rng = random.Random(19)
    st = SimpleType("F", 4)
    for _ in range(15):
        p1 = frozenset(i for i in range(1, 5) if rng.random() < 0.6)
        p2 = frozenset(i for i in range(1, 5) if rng.random() < 0.6)
        spec = BiparabolicSpec(st, p1, p2)
        cv = sample_cv(spec, rng)
        S = form_stabilizer(spec, build_u(spec, cv))
        assert S.dim >= seaweed_index(spec)


def test_form_stabilizer_basis_invariance():
    # the stabilizer depends on the span of the basis only: the index basis
    # through form_stabilizer and a recombined element basis through the
    # dense oracle give the same canonical rows
    st = SimpleType("C", 3)
    spec = parabolic(st, {1, 3})
    rng = random.Random(31)
    cv = sample_cv(spec, rng)
    u = build_u(spec, cv)
    rs = spec.system()
    # random invertible triangular recombination of the basis
    els = basis_elements(spec)
    n = len(els)
    for _ in range(60):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            els[i] = rs.checked_row(els[i] + scaled(rs, rng.randint(-3, 3), els[j]))
    assert sum(map(len, els)) > 2 * n  # really recombined
    assert form_stabilizer(spec, u) == dense_form_stabilizer(rs, els, u)


def test_e7_rank5_parabolic_stabilizer_fixed_coefficients():
    st = SimpleType("E", 7)
    rs = system("E", 7)
    spec = parabolic(st, {1, 2, 3, 4, 5})
    cpi = kostant_cascade(rs, rs.full_subset())
    cp1 = kostant_cascade(rs, spec.pi1)
    cv = CoefficientVector.from_maps(
        {n.support: v for n, v in zip(cpi.nodes, [-3, 5, 7, 11, 13, -17, 19])},
        {n.support: v for n, v in zip(cp1.nodes, [23, -29, 31, 37])},
    )
    assert len(biparabolic_basis(spec)) == 90
    S = form_stabilizer(spec, build_u(spec, cv))
    assert S.dim == 4 == seaweed_index(spec)
    assert is_abelian(S)
    assert killing_radical_on(S).dim == 0
    assert all(is_semisimple_element(rs, e) for e in S.int_rows)


def test_subspace_contains():
    # sl2 has dimension 3, so the ambient vectors are the plain triples
    rs = system("A", 1)
    S = subspace_from_vectors(rs, [[1, 0, 1], [0, 1, 2]])
    assert S.int_rows == (((0, 1), (2, 1)), ((1, 1), (2, 2)))
    # a vector lies in S exactly when adding it leaves the canonical rows alone
    assert subspace_from_vectors(rs, [[1, 0, 1], [0, 1, 2], [2, 3, 8]]) == S
    assert subspace_from_vectors(rs, [[1, 0, 1], [0, 1, 2], [0, 0, 1]]) != S


def test_subspaces_are_equal_by_their_system_object_and_rows():
    # two stabilizers of one form are equal and hash alike; RootSystem
    # defines no equality, so the same rows over a freshly built system of
    # the same type make another subspace
    spec = parabolic(SimpleType("E", 6), frozenset())
    S = form_stabilizer(spec, build_u_minus(spec))
    T = form_stabilizer(spec, build_u_minus(spec))
    assert S is not T and S.dim == 2
    assert S == T and hash(S) == hash(T)
    fresh = Subspace(RootSystem(spec.ambient), S.int_rows)
    assert fresh.system.type == S.system.type and fresh.int_rows == S.int_rows
    assert fresh != S
    assert len({S, T, fresh}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        S.int_rows = ()


def test_killing_radical_cases():
    rs = system("B", 3)
    h = subspace_from_vectors(rs, [dense(rs, h_row(rs, 1)), dense(rs, h_row(rs, 3))])
    assert killing_radical_on(h).dim == 0
    a = rs.positive_roots[0]
    iso = subspace_from_vectors(rs, [dense(rs, x_row(rs, a))])
    assert killing_radical_on(iso).dim == 1


def test_killing_radical_rows_are_already_reduced():
    # killing_radical_on builds its Subspace without re-reducing the rows;
    # non-QR parabolics give nonzero radicals
    rng = random.Random(77)
    dims = []
    for family, rank in [("G", 2), ("F", 4), ("D", 6), ("E", 6)]:
        st = SimpleType(family, rank)
        for v in non_qr_subsets(st):
            spec = parabolic(st, v.subset)
            S = form_stabilizer(spec, build_u(spec, sample_cv(spec, rng)))
            R = killing_radical_on(S)
            rows = [dense(S.system, e) for e in R.int_rows]
            assert subspace_from_vectors(S.system, rows) == R, spec
            dims.append(R.dim)
    assert min(dims) >= 1 and max(dims) >= 2


def test_is_abelian():
    rs = system("A", 2)
    a = rs.simple_root(1)
    cart = subspace_from_vectors(rs, [dense(rs, h_row(rs, 1)), dense(rs, h_row(rs, 2))])
    assert is_abelian(cart)
    sl2ish = subspace_from_vectors(rs, [dense(rs, x_row(rs, a)), dense(rs, h_row(rs, 1))])
    assert not is_abelian(sl2ish)


def test_semisimplicity_routes_agree():
    rs = system("F", 4)
    rng = random.Random(8)
    picks = []
    for _ in range(8):
        coords = [(rng.randrange(rs.dim), rng.randint(-2, 2)) for _ in range(3)]
        picks.append(rs.checked_row(coords))
    a = rs.simple_root(2)
    xa, xma = x_row(rs, a), x_row(rs, rs.negative(a))
    h1, h2, h3 = (h_row(rs, i) for i in (1, 2, 3))
    picks.append(xa)
    picks.append(rs.checked_row(xa + xma))
    picks.append(h1)
    # Fraction coordinates: each column of ad x is scaled to its own
    # primitive integer row before the kernels are taken
    picks.append(rs.checked_row(xa + scaled(rs, Fraction(1, 3), xma)))
    picks.append(rs.checked_row(scaled(rs, Fraction(2, 5), h1) + xa))
    picks.append(rs.checked_row(scaled(rs, Fraction(2, 5), h1) + scaled(rs, Fraction(-3, 7), h3)))
    picks.append(rs.checked_row(
        scaled(rs, Fraction(1, 6), xa) + scaled(rs, Fraction(5, 4), xma) + scaled(rs, Fraction(2, 3), h2)
    ))
    for _ in range(4):
        coords = [
            (rng.randrange(rs.dim), Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
            for _ in range(3)
        ]
        picks.append(rs.checked_row(coords))
    semisimple = 0
    for x in picks:
        mp = minimal_polynomial(ad_columns(rs, x), rs.dim)
        assert is_semisimple_element(rs, x) == is_squarefree(mp)
        semisimple += is_squarefree(mp)
    assert 0 < semisimple < len(picks)


def test_abelian_nondegenerate_stabilizers_are_semisimple_sweep():
    # the certificate search drops the per-element semisimplicity check on the
    # strength of this: a full form stabilizer on a biparabolic that is abelian
    # with a nondegenerate Killing restriction consists of semisimple elements
    rng = random.Random(2024)
    types = [("G", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("E", 6)]
    nondegenerate = degenerate = 0
    for _ in range(200):
        family, rank = rng.choice(types)
        p1 = frozenset(i for i in range(1, rank + 1) if rng.random() < 0.5)
        p2 = frozenset(i for i in range(1, rank + 1) if rng.random() < 0.5)
        spec = BiparabolicSpec(SimpleType(family, rank), p1, p2)
        S = form_stabilizer(spec, build_u(spec, sample_cv(spec, rng)))
        if not is_abelian(S):
            continue
        if killing_radical_on(S).dim:
            degenerate += 1
            continue
        nondegenerate += 1
        assert all(is_semisimple_element(S.system, e) for e in S.int_rows), spec
    assert nondegenerate and degenerate


def test_semisimple_examples():
    rs = system("G", 2)
    a = rs.simple_root(1)
    xa = x_row(rs, a)
    assert is_semisimple_element(rs, h_row(rs, 1))
    assert not is_semisimple_element(rs, xa)
    assert is_semisimple_element(rs, rs.checked_row(xa + x_row(rs, rs.negative(a))))
    assert is_semisimple_element(rs, ())
    # a nilpotent part commuting with a semisimple part is detected
    h_perp = rs.checked_row(scaled(rs, 3, h_row(rs, 1)) + scaled(rs, 2, h_row(rs, 2)))
    assert not is_semisimple_element(rs, rs.checked_row(h_perp + xa))


def test_certify_borel_always_works():
    for family, rank in [("A", 2), ("B", 3), ("G", 2), ("F", 4)]:
        st = SimpleType(family, rank)
        cert = certify_quasi_reductive(parabolic(st, frozenset()), trials=5, seed=4)
        assert cert is not None
        # empty pi1 must survive the text round trip too
        back = certificate_from_text(certificate_to_text(cert))
        assert back.spec.pi1 == frozenset() and reverify_certificate(back)


def test_certify_types_a_and_c_random_biparabolics():
    rng = random.Random(77)
    for st in (SimpleType("A", 4), SimpleType("C", 4)):
        for _ in range(4):
            p1 = frozenset(i for i in range(1, 5) if rng.random() < 0.5)
            p2 = frozenset(i for i in range(1, 5) if rng.random() < 0.5)
            cert = certify_quasi_reductive(BiparabolicSpec(st, p1, p2), trials=20, seed=5)
            assert cert is not None, (st, p1, p2)


def test_certify_f4_alpha1_finds_nothing():
    cert = certify_quasi_reductive(parabolic(SimpleType("F", 4), {1}), trials=20, seed=9)
    assert cert is None


def test_certificate_sampled_combinations_semisimple():
    # every element of the span of a certified torus is semisimple
    cert = certify_quasi_reductive(parabolic(SimpleType("F", 4), {2, 3}), trials=20, seed=12)
    assert cert is not None
    rs = cert.stab.system
    rng = random.Random(1)
    for _ in range(5):
        cs = [rng.randint(-4, 4) for _ in cert.stab.int_rows]
        combo = rs.checked_row([(i, c * v) for c, e in zip(cs, cert.stab.int_rows) for i, v in e])
        assert is_semisimple_element(rs, combo)


def test_certificate_determinism_and_roundtrip():
    spec = parabolic(SimpleType("E", 6), {1, 2, 4, 6})
    c1 = certify_quasi_reductive(spec, trials=20, seed=42)
    c2 = certify_quasi_reductive(spec, trials=20, seed=42)
    assert c1 is not None and c1.cv == c2.cv and c1.stab == c2.stab
    text = certificate_to_text(c1)
    back = certificate_from_text(text)
    assert back.spec == c1.spec and back.cv == c1.cv and back.stab == c1.stab
    assert certificate_to_text(back) == text
    assert reverify_certificate(back)


def test_parsed_certificate_is_unverified_until_reverified():
    cert = certify_quasi_reductive(parabolic(SimpleType("G", 2), {2}), trials=10, seed=2)
    assert cert is not None
    back = certificate_from_text(certificate_to_text(cert))
    assert reverify_certificate(back)


def test_reverify_rejects_tampered_certificate():
    spec = parabolic(SimpleType("G", 2), {2})
    cert = certify_quasi_reductive(spec, trials=10, seed=2)
    assert cert is not None
    rs = cert.stab.system
    ones = _sparse_int_row(enumerate([1] * rs.dim))
    wrong = Subspace(rs, cert.stab.int_rows[:-1] + (ones,))
    from quasired.stabilizer import TorusCertificate

    tampered = TorusCertificate(cert.spec, cert.cv, wrong, cert.trial)
    assert not reverify_certificate(tampered)


def test_certify_trials_validation():
    with pytest.raises(ValueError):
        certify_quasi_reductive(parabolic(SimpleType("A", 1), frozenset()), trials=0, seed=1)


def test_certify_trials_are_bounded():
    # a huge count fails at once instead of starting a search that does not end
    spec = parabolic(SimpleType("E", 8), {1})
    for trials in (MAX_TRIALS + 1, 10**9):
        with pytest.raises(ValueError, match=str(MAX_TRIALS)):
            certify_quasi_reductive(spec, trials=trials, seed=1)
    # range() would raise TypeError on 2.5, and True would run one trial
    for trials in (2.5, True):
        with pytest.raises(ValueError, match="not an int"):
            certify_quasi_reductive(spec, trials=trials, seed=1)
    cert = certify_quasi_reductive(parabolic(SimpleType("G", 2), {2}), trials=MAX_TRIALS)
    assert cert is not None and cert.trial == 0


def test_certificate_parser_rejects_garbage():
    with pytest.raises(ValueError):
        certificate_from_text("not a certificate\n")
    with pytest.raises(ValueError):
        certificate_from_text(
            "quasired certificate v1\ntype: Z9\npi1: -\npi2: 1\na: \nb: \n"
        )


def test_killing_form_on_certified_stabilizer_matches_gram():
    cert = certify_quasi_reductive(parabolic(SimpleType("B", 3), {3}), trials=20, seed=6)
    assert cert is not None
    els = cert.stab.int_rows
    rs = cert.stab.system
    gram = [[killing(rs, a, b) for b in els] for a in els]
    assert linalg.rank(gram) == len(els)


def test_form_stabilizer_is_invariant_under_scaling_the_form():
    # the integer form matrix rescales kappa(u, .) to a primitive functional,
    # which is only sound because u and c*u have the same stabilizer
    spec = parabolic(SimpleType("E", 6), {1, 3, 4})
    u = build_u(spec, sample_cv(spec, random.Random(5)))
    rs = spec.system()
    assert form_stabilizer(spec, u) == form_stabilizer(spec, scaled(rs, Fraction(1, 7), u))
    rng = random.Random(150)
    for family, rank in [("G", 2), ("B", 4), ("D", 5), ("F", 4), ("E", 6), ("E", 7)]:
        for _ in range(25):
            p1 = frozenset(i for i in range(1, rank + 1) if rng.random() < 0.6)
            p2 = frozenset(i for i in range(1, rank + 1) if rng.random() < 0.6)
            spec = BiparabolicSpec(SimpleType(family, rank), p1, p2)
            rs = spec.system()
            u = build_u(spec, sample_cv(spec, rng))
            S = form_stabilizer(spec, u)
            for c in (-1, Fraction(-3, 7), 5):
                assert form_stabilizer(spec, scaled(rs, c, u)) == S, (spec, c)


# `quasired verify G 2 --pi1 2 --seed 1 --store FILE`
_G2_CERT = """quasired certificate v1
type: G2
pi1: 2
pi2: 1,2
a: 1+2=-33/1; 2=22/1
b: 2=47/1
stabilizer-dim: 1
trial: 0
row: 0=1/1,8=22/47
"""
# `quasired verify E 6 --pi1 2,3,4 --seed 7 --store FILE`
_E6_CERT = """quasired certificate v1
type: E6
pi1: 2,3,4
pi2: 1,2,3,4,5,6
a: 1+2+3+4+5+6=-9/1; 1+3+4+5+6=-31/1; 3+4+5=33/1; 4=-44/1
b: 2+3+4=-41/1; 4=18/1
stabilizer-dim: 2
trial: 0
row: 2=1/1,44=-22/9
row: 36=1/1,38=1/2,40=-1/2,41=-1/1
"""


def _g2_row(row):
    return _G2_CERT.replace("row: 0=1/1,8=22/47", f"row: {row}")


def test_stored_e6_certificate_reverifies():
    assert reverify_certificate(certificate_from_text(_E6_CERT))


def _divided_coefficients(text, q, only=None):
    """The certificate text with each a:/b: coefficient divided by q, or only
    the one at only = (field, support)."""
    out = []
    for line in text.splitlines():
        field, _, value = line.partition(": ")
        if field in ("a", "b"):
            parts = []
            for part in value.split("; "):
                sup, _, num = part.partition("=")
                v = Fraction(num) / (q if only in (None, (field, sup)) else 1)
                parts.append(f"{sup}={v.numerator}/{v.denominator}")
            line = f"{field}: {'; '.join(parts)}"
        out.append(line)
    return "\n".join(out) + "\n"


def test_stored_e6_certificate_with_rational_coefficients_reverifies():
    # u / 7 has the stabilizer of u; form_stabilizer clears the
    # denominators when it scales kappa(u, .) to an integer functional
    text = _divided_coefficients(_E6_CERT, 7)
    assert "=-9/7; " in text and "=18/7\n" in text
    cert = certificate_from_text(text)
    assert certificate_to_text(cert) == text
    assert {v.denominator for _, v in cert.cv.a + cert.cv.b} == {7}
    assert reverify_certificate(cert)
    assert cert.stab == certificate_from_text(_E6_CERT).stab
    # the denominators count: one coefficient divided alone gives another
    # form, whose stabilizer is not the printed rows
    assert not reverify_certificate(certificate_from_text(_divided_coefficients(_E6_CERT, 7, ("a", "4"))))


def _ad_dense(rs, row):
    cols = ad_columns(rs, row)
    return [[cols.get(j, {}).get(i, 0) for j in range(rs.dim)] for i in range(rs.dim)]


@pytest.mark.parametrize("family,rank", [("G", 2), ("F", 4), ("E", 6)])
def test_killing_gram_matches_trace_form(family, rank):
    # _killing_gram fills the Gram matrix from the Killing pairs of the rows'
    # indices; the oracle is tr(ad x ad y) on dense ad matrices. The rows mix
    # root vectors, their opposites and Cartan elements, so that every kind
    # of nonzero pair occurs
    rs = system(family, rank)
    lo = rs.n_pos
    rng = random.Random(f"gram {family}{rank}")
    for _ in range(6):
        roots = rng.sample(range(lo), 2)
        pool = roots + [rs.killing_row(i)[0][0] for i in roots] + rng.sample(range(lo, lo + rank), 2)
        rows = [
            sorted((i, rng.choice((-3, -2, -1, 1, 2, 3))) for i in rng.sample(pool, rng.randint(1, 4)))
            for _ in range(rng.randint(1, 4))
        ]
        gram = _killing_gram(_killing_pairs(rs, {i for x in rows for i, _ in x}), rows)
        ads = [_ad_dense(rs, x) for x in rows]
        trace = [[sum(a[i][j] * b[j][i] for i in range(rs.dim) for j in range(rs.dim)) for b in ads] for a in ads]
        assert gram == trace, rows


@pytest.mark.parametrize("family,rank", [("G", 2), ("F", 4), ("E", 6)])
def test_gram_rank_verdict_matches_killing_radical(family, rank):
    # a trial reads nondegeneracy off the rank of the Killing Gram matrix of
    # the raw block kernels at their Killing positions; killing_radical_on
    # builds the whole radical of the canonical stabilizer. Passing
    # index = dim S lets every S reach the Killing check of the trial, and
    # the abelian check runs only after it passed. Both Killing verdicts
    # occur, and no stabilizer that passes it fails the abelian check
    st = SimpleType(family, rank)
    verdicts = set()
    for n in range(rank + 1):
        for sub in itertools.combinations(range(1, rank + 1), n):
            spec = parabolic(st, sub)
            a, b = _draw_layout(spec)
            pattern = _form_pattern(spec, [s.dual for s in a + b])
            for seed in (1, 2, 3):
                ds = _draw(len(a) + len(b), random.Random(seed))
                S = form_stabilizer(spec, build_u(spec, _draw_cv(a, b, ds)))
                _, failed = _attempt(pattern, S.dim, a + b, ds)
                assert failed == _first_failed(S, S.dim), (sub, seed)
                verdicts.add(failed)
    assert verdicts == {"killing", None}


def _first_failed(S, index):
    """The first check that the canonical stabilizer S fails, in a trial's
    order, or None."""
    return (
        "dim" if S.dim != index
        else "killing" if killing_radical_on(S).dim
        else "abelian" if not is_abelian(S)
        else None
    )


def _trial_checks(spec, seed, trials=20):
    """The first failing check of each trial of the search on spec at seed,
    up to the first that certifies, after checking each against the one
    recomputed on the canonical stabilizer of the draw, and a certifying
    trial's rows against its rows."""
    index = seaweed_index(spec)
    a, b = _draw_layout(spec)
    pattern = _form_pattern(spec, [s.dual for s in a + b])
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        ds = _draw(len(a) + len(b), rng)
        got, failed = _attempt(pattern, index, a + b, ds)
        S = form_stabilizer(spec, build_u(spec, _draw_cv(a, b, ds)))
        assert failed == _first_failed(S, index), (spec, seed, len(out))
        assert got == (S if failed is None else None), (spec, seed, len(out))
        out.append(failed)
        if failed is None:
            break
    return out


def test_every_trial_checks_match_the_canonical_stabilizer():
    # a trial runs its checks on the raw block kernels and reduces them only
    # when it certifies; the canonical route reduces every stabilizer first
    rng = random.Random("trial checks")
    searches = [
        (parabolic(SimpleType(f, r), sub), seed) for f, r, sub in PARABOLICS for seed in (0, 11)
    ]
    for f, r in (("F", 4), ("E", 6)):
        for _ in range(12):
            p1 = {i for i in range(1, r + 1) if rng.random() < 0.6}
            p2 = {i for i in range(1, r + 1) if rng.random() < 0.6}
            searches.append((BiparabolicSpec(SimpleType(f, r), p1, p2), rng.randrange(99)))
    late = [
        (BiparabolicSpec(SimpleType(f, r), pi1, pi2 or range(1, r + 1)), seed)
        for f, r, pi1, pi2, seed in LATE_CERTIFICATES
    ]
    runs = []
    for spec, seed in searches + late:
        checks = _trial_checks(spec, seed)
        cert = certify_quasi_reductive(spec, seed=seed)
        assert (cert.trial if cert else None) == (len(checks) - 1 if checks[-1] is None else None)
        runs.append(checks)
    assert {1, 20} <= {len(checks) for checks in runs[: len(searches)]}
    # both Killing verdicts occur on trials that reach the Killing check,
    # and every trial that passes it is abelian
    reached = {c for checks in runs for c in checks if c != "dim"}
    assert reached == {"killing", None}
    # each late certificate fails the dimension check at trial 0
    for checks in runs[len(searches) :]:
        assert checks == ["dim", None]


@pytest.mark.parametrize(
    "family,rank,count",
    [("G", 2, 1), ("F", 4, 1), ("D", 6, 2), ("E", 6, 0), ("E", 7, 10), ("E", 8, 28)],
)
def test_a_killing_rank_below_the_index_is_never_quasi_reductive(family, rank, count):
    # a trial's Gram matrix is X K X^T, X its kernel vectors over the indices
    # the compiled blocks keep and K the Killing form on them, so rank K
    # bounds its rank; where that bound is below the index, no draw passes
    # the Killing check, and the classification must say "not QR". The
    # search does not read this bound: it still runs every trial
    st = SimpleType(family, rank)
    low = []
    for n in range(rank + 1):
        for sub in itertools.combinations(range(1, rank + 1), n):
            spec = parabolic(st, sub)
            a, b = _draw_layout(spec)
            _, blocks, kpairs = _form_pattern(spec, [s.dual for s in a + b])
            kept = sorted({i for block in blocks for i in block.idx})
            at = {i: t for t, i in enumerate(kept)}
            K = [[0] * len(kept) for _ in kept]
            for i, j, v in kpairs:
                K[at[i]][at[j]] = v
            if linalg.rank(K) < seaweed_index(spec):
                low.append(sub)
                assert not classify_parabolic(st, sub).quasi_reductive, sub
    assert len(low) == count
    if (family, rank) == ("E", 7):
        assert (1, 2, 6) in low  # a parabolic of the exhausted verify benchmark


# sha256 of the certificate texts of every E6 pair's search at seed 5, in the
# order of _e6_pairs, as the search printed them before the checks ran in the
# order dim, Killing, abelian
_E6_SEED5_DIGEST = "ed2a6dca0324ef21f5eac02227b4db9e3a6cbd3cf589e0b0a2de24c4852a2977"


def _e6_pairs():
    st = SimpleType("E", 6)
    subsets = [frozenset(s) for n in range(7) for s in itertools.combinations(range(1, 7), n)]
    return [BiparabolicSpec(st, p1, p2) for p1 in subsets for p2 in subsets]


@pytest.mark.ci
def test_every_e6_pair_checks_as_the_full_raw_kernel_does():
    # each trial's checks against the same three checks, in the same order,
    # run on the block kernels extended over every step, and the searches'
    # certificate texts against the digest pinned above
    digest = hashlib.sha256()
    certified = 0
    for spec in _e6_pairs():
        index = seaweed_index(spec)
        a, b = _draw_layout(spec)
        slots = a + b
        pattern = _form_pattern(spec, [s.dual for s in slots])
        r, blocks, kpairs = pattern
        rng = random.Random(5)
        for trial in range(20):
            ds = _draw(len(slots), rng)
            _, failed = _attempt(pattern, index, slots, ds)
            ws = linalg._primitive_int_row([d * s.kappa for s, d in zip(slots, ds)])
            w = dict(zip([s.dual for s in slots], ws))
            rows = [
                [(block.idx[t], v) for t, v in enumerate(x) if v]
                for block in blocks
                for x in raw_kernel(block, w)
            ]
            want = (
                "dim" if len(rows) != index
                else "killing" if linalg.rank(_killing_gram(kpairs, rows)) != len(rows)
                else "abelian" if not _commuting(r, rows)
                else None
            )
            assert failed == want, (spec, trial)
            if failed is None:
                break
        cert = certify_quasi_reductive(spec, trials=20, seed=5)
        assert (cert.trial if cert else None) == (trial if failed is None else None), spec
        if cert:
            certified += 1
            digest.update(certificate_to_text(cert).encode())
    assert certified == 4020
    assert digest.hexdigest() == _E6_SEED5_DIGEST


@pytest.mark.parametrize(
    "text,match",
    [
        ("", "unrecognized certificate header"),
        (_E6_CERT.replace("type: E6", "type: "), "bad type field ''"),
        (_G2_CERT.replace("=-33/1", "=-33/0"), "zero denominator"),
        (_g2_row("999=1/1"), "row index 999 out of range"),
        (_g2_row("-1=1/1"), "row index -1 out of range"),
        (_g2_row("3=2/1,5=1/3"), "does not start with 1/1"),
        (_g2_row("5=1/3,3=-1/1"), "does not start with 1/1"),
        (_g2_row("3=0/1"), "does not start with 1/1"),
        (
            _G2_CERT.replace("type: G2", f"type: A{MAX_CLASSICAL_RANK + 1}"),
            f"rank {MAX_CLASSICAL_RANK + 1} out of range",
        ),
        (_E6_CERT.replace("stabilizer-dim: 2", "stabilizer-dim: 7"), "stabilizer-dim 7 over 2"),
        (_E6_CERT.replace("44=-22/9\n", "44=-22/9,2=1/1\n"), "row index 2 repeated"),
        (_E6_CERT.replace("4=-44/1\n", "4=-44/1; 4=5/1\n"), "coefficient key '4' repeated"),
        (_E6_CERT.replace("b: 2+3+4", "a: 4=5/1\nb: 2+3+4"), "expected 'b', got 'a'"),
        (_E6_CERT.replace("4=-44/1\n", "5=-44/1\n"), "keys for a must match the pi2 cascade"),
        (_E6_CERT.replace("trial: 0\n", "trial: 0\nnote: 1\n"), "expected 'row', got 'note'"),
        (_E6_CERT.replace("trial: 0\n", ""), "expected 'trial', got 'row'"),
        (
            _E6_CERT.replace("pi1: 2,3,4", "pi1: 4,3,2"),
            "pi1 value '4,3,2' is not written as printed: '2,3,4'",
        ),
        (_E6_CERT.replace("pi1: 2,3,4", "pi1: 2,2,3,4"), "pi1 value '2,2,3,4' is not written"),
        (
            _E6_CERT.replace("pi2: 1,2,3,4,5,6", "pi2: 1,2,3,4,6,5"),
            "pi2 value '1,2,3,4,6,5' is not",
        ),
        (_E6_CERT.replace("; 3+4+5=", "; 5+4+3="), "a value '.*5\\+4\\+3=33/1.*' is not written"),
        (_E6_CERT.replace("; 4=-44/1", "; 4+4=-44/1"), "a value '.*4\\+4=-44/1' is not written"),
        (
            _E6_CERT.replace("1+2+3+4+5+6=-9/1; 1+3+4+5+6=-31/1", "1+3+4+5+6=-31/1; 1+2+3+4+5+6=-9/1"),
            "a value '1\\+3\\+4\\+5\\+6=-31/1; 1.*' is not written",
        ),
        (_E6_CERT.replace("3+4+5=33/1", "3+4+5=66/2"), "a value '.*=66/2.*' is not written"),
        (_E6_CERT.replace("4=18/1", "4=-18/-1"), "b value '.*=-18/-1' is not written"),
        (_E6_CERT.replace("44=-22/9", "44=-44/18"), "row value '2=1/1,44=-44/18' is not written"),
        (_E6_CERT.replace("38=1/2", "38=-1/-2"), "row value '.*38=-1/-2.*' is not written"),
        (
            _E6_CERT.replace("2=1/1,44=-22/9", "44=-22/9,2=1/1"),
            "row value '44=-22/9,2=1/1' is not written",
        ),
        (
            _E6_CERT.replace("2=1/1,44=-22/9", "2=1/1,3=0/1,44=-22/9"),
            "row value '2=1/1,3=0/1,44=-22/9' is not",
        ),
        (
            _E6_CERT.replace("type: E6", "type: E06"),
            "type value 'E06' is not written as printed: 'E6'",
        ),
        (_E6_CERT.replace("trial: 0", "trial: 00"), "trial value '00' is not written"),
        (_E6_CERT.replace("trial: 0", "trial: -1"), f"trial -1 out of range 0..{MAX_TRIALS - 1}"),
        (_E6_CERT.replace("trial: 0", f"trial: {MAX_TRIALS}"), f"trial {MAX_TRIALS} out of range"),
        (_E6_CERT.replace("trial: 0", "trial: 5000"), "trial 5000 out of range"),
        (
            _E6_CERT.replace("trial: 0", "trial: 999999999999999999999"),
            "trial 999999999999999999999 out of range",
        ),
    ],
    ids=[
        "empty",
        "missing-type",
        "zero-denominator",
        "row-index-too-large",
        "row-index-negative",
        "row-leading-2",
        "row-leading-minus-1",
        "row-all-zero",
        "rank-over-cap",
        "stabilizer-dim-not-row-count",
        "row-index-repeated",
        "a-key-repeated",
        "a-line-repeated",
        "a-key-not-in-cascade",
        "unknown-line",
        "trial-missing",
        "pi1-unsorted",
        "pi1-repeated",
        "pi2-unsorted",
        "a-key-unsorted",
        "a-key-index-repeated",
        "a-keys-reordered",
        "a-not-lowest-terms",
        "b-negative-denominator",
        "row-not-lowest-terms",
        "row-negative-denominator",
        "row-entries-reordered",
        "row-zero-entry",
        "type-zero-padded",
        "trial-zero-padded",
        "trial-negative",
        "trial-at-max-trials",
        "trial-5000",
        "trial-huge",
    ],
)
def test_certificate_parser_raises_value_error_only(text, match):
    with pytest.raises(ValueError, match=match):
        certificate_from_text(text)


def test_certificate_parser_accepts_every_trial_a_search_can_take():
    for trial in (1, MAX_TRIALS - 1):
        text = _E6_CERT.replace("trial: 0", f"trial: {trial}")
        cert = certificate_from_text(text)
        assert cert.trial == trial and certificate_to_text(cert) == text

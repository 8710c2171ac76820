"""Dual-route checks: independent computation paths must agree.

Each test pits two unrelated implementations of the same fact against each
other: flag combinatorics against stabilizer search, bracket eigenvalues
against the pairing formula, constructed stabilizer elements against kernel
computations.
"""

import itertools
import random

import pytest

from conftest import dense, system, x_row
from form_oracle import subspace_from_vectors
from quasired import linalg
from quasired.cascade import kostant_cascade, well_interlaced
from quasired.classify import classify_parabolic
from quasired.rootsys import SimpleType, bracket
from quasired.seaweed import (
    BiparabolicSpec,
    build_u,
    interlaced_torus_elements,
    parabolic,
    sample_cv,
    seaweed_index,
)
from quasired.stabilizer import certify_quasi_reductive, form_stabilizer, is_semisimple_element


@pytest.mark.parametrize(
    "family,rank",
    [("B", l) for l in range(2, 9)]
    + [("C", l) for l in range(3, 9)]
    + [("D", l) for l in range(4, 9)],
)
def test_flag_verdicts_agree_with_certificates(family, rank):
    """The flag criterion (type-AC rule for C) and the stabilizer search are
    independent routes; every parabolic of the type is checked."""
    st = SimpleType(family, rank)
    for size in range(rank + 1):
        for sub in itertools.combinations(range(1, rank + 1), size):
            verdict = classify_parabolic(st, sub)
            cert = certify_quasi_reductive(parabolic(st, sub), trials=20, seed=13)
            assert (cert is not None) == verdict.quasi_reductive, (family, rank, sub)


def test_pairing_agrees_with_bracket_eigenvalues():
    """<lam, alpha^v> must equal the eigenvalue of h_alpha on the lam root space."""
    for family, rank in [("G", 2), ("C", 4), ("F", 4), ("E", 6)]:
        rs = system(family, rank)
        rng = random.Random(rank)
        roots = list(rs.positive_roots)
        for _ in range(60):
            lam = rng.choice(roots)
            alpha = rng.choice(roots)
            # h_alpha from its coroot coefficients over h_1..h_l
            h = rs.checked_row([(rs.idx_h(k + 1), c) for k, c in enumerate(rs.coroot_coeffs(alpha))])
            z = bracket(rs, h, x_row(rs, lam))
            eig = dict(z).get(rs.idx_x(lam), 0)
            assert eig == rs.pairing(lam, alpha)
            assert not ({k for k, _ in z} - {rs.idx_x(lam)})


def _well_interlaced_parabolics():
    """Every parabolic q(pi, full) of G2, F4, D6, E6, E7 and E8 whose two
    cascades are well-interlaced, 105 of them, and its transpose q(full, pi),
    on which the half-difference nodes sit in the second cascade. The count
    is asserted by a test of its own, so that a fault in ``well_interlaced``
    fails tests rather than the collection of this module."""
    out = []
    for family, rank in [("G", 2), ("F", 4), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]:
        rs = system(family, rank)
        full = rs.full_subset()
        for size in range(rank + 1):
            for sub in itertools.combinations(range(1, rank + 1), size):
                if well_interlaced(rs, sub, full)[0]:
                    name = f"{family}{rank}-{'.'.join(map(str, sub)) or 'empty'}"
                    pi = frozenset(sub)
                    out.append(pytest.param(family, rank, pi, full, id=f"parabolic-{name}"))
                    out.append(pytest.param(family, rank, full, pi, id=f"transpose-{name}"))
    return out


WELL_INTERLACED_PARABOLICS = _well_interlaced_parabolics()


def test_well_interlaced_parabolic_count():
    assert len(WELL_INTERLACED_PARABOLICS) == 2 * 105


@pytest.mark.parametrize(
    "family,rank,p1,p2",
    [
        ("F", 4, frozenset({3, 4}), frozenset({1, 2, 3, 4})),
        ("C", 4, frozenset({1, 2, 3}), frozenset({1, 2, 3, 4})),
        ("C", 5, frozenset({1, 2, 3, 4, 5}), frozenset({2, 3, 4, 5})),
        ("B", 6, frozenset({6}), frozenset({1, 2, 3, 4, 5, 6})),
        ("E", 6, frozenset({2, 3, 4}), frozenset({1, 2, 3, 4, 5, 6})),
        *WELL_INTERLACED_PARABOLICS,
    ],
)
def test_constructed_elements_span_generic_stabilizer(family, rank, p1, p2):
    """For well-interlaced cascades the kernel stabilizer decomposes as the
    orthogonal of the joint eps span inside the Cartan plus the constructed
    two-to-four term elements, each semisimple; dimensions and membership
    must line up."""
    rs = system(family, rank)
    st = SimpleType(family, rank)
    ok, counts = well_interlaced(rs, p1, p2)
    assert ok
    spec = BiparabolicSpec(st, p1, p2)
    rng = random.Random(97)
    cv = sample_cv(spec, rng)
    u = build_u(spec, cv)
    S = form_stabilizer(spec, u)
    idx = seaweed_index(spec)
    assert S.dim == idx
    # membership of every constructed element
    els = interlaced_torus_elements(spec, cv)
    for x in els:
        assert subspace_from_vectors(rs, [dense(rs, e) for e in (*S.int_rows, x)]) == S
        assert is_semisimple_element(rs, x)
    # the Cartan part: vectors killed by every eps of both cascades
    rows = []
    for sub in (p1, p2):
        for n in kostant_cascade(rs, sub).nodes:
            rows.append(
                [rs.pairing(n.eps, rs.simple_root(i)) for i in range(1, rank + 1)]
            )
    h_dim = rank - linalg.rank(rows) if rows else rank
    assert idx == h_dim + counts.combinatorial_total
    assert len(els) == counts.combinatorial_total
    # the constructed family is independent from the Cartan part
    dense_els = [dense(rs, x) for x in els]
    cart_rows = []
    for v in linalg.nullspace(rows, rank) if rows else []:
        dense_h = [0] * rs.dim
        for i, c in enumerate(v):
            dense_h[rs.idx_h(i + 1)] = c
        cart_rows.append(dense_h)
    assert linalg.rank(dense_els + cart_rows) == len(els) + h_dim


def test_interlaced_construction_certifies_quasi_reductivity():
    """Both certificate machinery and explicit construction witness the same
    quasi-reductive seaweeds."""
    cases = [
        ("F", 4, frozenset({3, 4}), frozenset({1, 2, 3, 4})),
        ("C", 4, frozenset({2, 3}), frozenset({1, 2, 3, 4})),
    ]
    for family, rank, p1, p2 in cases:
        st = SimpleType(family, rank)
        spec = BiparabolicSpec(st, p1, p2)
        cert = certify_quasi_reductive(spec, trials=20, seed=3)
        assert cert is not None

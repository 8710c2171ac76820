"""Seeded property tests on stdlib ``random``: certificate text round trips
and tampering on random biparabolics, and root-system invariants at random
ranks up to the classical cap."""

import random
from fractions import Fraction

import pytest

from quasired.rootsys import MAX_CLASSICAL_RANK, SimpleType, build_root_system
from quasired.seaweed import BiparabolicSpec
from quasired.stabilizer import (
    certificate_from_text,
    certificate_to_text,
    certify_quasi_reductive,
    reverify_certificate,
)


def _random_certificates(family, rank, rng, want=2):
    """Certificates with at least one row for random biparabolics of the
    type, drawn until ``want`` are found."""
    certs = []
    while len(certs) < want:
        pi1 = frozenset(i for i in range(1, rank + 1) if rng.random() < 0.5)
        pi2 = frozenset(i for i in range(1, rank + 1) if rng.random() < 0.7)
        spec = BiparabolicSpec(SimpleType(family, rank), pi1, pi2)
        cert = certify_quasi_reductive(spec, trials=5, seed=rng.randrange(10**6))
        if cert is not None and cert.stab.dim:
            certs.append(cert)
    return certs


def _scale_row(text, which, factor):
    """The text with every entry of its row line number ``which`` times factor."""
    lines = text.splitlines()
    at = [i for i, l in enumerate(lines) if l.startswith("row:")][which]
    parts = []
    for part in lines[at][len("row: "):].split(","):
        k, _, val = part.partition("=")
        v = Fraction(val) * factor
        parts.append(f"{k}={v.numerator}/{v.denominator}")
    lines[at] = "row: " + ",".join(parts)
    return "\n".join(lines) + "\n"


def _drop_row(text, which):
    lines = text.splitlines()
    at = [i for i, l in enumerate(lines) if l.startswith("row:")][which]
    return "\n".join(lines[:at] + lines[at + 1 :]) + "\n"


@pytest.mark.parametrize(
    "family,rank,seed",
    [("G", 2, 1), ("B", 3, 2), ("C", 3, 3), ("D", 4, 4), ("F", 4, 5), ("E", 6, 6)],
)
def test_certificate_text_round_trip_and_tampering(family, rank, seed):
    rng = random.Random(seed)
    for cert in _random_certificates(family, rank, rng):
        text = certificate_to_text(cert)
        back = certificate_from_text(text)
        assert back.spec == cert.spec and back.cv == cert.cv and back.stab == cert.stab
        assert certificate_to_text(back) == text
        assert reverify_certificate(back)
        which = rng.randrange(cert.stab.dim)
        for factor in (2, -1, 0):
            with pytest.raises(ValueError):
                certificate_from_text(_scale_row(text, which, factor))
        dropped = _drop_row(text, which)
        with pytest.raises(ValueError):  # stabilizer-dim no longer counts the rows
            certificate_from_text(dropped)
        dim = cert.stab.dim
        dropped = dropped.replace(f"stabilizer-dim: {dim}\n", f"stabilizer-dim: {dim - 1}\n")
        assert not reverify_certificate(certificate_from_text(dropped))


# Coxeter numbers h: |Phi+| = l h / 2 and the highest root has height h - 1
_COXETER = {
    "A": lambda l: l + 1,
    "B": lambda l: 2 * l,
    "C": lambda l: 2 * l,
    "D": lambda l: 2 * l - 2,
}
_EXCEPTIONAL = [("G", 2, 6), ("F", 4, 12), ("E", 6, 12), ("E", 7, 18), ("E", 8, 30)]


def _random_types(seed):
    rng = random.Random(seed)
    lowest = {"A": 1, "B": 2, "C": 3, "D": 4}
    ranks = {f: rng.randint(low, MAX_CLASSICAL_RANK) for f, low in lowest.items()}
    return [(f, l, _COXETER[f](l)) for f, l in ranks.items()] + _EXCEPTIONAL


@pytest.mark.parametrize("family,rank,h", _random_types(2024))
def test_root_system_invariants_at_random_ranks(family, rank, h):
    rs = build_root_system(SimpleType(family, rank))
    assert rs.n_pos == len(rs.positive_roots) == rank * h // 2
    assert sum(rs.highest_root(rs.full_subset())) == h - 1
    assert rs.dim == 2 * rs.n_pos + rank

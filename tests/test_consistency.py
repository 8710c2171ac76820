"""Certificate search against the classification on every parabolic of the
two largest exceptional types: all 128 subsets of E7 and all 256 of E8."""

import itertools
import random
import time

from quasired.classify import classify_parabolic
from quasired.rootsys import SimpleType
from quasired.seaweed import build_u, parabolic, sample_cv, seaweed_index
from quasired.stabilizer import (
    certificate_from_text,
    certificate_to_text,
    certify_quasi_reductive,
    form_stabilizer,
    is_abelian,
    killing_radical_on,
)

# both types together, with the replay of the non-QR draws, take 7 s on a
# 2-core Xeon VM (CPython 3.11) whose speed swings up to 2x; the budget
# stays below the 70 s the dense stabilizer route needs, so falling back to
# it fails the test
BUDGET_S = 40
TRIALS, SEED = 20, 55


def _non_qr_trials(spec, torus_dim):
    """Replay the search's draws on a non-QR parabolic: every trial must fail
    only at the Killing check, with a radical of dimension index - torus_dim
    where the torus dimension is known. Returns the number of trials with a
    known torus dimension."""
    index = seaweed_index(spec)
    rng = random.Random(SEED)
    for _ in range(TRIALS):
        S = form_stabilizer(spec, build_u(spec, sample_cv(spec, rng)))
        assert S.dim == index and is_abelian(S), spec
        rad = killing_radical_on(S).dim
        assert rad > 0, spec
        if torus_dim is not None:
            assert rad == index - torus_dim, spec
    return TRIALS if torus_dim is not None else 0


def test_certificates_agree_with_classification_e7_e8():
    t0 = time.time()
    non_qr = {}
    known_torus_trials = 0
    mismatches = []
    for family, rank in [("E", 7), ("E", 8)]:
        st = SimpleType(family, rank)
        non_qr[rank] = 0
        for size in range(rank + 1):
            for sub in itertools.combinations(range(1, rank + 1), size):
                v = classify_parabolic(st, sub)
                spec = parabolic(st, sub)
                cert = certify_quasi_reductive(spec, trials=TRIALS, seed=SEED)
                if v.quasi_reductive != (cert is not None):
                    mismatches.append((family, rank, sub))
                if cert is not None:
                    text = certificate_to_text(cert)
                    assert certificate_to_text(certificate_from_text(text)) == text, sub
                if not v.quasi_reductive:
                    non_qr[rank] += 1
                    known_torus_trials += _non_qr_trials(spec, v.torus_dim)
    assert mismatches == []
    assert non_qr == {7: 52, 8: 148}
    assert known_torus_trials == 320
    elapsed = time.time() - t0
    print(f"ACCEPTANCE exhaustive E7/E8 consistency: PASS ({elapsed:.1f}s, budget {BUDGET_S}s)")
    assert elapsed < BUDGET_S

"""Certificate search against the classification on every parabolic of the
two largest exceptional types: all 128 subsets of E7 and all 256 of E8."""

import itertools
import time

from quasired.classify import classify_parabolic
from quasired.rootsys import SimpleType
from quasired.seaweed import parabolic
from quasired.stabilizer import certify_quasi_reductive

# both types together take 12.6 s on a 2-core Xeon VM (CPython 3.11) whose
# speed swings up to 2x; the budget stays below the 70 s the dense
# stabilizer route needs, so falling back to it fails the test
BUDGET_S = 40


def test_certificates_agree_with_classification_e7_e8():
    t0 = time.time()
    non_qr = {}
    mismatches = []
    for family, rank in [("E", 7), ("E", 8)]:
        st = SimpleType(family, rank)
        non_qr[rank] = 0
        for size in range(rank + 1):
            for sub in itertools.combinations(range(1, rank + 1), size):
                qr = classify_parabolic(st, sub).quasi_reductive
                cert = certify_quasi_reductive(parabolic(st, sub), trials=20, seed=55)
                if qr != (cert is not None) or (cert is not None and not cert.checks.all_true):
                    mismatches.append((family, rank, sub))
                non_qr[rank] += not qr
    assert mismatches == []
    assert non_qr == {7: 52, 8: 148}
    elapsed = time.time() - t0
    print(f"ACCEPTANCE exhaustive E7/E8 consistency: PASS ({elapsed:.1f}s, budget {BUDGET_S}s)")
    assert elapsed < BUDGET_S

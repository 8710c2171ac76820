"""Pinned ``verify`` outputs: stdout and exit code, byte for byte.

The queries are the fifteen parabolics of the benchmark's verify panels (nine
quasi-reductive ones of E7 and E8, six that are not) and E8 {2,...,8}, each
at seeds 0, 11 and 12345, and three searches that certify only at trial 1,
each in text and ``--json`` form. The list is written out here rather than
imported, so the pin does not move with the benchmark.

Regenerate the data file (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_verify_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from quasired import cli
from quasired.stabilizer import certificate_from_text, reverify_certificate

DATA = Path(__file__).with_name("data") / "verify_outputs.txt"

PARABOLICS = (
    # quasi-reductive
    ("E", 7, (2, 3, 5)), ("E", 7, (1, 2, 3, 4, 5)), ("E", 7, (1, 2, 3, 4, 5, 7)),
    ("E", 7, (2, 3, 4, 5, 6, 7)),
    ("E", 8, (2, 5)), ("E", 8, (2, 3, 5)), ("E", 8, (2, 3, 5, 7)),
    ("E", 8, (1, 2, 3, 4, 5, 7)), ("E", 8, (2, 3, 4, 5, 6, 7)),
    ("E", 8, (2, 3, 4, 5, 6, 7, 8)),
    # not quasi-reductive: every search is exhausted
    ("E", 7, (1,)), ("E", 7, (1, 3, 4)), ("E", 7, (1, 2, 6)), ("E", 7, (1, 2, 5, 7)),
    ("E", 8, (2, 4, 8)), ("E", 8, (1, 2, 5)),
)
SEEDS = (0, 11, 12345)
# (type, rank, pi1, pi2, seed) of searches whose trial 0 fails dim S == index,
# because a cell of the form matrix with several terms cancels, and whose
# trial 1 certifies
LATE_CERTIFICATES = (
    ("A", 5, (1, 2, 3, 4, 5), None, 0),
    ("F", 4, (2, 3, 4), (2, 3, 4), 0),
    ("C", 3, (1, 2, 3), (1, 2, 3), 0),
)


def _argvs():
    queries = [(fam, rank, sub, None, seed) for fam, rank, sub in PARABOLICS for seed in SEEDS]
    for fam, rank, pi1, pi2, seed in queries + list(LATE_CERTIFICATES):
        base = ["verify", fam, str(rank), "--pi1", ",".join(map(str, pi1))]
        if pi2 is not None:
            base += ["--pi2", ",".join(map(str, pi2))]
        yield base + ["--seed", str(seed)]
        yield base + ["--seed", str(seed), "--json"]


def _record(argv) -> str:
    """One query as it is stored: a header line naming it, the exit code,
    then stdout as ``quasired`` prints it."""
    code, text = cli.run(argv)
    assert code != cli.USAGE_ERROR, (argv, text)  # a usage error goes to stderr
    return f"=== quasired {' '.join(argv)}\nexit {code}\n{text}\n"


def _render() -> str:
    return "".join(_record(argv) for argv in _argvs())


def test_verify_outputs_are_byte_identical():
    want = DATA.read_text().split("=== ")[1:]
    got = _render().split("=== ")[1:]
    assert len(got) == len(want) == 2 * (len(SEEDS) * len(PARABOLICS) + len(LATE_CERTIFICATES))
    for g, w in zip(got, want):
        assert g == w, g.partition("\n")[0]


def test_pinned_certificates_reverify():
    certs = []
    for entry in DATA.read_text().split("=== ")[1:]:
        head, code, out = entry.split("\n", 2)
        if head.endswith(" --json") and code == "exit 0":
            certs.append(certificate_from_text(json.loads(out)["certificate"]))
    # ten of PARABOLICS are quasi-reductive
    assert len(certs) == 10 * len(SEEDS) + len(LATE_CERTIFICATES)
    assert sum(cert.trial == 1 for cert in certs) == len(LATE_CERTIFICATES)
    for cert in certs:
        assert reverify_certificate(cert), cert.spec


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(_render())

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

from quasired import cli, stabilizer
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
# (type, rank, pi1, pi2, seed) of searches whose trial 0 fails dim S == index
# and whose trial 1 certifies
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


def _pinned_certificate_texts() -> list[str]:
    texts = []
    for entry in DATA.read_text().split("=== ")[1:]:
        head, code, out = entry.split("\n", 2)
        if head.endswith(" --json") and code == "exit 0":
            texts.append(json.loads(out)["certificate"])
    # ten of PARABOLICS are quasi-reductive
    assert len(texts) == 10 * len(SEEDS) + len(LATE_CERTIFICATES)
    return texts


def test_pinned_certificates_reverify():
    certs = [certificate_from_text(text) for text in _pinned_certificate_texts()]
    assert sum(cert.trial == 1 for cert in certs) == len(LATE_CERTIFICATES)
    for cert in certs:
        assert reverify_certificate(cert), cert.spec


def _with_rows(text, rows, dim):
    head = [line for line in text.splitlines() if not line.startswith("row: ")]
    head = [f"stabilizer-dim: {dim}" if line.startswith("stabilizer-dim: ") else line for line in head]
    return "\n".join(head + [f"row: {row}" for row in rows]) + "\n"


def _doubled_a(text, pos):
    """The text with the a: coefficient at position pos doubled; every
    pinned coefficient is an integer n/1."""
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("a: "))
    parts = lines[at][3:].split("; ")
    key, _, value = parts[pos].partition("=")
    parts[pos] = f"{key}={2 * int(value.removesuffix('/1'))}/1"
    lines[at] = "a: " + "; ".join(parts)
    return "\n".join(lines) + "\n"


def test_reverification_runs_no_search_code(monkeypatch):
    # the re-check must not rest on the search's compiled pattern, peeling
    # or trial, so a defect there cannot pass that search's certificates
    def search_code(*args):
        raise AssertionError("re-verification ran search code")

    for name in ("_form_pattern", "_peel_blocks", "_attempt"):
        monkeypatch.setattr(stabilizer, name, search_code)
    for text in _pinned_certificate_texts():  # all 33
        cert = certificate_from_text(text)
        assert reverify_certificate(cert), cert.spec
        rows = [line[5:] for line in text.splitlines() if line.startswith("row: ")]
        dropped = _with_rows(text, rows[:-1], len(rows) - 1)
        extra = _with_rows(text, rows + ["0=1/1"], len(rows) + 1)
        for bad in (dropped, extra):
            assert not reverify_certificate(certificate_from_text(bad)), (cert.spec, bad)
        # a coefficient the stabilizer does not depend on may change and
        # leave a valid certificate of the changed form; some coefficient
        # of every pinned certificate moves the stabilizer, and every one of
        # the three trial-1 certificates does
        rejected = [
            not reverify_certificate(certificate_from_text(_doubled_a(text, pos)))
            for pos in range(len(cert.cv.a))
        ]
        assert any(rejected), cert.spec
        if cert.trial == 1:
            assert all(rejected), cert.spec


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(_render())

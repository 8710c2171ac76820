"""Pinned ``verify`` outputs: stdout and exit code, byte for byte.

The queries are the fifteen parabolics of the benchmark's verify panels (nine
quasi-reductive ones of E7 and E8, six that are not) and E8 {2,...,8}, each
at seeds 0, 11 and 12345, in text and ``--json`` form. The list is written
out here rather than imported, so the pin does not move with the benchmark.

Regenerate the data file (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_verify_golden.py --write
"""

from __future__ import annotations

import sys
from pathlib import Path

from quasired import cli

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


def _argvs():
    for fam, rank, sub in PARABOLICS:
        for seed in SEEDS:
            pi1 = ",".join(map(str, sub))
            base = ["verify", fam, str(rank), "--pi1", pi1, "--seed", str(seed)]
            yield base
            yield base + ["--json"]


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
    assert len(got) == len(want) == 2 * len(SEEDS) * len(PARABOLICS)
    for g, w in zip(got, want):
        assert g == w, g.partition("\n")[0]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(_render())

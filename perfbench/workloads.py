"""The benchmark's workloads: their inputs, warm-up and output checks.

Every query returns the text a user would see (exit code and output for a
CLI call, a canonical rendering for a library call). Checks against the
oracle run outside the timed region. Functions receive the imported
``quasired`` package and look its functions up at call time, so that the
tracer's rebinding is seen.

The verify workloads use a fixed panel of parabolics, one per (type, index)
stratum, and the seed draws the coefficient seed of every certificate search:
per-parabolic cost spreads 2-3x within a stratum, so drawing the parabolics
themselves made the ten-seed spread of throughput wider than any useful
bound. ``sweep-small`` draws thousands of queries per seed, so there the seed
draws the inputs themselves.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

import oracle

# the range `quasired tables` covers: 39 types
TYPES = (
    [("A", l) for l in range(1, 11)]
    + [("B", l) for l in range(2, 11)]
    + [("C", l) for l in range(3, 11)]
    + [("D", l) for l in range(4, 11)]
    + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
)

TMP = "{tmp}"  # replaced by the worker's scratch directory

# one small query of each CLI kind with its expected exit code, on inputs no
# timed set uses: the sweep draws no empty or full subset and the timed
# verify queries are all in E7 or E8
COMMON_WARMUP = (
    (["cascade", "B", "3"], 0),
    (["index", "C", "3"], 0),
    (["classify", "D", "4"], 0),
    (["verify", "G", "2", "--pi1", "2"], 0),
    (["tables", "G", "2", "--out", TMP], 0),
)

# QR parabolics, stratified by index (3-6 in E7, 2-6 in E8). The middle of
# their costs is a cluster of three queries, so the median does not hinge on
# one of them. E8 {2,...,8} (index 6) is left out: it alone takes 17-27 s,
# more than one run may spend.
FOUND_PANEL = (
    ("E", 7, (2, 3, 5)), ("E", 7, (1, 2, 3, 4, 5)), ("E", 7, (1, 2, 3, 4, 5, 7)),
    ("E", 7, (2, 3, 4, 5, 6, 7)),
    ("E", 8, (2, 5)), ("E", 8, (2, 3, 5)), ("E", 8, (2, 3, 5, 7)),
    ("E", 8, (1, 2, 3, 4, 5, 7)), ("E", 8, (2, 3, 4, 5, 6, 7)),
)
# non-QR parabolics: four E7 ones of indices 1-4, whose searches all cost
# about the same, so the median falls inside that cluster, and two E8 ones of
# indices 2-3 for the upper tail
EXHAUSTED_PANEL = (
    ("E", 7, (1,)), ("E", 7, (1, 3, 4)), ("E", 7, (1, 2, 6)), ("E", 7, (1, 2, 5, 7)),
    ("E", 8, (2, 4, 8)), ("E", 8, (1, 2, 5)),
)
SWEEP_BATCH = 3000


@dataclass
class Query:
    key: str
    call: Callable  # (quasired) -> output text
    check: Callable | None = None  # (output) -> error or None, cheap
    recheck: Callable | None = None  # (quasired, output) -> error or None, costly
    partner: int | None = None  # position of the transposed index query


@dataclass
class Workload:
    name: str
    types: tuple  # root systems built during set-up
    warmup: tuple  # (CLI arguments, expected exit code) run during set-up
    tables_in_pass: bool  # sweep-small regenerates the tables in each pass
    queries: Callable  # (seed) -> list[Query]; the library part of one pass
    trace_passes: int  # fixed pass count of traced runs, so counts repeat


def _cli(argv):
    def call(q):
        code, text = q.cli.run(list(argv))
        return f"exit {code}\n{text}"
    return call


def _subset_arg(sub) -> str:
    return ",".join(map(str, sub))


def _verify_queries(panel, expect_qr: bool, workload: str, seed: int) -> list[Query]:
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for fam, rank, sub in panel:
        s = rng.randrange(2**31)
        argv = ["verify", fam, str(rank), "--pi1", _subset_arg(sub), "--seed", str(s), "--json"]
        out.append(Query(
            key=" ".join(argv),
            call=_cli(argv),
            check=_verify_check(fam, rank, sub, s, expect_qr),
            recheck=_reverify if expect_qr else None,
        ))
    return out


def _verify_check(fam, rank, sub, seed, expect_qr):
    def check(output: str):
        if oracle.is_quasi_reductive(fam, rank, sub) != expect_qr:
            return "panel entry disagrees with the classification"
        status, _, text = output.partition("\n")
        want = "exit 0" if expect_qr else "exit 3"
        if status != want:
            return f"{status}, expected {want}"
        d = json.loads(text)
        if d["pi1"] != list(sub) or d["seed"] != seed or d["type"] != f"{fam}{rank}":
            return "output names another query"
        if expect_qr:
            if d["certificate"] is None or d["stabilizer_dim"] != d["index"]:
                return "certificate missing or of the wrong dimension"
        elif d["certificate"] is not None or d["trials"] != 20:
            return "a certificate for a parabolic that is not quasi-reductive"
        return None
    return check


def _reverify(q, output: str):
    d = json.loads(output.partition("\n")[2])
    cert = q.stabilizer.certificate_from_text(d["certificate"])
    if q.stabilizer.certificate_to_text(cert) != d["certificate"]:
        return "certificate text does not round-trip"
    if not q.stabilizer.reverify_certificate(cert):
        return "certificate fails re-verification"
    return None


def _found_queries(seed):
    return _verify_queries(FOUND_PANEL, True, "verify-found", seed)


def _exhausted_queries(seed):
    return _verify_queries(EXHAUSTED_PANEL, False, "verify-exhausted", seed)


def _random_subset(rng, rank) -> tuple[int, ...]:
    """A nonempty proper subset, so no draw repeats a warm-up input."""
    while True:
        sub = tuple(i for i in range(1, rank + 1) if rng.random() < 0.5)
        if 0 < len(sub) < rank:
            return sub


# Kinds and types take turns, so that every seed has the same mix and the
# seed only draws the subsets. Cascade queries are the cheapest and classify
# queries the dearest, so the median falls among the index queries and p90
# among the classify ones, not on a boundary between kinds.
SWEEP_KINDS = ("cascade", "classify", "classify", "index")


def _sweep_queries(seed) -> list[Query]:
    rng = random.Random(f"sweep-small:{seed}")
    types = [(fam, rank) for fam, rank in TYPES if rank > 1]  # A1 has no proper subset
    out: list[Query] = []
    turn = 0
    while len(out) < SWEEP_BATCH:
        fam, rank = types[turn % len(types)]
        kind = SWEEP_KINDS[turn % len(SWEEP_KINDS)]
        turn += 1
        sub = _random_subset(rng, rank)
        if kind == "cascade":
            out.append(Query(f"cascade {fam}{rank} {sub}", _cascade_call(fam, rank, sub),
                             _cascade_check(fam, rank, sub)))
        elif kind == "classify":
            out.append(Query(f"classify {fam}{rank} {sub}", _classify_call(fam, rank, sub),
                             _classify_check(fam, rank, sub)))
        else:
            other = _random_subset(rng, rank)
            n = len(out)
            out.append(Query(f"index {fam}{rank} {sub} {other}",
                             _index_call(fam, rank, sub, other), partner=n + 1))
            out.append(Query(f"index {fam}{rank} {other} {sub}",
                             _index_call(fam, rank, other, sub), partner=n))
    return out


def _cascade_call(fam, rank, sub):
    def call(q):
        r = q.rootsys.build_root_system(q.rootsys.SimpleType(fam, rank))
        c = q.cascade.kostant_cascade(r, sub)
        return f"{len(c)} {c.eps_set}"
    return call


def _cascade_check(fam, rank, sub):
    def check(output):
        want = oracle.cascade_size(fam, rank, sub)
        got = int(output.split(" ", 1)[0])
        return None if got == want else f"cascade size {got}, expected {want}"
    return check


def _classify_call(fam, rank, sub):
    def call(q):
        return q.classify.classify_parabolic(q.rootsys.SimpleType(fam, rank), sub).to_json()
    return call


def _classify_check(fam, rank, sub):
    def check(output):
        want = oracle.is_quasi_reductive(fam, rank, sub)
        return None if json.loads(output)["qr"] == want else "verdict differs from the classification"
    return check


def _index_call(fam, rank, pi1, pi2):
    def call(q):
        spec = q.seaweed.BiparabolicSpec(q.rootsys.SimpleType(fam, rank), pi1, pi2)
        return str(q.seaweed.seaweed_index(spec))
    return call


def pair_errors(queries: list[Query], outputs: list[str]) -> dict[int, str]:
    """An index query must agree with its transposed partner."""
    return {
        i: "index differs from the transposed pair"
        for i, q in enumerate(queries)
        if q.partner is not None and outputs[i] != outputs[q.partner]
    }


WORKLOADS = {
    "verify-found": Workload(
        "verify-found", (("E", 7), ("E", 8)),
        COMMON_WARMUP + ((["verify", "E", "7", "--pi1", ""], 0), (["verify", "E", "8", "--pi1", ""], 0)),
        False, _found_queries, 1),
    "verify-exhausted": Workload(
        "verify-exhausted", (("E", 7), ("E", 8)),
        COMMON_WARMUP + ((["verify", "E", "7", "--pi1", "6", "--trials", "1"], 3),
                         (["verify", "E", "8", "--pi1", "1", "--trials", "1"], 3)),
        False, _exhausted_queries, 1),
    "sweep-small": Workload(
        "sweep-small", tuple(TYPES), COMMON_WARMUP, True, _sweep_queries, 8),
}

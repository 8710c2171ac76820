"""Command line surface: cascades, indices, verdicts, certificates, tables.

Output is a stable line-oriented ``key: value`` text (or JSON with --json);
identical arguments and seed produce byte-identical output. Exit codes:
0 success, 2 usage or file error, 3 certificate search exhausted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import cache
from importlib import resources
from pathlib import Path

from .cascade import kostant_cascade
from .classify import (
    classify_parabolic,
    enumerate_index_zero,
    non_qr_subsets,
    single_root_test,
)
from .rootsys import SimpleType, build_root_system
from .seaweed import BiparabolicSpec, seaweed_index
from .stabilizer import certificate_to_text, certify_quasi_reductive

USAGE_ERROR = 2
EXHAUSTED = 3


def _parse_subset(txt: str | None, rank: int, default_full: bool) -> frozenset[int]:
    if txt is None:
        return frozenset(range(1, rank + 1)) if default_full else frozenset()
    txt = txt.strip()
    if not txt:
        return frozenset()
    try:
        vals = frozenset(int(p) for p in txt.split(","))
    except ValueError:
        raise ValueError(f"cannot parse root list {txt!r}") from None
    if not all(1 <= v <= rank for v in vals):
        raise ValueError(f"root indices in {sorted(vals)} out of range 1..{rank}")
    return vals


def _subset_text(s) -> str:
    return ",".join(str(i) for i in sorted(s)) if s else "(empty)"


def _spec_output(
    spec: BiparabolicSpec, as_json: bool, head: dict, text_tail: list, json_tail: dict
) -> str:
    """The output of a biparabolic query: type, pi1, pi2 and the ``head``
    fields, then ``text_tail`` lines or ``json_tail`` keys."""
    if as_json:
        out = {"type": str(spec.ambient), "pi1": sorted(spec.pi1), "pi2": sorted(spec.pi2)}
        return json.dumps({**out, **head, **json_tail}, sort_keys=True)
    lines = [
        f"type: {spec.ambient}",
        f"pi1: {_subset_text(spec.pi1)}",
        f"pi2: {_subset_text(spec.pi2)}",
    ]
    return "\n".join(lines + [f"{k}: {v}" for k, v in head.items()] + text_tail)


# ---------------------------------------------------------------------------
# commands


def cmd_cascade(
    stype: SimpleType, pi: frozenset[int], as_json: bool
) -> tuple[int, str]:
    r = build_root_system(stype)
    c = kostant_cascade(r, pi)
    if as_json:
        data = {
            "type": str(stype),
            "pi": sorted(pi),
            "k": len(c),
            "nodes": [
                {
                    "support": sorted(n.support),
                    "eps": list(n.eps),
                    "gamma_size": len(n.gamma),
                }
                for n in c.nodes
            ],
        }
        return 0, json.dumps(data, sort_keys=True)
    lines = [f"type: {stype}", f"pi: {_subset_text(pi)}", f"k: {len(c)}"]
    for i, n in enumerate(c.nodes, 1):
        lines.append(
            "node {}: support={} eps={} gamma={}".format(
                i,
                ",".join(map(str, sorted(n.support))),
                ",".join(map(str, n.eps)),
                len(n.gamma),
            )
        )
    return 0, "\n".join(lines)


def cmd_index(spec: BiparabolicSpec, as_json: bool) -> tuple[int, str]:
    return 0, _spec_output(spec, as_json, {"index": seaweed_index(spec)}, [], {})


def cmd_classify(
    stype: SimpleType, pi: frozenset[int], as_json: bool
) -> tuple[int, str]:
    v = classify_parabolic(stype, pi)
    if as_json:
        return 0, v.to_json()
    lines = [
        f"type: {stype}",
        f"pi: {_subset_text(pi)}",
        f"quasi_reductive: {'yes' if v.quasi_reductive else 'no'}",
        f"index: {v.index}",
    ]
    if v.torus_dim is not None:
        lines.append(f"torus_dim: {v.torus_dim}")
    for t in v.trace:
        lines.append(f"rule: {t}")
    return 0, "\n".join(lines)


def cmd_verify(
    spec: BiparabolicSpec, seed: int, trials: int, as_json: bool, store: str | None
) -> tuple[int, str]:
    index = seaweed_index(spec)
    cert = certify_quasi_reductive(spec, trials=trials, seed=seed, _index=index)
    head = {"seed": seed, "index": index}
    if cert is None:
        return EXHAUSTED, _spec_output(
            spec,
            as_json,
            head,
            [f"certificate: none ({trials} trials exhausted)"],
            {"trials": trials, "certificate": None},
        )
    text = certificate_to_text(cert)
    if store:
        Path(store).write_text(text)
    tail = [
        f"certificate: found (trial {cert.trial})",
        f"stabilizer_dim: {cert.stab.dim}",
        "checks: dim-equals-index abelian killing-nondegenerate semisimple",
        f"stored: {store}" if store else text.rstrip("\n"),
    ]
    return 0, _spec_output(
        spec,
        as_json,
        head,
        tail,
        {"trial": cert.trial, "stabilizer_dim": cert.stab.dim, "certificate": text},
    )


# ---------------------------------------------------------------------------
# table regeneration and golden diffs

_CLASSICAL_RANGE = {"A": range(1, 11), "B": range(2, 11), "C": range(3, 11), "D": range(4, 11)}
_ALL_TYPES = (
    [("A", l) for l in _CLASSICAL_RANGE["A"]]
    + [("B", l) for l in _CLASSICAL_RANGE["B"]]
    + [("C", l) for l in _CLASSICAL_RANGE["C"]]
    + [("D", l) for l in _CLASSICAL_RANGE["D"]]
    + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _md_text(header: list[str], rows: list[list]) -> str:
    out = ["| " + " | ".join(header) + " |"]
    out.append("|" + "|".join([" --- "] * len(header)) + "|")
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out) + "\n"


def _subset_cell(s) -> str:
    return " ".join(str(i) for i in sorted(s)) if s else "(empty)"


def _non_qr_rows(fam: str, rank: int) -> list[list]:
    return [
        [
            _subset_cell(v.subset),
            v.index,
            v.torus_dim if v.torus_dim is not None else "",
        ]
        for v in non_qr_subsets(SimpleType(fam, rank))
    ]


def generate_tables(selection: list[tuple[str, int]] | None) -> dict[str, str]:
    """Build the regenerated reference tables as {filename: content}."""
    out: dict[str, str] = {}
    if selection is None:
        rows = []
        for fam, rank in _ALL_TYPES:
            r = build_root_system(SimpleType(fam, rank))
            rows.append([fam, rank, len(kostant_cascade(r, r.full_subset()))])
        out["cascade_sizes.csv"] = _csv_text(["family", "rank", "k"], rows)
        out["cascade_sizes.md"] = _md_text(["family", "rank", "k"], rows)

        rows = []
        for fam, rank in _ALL_TYPES:
            t = SimpleType(fam, rank)
            failing = [i for i in range(1, rank + 1) if not single_root_test(t, i)]
            rows.append([fam, rank, " ".join(map(str, failing))])
        out["failing_single_roots.csv"] = _csv_text(
            ["family", "rank", "failing_roots"], rows
        )
        out["failing_single_roots.md"] = _md_text(
            ["family", "rank", "failing_roots"], rows
        )

        zero = [[_subset_cell(s)] for s in enumerate_index_zero(SimpleType("E", 6))]
        out["index_zero_e6.csv"] = _csv_text(["subset"], zero)
        out["index_zero_e6.md"] = _md_text(["subset"], zero)

        targets = [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8), ("D", 6)]
    else:
        targets = selection
    header = ["subset", "index", "torus_dim"]
    for fam, rank in targets:
        rows = _non_qr_rows(fam, rank)
        name = f"non_qr_{fam.lower()}{rank}"
        out[f"{name}.csv"] = _csv_text(header, rows)
        out[f"{name}.md"] = _md_text(header, rows)
    return out


def _golden_dir_files() -> dict[str, str]:
    files = {}
    base = resources.files("quasired").joinpath("data/golden")
    if base.is_dir():
        for entry in base.iterdir():
            if entry.is_file():
                files[entry.name] = entry.read_text()
    return files


def cmd_tables(selection: list[tuple[str, int]] | None, outdir: str) -> tuple[int, str]:
    tables = generate_tables(selection)
    golden = _golden_dir_files()
    outpath = Path(outdir)
    outpath.mkdir(parents=True, exist_ok=True)
    lines = []
    status = 0
    for name in sorted(tables):
        (outpath / name).write_text(tables[name])
        if name in golden:
            if golden[name] == tables[name]:
                lines.append(f"{name}: MATCH")
            else:
                lines.append(f"{name}: MISMATCH against vendored copy")
                status = 1
        else:
            lines.append(f"{name}: written (no vendored copy)")
    lines.append(f"output directory: {outpath}")
    return status, "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state
    on it, so every call of ``run`` can share it."""
    p = argparse.ArgumentParser(
        prog="quasired",
        description="Exact computations with cascades, seaweed subalgebras and "
        "quasi-reductivity of parabolic subalgebras of simple Lie algebras.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_type_args(sp):
        sp.add_argument("family", choices=list("ABCDEFG"))
        sp.add_argument("rank", type=int)
        sp.add_argument("--json", action="store_true", help="machine readable output")

    sp = sub.add_parser("cascade", help="print the cascade of a subset")
    add_type_args(sp)
    sp.add_argument("--pi", default=None, help="comma separated root indices; default full")

    sp = sub.add_parser("index", help="index of a standard biparabolic")
    add_type_args(sp)
    sp.add_argument("--pi1", default=None, help="first subset; default empty")
    sp.add_argument("--pi2", default=None, help="second subset; default full")

    sp = sub.add_parser("classify", help="quasi-reductivity verdict for a parabolic")
    add_type_args(sp)
    sp.add_argument("--pi", default=None, help="subset of simple roots; default empty")

    sp = sub.add_parser("verify", help="search for a torus certificate")
    add_type_args(sp)
    sp.add_argument("--pi1", default=None, help="first subset; default empty")
    sp.add_argument("--pi2", default=None, help="second subset; default full")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--store", default=None, help="write the certificate to a file")

    sp = sub.add_parser("tables", help="regenerate reference tables and diff goldens")
    sp.add_argument("family", nargs="?", choices=list("ABCDEFG"))
    sp.add_argument("rank", nargs="?", type=int)
    sp.add_argument(
        "--out",
        default=None,
        help="output directory (default $QUASIRED_TABLES_DIR or ./quasired_tables)",
    )
    return p


def run(argv=None) -> tuple[int, str]:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "tables":
            if (args.family is None) != (args.rank is None):
                raise ValueError("tables needs both family and rank, or neither")
            selection = None
            if args.family is not None:
                SimpleType(args.family, args.rank)
                # each table enumerates all 2^rank subsets
                if (args.family, args.rank) not in _ALL_TYPES:
                    raise ValueError(f"tables covers ranks up to 10, not {args.rank}")
                selection = [(args.family, args.rank)]
            outdir = args.out or os.environ.get(
                "QUASIRED_TABLES_DIR", "quasired_tables"
            )
            return cmd_tables(selection, outdir)
        stype = SimpleType(args.family, args.rank)
        if args.command == "cascade":
            pi = _parse_subset(args.pi, stype.rank, default_full=True)
            return cmd_cascade(stype, pi, args.json)
        if args.command == "classify":
            pi = _parse_subset(args.pi, stype.rank, default_full=False)
            return cmd_classify(stype, pi, args.json)
        spec = BiparabolicSpec(
            stype,
            _parse_subset(args.pi1, stype.rank, default_full=False),
            _parse_subset(args.pi2, stype.rank, default_full=True),
        )
        if args.command == "index":
            return cmd_index(spec, args.json)
        return cmd_verify(spec, args.seed, args.trials, args.json, args.store)
    except (ValueError, OSError) as exc:
        return USAGE_ERROR, f"error: {exc}"


def main(argv=None) -> int:
    code, text = run(argv)
    stream = sys.stderr if code == USAGE_ERROR else sys.stdout
    print(text, file=stream)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""The vendored golden tables must agree with the hard-coded reference data,
not merely with whatever the current build regenerates."""

import csv
import random
from importlib import resources

from test_classify import D6_NON_QR, E6_INDEX_ZERO, E6_NON_QR, FAILING_CONNECTED

from quasired.classify import _torus_dims
from quasired.rootsys import SimpleType
from quasired.seaweed import biparabolic_basis, build_u, parabolic, sample_cv, seaweed_index
from quasired.stabilizer import form_stabilizer, is_abelian, killing_radical_on


def _read_golden(name):
    base = resources.files("quasired").joinpath("data/golden")
    with (base / name).open() as fh:
        rows = list(csv.DictReader(fh))
    return rows


def _parse_subset(cell):
    return tuple(int(p) for p in cell.split()) if cell != "(empty)" else ()


def test_golden_cascade_sizes():
    rows = _read_golden("cascade_sizes.csv")
    seen = {(r["family"], int(r["rank"])): int(r["k"]) for r in rows}
    assert seen[("E", 7)] == 7 and seen[("D", 6)] == 6 and seen[("A", 5)] == 3
    for l in range(1, 11):
        assert seen[("A", l)] == (l + 1) // 2
    for l in range(2, 11):
        assert seen[("B", l)] == l
    for l in range(3, 11):
        assert seen[("C", l)] == l
    for l in range(4, 11):
        assert seen[("D", l)] == 2 * (l // 2)
    assert seen[("G", 2)] == 2 and seen[("F", 4)] == 4
    assert seen[("E", 6)] == 4 and seen[("E", 8)] == 8


def test_golden_d6_list():
    rows = _read_golden("non_qr_d6.csv")
    got = {_parse_subset(r["subset"]) for r in rows}
    assert got == {tuple(sorted(s)) for s in D6_NON_QR}


def test_golden_e6_index_zero():
    rows = _read_golden("index_zero_e6.csv")
    got = {_parse_subset(r["subset"]) for r in rows}
    assert got == {tuple(sorted(s)) for s in E6_INDEX_ZERO}


def test_golden_e6_non_qr():
    rows = _read_golden("non_qr_e6.csv")
    got = {
        _parse_subset(r["subset"]): (int(r["index"]), int(r["torus_dim"]))
        for r in rows
    }
    assert got == E6_NON_QR


def test_golden_exceptional_connected_rows():
    # within each full table the connected rows carry the known index and
    # torus data; G2's lone failing subset has no recorded torus dimension
    from conftest import system

    for (family, rank), table in FAILING_CONNECTED.items():
        rows = _read_golden(f"non_qr_{family.lower()}{rank}.csv")
        rs = system(family, rank)
        got = {}
        for r in rows:
            sub = _parse_subset(r["subset"])
            if rs.is_connected(sub):
                torus = int(r["torus_dim"]) if r["torus_dim"] else None
                got[sub] = (int(r["index"]), torus)
        assert got == table, (family, rank)


def test_golden_failing_single_roots():
    rows = _read_golden("failing_single_roots.csv")
    seen = {(r["family"], int(r["rank"])): r["failing_roots"] for r in rows}
    assert seen[("G", 2)] == "1"
    assert seen[("F", 4)] == "1"
    assert seen[("E", 6)] == "2"
    assert seen[("E", 7)] == "1 4 6"
    assert seen[("E", 8)] == "1 4 6 8"
    assert seen[("B", 9)] == "2 4 6 8"
    assert seen[("D", 10)] == "2 4 6 8"
    assert seen[("A", 10)] == ""
    assert seen[("C", 10)] == ""


NON_QR_TABLES = [("G", 2), ("F", 4), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]


def test_torus_cells_rederived_from_generic_stabilizers():
    """classify reads torus_dim back from the vendored tables, so re-derive
    every cell: at three seeds the stabilizer S of a drawn form has the
    index as dimension and is abelian, and dim S - dim rad_kappa(S) agrees
    across the seeds and with every filled cell."""
    cells = filled = 0
    for family, rank in NON_QR_TABLES:
        st = SimpleType(family, rank)
        recorded = {}
        for r in _read_golden(f"non_qr_{family.lower()}{rank}.csv"):
            sub = _parse_subset(r["subset"])
            spec = parabolic(st, sub)
            P, index = biparabolic_basis(spec), seaweed_index(spec)
            torus = set()
            for seed in (1, 2, 3):
                S = form_stabilizer(P, build_u(spec, sample_cv(spec, random.Random(seed))))
                assert S.dim == index and is_abelian(S), (st, sub, seed)
                torus.add(S.dim - killing_radical_on(S).dim)
            assert len(torus) == 1, (st, sub, torus)
            cells += 1
            if r["torus_dim"]:
                recorded[frozenset(sub)] = int(r["torus_dim"])
                assert torus == {int(r["torus_dim"])}, (st, sub, torus)
        # classify serves exactly the filled cells
        assert _torus_dims(st) == recorded, st
        filled += len(recorded)
    assert (cells, filled) == (235, 35)

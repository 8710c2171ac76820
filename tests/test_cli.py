import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quasired import cli
from quasired.classify import classify_parabolic
from quasired.rootsys import MAX_CLASSICAL_RANK, SimpleType
from quasired.stabilizer import (
    MAX_TRIALS,
    certificate_from_text,
    certificate_to_text,
    reverify_certificate,
)


def run(*argv):
    return cli.run(list(argv))


def test_cascade_command():
    code, out = run("cascade", "E", "7")
    assert code == 0
    assert "k: 7" in out and out.count("node ") == 7


def test_cascade_subset_and_empty():
    code, out = run("cascade", "E", "6", "--pi", "2,3,4")
    assert code == 0 and "k: 2" in out
    code, out = run("cascade", "A", "1", "--pi", "")
    assert code == 0 and "k: 0" in out


def test_cascade_json():
    code, out = run("cascade", "G", "2", "--json")
    data = json.loads(out)
    assert data["k"] == 2 and len(data["nodes"]) == 2
    assert data["nodes"][0]["eps"] == [2, 3]


def test_index_command():
    code, out = run("index", "E", "6", "--pi1", "2")
    assert code == 0 and "index: 3" in out
    code, out = run("index", "E", "8", "--pi1", "1,3,4")
    assert code == 0 and "index: 2" in out
    code, out = run("index", "F", "4", "--pi1", "1,2", "--pi2", "2,3")
    assert code == 0


def test_classify_command():
    code, out = run("classify", "E", "6", "--pi", "2")
    assert code == 0
    assert "quasi_reductive: no" in out and "index: 3" in out
    code, out = run("classify", "A", "5", "--pi", "1,2,4")
    assert code == 0 and "quasi_reductive: yes" in out
    code, out = run("classify", "E", "6", "--pi", "2", "--json")
    data = json.loads(out)
    assert data["qr"] is False and data["index"] == 3 and data["torus_dim"] == 2


def test_verify_command_success(tmp_path):
    store = tmp_path / "cert.txt"
    code, out = run(
        "verify", "E", "6", "--pi1", "2,3,4", "--seed", "7", "--store", str(store)
    )
    assert code == 0
    assert "certificate: found" in out
    cert = certificate_from_text(store.read_text())
    assert reverify_certificate(cert)


@pytest.mark.parametrize("family,rank", [("G", 2), ("F", 4), ("E", 6)])
def test_every_printed_certificate_parses_back_to_itself(family, rank):
    # `verify` on every parabolic of the type: each certificate it prints
    # parses, prints back to the same text and re-verifies
    for n in range(rank + 1):
        for sub in itertools.combinations(range(1, rank + 1), n):
            pi1 = ",".join(map(str, sub))
            code, out = run("verify", family, str(rank), "--pi1", pi1, "--json")
            qr = classify_parabolic(SimpleType(family, rank), sub).quasi_reductive
            assert code == (0 if qr else cli.EXHAUSTED), pi1
            if qr:
                text = json.loads(out)["certificate"]
                cert = certificate_from_text(text)
                assert certificate_to_text(cert) == text, pi1
                assert reverify_certificate(cert), pi1


def test_verify_command_exhausted():
    code, out = run("verify", "F", "4", "--pi1", "1", "--trials", "3", "--seed", "5")
    assert code == cli.EXHAUSTED
    assert "exhausted" in out


def test_verify_trials_are_bounded(capsys):
    # a huge count fails at once instead of starting a search that does not end
    for trials in (MAX_TRIALS + 1, 10**9):
        code, out = run("verify", "E", "8", "--pi1", "1", "--trials", str(trials))
        assert code == cli.USAGE_ERROR
        assert out == f"error: at most {MAX_TRIALS} trials are allowed, not {trials}"
    code, out = run("verify", "E", "8", "--pi1", "1", "--trials", "0")
    assert code == cli.USAGE_ERROR and out == "error: at least one trial is required"
    assert cli.main(["verify", "E", "8", "--pi1", "1", "--trials", str(10**9)]) == 2
    captured = capsys.readouterr()
    assert not captured.out and str(MAX_TRIALS) in captured.err


def test_verify_general_seaweed():
    code, out = run(
        "verify", "C", "4", "--pi1", "1,2,4", "--pi2", "2,3", "--seed", "3"
    )
    assert code == 0 and "certificate: found" in out


def test_verify_json_mode():
    code, out = run("verify", "G", "2", "--pi1", "2", "--seed", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["stabilizer_dim"] == data["index"]


def test_usage_errors(tmp_path):
    code, _ = run("cascade", "E", "9")
    assert code == cli.USAGE_ERROR
    # classical ranks are capped, so no query on a valid type runs unbounded
    code, out = run("cascade", "A", str(MAX_CLASSICAL_RANK + 1))
    assert code == cli.USAGE_ERROR and "out of range" in out
    code, _ = run("index", "D", "100000")
    assert code == cli.USAGE_ERROR
    # a single-type table enumerates all 2^rank subsets
    code, _ = run("tables", "A", "11", "--out", str(tmp_path))
    assert code == cli.USAGE_ERROR and not any(tmp_path.iterdir())
    code, _ = run("classify", "E", "6", "--pi", "7")
    assert code == cli.USAGE_ERROR
    code, _ = run("classify", "E", "6", "--pi", "x,y")
    assert code == cli.USAGE_ERROR
    with pytest.raises(SystemExit) as exc:
        run("frobnicate", "E", "6")
    assert exc.value.code == cli.USAGE_ERROR


def _fresh_process(argv):
    """quasired run in a new interpreter, on the same source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "quasired.cli", *argv], capture_output=True, text=True, env=env
    )


def test_shared_parser_after_usage_error_matches_a_fresh_process(capsys):
    # the parser is built once per process; a parse that failed must leave
    # nothing behind for the next call
    bad = ["verify", "G", "2", "--pi1", "2", "--bogus"]
    good = ["verify", "G", "2", "--pi1", "2", "--seed", "1"]
    seen = []
    for argv in (bad, good, bad):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        seen.append((code, captured.out, captured.err))
    for argv, (code, out, err) in zip((bad, good, bad), seen):
        fresh = _fresh_process(argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert seen[0][0] == cli.USAGE_ERROR and seen[1][0] == 0


def test_verify_store_in_missing_directory_is_exit_2(tmp_path):
    store = tmp_path / "missing" / "cert.txt"
    code, out = run("verify", "G", "2", "--pi1", "2", "--seed", "1", "--store", str(store))
    assert code == cli.USAGE_ERROR and out.startswith("error: ")
    assert not store.exists()


def test_tables_out_on_existing_file_is_exit_2(tmp_path):
    target = tmp_path / "not-a-dir"
    target.write_text("keep\n")
    code, out = run("tables", "G", "2", "--out", str(target))
    assert code == cli.USAGE_ERROR and out.startswith("error: ")
    assert target.read_text() == "keep\n"


def test_deterministic_output():
    a = run("verify", "E", "6", "--pi1", "1,2,4,6", "--seed", "11")
    b = run("verify", "E", "6", "--pi1", "1,2,4,6", "--seed", "11")
    assert a == b
    c = run("cascade", "E", "8")
    d = run("cascade", "E", "8")
    assert c == d


def test_tables_match_vendored(tmp_path):
    code, out = run("tables", "D", "6", "--out", str(tmp_path))
    assert code == 0
    assert "non_qr_d6.csv: MATCH" in out
    rows = (tmp_path / "non_qr_d6.csv").read_text().strip().splitlines()
    assert len(rows) == 13  # header + 12 subsets


def test_tables_all_match_vendored(tmp_path):
    code, out = run("tables", "--out", str(tmp_path))
    assert code == 0
    assert "MISMATCH" not in out
    assert (tmp_path / "cascade_sizes.csv").exists()
    assert (tmp_path / "index_zero_e6.csv").exists()


def test_tables_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("QUASIRED_TABLES_DIR", str(tmp_path / "envdir"))
    code, out = run("tables", "G", "2")
    assert code == 0
    assert (tmp_path / "envdir" / "non_qr_g2.csv").exists()


def test_main_exit_codes(capsys):
    assert cli.main(["classify", "G", "2", "--pi", "1"]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "G", "2", "--pi1", "1", "--trials", "2"]) == 3
    capsys.readouterr()


# stdout of two verify runs, byte for byte; the certificate search must keep
# finding the same trial, coefficients and stabilizer rows
_VERIFY_G2_TEXT = """\
type: G2
pi1: 2
pi2: 1,2
seed: 1
index: 1
certificate: found (trial 0)
stabilizer_dim: 1
checks: dim-equals-index abelian killing-nondegenerate semisimple
quasired certificate v1
type: G2
pi1: 2
pi2: 1,2
a: 1+2=-33/1; 2=22/1
b: 2=47/1
stabilizer-dim: 1
trial: 0
row: 0=1/1,8=22/47
"""

_VERIFY_E6_JSON = (
    '{"certificate": "quasired certificate v1\\ntype: E6\\npi1: 2,3,4\\n'
    'pi2: 1,2,3,4,5,6\\na: 1+2+3+4+5+6=-9/1; 1+3+4+5+6=-31/1; 3+4+5=33/1; '
    '4=-44/1\\nb: 2+3+4=-41/1; 4=18/1\\nstabilizer-dim: 2\\ntrial: 0\\n'
    'row: 2=1/1,44=-22/9\\nrow: 36=1/1,38=1/2,40=-1/2,41=-1/1\\n", '
    '"index": 2, "pi1": [2, 3, 4], "pi2": [1, 2, 3, 4, 5, 6], "seed": 7, '
    '"stabilizer_dim": 2, "trial": 0, "type": "E6"}\n'
)


_VERIFY_E7_EXHAUSTED_TEXT = """\
type: E7
pi1: 1
pi2: 1,2,3,4,5,6,7
seed: 3
index: 1
certificate: none (20 trials exhausted)
"""

_VERIFY_E8_JSON = (
    '{"certificate": "quasired certificate v1\\ntype: E8\\npi1: 2,3,5,7\\n'
    'pi2: 1,2,3,4,5,6,7,8\\na: 1+2+3+4+5+6+7=-18/1; 1+2+3+4+5+6+7+8=29/1; 2=38/1; '
    '2+3+4+5=-5/1; 2+3+4+5+6+7=44/1; 3=44/1; 5=33/1; 7=17/1\\n'
    'b: 2=-47/1; 3=9/1; 5=49/1; 7=-19/1\\nstabilizer-dim: 4\\ntrial: 0\\n'
    'row: 1=1/1,129=-17/19\\nrow: 3=1/1,131=33/49\\nrow: 5=1/1,133=44/9\\n'
    'row: 6=1/1,134=-38/47\\n", "index": 4, "pi1": [2, 3, 5, 7], '
    '"pi2": [1, 2, 3, 4, 5, 6, 7, 8], "seed": 5, "stabilizer_dim": 4, "trial": 0, '
    '"type": "E8"}\n'
)


@pytest.mark.parametrize(
    "argv,code,want",
    [
        (["verify", "G", "2", "--pi1", "2", "--seed", "1"], 0, _VERIFY_G2_TEXT),
        (["verify", "E", "6", "--pi1", "2,3,4", "--seed", "7", "--json"], 0, _VERIFY_E6_JSON),
        (["verify", "E", "7", "--pi1", "1", "--seed", "3"], 3, _VERIFY_E7_EXHAUSTED_TEXT),
        (["verify", "E", "8", "--pi1", "2,3,5,7", "--seed", "5", "--json"], 0, _VERIFY_E8_JSON),
    ],
    ids=["g2-text", "e6-json", "e7-exhausted-text", "e8-json"],
)
def test_verify_stdout_is_pinned(capsys, argv, code, want):
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == want and captured.err == ""


# the B/D rule line: the last flag dimension is dropped from the scan only
# when it is odd and equals N/2, which only type D of odd rank reaches
@pytest.mark.parametrize(
    "argv,want",
    [
        (
            ["classify", "D", "5", "--pi", "1,2,4"],
            "type: D5\npi: 1,2,4\nquasi_reductive: yes\nindex: 1\n"
            "rule: dkt-flag: N=10 dims=(3,5) scanned=(3) -> qr\n",
        ),
        (
            ["classify", "D", "4", "--pi", "2"],
            "type: D4\npi: 2\nquasi_reductive: no\nindex: 1\n"
            "rule: dkt-flag: N=8 dims=(1,3,4) scanned=(1,3,4) -> not-qr\n",
        ),
        (
            ["classify", "B", "3", "--pi", "2"],
            "type: B3\npi: 2\nquasi_reductive: no\nindex: 1\n"
            "rule: dkt-flag: N=7 dims=(1,3) scanned=(1,3) -> not-qr\n",
        ),
    ],
    ids=["d5-last-dropped", "d4-last-kept", "b3-odd-last-kept"],
)
def test_classify_flag_scan_is_pinned(capsys, argv, want):
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == want and captured.err == ""

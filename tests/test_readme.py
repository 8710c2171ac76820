"""The README's command lines, Python snippet and library table stay true.

Each ``quasired ...`` line of the command-line block runs through
``cli.run`` and must exit 0 with the value its comment states; the Python
snippet runs as written; and every name in backticks in the "Library
overview" table must resolve in the module of its row.
"""

import dataclasses
import importlib
import inspect
import re
import shlex
from pathlib import Path

import quasired
from quasired import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# a fact a command-line comment states, and the output line that shows it
STATED = {
    r"(\d+) nodes": "k: {}",
    r"index .*: (\d+)$": "index: {}",
    r"(not) QR": "quasi_reductive: no",
    r"dim (\d+)": "stabilizer_dim: {}",
}
ROWS = r"\((\d+) rows\)"  # rows of the one table a `tables TYPE` line writes
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _fenced(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def test_readme_command_lines_state_their_output(tmp_path, monkeypatch):
    # tables writes under ./tables and ./quasired_tables
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QUASIRED_TABLES_DIR", raising=False)
    lines = [l for b in _fenced("sh") for l in b.splitlines() if l.startswith("quasired ")]
    checked = 0
    for line in lines:
        command, _, comment = line.partition("#")
        code, out = cli.run(shlex.split(command)[1:])
        assert code == 0, (line, out)
        claims = 0
        for pattern, shown in STATED.items():
            if m := re.search(pattern, comment.strip()):
                assert shown.format(m[1]) in out.splitlines(), (line, out)
                claims += 1
        if m := re.search(ROWS, comment):
            outdir = Path(out.splitlines()[-1].removeprefix("output directory: "))
            (table,) = outdir.glob("non_qr_*.csv")
            assert len(table.read_text().splitlines()) - 1 == int(m[1]), line
            claims += 1
        # a comment that states a number or a verdict is checked
        assert claims or not re.search(r"\d|QR", comment), line
        checked += claims
    assert checked == 5


def test_readme_python_snippet_runs(capsys):
    (snippet,) = _fenced("python")
    exec(snippet, {})
    printed = capsys.readouterr().out
    (nodes,) = re.findall(r"# (\d+) nodes", snippet)
    assert printed.split()[0] == nodes


def _field_names(obj) -> set[str]:
    return {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else set()


def _resolves(module, name: str) -> bool:
    """name, bare or dotted, is a module of the package, an attribute of the
    module, or an attribute or dataclass field of a class defined there; a
    field without a class attribute (one set in ``__post_init__``) resolves
    dotted too, as ``Class.field``."""
    head, *rest = name.split(".")
    if not rest and inspect.ismodule(getattr(quasired, head, None)):
        return True
    owners = [module] + [
        c for c in vars(module).values() if inspect.isclass(c) and c.__module__ == module.__name__
    ]
    for owner in owners:
        if head in _field_names(owner) and not rest:
            return True
        obj = getattr(owner, head, None)
        for part in rest:
            obj = getattr(obj, part, True if part in _field_names(obj) else None)
        if obj is not None:
            return True
    return False


def test_readme_library_overview_names_resolve():
    section = README.split("## Library overview")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(quasired\.\w+)` \| (.*) \|$", section, re.M)
    assert len(rows) == 6
    names = [
        (mod, name)
        for mod, contents in rows
        for name in re.findall(r"`([^`]+)`", contents)
        if IDENTIFIER.fullmatch(name)
    ]
    assert len(names) > 60
    stale = [f"{mod}: {name}" for mod, name in names if not _resolves(importlib.import_module(mod), name)]
    assert not stale, stale

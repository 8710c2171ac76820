"""The benchmark's tracer wraps named functions of ``quasired`` and exits on
a name that is gone, so every name it lists must resolve. Its ``TARGETS``
table is read from the source, without importing or running the tracer."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACER}")


def test_every_tracer_target_resolves():
    targets = _targets()
    assert targets["linalg"] and targets["stabilizer"]
    missing = [
        f"quasired.{mod}.{name}"
        for mod, names in targets.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"quasired.{mod}"), name, None))
    ]
    assert not missing, missing

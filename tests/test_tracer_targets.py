"""The benchmark tracer (bench/tracer.py) wraps halftwist functions by
name and calls getattr on each one when it installs.  This test reads
its TARGETS tuple without importing the tracer, and checks that every
name listed there still resolves, so a refactor that drops or renames
one of them fails here rather than in a traced benchmark run."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [
                (call.args[0].value, call.args[1].value) for call in node.value.elts
            ]
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_every_traced_name_resolves():
    targets = tracer_targets()
    assert ("covers", "half_twist_any_cmtype") in targets
    missing = [
        f"halftwist.{module}.{attr}"
        for module, attr in targets
        if not hasattr(importlib.import_module(f"halftwist.{module}"), attr)
    ]
    assert missing == []

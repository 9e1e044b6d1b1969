"""The benchmark tracer (bench/tracer.py) wraps halftwist functions by
name and calls getattr on each one when it installs.  This test reads
its TARGETS tuple without importing the tracer, and checks that every
name listed there still resolves, so a refactor that drops or renames
one of them fails here rather than in a traced benchmark run.

The same list is the one allowance of the unused-code scan below: a
public function or class of the package that no module of the package
refers to is dead code, unless the tracer times it."""

import ast
import importlib
from pathlib import Path

import halftwist

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
PACKAGE = Path(halftwist.__file__).resolve().parent


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


def test_every_public_definition_is_referenced_or_traced():
    # __init__.py only re-exports, so its imports are not references
    trees = [
        ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    ]
    assert trees
    public = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    traced = {attr for _, attr in tracer_targets()}
    assert public - referenced - traced == set()

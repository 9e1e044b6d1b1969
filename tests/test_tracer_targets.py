"""The benchmark tracer (bench/tracer.py) wraps halftwist functions by
name and calls getattr on each one when it installs.  This test reads
its TARGETS tuple without importing the tracer, and checks that every
name listed there still resolves, so a refactor that drops or renames
one of them fails here rather than in a traced benchmark run.

The same list is the one allowance of the unused-code scan below: a
top-level function or class of the package, public or private, that no
module of the package refers to is dead code, unless the tracer times
it.  The same scan finds dead class members: a method or property,
dunders aside, whose name no attribute access in the package or in
bench/*.py reads only serves the tests.  A second scan finds unused
options: a defaulted parameter that no call in the package or in
bench/*.py ever passes only serves the tests."""

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


def test_every_definition_is_referenced_or_traced():
    # __init__.py only re-exports, so its imports are not references
    trees = [
        ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    ]
    assert trees
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert {"_run_row", "build_W"} <= defined
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    traced = {attr for _, attr in tracer_targets()}
    assert defined - referenced - traced == set()
    # a member is reached through an attribute, here or in the benchmark
    members = {
        (cls.name, node.name)
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    assert {("CoverSpec", "field"), ("CMHodgeStructure", "entry")} <= members
    bench = [ast.parse(path.read_text()) for path in TRACER.parent.glob("*.py")]
    read = {
        node.attr
        for tree in trees + bench
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    assert {(cls, name) for cls, name in members if name not in read} == set()


def defaulted_parameters(tree):
    """(callee, parameter, position) for each parameter with a default
    of each function in the tree.  A class is called by its name for
    its `__init__`, self is not counted, and a keyword-only parameter
    has position None."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                offset = int(bool(positional) and positional[0].arg in ("self", "cls"))
                callee = cls if child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                found.extend(
                    (callee, arg.arg, index - offset)
                    for index, arg in enumerate(positional)
                    if index >= first
                )
                found.extend(
                    (callee, arg.arg, None)
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                )
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return found


def passes(call, parameter, position):
    keywords = {kw.arg for kw in call.keywords}  # None stands for **mapping
    positional = [arg for arg in call.args if not isinstance(arg, ast.Starred)]
    return (
        parameter in keywords
        or None in keywords
        or len(positional) < len(call.args)  # a *sequence may reach it
        or (position is not None and len(positional) > position)
    )


def test_every_defaulted_parameter_is_passed_by_some_caller():
    package = [
        ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
    ]
    callers = package + [
        ast.parse(path.read_text()) for path in sorted(TRACER.parent.glob("*.py"))
    ]
    calls = [
        node for tree in callers for node in ast.walk(tree) if isinstance(node, ast.Call)
    ]
    named = {}
    for call in calls:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        named.setdefault(name, []).append(call)
    defaulted = [entry for tree in package for entry in defaulted_parameters(tree)]
    assert ("tensor_invariants", "rule", 2) in defaulted
    never_passed = [
        f"{callee}({parameter})"
        for callee, parameter, position in defaulted
        if not any(passes(call, parameter, position) for call in named.get(callee, []))
    ]
    assert never_passed == []

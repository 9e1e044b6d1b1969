"""The package runs on the standard library alone: sympy is a test-time
oracle, and neither `verify` nor any module of `src/halftwist` may pull
it (or anything else outside the standard library) back in.  Nor may a
module keep an import it no longer uses: the package has no linter, so
an `ast` scan stands in for one."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import halftwist

PACKAGE = Path(halftwist.__file__).resolve().parent


def run_script(script):
    """`script` run by a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    ))
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_verify_leaves_sympy_unimported():
    script = (
        "import contextlib, io, sys\n"
        "from halftwist import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify'])\n"
        "print(code, 'sympy' in sys.modules)\n"
    )
    proc = run_script(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_the_cli_loads_no_rational_arithmetic():
    # every count and rank is an integer computation, so importing the
    # CLI pulls in neither fractions nor what fractions loads
    script = (
        "import sys\n"
        "import halftwist.cli\n"
        "print(*sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))\n"
    )
    proc = run_script(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_importing_the_cli_fills_no_cache():
    # every cache fills on first use: a cache filled at import would move
    # work into start-up, ahead of every command
    script = (
        "import halftwist.cli\n"
        "from halftwist import covers, cyclotomic, hodge, jacobian\n"
        "caches = (cyclotomic.make_cyclotomic, covers.curve_h1,\n"
        "          hodge.k_minus_half, jacobian.primitive_hodge_column)\n"
        "print(*(f.cache_info().currsize for f in caches))\n"
    )
    proc = run_script(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "0", "0"]


def imported_top_level_names(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_import_is_standard_library_or_halftwist():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    foreign = {
        (path.name, name)
        for path in modules
        for name in imported_top_level_names(path)
        if name != "halftwist" and name not in sys.stdlib_module_names
    }
    assert foreign == set()


def unused_imports(path):
    """Names a module imports and never mentions again."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).partition(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_module_imports_a_name_it_does_not_use():
    # __init__.py imports only to re-export, so it is the one exception
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {(path.name, name) for path in modules for name in unused_imports(path)}
    assert unused == set()


def test_the_ledger_reads_no_cell_text():
    # a grid claim reads a cell's pass/fail only; a count it needs comes
    # from the function that computes it, not from a parsed detail string;
    # a failing cell's detail is only quoted, in the error that names it
    path = PACKAGE / "claims.py"
    assert "re" not in imported_top_level_names(path)
    tree = ast.parse(path.read_text())
    quoted = {
        id(node)
        for statement in ast.walk(tree)
        if isinstance(statement, ast.Raise)
        for node in ast.walk(statement)
    }
    details = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "detail"
        and id(node) not in quoted
    ]
    assert details == []


def callers(path, name):
    """The dotted scopes (class and function names) in a module that call
    `name`, bare or as an attribute; module level is the empty string."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None
                )
                if called == name:
                    found.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def package_callers(name):
    return {
        (path.stem, scope)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in callers(path, name)
    }


def test_a_cover_table_is_read_only_through_its_spec():
    # every row of covers, the ledger's as well as a sweep's and the
    # Fermat curve's, comes off `covers.tower`, and no module reads a
    # table around a spec; a tower's series reaches production only
    # inside the specs that `covers.tower` makes, and the sweep oracle
    # builds the one-pass table of the cover it checks
    assert callers(PACKAGE / "claims.py", "CoverSpec") == set()
    assert package_callers("tower") == {
        ("claims", "_tower_rows.spec"),
        ("covers", "curve_h1"),
        ("sweeps", "_run_row"),
    }
    assert package_callers("eigenspace_dims") == {
        ("covers", "CoverSpec.cohomology"),
        ("sweeps", "_oracle_equivalence"),
    }
    assert package_callers("tower_series") == {("covers", "tower")}
    assert package_callers("residue_vectors") == {
        ("covers", "CoverSpec.cohomology"),
        ("jacobian", "eigenspace_dims"),
    }


def test_the_hodge_column_counts_no_monomial_one_at_a_time():
    # the direct table and the hypersurface column are both read off one
    # recurrence series; the per-entry sum is the tests' oracle
    assert package_callers("power_series") == {
        ("jacobian", "eigenspace_dims"),
        ("jacobian", "primitive_hodge_column"),
    }
    assert package_callers("count_bounded_monomials") == set()


def test_the_ledger_runs_sweep_cells_only_through_its_memo():
    # a grid claim takes its cells from the run's memo, so a cell that
    # two claims share runs once
    assert callers(PACKAGE / "claims.py", "check_cover") == {"_cell_memo.cell"}


def function_node(path, function):
    """The module-level function `function` of a module, parsed."""
    tree = ast.parse(path.read_text())
    (node,) = [
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function
    ]
    return node


def calls_in(path, function):
    """How often each name is called, bare or as an attribute, inside
    the module-level function `function` of a module."""
    return Counter(
        call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
        for call in ast.walk(function_node(path, function))
        if isinstance(call, ast.Call)
    )


def test_the_sweep_oracle_stays_off_the_production_route():
    # on a sweep every spec's table comes off its tower series; the
    # oracle builds the same cover's table by the one-pass road and
    # compares the two, touching neither the series nor the tower step
    oracle = calls_in(PACKAGE / "sweeps.py", "_oracle_equivalence")
    assert oracle["eigenspace_dims"] == 1
    assert oracle["require_equal"] == 1
    for name in ("tower_series", "residue_vectors", "accumulate"):
        assert oracle[name] == 0, name
    node = function_node(PACKAGE / "sweeps.py", "_oracle_equivalence")
    attributes = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    assert "series" not in attributes


def test_a_structure_is_built_from_its_vectors_only():
    # one constructor path: (field, weight, vectors), and
    # the stored rows and residue-0 vector are private to `hodge`
    tree = ast.parse((PACKAGE / "hodge.py").read_text())
    (cls,) = [
        n for n in tree.body
        if isinstance(n, ast.ClassDef) and n.name == "CMHodgeStructure"
    ]
    (init,) = [
        n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"
    ]
    args = init.args
    assert [a.arg for a in args.posonlyargs + args.args] == [
        "self", "field", "weight", "vectors"
    ]
    assert (args.vararg, args.kwonlyargs, args.kwarg) == (None, [], None)
    readers = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("_rows", "_zero")
    }
    assert readers == {"hodge.py"}

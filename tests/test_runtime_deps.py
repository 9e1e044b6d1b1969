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
        "caches = (cyclotomic.make_cyclotomic, covers.curve_h1, hodge.k_minus_half)\n"
        "print(*(f.cache_info().currsize for f in caches))\n"
        "print(hasattr(jacobian.primitive_hodge_column, 'cache_info'))\n"
    )
    proc = run_script(script)
    assert proc.returncode == 0, proc.stderr
    # the hypersurface columns are not cached: a row of covers reads
    # them off its tower, and a single hypersurface's is read once
    assert proc.stdout.split() == ["0", "0", "0", "False"]


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


def scopes(path, matches):
    """The dotted scopes (class and function names) in a module that hold
    a node for which `matches` is true; module level is the empty string."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if matches(child):
                found.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def named(node):
    """The name a node reads, bare or as an attribute, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def callers(path, name):
    """The dotted scopes in a module that call `name`, bare or as an
    attribute."""
    return scopes(path, lambda node: isinstance(node, ast.Call)
                  and named(node.func) == name)


def package_callers(name):
    return {
        (path.stem, scope)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in callers(path, name)
    }


def test_a_cover_table_is_read_only_through_its_spec():
    # every row of covers, the ledger's as well as a sweep's and the
    # Fermat curve's, comes off `covers.tower`, and no module reads a
    # table or a branch column around a spec; a tower step is taken only
    # by a spec making the storey above it or by a walk making its first
    # storey, and the sweep oracle builds the one-pass table of the cover
    # it checks
    assert callers(PACKAGE / "claims.py", "CoverSpec") == set()
    assert package_callers("tower") == {
        ("claims", "_tower_rows.spec"),
        ("covers", "curve_h1"),
        ("sweeps", "_run_row"),
    }
    assert package_callers("eigenspace_dims") == {("covers", "one_pass_cohomology")}
    assert package_callers("one_pass_cohomology") == {("sweeps", "_oracle_equivalence")}
    assert package_callers("tower_step") == {
        ("covers", "CoverSpec.up"),
        ("covers", "tower"),
    }
    assert package_callers("residue_vectors") == {
        ("covers", "CoverSpec.cohomology"),
        ("jacobian", "eigenspace_dims"),
    }
    assert package_callers("residue_zero_column") == {
        ("covers", "CoverSpec.branch_column"),
        ("jacobian", "primitive_hodge_column"),
    }


def test_the_tower_identities_read_their_columns_off_the_tower():
    # Lemma 3.7, the graded checksum and the quartic isogeny report read
    # the branch columns of the storeys they link, never a column off the
    # recurrence
    for function in ("z_decomposition", "dim_identity_terms", "quartic_isogeny_report"):
        calls = calls_in(PACKAGE / "covers.py", function)
        for name in ("power_series", "primitive_hodge_column", "primitive_middle_rank"):
            assert calls[name] == 0, (function, name)


def test_the_hodge_column_counts_no_monomial_one_at_a_time():
    # a single cover's series, the one-pass table and the hypersurface
    # column are each read off one recurrence series; the per-entry sum
    # is the tests' oracle
    assert package_callers("power_series") == {
        ("covers", "CoverSpec.__post_init__"),
        ("jacobian", "eigenspace_dims"),
        ("jacobian", "primitive_hodge_column"),
    }
    assert package_callers("count_bounded_monomials") == set()


def test_the_ledger_runs_cells_and_ladders_only_on_its_covers():
    # a grid claim calls its registered sweep check on the run's covers,
    # without the sweeps' cell wrapper, and a Tate ladder is walked only
    # by the cover that holds it, so the round-trip cells and the
    # commutation claim read one walk per cover
    path = PACKAGE / "claims.py"
    assert callers(path, "check_cover") == set()
    assert scopes(path, lambda node: named(node) == "CHECKS") == {"_sweep_holds"}
    assert package_callers("tate_ladder") == {("covers", "CoverSpec.ladder")}


def test_the_ledger_keeps_no_memo_but_its_covers():
    # a value that several claims read is recomputed by each, so nothing
    # outlives a run but what its covers cache
    imported = {
        (getattr(node, "module", None), alias.name)
        for node in ast.walk(ast.parse((PACKAGE / "claims.py").read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    from_functools = {pair for pair in imported if "functools" in pair}
    assert from_functools == {("functools", "partial")}


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
        named(call.func)
        for call in ast.walk(function_node(path, function))
        if isinstance(call, ast.Call)
    )


def test_the_sweep_oracle_stays_off_the_production_route():
    # on a sweep every spec's table comes off its tower series; the
    # oracle builds the same cover's table by the one-pass road and
    # compares the two, touching neither the series nor the tower step
    oracle = calls_in(PACKAGE / "sweeps.py", "_oracle_equivalence")
    assert oracle["one_pass_cohomology"] == 1
    assert oracle["require_equal"] == 1
    table = calls_in(PACKAGE / "covers.py", "one_pass_cohomology")
    assert table["eigenspace_dims"] == 1
    for name in ("tower_step", "residue_vectors", "accumulate"):
        assert oracle[name] == table[name] == 0, name
    for path, function in (("sweeps.py", "_oracle_equivalence"),
                           ("covers.py", "one_pass_cohomology")):
        node = function_node(PACKAGE / path, function)
        attributes = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        assert "series" not in attributes, function


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

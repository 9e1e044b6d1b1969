import json
import os
import re
import subprocess
import sys
from itertools import accumulate
from math import comb
from pathlib import Path

import pytest

from halftwist import claims, cli, covers, jacobian
from halftwist.cyclotomic import InvariantError
from halftwist.sweeps import CHECKS, SweepCell, run_sweep, worker_count


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# hodge


def test_hodge_table(capsys):
    code, out, _ = run_cli(capsys, "hodge", "3", "4")
    assert code == 0
    assert "total primitive rank: 22" in out
    assert "3  1  1" in out and "2  2  20" in out


def test_hodge_base_case(capsys):
    code, out, _ = run_cli(capsys, "hodge", "3", "0")
    assert code == 0
    assert "total primitive rank: 2" in out


def test_hodge_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "hodge", "4", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 21
    assert [3, -1, 0] not in payload["hodge_numbers"]
    assert json.loads(json.dumps(payload, sort_keys=True)) == payload


def test_hodge_rejects_bad_degree(capsys):
    code, _, err = run_cli(capsys, "hodge", "2", "3")
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# eigenspaces


def test_eigenspaces_table(capsys):
    code, out, _ = run_cli(capsys, "eigenspaces", "6", "2")
    assert code == 0
    assert "15  18  19  18  15" in out


def test_eigenspaces_quintic_curve(capsys):
    code, out, _ = run_cli(capsys, "eigenspaces", "5", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    row = next(r for r in payload["rows"] if r["p"] == 1)
    assert row["dims"] == [3, 2, 1, 0]


def test_eigenspaces_row_sums_match_hodge(capsys):
    code, out, _ = run_cli(capsys, "eigenspaces", "7", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    totals = dict(map(tuple, payload["hodge_totals"]))
    for row in payload["rows"]:
        assert row["total"] == totals[row["p"]]


@pytest.mark.parametrize("d", range(3, 12))
def test_eigenspaces_of_d_points(capsys, d):
    # k = 0: the reduced H^0 of d points, one line per nontrivial residue
    assert jacobian.eigenspace_dims(d, 0) == {i: [1] for i in range(1, d)}
    with pytest.raises(ValueError):
        jacobian.eigenspace_dims(d, -1)
    code, out, err = run_cli(capsys, "eigenspaces", str(d), "0")
    assert (code, err) == (0, "")
    row = ["0", *["1"] * (d - 1), str(d - 1), str(d - 1)]  # p, dims, total, hodge
    assert out.splitlines()[1].split() == row
    code, out, err = run_cli(capsys, "eigenspaces", str(d), "0", "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["rows"] == [{"p": 0, "dims": [1] * (d - 1), "total": d - 1}]
    assert payload["hodge_totals"] == [[0, d - 1]]


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_eigenspaces_fails_when_a_row_total_misses_its_hodge_number(
    capsys, monkeypatch, fmt
):
    real = jacobian.primitive_hodge_column

    def one_row_off(d, k):
        return tuple(dim + (p == 1) for p, dim in enumerate(real(d, k)))

    monkeypatch.setattr(jacobian, "primitive_hodge_column", one_row_off)
    code, out, err = run_cli(capsys, "eigenspaces", "4", "2", "--format", fmt)
    assert code == 1
    assert out == ""
    assert err == (
        "error: row p=1 of the eigenspace table sums to 19, "
        "but the Hodge number h^{1,1}_0 is 20\n"
    )


# ---------------------------------------------------------------------------
# half-twist


def test_half_twist_kondo(capsys):
    code, out, _ = run_cli(capsys, "half-twist", "4", "2")
    assert code == 0
    assert "dim 7" in out and "(1, 6)" in out


def test_half_twist_cubic_fourfold_tate(capsys):
    code, out, _ = run_cli(capsys, "half-twist", "3", "4", "--tate")
    assert code == 0
    assert "dim 11" in out and "(1, 10)" in out


def test_half_twist_flags_degree_seven(capsys):
    code, out, _ = run_cli(capsys, "half-twist", "7", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exists_direct"] is False
    assert payload["corollary_printed"] is True
    assert payload["flags"]
    assert payload["twist"] is None


# ---------------------------------------------------------------------------
# verify


def test_verify_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "known discrepancies" in out


def test_verify_section_six(capsys):
    code, out, _ = run_cli(capsys, "verify", "--section", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    ids = {entry["claim_id"] for entry in payload}
    assert "cubic4.jz5_dims" in ids
    for entry in payload:
        assert entry["status"] in ("pass", "discrepancy-known")
        assert entry["expected"]["provenance"] in ("paper", "derived", "trivial")


def test_verify_unknown_section_is_usage_error(capsys):
    # 3.1 holds no claim; matching it must not pick up section 3.10
    for section in ("zzz", "3.1"):
        code, out, err = run_cli(capsys, "verify", "--section", section)
        assert code == 2
        assert out == "" and "no claims" in err


def test_verify_output_is_stable(capsys):
    _, first, _ = run_cli(capsys, "verify", "--format", "json")
    _, second, _ = run_cli(capsys, "verify", "--format", "json")
    assert first == second


def run_optimized(*args):
    """`python -O` with the package on the path: assert statements are
    stripped, so no output may depend on one."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    return subprocess.run(
        [sys.executable, "-O", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_verify_statuses_survive_optimized_mode(capsys):
    _, expected, _ = run_cli(capsys, "verify")
    proc = run_optimized("-m", "halftwist.cli", "verify")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "65 claims: 60 pass, 5 known discrepancies, 0 failures"
    )
    assert proc.stdout == expected


def test_sweep_outputs_survive_optimized_mode(capsys):
    # every registered check on one small grid, in one optimized process
    argvs = [
        ["sweep", "--check", check, "--d-max", "9", "--k-max", "4"]
        for check in sorted(CHECKS)
    ]
    runs = [run_cli(capsys, *argv) for argv in argvs]
    assert [code for code, _, _ in runs] == [0] * len(CHECKS)
    script = (
        "import sys\n"
        "from halftwist import cli\n"
        f"sys.exit(max(cli.main(argv) for argv in {argvs!r}))\n"
    )
    proc = run_optimized("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(out for _, out, _ in runs)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_all_checks_pass_small_grid(capsys):
    for check in sorted(CHECKS):
        code, out, _ = run_cli(
            capsys, "sweep", "--check", check, "--d-max", "5", "--k-max", "3"
        )
        assert code == 0, (check, out)


@pytest.mark.parametrize(
    "argv",
    [
        ["--d-max", "2"],
        ["--k-max", "0"],
        ["--jobs", "0"],
        ["--jobs", "-3"],
    ],
)
def test_sweep_rejects_bad_input_before_running(capsys, monkeypatch, argv):
    def no_row_may_run(_args):
        raise AssertionError("a row ran")

    monkeypatch.setattr("halftwist.sweeps._run_row", no_row_may_run)
    code, out, err = run_cli(capsys, "sweep", "--check", "w-rank", *argv)
    assert code == 2
    assert out == ""
    assert "error" in err


def _no_work_may_start(*_args, **_kwargs):
    raise AssertionError("work started")


@pytest.mark.parametrize(
    "argv, entry",
    [
        (["hodge", "3", "3000"], "jacobian.primitive_hodge_column"),
        (["hodge", str(cli.MAX_D + 1), "2"], "jacobian.primitive_hodge_column"),
        (["eigenspaces", "3", str(cli.MAX_K + 1)], "covers.power_series"),
        (["eigenspaces", str(cli.MAX_D + 1), "2"], "covers.power_series"),
        (["half-twist", "3", "3000"], "covers.qt_decompose"),
        (["half-twist", str(cli.MAX_D + 1), "2", "--tate"], "covers.qt_decompose"),
        (["sweep", "--check", "w-rank", "--d-max", str(cli.SWEEP_MAX_D + 1)],
         "sweeps._run_row"),
        (["sweep", "--check", "w-rank", "--k-max", str(cli.SWEEP_MAX_K + 1)],
         "sweeps._run_row"),
    ],
)
def test_inputs_above_the_limits_are_rejected_before_running(
    capsys, monkeypatch, argv, entry
):
    monkeypatch.setattr(f"halftwist.{entry}", _no_work_may_start)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "above the limit" in err


def test_inputs_at_the_limits_are_accepted(capsys, monkeypatch):
    monkeypatch.setattr("halftwist.jacobian.primitive_hodge_column",
                        lambda d, k: (0,) * (k + 1))
    code, _, _ = run_cli(capsys, "hodge", str(cli.MAX_D), str(cli.MAX_K))
    assert code == 0
    monkeypatch.setattr(
        "halftwist.sweeps._run_row",
        lambda args: [
            SweepCell(args[1], k, args[0], True, "") for k in range(1, args[2] + 1)
        ],
    )
    code, _, _ = run_cli(
        capsys, "sweep", "--check", "w-rank",
        "--d-max", str(cli.SWEEP_MAX_D), "--k-max", str(cli.SWEEP_MAX_K),
    )
    assert code == 0


def test_a_defect_inside_a_command_exits_1(capsys, monkeypatch):
    # a series one coefficient too long, as from a tower step that kept
    # its trailing zero: a ValueError of the program, not of the input
    real = jacobian.tower_step

    def padded(series, d):
        return real(series, d) + [0]

    monkeypatch.setattr(covers, "tower_step", padded)
    code, out, err = run_cli(
        capsys, "sweep", "--check", "round-trip", "--d-max", "6", "--k-max", "3"
    )
    assert code == 1
    assert out == ""
    assert err == (
        "error: ValueError: series of 4 coefficients for (3, 1), expected 3\n"
    )


def test_a_broken_invariant_fails_one_cell_and_the_sweep_reports_the_grid(
    capsys, monkeypatch
):
    # a normal form whose extremal-piece check breaks at one cell: that
    # cell fails, the other cells still run, and the grid claim over the
    # same check names the cell
    real = covers.CoverSpec.normal_form.func

    def broken_at_one_cell(spec):
        if (spec.d, spec.k) == (8, 8):
            raise InvariantError("forced invariant failure")
        return real(spec)

    monkeypatch.setattr(covers.CoverSpec, "normal_form", property(broken_at_one_cell))
    code, out, err = run_cli(
        capsys, "sweep", "--check", "round-trip", "--d-max", "9", "--k-max", "8"
    )
    assert code == 1
    assert err == ""
    rows = [line.split(None, 3) for line in out.splitlines()[1:-1]]
    assert len(rows) == 7 * 8
    assert [row for row in rows if row[2] != "pass"] == [
        ["8", "8", "FAIL", "InvariantError: forced invariant failure"]
    ]
    assert out.splitlines()[-1] == "check round-trip: 55/56 cells pass"
    (claim,) = [c for c in claims.all_claims() if c.claim_id == "twists.roundtrip_grid"]
    report = claims.evaluate(claim)
    assert report.status == claims.STATUS_FAIL
    assert report.computed == (
        "error: round-trip fails at (d=8, k=8): "
        "InvariantError: forced invariant failure"
    )


def test_worker_count_is_clamped():
    assert worker_count(1, 100, 8) == 1
    assert worker_count(4, 100, 8) == 4
    assert worker_count(10**6, 100, 8) == 8
    assert worker_count(10**6, 3, 8) == 3
    assert worker_count(5, 100, None) == 1
    for jobs in (0, -1):
        with pytest.raises(ValueError):
            worker_count(jobs, 100, 8)


def test_oracle_sweep_fails_on_one_changed_entry(capsys, monkeypatch):
    # the fault sits on the tower route, the table every sweep reads: the
    # step to the (5, 2) series with one conjugate pair of coefficients
    # one larger; (5, 3) is stepped from the faulty series, so the fault
    # carries up the row, and every other row stays exact
    real = covers.tower_step

    def one_pair_off(series, d):
        product = real(series, d)
        if (d, len(product)) == (5, 10):  # the series of (5, 2)
            product[4] += 1  # p = 1, residue 3
            product[5] += 1  # its conjugate: p = 1, residue 2
        return product

    monkeypatch.setattr(covers, "tower_step", one_pair_off)
    code, out, _ = run_cli(
        capsys, "sweep", "--check", "oracle-equivalence", "--d-max", "6", "--k-max", "3"
    )
    assert code == 1
    rows = [line.split(None, 3) for line in out.splitlines()[1:-1]]
    assert [row for row in rows if row[2] != "pass"] == [
        ["5", "2", "FAIL",
         "one-pass table differs: entry (p=1, residue=2): 13 != 12"],
        ["5", "3", "FAIL",
         "one-pass table differs: entry (p=1, residue=3): 32 != 31"],
    ]
    assert out.splitlines()[-1] == "check oracle-equivalence: 10/12 cells pass"


def test_oracle_sweep_fails_on_one_changed_entry_of_the_one_pass_table(
    capsys, monkeypatch
):
    # the mirror of the tower fault: the (5, 2) table of the one-pass
    # road, which only the oracle reads on a sweep, with one conjugate
    # pair of entries one larger
    real = jacobian.eigenspace_dims

    def one_pair_off(d, k):
        vectors = real(d, k)
        if (d, k) == (5, 2):
            vectors[2][1] += 1  # p = 1, residue 2
            vectors[3][1] += 1  # its conjugate: p = 1, residue 3
        return vectors

    monkeypatch.setattr(covers, "eigenspace_dims", one_pair_off)
    code, out, _ = run_cli(
        capsys, "sweep", "--check", "oracle-equivalence", "--d-max", "6", "--k-max", "3"
    )
    assert code == 1
    rows = [line.split(None, 3) for line in out.splitlines()[1:-1]]
    assert [row for row in rows if row[2] != "pass"] == [
        ["5", "2", "FAIL",
         "one-pass table differs: entry (p=1, residue=2): 12 != 13"]
    ]
    assert out.splitlines()[-1] == "check oracle-equivalence: 11/12 cells pass"


def test_oracle_sweep_fails_on_one_changed_entry_without_its_conjugate(
    capsys, monkeypatch
):
    # a single entry of the one-pass (5, 2) table one larger and its
    # conjugate left as it is: the oracle's constructor rejects the table
    # and the cell names the entry with its conjugate
    real = jacobian.eigenspace_dims

    def one_entry_off(d, k):
        vectors = real(d, k)
        if (d, k) == (5, 2):
            vectors[2][1] += 1  # p = 1, residue 2
        return vectors

    monkeypatch.setattr(covers, "eigenspace_dims", one_entry_off)
    code, out, _ = run_cli(
        capsys, "sweep", "--check", "oracle-equivalence", "--d-max", "6", "--k-max", "3"
    )
    assert code == 1
    rows = [line.split(None, 3) for line in out.splitlines()[1:-1]]
    assert [row for row in rows if row[2] != "pass"] == [
        ["5", "2", "FAIL",
         "table breaks conjugation symmetry: entry (p=1, residue=2) = 13, "
         "conjugate (p=1, residue=3) = 12"]
    ]
    assert out.splitlines()[-1] == "check oracle-equivalence: 11/12 cells pass"


def test_a_negative_oracle_count_names_its_entry(monkeypatch):
    # the one-pass table with the numerator's sign flipped for every term
    # j >= 2: most tables then hold a negative count, which the oracle's
    # constructor rejects; the cell names the first negative entry, as a
    # differing nonnegative entry is named by the comparison
    def flipped(d, k):
        size = (k + 1) * (d - 2) + 1
        series = [0] * size
        for j, m in enumerate(range(0, size, d - 1)):
            series[m] = (-1) ** j * comb(k + 1, j) * (-1 if j >= 2 else 1)
        for _ in range(k + 1):
            series = list(accumulate(series))
        rows = jacobian.residue_vectors(series, d, k)
        return {i: rows[i - 1::d - 1] for i in range(1, d)}

    monkeypatch.setattr(covers, "eigenspace_dims", flipped)
    cells = run_sweep("oracle-equivalence", 12, 8, jobs=1)
    failing = [cell.detail for cell in cells if not cell.ok]
    assert failing
    assert any(detail.startswith("not effective: entry (p=") for detail in failing)
    named = re.compile(r"entry \(p=\d+, residue=\d+\)")
    assert all(named.search(detail) for detail in failing)


def test_value_error_in_a_check_is_a_failing_cell(capsys, monkeypatch):
    def check(spec):
        if (spec.d, spec.k) == (4, 2):
            raise ValueError("rank 5 != 6")
        return "holds"

    monkeypatch.setitem(CHECKS, "raises", check)
    code, out, err = run_cli(
        capsys, "sweep", "--check", "raises", "--d-max", "4", "--k-max", "2"
    )
    assert code == 1
    assert err == ""
    rows = [line.split(None, 3) for line in out.splitlines()[1:-1]]
    assert rows == [
        ["3", "1", "pass", "holds"],
        ["3", "2", "pass", "holds"],
        ["4", "1", "pass", "holds"],
        ["4", "2", "FAIL", "rank 5 != 6"],
    ]
    assert out.splitlines()[-1] == "check raises: 3/4 cells pass"


def test_an_optimality_gap_is_a_failing_cell(capsys, monkeypatch):
    any_type = covers.half_twist_any_cmtype

    def gap_at_4_2(spec):
        return any_type(spec) != ((spec.d, spec.k) == (4, 2))

    monkeypatch.setattr(covers, "half_twist_any_cmtype", gap_at_4_2)
    code, out, _ = run_cli(
        capsys, "sweep", "--check", "cmtype-search", "--d-max", "4", "--k-max", "2"
    )
    assert code == 1
    rows = [line.split(None, 3) for line in out.splitlines()[1:-1]]
    assert [row for row in rows if row[2] != "pass"] == [
        ["4", "2", "FAIL", "OPTIMALITY GAP: fixed type True, some type False"]
    ]
    assert out.splitlines()[-1] == "check cmtype-search: 3/4 cells pass"


def test_sweep_unknown_check_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--check", "nonsense"])
    assert exc.value.code == 2


def test_sweep_output_identical_across_jobs():
    # dim-identity reads no table; round-trip slices every row's series;
    # the workers' rows come back in (d, k) order with no sort
    for check in ("dim-identity", "round-trip"):
        serial = run_sweep(check, d_max=6, k_max=4, jobs=1)
        parallel = run_sweep(check, d_max=6, k_max=4, jobs=2)
        assert [(c.d, c.k) for c in parallel] == [
            (d, k) for d in range(3, 7) for k in range(1, 5)
        ], check
        assert serial == parallel, check


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["sweep", "--check", "dim-identity", "--d-max", "5", "--k-max", "3",
         "--jobs", "1"],
    ],
    ids=["import", "sweep-jobs-1"],
)
def test_serial_process_never_imports_multiprocessing(argv):
    # only a sweep that forks workers pays for multiprocessing
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    script = (
        "import sys\n"
        "from halftwist import cli\n"
        f"code = cli.main({argv!r}) if {argv!r} else 0\n"
        "print(code, 'multiprocessing' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_sweep_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--check", "z-checksum", "--d-max", "4", "--k-max", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 4
    assert all(cell["ok"] for cell in payload)
    assert json.loads(json.dumps(payload, sort_keys=True)) == payload


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2

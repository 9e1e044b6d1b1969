"""Byte-for-byte output of `verify` and of every sweep check over
d <= 25, k <= 15, against the reference files in bench/reference/ that
the benchmark checks each of its runs against.  The files are only
read here; a failure names the first line that differs."""

import contextlib
import io
from pathlib import Path

import pytest

from halftwist import cli, sweeps

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"

COMMANDS = {"verify.txt": ["verify"]}
COMMANDS.update(
    (f"sweep-{check}.txt",
     ["sweep", "--check", check, "--d-max", "25", "--k-max", "15"])
    for check in sorted(sweeps.CHECKS)
)


def test_every_reference_file_has_a_command():
    assert sorted(path.name for path in REFERENCE.glob("*.txt")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_reference(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(COMMANDS[name])
    assert code == 0
    expected = (REFERENCE / name).read_text(encoding="utf-8").splitlines()
    actual = out.getvalue().splitlines()
    for number, (want, got) in enumerate(zip(expected, actual), start=1):
        assert got == want, f"{name} line {number}: expected {want!r}, got {got!r}"
    assert len(actual) == len(expected), (
        f"{name} has {len(expected)} lines, the command prints {len(actual)}"
    )
    assert out.getvalue() == (REFERENCE / name).read_text(encoding="utf-8"), (
        f"{name}: line endings or trailing whitespace differ"
    )

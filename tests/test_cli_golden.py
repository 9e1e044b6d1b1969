"""Byte-for-byte output of the table commands: `hodge`, `eigenspaces`,
`half-twist` and `half-twist --tate`, each in both formats; and each
table as a rendering of the JSON payload of the same command.

tests/golden/cli.txt holds every command's exit code and full stdout on
a few small covers, and the sha256 digest of the stdout at the input
limit d = k = 64, where the full text runs to about 1.4 MB.  Each block
opens with a line `$ <arguments> -> <exit code>`.  After an intended
change of output, capture the file again with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from halftwist import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.txt"

CELLS = [(3, 1), (3, 4), (4, 2), (5, 2), (6, 2), (7, 2), (7, 5), (9, 3), (12, 6)]
DIGEST_CELLS = [(64, 64)]
COMMANDS = [["hodge"], ["eigenspaces"], ["half-twist"], ["half-twist", "--tate"]]
FORMATS = ["table", "json"]


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def render() -> str:
    blocks = []
    for cells, digest in ((CELLS, False), (DIGEST_CELLS, True)):
        for d, k in cells:
            for command in COMMANDS:
                for fmt in FORMATS:
                    argv = [command[0], str(d), str(k), *command[1:], "--format", fmt]
                    code, out = run(argv)
                    if digest:
                        out = f"sha256 {hashlib.sha256(out.encode()).hexdigest()}\n"
                    blocks.append(f"$ {' '.join(argv)} -> {code}\n{out}")
    return "".join(blocks)


def test_cli_output_matches_golden_file():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    actual = render().splitlines()
    for number, (want, got) in enumerate(zip(expected, actual), start=1):
        assert got == want, f"{GOLDEN.name} line {number}: expected {want!r}, got {got!r}"
    assert len(actual) == len(expected), (
        f"{GOLDEN.name} has {len(expected)} lines, the commands print {len(actual)}"
    )


RENDERED = [
    [command[0], str(d), str(k), *command[1:]] for d, k in CELLS for command in COMMANDS
] + [["verify"], ["sweep", "--check", "ks-space"]]


@pytest.mark.parametrize("argv", RENDERED, ids=" ".join)
def test_each_table_renders_the_json_payload(argv):
    # the table renderer sees only what --format json prints
    code, table = run([*argv, "--format", "table"])
    json_code, text = run([*argv, "--format", "json"])
    assert code == json_code == 0
    table_of = cli.build_parser().parse_args(argv).table
    assert "\n".join(table_of(json.loads(text))) + "\n" == table


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), encoding="utf-8")

"""The benchmark's workloads: the operation each one runs, the plan a
seed draws for it, and the checks its outputs must pass.

A plan is plain JSON, so the runner can draw it from the seed and hand
it to the child interpreter that executes it; the program only ever
sees the generated arguments.
"""

from __future__ import annotations

import contextlib
import io
import random
from math import comb
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

SWEEP_CHECKS = (
    "cmtype-search",
    "dim-identity",
    "ks-space",
    "monotonicity",
    "oracle-equivalence",
    "round-trip",
    "w-rank",
    "z-checksum",
)
SWEEP_D_MAX, SWEEP_K_MAX = 25, 15
SWEEP_CELLS = (SWEEP_D_MAX - 2) * SWEEP_K_MAX

# The ledger's pre-registered statuses: every claim passes except the
# known discrepancies listed here, and none fails.
LEDGER_PASS = 60
LEDGER_KNOWN = frozenset(
    {
        "thm2.6.printed_vs_direct.d3",
        "thm2.6.printed_vs_direct.d5",
        "thm2.6.printed_vs_direct.d7",
        "thm2.6.printed_vs_direct.d9",
        "cor2.7.surfaces_bound",
    }
)

# The Torelli ladder of the cubic cover at k = 7: the differential has
# rank C(k+1, 3), and the rung at step p has the dimension of the Hodge
# piece h^{k-p} of W for the cover (3, 7).
LADDER_K = 7
LADDER_RANK = comb(LADDER_K + 1, 3)
LADDER_DIMS = {2: 29, 3: 112, 4: 29}


def _run_cli(argv: list[str]) -> tuple[int, str]:
    from halftwist import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _first_difference(expected: str, actual: str) -> str:
    want, got = expected.splitlines(), actual.splitlines()
    for number, (a, b) in enumerate(zip(want, got), start=1):
        if a != b:
            return f"line {number}: expected {a!r}, got {b!r}"
    if len(want) != len(got):
        return f"{len(got)} lines, expected {len(want)}"
    return "trailing whitespace differs"


def _check_reference(name: str, actual: str) -> str | None:
    expected = (REFERENCE / name).read_text(encoding="utf-8")
    if actual == expected:
        return None
    return f"{name}: {_first_difference(expected, actual)}"


def _table_rows(text: str) -> list[list[str]]:
    """Body rows of an aligned CLI table: header and summary dropped."""
    return [line.split() for line in text.splitlines()[1:-1]]


class Ledger:
    """`halftwist verify`: the whole claim ledger."""

    name = "ledger"

    @staticmethod
    def plan(rng: random.Random) -> list[list[str]]:
        return [["verify"]]

    @staticmethod
    def run(plan):
        return [_run_cli(argv) for argv in plan]

    @staticmethod
    def check(plan, outputs) -> str | None:
        (code, text), = outputs
        if code != 0:
            return f"verify exited with {code}"
        statuses = {row[1]: row[0] for row in _table_rows(text)}
        known = {c for c, s in statuses.items() if s == "discrepancy-known"}
        passed = sum(s == "pass" for s in statuses.values())
        if (known, passed, len(statuses)) != (
            LEDGER_KNOWN, LEDGER_PASS, LEDGER_PASS + len(LEDGER_KNOWN)
        ):
            return (
                f"statuses: {passed} pass, expected {LEDGER_PASS}; known "
                f"{sorted(known)}, expected {sorted(LEDGER_KNOWN)}; "
                f"{len(statuses)} claims in all"
            )
        return _check_reference("verify.txt", text)


class SweepGrid:
    """All eight `halftwist sweep` checks over d <= 25, k <= 15, in an
    order drawn from the seed."""

    name = "sweep-grid"

    @staticmethod
    def plan(rng: random.Random) -> list[list[str]]:
        order = rng.sample(SWEEP_CHECKS, len(SWEEP_CHECKS))
        return [
            ["sweep", "--check", check, "--d-max", str(SWEEP_D_MAX),
             "--k-max", str(SWEEP_K_MAX), "--jobs", "1"]
            for check in order
        ]

    @staticmethod
    def run(plan):
        return [_run_cli(argv) for argv in plan]

    @staticmethod
    def check(plan, outputs) -> str | None:
        for argv, (code, text) in zip(plan, outputs):
            check = argv[2]
            if code != 0:
                return f"sweep {check} exited with {code}"
            rows = _table_rows(text)
            bad = [row[:2] for row in rows if row[2] != "pass"]
            if len(rows) != SWEEP_CELLS or bad:
                return f"sweep {check}: {len(rows)} cells, failing {bad[:3]}"
            error = _check_reference(f"sweep-{check}.txt", text)
            if error:
                return error
        return None


class TorelliLadder:
    """The period-map differential rank at k = 7, then every rung of
    the W ladder in an order drawn from the seed."""

    name = "torelli-ladder"

    @staticmethod
    def plan(rng: random.Random) -> list[int]:
        return rng.sample(sorted(LADDER_DIMS), len(LADDER_DIMS))

    @staticmethod
    def run(plan):
        from halftwist import jacobian

        rank = jacobian.torelli_differential_rank(LADDER_K)
        rungs = {}
        for p in plan:
            quotient = jacobian.build_w_quotient(LADDER_K, p)
            rungs[p] = (
                quotient.dimension,
                quotient.basis_matches_dimension(),
                quotient.basis_is_independent(),
            )
        return rank, rungs

    @staticmethod
    def check(plan, outputs) -> str | None:
        from halftwist import covers

        rank, rungs = outputs
        if rank != LADDER_RANK:
            return f"rank {rank}, expected {LADDER_RANK}"
        if sorted(rungs) != sorted(LADDER_DIMS):
            return f"rungs {sorted(rungs)}, expected {sorted(LADDER_DIMS)}"
        hodge = covers.build_W(covers.CoverSpec(3, LADDER_K)).hodge_numbers()
        for p, (dimension, matches, independent) in sorted(rungs.items()):
            expected = LADDER_DIMS[p]
            if dimension != expected or dimension != hodge.get(LADDER_K - p, 0):
                return (
                    f"rung p={p}: dimension {dimension}, expected {expected} "
                    f"and h^{LADDER_K - p}(W) = {hodge.get(LADDER_K - p, 0)}"
                )
            if not (matches and independent):
                return f"rung p={p}: basis matches {matches}, independent {independent}"
        return None


WORKLOADS = {w.name: w for w in (Ledger, SweepGrid, TorelliLadder)}


def warm_up(workload: str) -> None:
    """Import what an operation imports lazily, so the first timed
    operation of a run does not also compile bytecode or fill the
    page cache."""
    if workload == Ledger.name:
        import sympy  # noqa: F401

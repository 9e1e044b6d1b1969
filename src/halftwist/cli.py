"""Command-line front end.

Subcommands: ``hodge`` and ``eigenspaces`` print the exact dimension
tables, ``half-twist`` evaluates the existence predicates and the
twisted structure, ``verify`` runs the full claim ledger, and ``sweep``
runs one registered property over the (d, k) grid.

All parameters are flags; there is no configuration file and no
environment variable.  Each command computes one payload, the JSON
object (a list for ``verify`` and ``sweep``) of its report, and prints
nothing; `main` prints it in the form ``--format`` picks: ``json``
dumps the payload itself, ``table`` hands it to the command's table
renderer, which reads nothing else.  Reports go to stdout, diagnostics
to stderr.  Exit codes: 0 all pass (known discrepancies allowed), 1
unexpected failure, 2 usage error.  Output is byte-identical across
runs and across ``--jobs`` settings.

Inputs are bounded before any work starts: ``hodge``, ``eigenspaces``
and ``half-twist`` take 3 <= d <= MAX_D and k <= MAX_K (both 160), with
k >= 0 (k >= 1 for ``half-twist``), and ``sweep`` takes a nonempty grid,
--d-max <= SWEEP_MAX_D (75) and --k-max <= SWEEP_MAX_K (40), and
--jobs >= 1.  A value outside its bounds raises `UsageError`, the one
error that exits with code 2; any other error, a defect of the program
rather than of its input, exits with code 1.  The library functions
take any size.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import claims, covers, hodge, jacobian, sweeps
from .covers import CoverSpec

# Each upper limit is the largest value at which its slowest command
# takes about 1 s or less.  The cost of a cover grows fast with d and k
# together, and of a sweep with its grid.  Whole-process medians of 7
# interleaved runs on a 2-core machine (Python 3.11, no bytecode cache),
# where `python3 -c pass` takes 0.048 s and importing the CLI 0.098 s:
# `hodge 160 160` takes 0.11 s and `half-twist 160 160 --tate` 0.11 s,
# each reading one series P^n off its recurrence, and `eigenspaces
# 160 160` 0.20 s.  At the grid limit, --d-max 75 --k-max 40 with
# --jobs 1, sweeps walk each degree's tower of covers: `z-checksum`
# takes 1.2 s, `oracle-equivalence` 0.95 s, `w-rank` 0.95 s,
# `round-trip` 0.72 s, `ks-space` 0.69 s, `cmtype-search` 0.37 s,
# `monotonicity` 0.33 s and `dim-identity` 0.30 s.
MAX_D = MAX_K = 160
SWEEP_MAX_D, SWEEP_MAX_K = 75, 40
# The (lowest, highest) value of each numeric argument, per command; None
# is no limit.  A cover needs d >= 3 and k >= 0, the (q, t) normal form
# of `half-twist` k >= 1, and a sweep a nonempty grid and a worker.
BOUNDS = {
    "hodge": {"d": (3, MAX_D), "k": (0, MAX_K)},
    "eigenspaces": {"d": (3, MAX_D), "k": (0, MAX_K)},
    "half-twist": {"d": (3, MAX_D), "k": (1, MAX_K)},
    "sweep": {
        "d_max": (3, SWEEP_MAX_D), "k_max": (1, SWEEP_MAX_K), "jobs": (1, None)
    },
}


class UsageError(Exception):
    """Input outside what a command accepts, found before any work starts."""


class CheckError(Exception):
    """A computed table that disagrees with its second route."""


def _check_bounds(args) -> None:
    for name, (low, high) in BOUNDS.get(args.command, {}).items():
        value = getattr(args, name)
        flag = name if len(name) == 1 else "--" + name.replace("_", "-")
        if value < low:
            raise UsageError(f"{flag} = {value} is below the least value {low}")
        if high is not None and value > high:
            raise UsageError(f"{flag} = {value} is above the limit {high}")


def _aligned(rows: list[list]) -> list[str]:
    cells = [[str(cell) for cell in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in cells
    ]


# ---------------------------------------------------------------------------
# hodge


def _cmd_hodge(args) -> tuple[dict, int]:
    column = jacobian.primitive_hodge_column(args.d, args.k)
    return {
        "command": "hodge",
        "d": args.d,
        "k": args.k,
        "hodge_numbers": [[p, args.k - p, column[p]] for p in range(args.k, -1, -1)],
        "total": sum(column),
    }, 0


def _table_hodge(payload) -> list[str]:
    rows = [["p", "q", "h^{p,q}_0"], *payload["hodge_numbers"]]
    return _aligned(rows) + [f"total primitive rank: {payload['total']}"]


# ---------------------------------------------------------------------------
# eigenspaces


def _cmd_eigenspaces(args) -> tuple[dict, int]:
    d, k = args.d, args.k
    spec = CoverSpec(d, k)
    # two series: the table's rows are read off P^{k+1}, the hodge column
    # off the residue-0 slots of P^{k+2}, and a row's d - 1 entries add
    # up to one such slot because P^{k+2} is P^{k+1} times P
    hodge_totals = jacobian.primitive_hodge_column(d, k)
    rows = []
    for p in range(k, -1, -1):
        dims = spec.cohomology.row(p)[1:]
        if sum(dims) != hodge_totals[p]:
            raise CheckError(
                f"row p={p} of the eigenspace table sums to {sum(dims)}, "
                f"but the Hodge number h^{{{p},{k - p}}}_0 is {hodge_totals[p]}"
            )
        rows.append({"p": p, "dims": dims, "total": sum(dims)})
    return {
        "command": "eigenspaces",
        "d": d,
        "k": k,
        "units": sorted(spec.field.units),
        "rows": rows,
        "hodge_totals": [[row["p"], hodge_totals[row["p"]]] for row in rows],
    }, 0


def _table_eigenspaces(payload) -> list[str]:
    units = set(payload["units"])
    residues = [f"{i}{'*' if i in units else ''}" for i in range(1, payload["d"])]
    rows = [["p\\i", *residues, "total", "hodge"]]
    for row, (_, hodge_total) in zip(payload["rows"], payload["hodge_totals"]):
        rows.append([row["p"], *row["dims"], row["total"], hodge_total])
    return _aligned(rows) + [
        "(* = unit residue; row totals must match the hodge column)"
    ]


# ---------------------------------------------------------------------------
# half-twist


def _cmd_half_twist(args) -> tuple[dict, int]:
    spec = CoverSpec(args.d, args.k)
    qt = covers.qt_decompose(spec)
    direct = bound_direct = covers.half_twist_exists_direct(spec)
    if args.tate:
        direct = covers.half_twist_exists_direct(spec, tate=True)
    printed = covers.half_twist_exists_printed(spec)
    bound_printed = covers.degree_bound_printed(spec)
    target = covers.full_level_V(spec) if args.tate else covers.primitive_V(spec)
    twist = abelian = None
    if direct:
        twisted = hodge.pos_half_twist(target)
        twist = [[p, a, dim] for (p, a), dim in sorted(twisted.table.items())]
        if twisted.weight == 1:
            summary = hodge.abelian_summary(twisted)
            signature = sorted(summary.signature.items())
            abelian = {
                "dim": summary.dim_abelian,
                "signature": [[a, list(pair)] for a, pair in signature],
            }
    flags = []
    if args.tate and printed != direct:
        flags.append("stated criterion disagrees with the direct check")
    if not args.tate and bound_printed != bound_direct:
        flags.append("stated degree bound disagrees with the direct check")
    return {
        "command": "half-twist",
        "d": args.d,
        "k": args.k,
        "tate": args.tate,
        "q": qt.q,
        "t": qt.t,
        "exists_direct": direct,
        "criterion_printed": printed,
        "criterion_derived": covers.half_twist_exists_derived(spec),
        "corollary_printed": bound_printed,
        "corollary_direct": bound_direct,
        "flags": flags,
        "twist": twist,
        "abelian": abelian,
    }, 0


def _table_half_twist(payload) -> list[str]:
    d, k, twist = payload["d"], payload["k"], payload["twist"]
    which = "V(q)" if payload["tate"] else "V"
    printed, direct = payload["corollary_printed"], payload["corollary_direct"]
    labelled = [
        (f"half twist of {which} (direct check)", payload["exists_direct"]),
        ("stated criterion for V(q)", payload["criterion_printed"]),
        ("derived criterion for V(q)", payload["criterion_derived"]),
        ("degree bound for V (stated/direct)", f"{printed}/{direct}"),
    ]
    width = max(len(label) for label, _ in labelled)
    lines = [f"d={d} k={k}: k = {payload['q']}*{d} + {payload['t']}"]
    lines += [f"{label.ljust(width)}  {str(v).lower()}" for label, v in labelled]
    lines += [f"flagged: {flag}" for flag in payload["flags"]]
    if twist is not None:
        # conjugation symmetry pairs index p with weight - p, so the lowest
        # and highest Hodge index of a nonzero entry sum to the weight
        indices = [p for p, _, _ in twist]
        weight, rank = min(indices) + max(indices), sum(dim for _, _, dim in twist)
        lines.append(f"twisted structure: weight {weight}, rank {rank}")
        lines += _aligned([["p", "residue", "dim"], *twist])
        abelian = payload["abelian"]
        if abelian is not None:
            sig = ", ".join(
                f"sigma_{a}: ({m}, {mbar})" for a, (m, mbar) in abelian["signature"]
            )
            lines.append(f"abelian variety: dim {abelian['dim']}; type {sig}")
    return lines


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> tuple[list, int]:
    reports = claims.run_verification(args.section)
    if not reports:
        raise UsageError("no claims match the requested section")
    return [r.to_dict() for r in reports], claims.exit_code(reports)


def _table_verify(payload) -> list[str]:
    rows = [["status", "claim", "location", "expected", "computed"]]
    rows += [
        [
            r["status"],
            r["claim_id"],
            r["location"],
            json.dumps(r["expected"]["value"], sort_keys=True),
            json.dumps(r["computed"], sort_keys=True),
        ]
        for r in payload
    ]
    statuses = [r["status"] for r in payload]
    return _aligned(rows) + [
        f"{len(payload)} claims: {statuses.count(claims.STATUS_PASS)} pass, "
        f"{statuses.count(claims.STATUS_KNOWN)} known discrepancies, "
        f"{statuses.count(claims.STATUS_FAIL)} failures"
    ]


# ---------------------------------------------------------------------------
# sweep


def _cmd_sweep(args) -> tuple[list, int]:
    cells = sweeps.run_sweep(
        args.check, d_max=args.d_max, k_max=args.k_max, jobs=args.jobs
    )
    return [dict(vars(c)) for c in cells], 1 if any(not c.ok for c in cells) else 0


def _table_sweep(payload) -> list[str]:
    rows = [["d", "k", "status", "detail"]]
    for c in payload:
        rows.append([c["d"], c["k"], "pass" if c["ok"] else "FAIL", c["detail"]])
    passed = sum(c["ok"] for c in payload)
    # the grid is never empty, so the first cell names the check
    return _aligned(rows) + [
        f"check {payload[0]['check']}: {passed}/{len(payload)} cells pass"
    ]


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halftwist",
        description=(
            "Exact Hodge data of cyclic covers of projective space and the "
            "half-twist calculus."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, help_text, run, table in (
        ("hodge", "primitive Hodge numbers of a degree-d k-fold",
         _cmd_hodge, _table_hodge),
        ("eigenspaces", "full (p, eigenvalue) dimension matrix of a cover",
         _cmd_eigenspaces, _table_eigenspaces),
        ("half-twist", "existence predicates and the twisted structure",
         _cmd_half_twist, _table_half_twist),
        ("verify", "recompute every recorded claim and report pass/fail",
         _cmd_verify, _table_verify),
        ("sweep", "run one registered property over the (d, k) grid",
         _cmd_sweep, _table_sweep),
    ):
        command = commands[name] = sub.add_parser(name, help=help_text)
        command.set_defaults(run=run, table=table)
        if "d" in BOUNDS.get(name, {}):  # a command on one cover
            command.add_argument("d", type=int, help=f"degree, at most {MAX_D}")
            command.add_argument("k", type=int, help=f"dimension, at most {MAX_K}")
    commands["half-twist"].add_argument(
        "--tate", action="store_true",
        help="twist V(q) (full level) instead of V itself",
    )
    commands["verify"].add_argument(
        "--section",
        default=None,
        help="restrict to a source section prefix (e.g. 6, 4.2) or a suite "
        "tag (e.g. kondo, thm2.6)",
    )
    p_sweep = commands["sweep"]
    p_sweep.add_argument("--check", required=True, choices=sorted(sweeps.CHECKS))
    p_sweep.add_argument("--d-max", type=int, default=9, help=f"at most {SWEEP_MAX_D}")
    p_sweep.add_argument("--k-max", type=int, default=7, help=f"at most {SWEEP_MAX_K}")
    p_sweep.add_argument(
        "--jobs", type=int, default=1, help="worker processes, at least 1"
    )
    for command in commands.values():
        command.add_argument("--format", choices=("table", "json"), default="table")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_bounds(args)
        payload, code = args.run(args)
        if args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print("\n".join(args.table(payload)))
        return code
    except (UsageError, CheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
    except Exception as exc:  # a defect, reported as an unexpected failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

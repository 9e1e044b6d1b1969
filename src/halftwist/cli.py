"""Command-line front end.

Subcommands: ``hodge`` and ``eigenspaces`` print the exact dimension
tables, ``half-twist`` evaluates the existence predicates and the
twisted structure, ``verify`` runs the full claim ledger, and ``sweep``
runs one registered property over the (d, k) grid.

All parameters are flags; there is no configuration file and no
environment variable.  Reports go to stdout, diagnostics to stderr.
Exit codes: 0 all pass (known discrepancies allowed), 1 unexpected
failure, 2 usage error.  Output is byte-identical across runs and
across ``--jobs`` settings.

Inputs are bounded before any work starts: ``hodge``, ``eigenspaces``
and ``half-twist`` take 3 <= d <= MAX_D and k <= MAX_K (both 160), with
k >= 0 (k >= 1 for ``half-twist``), and ``sweep`` takes a nonempty grid,
--d-max <= SWEEP_MAX_D (50) and --k-max <= SWEEP_MAX_K (25), and
--jobs >= 1.  A value outside its bounds raises `UsageError`, the one
error that exits with code 2; any other error, a defect of the program
rather than of its input, exits with code 1.  The library functions
take any size.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import claims, covers, hodge, jacobian, sweeps
from .covers import CoverSpec

FORMATS = ("table", "json")

# Each upper limit is the largest value at which its slowest command
# takes about 1 s.  The cost of a cover grows fast with d and k together, and
# of a sweep with its grid: on a 2-core machine (whole-process medians
# of 5 runs) `eigenspaces 160 160` takes 0.92 s (1.13 s at 176),
# `half-twist 160 160 --tate` 0.44-0.55 s and `hodge 160 160` 0.38-0.46 s.
# At the grid limit, --d-max 50 --k-max 25, sweeps walk each degree's
# tower of covers and `oracle-equivalence` is the slowest, at 1.03 s
# (1.29 s one step up, at 52 x 26), since its oracle builds each
# table's inclusion-exclusion column; `z-checksum` takes 0.66 s,
# `ks-space` 0.65 s, `w-rank` 0.54 s, `round-trip` 0.50 s and every
# other check 0.33 s or less (medians of 9 interleaved runs, on a host
# where `python3 -c pass` took 0.06 s).
MAX_D = MAX_K = 160
SWEEP_MAX_D, SWEEP_MAX_K = 50, 25
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


def _check_bounds(args) -> None:
    for name, (low, high) in BOUNDS.get(args.command, {}).items():
        value = getattr(args, name)
        flag = name if len(name) == 1 else "--" + name.replace("_", "-")
        if value < low:
            raise UsageError(f"{flag} = {value} is below the least value {low}")
        if high is not None and value > high:
            raise UsageError(f"{flag} = {value} is above the limit {high}")


def _render_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _print_aligned(rows: list[list[str]]) -> None:
    if not rows:
        return
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


# ---------------------------------------------------------------------------
# hodge


def _cmd_hodge(args) -> int:
    numbers = jacobian.hypersurface_hodge_numbers(args.d, args.k)
    total = sum(dim for _, dim in numbers)
    if args.format == "json":
        payload = {
            "command": "hodge",
            "d": args.d,
            "k": args.k,
            "hodge_numbers": [[p, args.k - p, dim] for p, dim in numbers],
            "total": total,
        }
        print(_render_json(payload))
        return 0
    rows = [["p", "q", "h^{p,q}_0"]]
    rows += [[str(p), str(args.k - p), str(dim)] for p, dim in numbers]
    _print_aligned(rows)
    print(f"total primitive rank: {total}")
    return 0


# ---------------------------------------------------------------------------
# eigenspaces


def _cmd_eigenspaces(args) -> int:
    d, k = args.d, args.k
    spec = CoverSpec(d, k)
    dims = {
        p: [spec.cohomology.entry(p, i) for i in range(1, d)] for p in range(k, -1, -1)
    }
    units = set(spec.field.units)
    # two routes: the table's rows count monomials in k + 1 variables,
    # the hodge column in k + 2
    hodge_totals = dict(jacobian.hypersurface_hodge_numbers(d, k))
    for p, row in dims.items():
        if sum(row) != hodge_totals[p]:
            print(
                f"error: row p={p} of the eigenspace table sums to {sum(row)}, "
                f"but the Hodge number h^{{{p},{k - p}}}_0 is {hodge_totals[p]}",
                file=sys.stderr,
            )
            return 1
    if args.format == "json":
        payload = {
            "command": "eigenspaces",
            "d": d,
            "k": k,
            "units": sorted(units),
            "rows": [
                {"p": p, "dims": row, "total": sum(row)} for p, row in dims.items()
            ],
            "hodge_totals": [[p, hodge_totals[p]] for p in dims],
        }
        print(_render_json(payload))
        return 0
    header = ["p\\i"] + [f"{i}{'*' if i in units else ''}" for i in range(1, d)]
    rows = [header + ["total", "hodge"]]
    for p, row in dims.items():
        rows.append([str(p), *map(str, row), str(sum(row)), str(hodge_totals[p])])
    _print_aligned(rows)
    print("(* = unit residue; row totals must match the hodge column)")
    return 0


# ---------------------------------------------------------------------------
# half-twist


def _structure_entries(structure) -> list[list[int]]:
    return [[p, a, dim] for (p, a), dim in sorted(structure.table.items())]


def _cmd_half_twist(args) -> int:
    spec = CoverSpec(args.d, args.k)
    qt = covers.qt_decompose(spec)
    direct = covers.half_twist_exists_direct(spec, tate=args.tate)
    printed = covers.half_twist_exists_printed(spec)
    derived = covers.half_twist_exists_derived(spec)
    bound_printed = covers.degree_bound_printed(spec)
    bound_direct = covers.half_twist_exists_direct(spec)
    target = covers.full_level_V(spec) if args.tate else covers.primitive_V(spec)
    twisted = hodge.pos_half_twist(target) if direct else None
    summary = None
    if twisted is not None and twisted.weight == 1:
        summary = hodge.abelian_summary(twisted)
    flags = []
    if args.tate and printed != direct:
        flags.append("stated criterion disagrees with the direct check")
    if not args.tate and bound_printed != bound_direct:
        flags.append("stated degree bound disagrees with the direct check")
    if args.format == "json":
        payload = {
            "command": "half-twist",
            "d": args.d,
            "k": args.k,
            "tate": args.tate,
            "q": qt.q,
            "t": qt.t,
            "exists_direct": direct,
            "criterion_printed": printed,
            "criterion_derived": derived,
            "corollary_printed": bound_printed,
            "corollary_direct": bound_direct,
            "flags": flags,
            "twist": None if twisted is None else _structure_entries(twisted),
            "abelian": None
            if summary is None
            else {
                "dim": summary.dim_abelian,
                "signature": [
                    [a, list(pair)] for a, pair in sorted(summary.signature.items())
                ],
            },
        }
        print(_render_json(payload))
        return 0
    which = "V(q)" if args.tate else "V"
    print(f"d={args.d} k={args.k}: k = {qt.q}*{args.d} + {qt.t}")
    lines = [
        (f"half twist of {which} (direct check)", str(direct).lower()),
        ("stated criterion for V(q)", str(printed).lower()),
        ("derived criterion for V(q)", str(derived).lower()),
        (
            "degree bound for V (stated/direct)",
            f"{str(bound_printed).lower()}/{str(bound_direct).lower()}",
        ),
    ]
    width = max(len(label) for label, _ in lines)
    for label, value in lines:
        print(f"{label.ljust(width)}  {value}")
    for flag in flags:
        print(f"flagged: {flag}")
    if twisted is not None:
        print(f"twisted structure: weight {twisted.weight}, rank {twisted.rank}")
        rows = [["p", "residue", "dim"]]
        rows += [[str(p), str(a), str(dim)] for p, a, dim in _structure_entries(twisted)]
        _print_aligned(rows)
        if summary is not None:
            sig = ", ".join(
                f"sigma_{a}: ({m}, {mbar})"
                for a, (m, mbar) in sorted(summary.signature.items())
            )
            print(f"abelian variety: dim {summary.dim_abelian}; type {sig}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    reports = claims.run_verification(args.section)
    if not reports:
        raise UsageError("no claims match the requested section")
    if args.format == "json":
        print(_render_json([r.to_dict() for r in reports]))
    else:
        rows = [["status", "claim", "location", "expected", "computed"]]
        for r in reports:
            rows.append(
                [
                    r.status,
                    r.claim_id,
                    r.location,
                    json.dumps(r.expected, sort_keys=True),
                    json.dumps(r.computed, sort_keys=True),
                ]
            )
        _print_aligned(rows)
        passed = sum(r.status == claims.STATUS_PASS for r in reports)
        known = sum(r.status == claims.STATUS_KNOWN for r in reports)
        failed = sum(r.status == claims.STATUS_FAIL for r in reports)
        print(
            f"{len(reports)} claims: {passed} pass, {known} known discrepancies, "
            f"{failed} failures"
        )
    return claims.exit_code(reports)


# ---------------------------------------------------------------------------
# sweep


def _cmd_sweep(args) -> int:
    cells = sweeps.run_sweep(
        args.check, d_max=args.d_max, k_max=args.k_max, jobs=args.jobs
    )
    if args.format == "json":
        print(_render_json([asdict(c) for c in cells]))
    else:
        rows = [["d", "k", "status", "detail"]]
        for c in cells:
            rows.append([str(c.d), str(c.k), "pass" if c.ok else "FAIL", c.detail])
        _print_aligned(rows)
        bad = sum(not c.ok for c in cells)
        print(
            f"check {args.check}: {len(cells) - bad}/{len(cells)} cells pass"
        )
    return 1 if any(not c.ok for c in cells) else 0


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

    p_hodge = sub.add_parser(
        "hodge", help="primitive Hodge numbers of a degree-d k-fold"
    )
    p_hodge.add_argument("d", type=int, help=f"degree, at most {MAX_D}")
    p_hodge.add_argument("k", type=int, help=f"dimension, at most {MAX_K}")
    p_hodge.add_argument("--format", choices=FORMATS, default="table")
    p_hodge.set_defaults(func=_cmd_hodge)

    p_eig = sub.add_parser(
        "eigenspaces", help="full (p, eigenvalue) dimension matrix of a cover"
    )
    p_eig.add_argument("d", type=int, help=f"degree, at most {MAX_D}")
    p_eig.add_argument("k", type=int, help=f"dimension, at most {MAX_K}")
    p_eig.add_argument("--format", choices=FORMATS, default="table")
    p_eig.set_defaults(func=_cmd_eigenspaces)

    p_half = sub.add_parser(
        "half-twist", help="existence predicates and the twisted structure"
    )
    p_half.add_argument("d", type=int, help=f"degree, at most {MAX_D}")
    p_half.add_argument("k", type=int, help=f"dimension, at most {MAX_K}")
    p_half.add_argument(
        "--tate",
        action="store_true",
        help="twist V(q) (full level) instead of V itself",
    )
    p_half.add_argument("--format", choices=FORMATS, default="table")
    p_half.set_defaults(func=_cmd_half_twist)

    p_verify = sub.add_parser(
        "verify", help="recompute every recorded claim and report pass/fail"
    )
    p_verify.add_argument(
        "--section",
        default=None,
        help="restrict to a source section prefix (e.g. 6, 4.2) or a suite "
        "tag (e.g. kondo, thm2.6)",
    )
    p_verify.add_argument("--format", choices=FORMATS, default="table")
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser(
        "sweep", help="run one registered property over the (d, k) grid"
    )
    p_sweep.add_argument("--check", required=True, choices=sorted(sweeps.CHECKS))
    p_sweep.add_argument(
        "--d-max", type=int, default=9, help=f"at most {SWEEP_MAX_D}"
    )
    p_sweep.add_argument(
        "--k-max", type=int, default=7, help=f"at most {SWEEP_MAX_K}"
    )
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--format", choices=FORMATS, default="table")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_bounds(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, reported as an unexpected failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

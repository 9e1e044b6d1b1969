"""Grid sweeps of the structural properties.

Each registered check is a pure function of one `CoverSpec`, so every
property it reads comes from that cover's one eigenspace table, and a
caller that already holds the spec (the claim ledger) shares it.  The
unit of a sweep's work is a row, one degree d with k = 1..k_max: the
worker walks the row's tower of covers (`covers.tower`), so each
cover's series is one step on from the one below it, and only
(check, d, k_max) crosses a process boundary.  Rows are independent,
so the grid is embarrassingly parallel; `map` and `Pool.map` keep
the rows in order (ascending d, each row by ascending k), whatever the
worker count.  A check returns its pass text and fails only by raising a
ValueError, whose message is the failing cell's detail; a broken
package invariant (`InvariantError`) fails its cell as well, and the
rest of the grid still runs.  Every check asserts what it reports:
`oracle-equivalence` checks the one-pass road of
`covers.one_pass_cohomology` against the tower-route table that the other
checks read, so a fault on either road fails it and the cell names the
first differing entry, and `cmtype-search` fails a cell with an
optimality gap, where some CM-type does better than the fixed one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from . import covers, hodge
from .covers import CoverSpec
from .cyclotomic import InvariantError


@dataclass(frozen=True)
class SweepCell:
    d: int
    k: int
    check: str
    ok: bool
    detail: str


def _oracle_equivalence(spec: CoverSpec) -> str:
    # the table every other check reads (the tower route on a sweep)
    # against the one-pass table of the same cover: a faulty one-pass
    # table fails its constructor at its first negative or asymmetric
    # entry, and any other difference shows as the first differing entry
    oracle = covers.one_pass_cohomology(spec)
    hodge.require_equal(spec.cohomology, oracle, "one-pass table differs")
    return f"{(spec.k + 1) * (spec.d - 1)} entries agree"


def _dim_identity(spec: CoverSpec) -> str:
    # h_k by the Euler recursion against the branch column one storey up
    covers.middle_rank_both_routes(spec.d, spec.k, sum(spec.up.branch_column))
    if spec.k < 2:
        return "euler=griffiths (identity needs k>=2)"
    total, lower, same = covers.dim_identity_terms(spec)
    if total != lower + same:
        raise ValueError(
            f"h_{{k+1}} != (d-1) h_{{k-1}} + (d-2) h_k: {total} != {lower} + {same}"
        )
    return "identity and euler oracle hold"


def _round_trip(spec: CoverSpec) -> str:
    # the cover's Tate ladder of V, which the ledger's commutation claim
    # reads too: rung 0 holds V and its half twist, rung q holds V(q) and
    # its half twist, and the commutation count reads the same rungs
    done = []
    for name, tate in (("V", False), ("V(q)", True)):
        if covers.half_twist_exists_direct(spec, tate=tate):
            rung, twisted = spec.ladder[covers.qt_decompose(spec).q if tate else 0]
            if twisted is None or hodge.neg_half_twist(twisted) != rung:
                raise ValueError(f"round trip fails on {name}")
            done.append(name)
    compared = hodge.ladder_commutations(spec.ladder)
    if not done and not compared:
        return "no twist exists here"
    return f"round trips: {','.join(done) or 'none'}; commutations: {compared}"


def _monotonicity(spec: CoverSpec) -> str:
    top = covers.qt_decompose(spec).top
    row = spec.cohomology.row(top)
    for i in range(1, spec.d - 1):
        if row[i] < row[i + 1]:
            raise ValueError(f"extremal eigenspaces grow at i={i}")
    return f"nonincreasing along the extremal row p={top}"


def _w_rank(spec: CoverSpec) -> str:
    W = covers.build_W(spec)
    return f"rank {W.rank} = (d-2) h_k"


def _z_checksum(spec: CoverSpec) -> str:
    ranks = covers.z_decomposition(spec)
    return f"checksum {sum(ranks)}"


def _ks_space(spec: CoverSpec) -> str:
    S = covers.ks_invariant_space(spec)
    return f"invariant space = V(-1), rank {S.rank}"


def _cmtype_search(spec: CoverSpec) -> str:
    # a disagreement means the fixed CM-type is not optimal for this cell
    direct = covers.half_twist_exists_direct(spec)
    any_type = covers.half_twist_any_cmtype(spec)
    if direct != any_type:
        raise ValueError(f"OPTIMALITY GAP: fixed type {direct}, some type {any_type}")
    return f"fixed CM-type is optimal (exists={direct})"


CHECKS = {
    "oracle-equivalence": _oracle_equivalence,
    "dim-identity": _dim_identity,
    "round-trip": _round_trip,
    "monotonicity": _monotonicity,
    "w-rank": _w_rank,
    "z-checksum": _z_checksum,
    "ks-space": _ks_space,
    "cmtype-search": _cmtype_search,
}


def check_cover(check: str, spec: CoverSpec) -> SweepCell:
    """Run one registered check on one cover.  A check returns its pass
    text and fails only by raising a ValueError (a rank, checksum or table
    identity that does not hold): a failing cell with the message as its
    detail.  A package invariant that breaks inside the check
    (`InvariantError`) fails the cell too, its detail marked
    `InvariantError: `, so the rest of the grid still runs and reports.
    An unknown check name is a ValueError of the caller."""
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}")
    try:
        ok, detail = True, CHECKS[check](spec)
    except ValueError as exc:
        ok, detail = False, str(exc)
    except InvariantError as exc:
        ok, detail = False, f"InvariantError: {exc}"
    return SweepCell(d=spec.d, k=spec.k, check=check, ok=ok, detail=detail)


def run_check(check: str, d: int, k: int) -> SweepCell:
    """One cell on its own: `check_cover` on a new spec for (d, k),
    whose table is built directly."""
    return check_cover(check, CoverSpec(d, k))


def _run_row(args: tuple[str, int, int]) -> list[SweepCell]:
    check, d, k_max = args
    return [check_cover(check, spec) for spec in covers.tower(d, k_max)]


def worker_count(jobs: int, rows: int, cpus: Optional[int]) -> int:
    """Worker processes for a sweep of `rows` rows: `jobs`, but never
    more than the rows or the `cpus` cores (unknown counts as one)."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return max(1, min(jobs, rows, cpus or 1))


def run_sweep(check: str, d_max: int, k_max: int, jobs: int) -> list[SweepCell]:
    """Run one check over the grid 3 <= d <= d_max, 1 <= k <= k_max.
    Bad arguments, an empty grid included, raise ValueError before any
    cell runs."""
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}")
    if d_max < 3 or k_max < 1:
        raise ValueError(
            f"empty grid: need d_max >= 3 and k_max >= 1, got {d_max} and {k_max}"
        )
    rows = [(check, d, k_max) for d in range(3, d_max + 1)]
    workers = worker_count(jobs, len(rows), os.cpu_count())
    if workers > 1:
        # imported here so that a process that never forks workers does
        # not load multiprocessing, pickle and socket
        from multiprocessing import Pool

        with Pool(workers) as pool:
            results = pool.map(_run_row, rows, chunksize=1)
    else:
        results = map(_run_row, rows)
    return [cell for row in results for cell in row]

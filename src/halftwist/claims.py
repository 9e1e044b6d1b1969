"""The claim ledger: every recorded numerical statement, its source
location, its provenance, and an exact recomputation.

Provenance tags: "paper" marks a value read off the source text,
"derived" a value fixed by an independent computation (enumeration,
recursion, exact rank), "trivial" a value forced by definitions.

A claim that must hold on a grid of (d, k) cells runs through one
loop, `_holds`.  It refuses an empty grid, on which the claim would
hold by construction, and fails at the first cell whose check raises a
ValueError, as `<name> fails at (d=..., k=...): <detail>`, or an
`InvariantError`, whose detail then starts `InvariantError: `.  A
sweep-backed claim runs a registered sweep check on every cell
(`sweeps.check_cover`) and is named by it, so the ledger and the sweeps
share one definition of each property.  `euler.matches_griffiths`
names one part of the `dim-identity` cell, so it runs that part alone,
`covers.middle_rank_both_routes`, and a Lemma 3.7 fault cannot fail it.

One ledger run holds one `CoverSpec` per cover and one cell per
(check, d, k): `all_claims` keys its covers by (d, k) off the towers
that the sweeps walk (`_tower_rows`), each walked once, on first read,
and makes a memo of cells over them.  So a fault on the tower route
fails the claims that read it, and two claims over overlapping grids
run each shared cell once.

Two claim families are pre-registered as known discrepancies: the
stated closed form of the existence criterion for odd degree, and the
stated degree bound for surfaces.  For those, the computed (direct)
value disagrees with the stated one by design, and they report status
"discrepancy-known" instead of "fail".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import product
from typing import Callable, Iterable, Optional

from . import covers, hodge, jacobian, sweeps
from .covers import CoverSpec
from .cyclotomic import InvariantError, make_cyclotomic

GRID_D = range(3, 10)
GRID_K = range(1, 8)
ROUND_TRIP_D, ROUND_TRIP_K = range(3, 9), range(1, 9)  # one level above GRID_K

# The stated existence criterion for V(q), evaluated over k = 1..7: for
# odd d the real-number bound t > (d-4)/2 admits one more t than the
# count supports, so these patterns disagree with the direct check at
# t = (d-3)/2.
PRINTED_PATTERNS = {
    "3": [True, False, True, True, False, True, True],
    "5": [True, True, True, False, False, True, True],
    "7": [False, True, True, True, True, False, False],
    "9": [False, False, True, True, True, True, True],
}

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_KNOWN = "discrepancy-known"

# The run's covers, (d, k) -> CoverSpec (`_tower_rows`), and its sweep cells,
# (check, d, k), whose call raises a failing cell's detail (`_cell_memo`).
Specs = Callable[[int, int], CoverSpec]
Cells = Callable[[str, int, int], None]


@dataclass(frozen=True)
class Claim:
    claim_id: str
    location: str
    tag: str
    provenance: str
    expected: object
    compute: Callable[[], object]
    known_discrepancy: bool = False


@dataclass(frozen=True)
class VerificationReport:
    claim_id: str
    location: str
    provenance: str
    expected: object
    computed: object
    status: str

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "location": self.location,
            "expected": {"value": self.expected, "provenance": self.provenance},
            "computed": self.computed,
            "status": self.status,
        }


def _canonical(value):
    """Tuples become lists so equality matches the JSON renderings."""
    if isinstance(value, (tuple, list)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, frozenset):
        return sorted(value)
    return value


def evaluate(claim: Claim) -> VerificationReport:
    expected = _canonical(claim.expected)
    try:
        computed = _canonical(claim.compute())
    except Exception as exc:  # a crashed recomputation is a failed claim
        computed, status = f"error: {exc}", STATUS_FAIL
    else:
        if computed == expected:
            status = STATUS_PASS
        elif claim.known_discrepancy:
            status = STATUS_KNOWN
        else:
            status = STATUS_FAIL
    return VerificationReport(
        claim.claim_id, claim.location, claim.provenance, expected, computed, status
    )


def run_verification(section: Optional[str] = None) -> list[VerificationReport]:
    return [evaluate(c) for c in all_claims() if _matches(c, section)]


def _matches(claim: Claim, section: Optional[str]) -> bool:
    if section is None:
        return True
    want = section.lower().lstrip("§")
    loc = claim.location.lower()
    return loc == want or loc.startswith(want + ".") or claim.tag.lower() == want


def exit_code(reports: list[VerificationReport]) -> int:
    return 1 if any(r.status == STATUS_FAIL for r in reports) else 0


# ---------------------------------------------------------------------------
# computed helpers


def _kondo_isogeny(kondo: CoverSpec):
    ranks = covers.quartic_isogeny_report(kondo)
    return [sum(ranks), ranks]


def _jz5_dims(cubic4_twist: Callable[[], hodge.AbelianSummary]):
    z5 = covers.euler_recursion_rank(3, 5) // 2
    x3 = jacobian.primitive_middle_rank(3, 3) // 2
    return [z5, x3, cubic4_twist().dim_abelian]


def _sextic_part(spec: Specs, order: int):
    part = dict(covers.secondary_parts(spec(6, 2)))[order]
    hn = part.hodge_numbers()
    return [part.rank, [hn.get(2, 0), hn.get(1, 0), hn.get(0, 0)]]


def _sextic_half_twists(spec: Specs):
    v6 = covers.half_twist_exists_direct(spec(6, 2))
    cube_part = covers.order_part_as_substructure(spec(6, 2), 3)
    return [v6, hodge.has_positive_half_twist(cube_part)]


def _quintic_extremal(spec: Specs, k: int):
    cover = spec(5, k)
    top = covers.qt_decompose(cover).top
    return [jacobian.primitive_hodge_column(5, k)[top], cover.cohomology.row(top)[1:3]]


def _pattern(spec: Specs, predicate: Callable[[CoverSpec], bool], d: int):
    return [predicate(spec(d, k)) for k in GRID_K]


def _disagreements(spec: Specs, left, right) -> list[list[int]]:
    """The cells [d, k] of GRID_D x GRID_K where two predicates on a
    CoverSpec differ."""
    cells = (spec(d, k) for d, k in product(GRID_D, GRID_K))
    return [[cover.d, cover.k] for cover in cells if left(cover) != right(cover)]


def _no_even_degree(cells: list[list[int]]) -> bool:
    return all(d % 2 for d, _ in cells)


def _cubic_W_identity(spec: Specs, d: int, k: int) -> None:
    cover = spec(d, k)
    W = covers.build_W(cover)
    twisted = hodge.tate_twist(hodge.pos_half_twist(covers.primitive_V(cover)), -1)
    hodge.require_equal(W, twisted, "W against the twisted V")


def _cubics_extremal_dims(spec: Specs):
    tops = {k: covers.qt_decompose(spec(3, k)).top for k in (4, 7)}
    return [jacobian.primitive_hodge_column(3, k)[top] for k, top in tops.items()]


def _lemma37_example(d: int, k: int):
    total, lower, same = covers.dim_identity_terms(d, k)
    return [total, [lower, same]]


def _tower_rows(degrees: range, height: int) -> Specs:
    """(d, k) -> its CoverSpec off `covers.tower`, a degree's tower walked
    to `height` on its first read; outside the rows, a KeyError."""
    rows: dict[tuple[int, int], CoverSpec] = {}

    def spec(d: int, k: int) -> CoverSpec:
        if d in degrees and (d, 1) not in rows:
            rows.update({(d, cover.k): cover for cover in covers.tower(d, height)})
        return rows[d, k]

    return spec


def _cell_memo(spec: Specs) -> Cells:
    """The run's memo of sweep cells, each run once on the cover from
    `spec`; reading a failing cell raises its detail as a ValueError.  A
    cell is keyed by its check's registered function, not its name, so a
    check swapped in `sweeps.CHECKS` runs afresh and never hands back a
    cell of the function it replaced."""
    memo: dict[tuple, sweeps.SweepCell] = {}

    def cell(check: str, d: int, k: int) -> None:
        key = (sweeps.CHECKS.get(check), d, k)
        if key not in memo:
            memo[key] = sweeps.check_cover(check, spec(d, k))
        if not memo[key].ok:
            raise ValueError(memo[key].detail)

    return cell


def _holds(
    name: str, grid: Iterable[tuple[int, int]], check: Callable[[int, int], object]
) -> bool:
    """True when check(d, k) raises no ValueError on any (d, k) cell of
    the grid; else a ValueError `<name> fails at (d=..., k=...):
    <detail>` for the first failing cell, where an `InvariantError`
    inside the check has the detail `InvariantError: <message>`, as in
    a sweep cell.  An empty grid is a ValueError before any cell runs: a
    claim over no cells would hold by construction."""
    cells = list(grid)
    if not cells:
        raise ValueError(f"{name} has an empty grid")
    for d, k in cells:
        try:
            check(d, k)
        except ValueError as exc:
            raise ValueError(f"{name} fails at (d={d}, k={k}): {exc}") from None
        except InvariantError as exc:
            raise ValueError(
                f"{name} fails at (d={d}, k={k}): InvariantError: {exc}"
            ) from None
    return True


def _sweep_holds(cell: Cells, check: str, grid: Iterable[tuple[int, int]]) -> bool:
    """`_holds` for a registered sweep check, named by the check."""
    return _holds(check, grid, partial(cell, check))


def _tate_commutes_on_grid(spec: Specs, cell: Cells) -> bool:
    # the round-trip check compares twist and Tate twist wherever both
    # composites are defined; the count includes m = 0, where the two
    # agree by construction, so the claim needs a cell with a second
    # count, a comparison at some m >= 1
    grid = list(product(GRID_D, GRID_K))
    _sweep_holds(cell, "round-trip", grid)
    ladders = (hodge.tate_ladder(covers.primitive_V(spec(d, k))) for d, k in grid)
    if not any(hodge.ladder_commutations(ladder) >= 2 for ladder in ladders):
        raise ValueError("no cell of the grid compares a Tate commutation at m >= 1")
    return True


def _torelli_quotients_match_W(spec: Specs):
    W = covers.build_W(spec(3, 4)).hodge_numbers()
    for p in jacobian.w_ladder_steps(4):
        rung, h = jacobian.build_w_quotient(4, p).dimension, W.get(4 - p, 0)
        if rung != h:
            raise InvariantError(
                f"W ladder rung p={p}: dimension {rung} != h^{4 - p}(W) = {h}"
            )
    return True


def _torelli_rank_both_routes(k: int) -> int:
    closed = jacobian.torelli_differential_rank(k)
    eliminated = jacobian.torelli_rank_by_elimination(k)
    if closed != eliminated:
        raise InvariantError(
            f"Torelli rank at k = {k}: closed form {closed}, elimination {eliminated}"
        )
    return closed


def _gamma_exponents_are_cmtype():
    # fermat_gamma_invariants raises unless the exponents are
    # 1..floor((d-1)/2) and their units are the CM-type
    for d in range(3, 13):
        covers.fermat_gamma_invariants(d)
    return True


def _covermap_mutations():
    _, _, _, y, u, v = jacobian.cover_variables()
    return [
        jacobian.verify_cover_parametrization(u_cube_rhs=-(v**2)),
        jacobian.verify_cover_parametrization(cover_numerator=u * y),
    ]


# ---------------------------------------------------------------------------
# the ledger


def all_claims() -> tuple[Claim, ...]:
    spec = _tower_rows(GRID_D, max(GRID_K[-1], ROUND_TRIP_K[-1]))
    cell = _cell_memo(spec)
    K4 = make_cyclotomic(4)
    K3 = make_cyclotomic(3)
    kondo = partial(spec, 4, 2)
    cubic4 = partial(spec, 3, 4)
    direct_tate = partial(covers.half_twist_exists_direct, tate=True)
    # each twist is taken once per run, however many claims read it
    kondo_twist = cache(lambda: hodge.abelian_summary(
        hodge.pos_half_twist(covers.primitive_V(kondo()))))
    cubic4_twist = cache(lambda: hodge.abelian_summary(
        hodge.pos_half_twist(covers.full_level_V(cubic4()))))

    claims = [
        # --- quartic surface / genus-3 suite
        Claim("kondo.dim_V", "4.2", "kondo", "paper", 14,
              lambda: covers.primitive_V(kondo()).rank),
        Claim("kondo.dim_NS0", "4.2", "kondo", "paper", 7,
              lambda: dict(covers.secondary_parts(kondo()))[2].rank),
        Claim("kondo.half_twist_exists", "4.2", "kondo", "paper", True,
              lambda: covers.half_twist_exists_direct(kondo())),
        Claim("kondo.abelian_dim", "4.2", "kondo", "paper", 7,
              lambda: kondo_twist().dim_abelian),
        Claim("kondo.cm_type", "4.2", "kondo", "paper", [1, 6],
              lambda: list(kondo_twist().cm_type)),
        Claim("kondo.h21_quartic_threefold", "4.2", "kondo", "paper", 30,
              lambda: jacobian.primitive_hodge_column(4, 3)[2]),
        Claim("kondo.isogeny_checksum", "4.2", "kondo", "paper",
              [30, [9, 14, 7]], lambda: _kondo_isogeny(kondo())),
        Claim("kondo.genus", "4.2", "kondo", "paper", 3,
              lambda: covers.curve_h1(4).rank // 2),
        # --- cubic fourfold suite
        Claim("cubic4.h31", "6.1", "cubic4", "paper", 1,
              lambda: jacobian.primitive_hodge_column(3, 4)[3]),
        Claim("cubic4.h22_0", "6.1", "cubic4", "paper", 20,
              lambda: jacobian.primitive_hodge_column(3, 4)[2]),
        Claim("cubic4.h40", "6.1", "cubic4", "paper", 0,
              lambda: jacobian.primitive_hodge_column(3, 4)[4]),
        Claim("cubic4.rank_V", "6.1", "cubic4", "derived", 22,
              lambda: covers.primitive_V(cubic4()).rank),
        Claim("cubic4.twist_level", "6.1", "cubic4", "paper", 2,
              lambda: hodge.level(covers.full_level_V(cubic4()))),
        Claim("cubic4.twist_h20", "6.1", "cubic4", "paper", 1,
              lambda: covers.full_level_V(cubic4()).hodge_numbers().get(2, 0)),
        Claim("cubic4.abelian_dim", "6.1", "cubic4", "paper", 11,
              lambda: cubic4_twist().dim_abelian),
        Claim("cubic4.signature", "6.2", "cubic4", "paper", [1, 10],
              lambda: list(cubic4_twist().cm_type)),
        Claim("cubic4.jz5_dims", "6.1", "cubic4", "paper", [21, 5, 11],
              lambda: _jz5_dims(cubic4_twist)),
        # --- sextic surface suite
        Claim("sextic.primitive_rank", "4.4", "sextic", "paper", 105,
              lambda: spec(6, 2).cohomology.rank),
        Claim("sextic.V6", "4.4", "sextic", "paper", [42, [6, 30, 6]],
              lambda: _sextic_part(spec, 6)),
        Claim("sextic.V2", "4.4", "sextic", "paper", [42, [3, 36, 3]],
              lambda: _sextic_part(spec, 3)),
        Claim("sextic.h11_eigenspaces", "4.4", "sextic", "paper", [15, 18],
              lambda: spec(6, 2).cohomology.row(1)[1:3]),
        Claim("sextic.half_twists", "4.4", "sextic", "paper", [True, True],
              lambda: _sextic_half_twists(spec)),
        # --- quintic suite
        Claim("quintic.extremal_k2", "4.3", "quintic", "paper", [4, [3, 1]],
              lambda: _quintic_extremal(spec, 2)),
        Claim("quintic.extremal_k7", "4.3", "quintic", "paper", [9, [8, 1]],
              lambda: _quintic_extremal(spec, 7)),
        Claim("quintic.curve_eigenspaces", "4.3", "quintic", "paper",
              [3, 2, 1, 0],
              lambda: spec(5, 1).cohomology.row(1)[1:]),
        Claim("quintic.halftwist_pattern", "4.3", "quintic", "paper",
              [False, True, True, False, False, False, True],
              lambda: _pattern(spec, direct_tate, 5)),
        # --- cubic covers in general
        Claim("cubics.halftwist_pattern", "3.8", "cubics", "paper",
              [False, False, True, False, False, True],
              lambda: [covers.half_twist_exists_direct(spec(3, k), tate=True)
                       for k in range(2, 8)]),
        Claim("cubics.extremal_dim_is_one", "3.8", "cubics", "paper", [1, 1],
              lambda: _cubics_extremal_dims(spec)),
        Claim("cubics.W_equals_half_twist", "3.8", "cubics", "paper", True,
              lambda: _holds("cubic W identity", product([3], range(2, 8)),
                             partial(_cubic_W_identity, spec))),
        Claim("cubics.surface_level_zero", "2.5", "cubics", "paper", 0,
              lambda: hodge.level(covers.primitive_V(spec(3, 2)))),
        # --- quartic covers in general
        Claim("quartics.curve_h10_eigenspaces", "3.10", "quartics", "paper",
              [2, 1, 0],
              lambda: spec(4, 1).cohomology.row(1)[1:]),
        Claim("quartics.split_table_equality", "3.10", "quartics", "paper",
              True, lambda: _holds("quartic split", product([4], (1, 2, 3)),
                                   lambda d, k: covers.quartic_W_split(spec(d, k)))),
        Claim("quartics.halftwist_pattern", "3.9", "quartics", "paper",
              [True, True, False, False, True, True, False],
              lambda: _pattern(spec, direct_tate, 4)),
        # --- the Fermat curve lemma
        Claim("gamma.invariant_h1_dims", "3.2", "fermat-curve", "paper",
              [2, 2, 4, 4, 6, 6, 8],
              lambda: [covers.gamma_invariant_h1_dimension(d) for d in GRID_D]),
        Claim("gamma.exponents_are_cmtype", "3.2", "fermat-curve", "paper",
              True,
              _gamma_exponents_are_cmtype),
        # --- dimension identities
        Claim("lemma3.7.kondo", "3.7", "dims", "paper", [60, [18, 42]],
              lambda: _lemma37_example(4, 2)),
        Claim("lemma3.7.cubic4", "3.7", "dims", "paper", [42, [20, 22]],
              lambda: _lemma37_example(3, 4)),
        Claim("lemma3.7.grid", "3.7", "dims", "derived", True,
              lambda: _sweep_holds(cell, "dim-identity", product(GRID_D, range(2, 8)))),
        Claim("prop3.5.checksum_grid", "3.5", "dims", "derived", True,
              lambda: _sweep_holds(cell, "z-checksum", product(GRID_D, GRID_K))),
        Claim("euler.matches_griffiths", "3.7", "dims", "derived", True,
              lambda: _holds("middle rank", product(GRID_D, range(0, 8)),
                             covers.middle_rank_both_routes)),
        # --- Kuga-Satake dimension space
        Claim("ks.cubic4_table", "5.2", "ks", "paper", True,
              lambda: _sweep_holds(cell, "ks-space", [(3, 4)])),
        Claim("ks.kondo_table", "5.2", "ks", "paper", True,
              lambda: _sweep_holds(cell, "ks-space", [(4, 2)])),
        Claim("ks.elliptic_curve_d3", "5.2", "ks", "paper", [2, 1],
              lambda: [hodge.k_minus_half(K3).rank,
                       hodge.abelian_summary(hodge.k_minus_half(K3)).dim_abelian]),
        # --- twist algebra
        Claim("twists.roundtrip_grid", "7.2", "twists", "paper", True,
              lambda: _sweep_holds(
                  cell, "round-trip", product(ROUND_TRIP_D, ROUND_TRIP_K))),
        Claim("twists.tate_commutation", "1.4", "twists", "paper", True,
              lambda: _tate_commutes_on_grid(spec, cell)),
        Claim("twists.k_minus_half_d4", "1.4", "twists", "trivial", [2, 1],
              lambda: [hodge.k_minus_half(K4).rank,
                       hodge.k_minus_half(K4).entry(1, 1)]),
        # --- period map differential
        Claim("torelli.moduli_dimension", "6.3", "torelli", "paper", 10,
              lambda: jacobian.torelli_deformation_dimension(4)),
        Claim("torelli.witness_nonzero", "7.4", "torelli", "paper", True,
              lambda: jacobian.torelli_witness_nonzero(4)),
        Claim("torelli.differential_rank", "7.4", "torelli", "derived", 10,
              lambda: _torelli_rank_both_routes(4)),
        Claim("torelli.quotients_match_W", "7.4", "torelli", "derived", True,
              lambda: _torelli_quotients_match_W(spec)),
        # --- the dominant rational map
        Claim("covermap.identity", "6.4", "cover-map", "paper", True,
              jacobian.verify_cover_parametrization),
        Claim("covermap.mutations", "6.4", "cover-map", "trivial",
              [False, False], _covermap_mutations),
        # --- known discrepancies: stated closed forms vs direct computation
        Claim("thm2.6.printed_formula_transcription", "2.6", "thm2.6",
              "paper", PRINTED_PATTERNS,
              lambda: {str(d): _pattern(spec, covers.half_twist_exists_printed, d)
                       for d in (3, 5, 7, 9)}),
        *(Claim(f"thm2.6.printed_vs_direct.d{d}", "2.6", "thm2.6", "paper",
                pattern, partial(_pattern, spec, direct_tate, int(d)),
                known_discrepancy=True)
          for d, pattern in PRINTED_PATTERNS.items()),
        Claim("thm2.6.even_degree_agreement", "2.6", "thm2.6", "derived",
              True, lambda: _no_even_degree(
                  _disagreements(
                      spec, covers.half_twist_exists_printed, direct_tate))),
        Claim("thm2.6.derived_matches_direct", "2.6", "thm2.6", "derived",
              True, lambda: not _disagreements(
                  spec, covers.half_twist_exists_derived, direct_tate)),
        Claim("thm2.6.disagreement_set", "2.6", "thm2.6", "derived",
              [[3, 3], [3, 6], [5, 1], [5, 6], [7, 2], [9, 3]],
              lambda: _disagreements(
                  spec, covers.half_twist_exists_printed, direct_tate)),
        Claim("cor2.7.surfaces_bound", "4.1", "cor2.7", "paper",
              [True, True, True, True, True, False, False],
              lambda: [covers.half_twist_exists_direct(spec(d, 2)) for d in GRID_D],
              known_discrepancy=True),
        Claim("cor2.7.even_degree_agreement", "2.7", "cor2.7", "derived",
              True, lambda: _no_even_degree(
                  _disagreements(
                      spec, covers.degree_bound_printed,
                      covers.half_twist_exists_direct))),
        Claim("cor2.7.disagreement_set", "2.7", "cor2.7", "derived",
              [[5, 1], [7, 2], [9, 3]],
              lambda: _disagreements(
                  spec, covers.degree_bound_printed, covers.half_twist_exists_direct)),
        Claim("cor2.7.no_cmtype_helps_d7k2", "4.5", "cor2.7", "derived",
              False, lambda: covers.half_twist_any_cmtype(spec(7, 2))),
        Claim("cmtype.optimality_grid", "2.1", "cor2.7", "derived", True,
              lambda: _sweep_holds(cell, "cmtype-search", product(GRID_D, GRID_K))),
    ]
    return tuple(claims)

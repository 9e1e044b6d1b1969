"""The named Hodge structures of a cyclic cover and their identities.

A degree-d cover of projective k-space totally branched along a degree-d
hypersurface carries an order-d automorphism; this module assembles the
primitive-eigenvalue structure V, the lower-order pieces, the invariant
structure W inside the tensor with the degree-d Fermat curve, the (q, t)
normal form of k (division with remainder of k + 1 by d), the primitive
middle rank in the closed form of its Euler recursion, the three
half-twist existence predicates (the direct eigenspace check, which is
authoritative, and the two closed forms it is compared against), the
stated degree bound for V, and the direct-sum decompositions.

The extremal index k - q is `qt_decompose(spec).top`, V(q) is
`full_level_V(spec)`, and the slices of the table by eigenvalue order
are `secondary_parts(spec)`; no caller derives any of them again.

A decomposition (the next cover in the tower, the quartic split of W,
the Jacobian of the quartic threefold) is a list of summand ranks with
multiplicities folded in.  It is returned only after it is checked
against another route; a mismatch is a ValueError naming the
decomposition.  The tower and the Jacobian check their sum against a
total computed independently, and the tower checks every Hodge number
of the next cover as well, against the Jacobian-ring counts; the
quartic split checks the full residue-graded tables, which fixes the
ranks too.

A `CoverSpec` owns its Hodge data, all read off its one series, on
first use and at most once: the eigenspace table (`spec.cohomology`,
one flat p-major list over the residues 1..d-1, which every predicate
and structure here reads, `primitive_V` too), V's Tate ladder
(`spec.ladder`, which the round-trip check and the commutation claim
read), the branch column (`spec.branch_column`, the primitive Hodge
numbers of the branch locus, which the identities that link
neighbouring storeys and the quartic isogeny report read) and the next
storey (`spec.up`).  A row of covers (a sweep, the ledger, `curve_h1`)
comes off `tower`, which steps up from P and walks `up`, so its tables
and columns never read the recurrence that a single cover's series,
`jacobian.power_series`, comes from: each road checks the other.  The
(q, t) normal form is cached on the spec too (`qt_decompose` reads
`spec.normal_form`).  These caches live and die with their spec, and
`up` points only upward, so no storey keeps the one below it alive.
Three caches outlive a spec, all small and filled on first use, none at
import: `curve_h1`, the Fermat-curve table that `build_W` tensors with,
per degree; K_{-1/2} (`hodge.k_minus_half`), which `ks_invariant_space`
and `quartic_W_split` tensor with, per field; and the field itself, one
frozen `CyclotomicData` per degree from `make_cyclotomic`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd
from typing import Iterator, Optional

from .cyclotomic import CyclotomicData, InvariantError, make_cyclotomic
from .hodge import (
    CMHodgeStructure,
    Rung,
    abelian_summary,
    collapse_residues,
    direct_sum,
    k_minus_half,
    pos_half_twist,
    require_equal,
    tate_ladder,
    tate_twist,
    tensor,
    tensor_invariants,
    top_offenders,
)
from .jacobian import (
    UnsupportedCaseError,
    eigenspace_dims,
    power_series,
    residue_vectors,
    residue_zero_column,
    tower_step,
)


@dataclass(frozen=True)
class CoverSpec:
    """Degree d >= 3 cover of projective k-space, k >= 0.

    `series`, the table's generating series (1 + ... + t^{d-2})^{k+1} of
    (k+1)(d-2) + 1 coefficients, is the one `up` hands on, or else
    `power_series(d, k + 1)`; it takes no part in equality, hashing or
    repr.  All else on the spec, V's Tate ladder too, is cached, read off
    the series at most once, shared by every predicate given the spec,
    and freed with it."""

    d: int
    k: int
    series: Optional[list[int]] = dataclasses.field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        if self.d < 3:
            raise ValueError(f"degree must be >= 3, got {self.d}")
        if self.k < 0:
            raise ValueError(f"dimension must be >= 0, got {self.k}")
        if self.series is None:
            object.__setattr__(self, "series", power_series(self.d, self.k + 1))
        size = (self.k + 1) * (self.d - 2) + 1
        if len(self.series) != size:
            raise ValueError(
                f"series of {len(self.series)} coefficients for ({self.d}, {self.k}), "
                f"expected {size}"
            )

    @cached_property
    def field(self) -> CyclotomicData:
        return make_cyclotomic(self.d)

    @cached_property
    def cohomology(self) -> CMHodgeStructure:
        rows = residue_vectors(self.series, self.d, self.k)
        return CMHodgeStructure(self.field, self.k, (rows, []))

    @cached_property
    def branch_column(self) -> tuple[int, ...]:
        """`jacobian.primitive_hodge_column(d, k - 1)`, off the series."""
        return residue_zero_column(self.series, self.d, self.k)

    @cached_property
    def up(self) -> CoverSpec:
        """The next storey of the tower, (d, k + 1)."""
        return CoverSpec(self.d, self.k + 1, tower_step(self.series, self.d))

    @cached_property
    def V(self) -> CMHodgeStructure:
        units = self.field.units
        if len(units) == self.d - 1:  # prime d: every residue is a unit
            return self.cohomology
        return self.cohomology.restrict_residues(units)

    @cached_property
    def ladder(self) -> list[Rung]:
        return tate_ladder(self.V)

    @cached_property
    def normal_form(self) -> QTDecomposition:
        d, k = self.d, self.k
        if k < 1:
            raise ValueError("normal form needs k >= 1")
        q, r = divmod(k + 1, d)  # k + 1 = qd + (t + 1), 0 <= t + 1 < d
        row = self.cohomology.row
        highest = next((p for p in range(k, -1, -1) if any(row(p))), None)
        if highest != k - q:
            raise InvariantError(
                f"highest nonzero piece of {self} is p={highest}, "
                f"not the extremal p={k - q}"
            )
        return QTDecomposition(q=q, t=r - 1, top=highest)


def tower(d: int, k_max: int) -> Iterator[CoverSpec]:
    """The specs (d, k) for k = 1..k_max, the covers of one degree in
    the order of their tower: the one road for a row of covers.  The
    first is one step up from P, the series at k = 0, and each other the
    `up` of the one before, so no storey reads `power_series`.  The walk
    keeps the storey it is at, and with it any storey above that was
    read; no storey keeps the one below it."""
    for k in range(k_max):
        spec = spec.up if k else CoverSpec(d, 1, tower_step([1] * (d - 1), d))
        yield spec


@dataclass(frozen=True)
class QTDecomposition:
    """k = q*d + t with t in [-1, d-2]; top = k - q, the extremal index."""

    q: int
    t: int
    top: int


# ---------------------------------------------------------------------------
# the basic structures


def primitive_V(spec: CoverSpec) -> CMHodgeStructure:
    """The piece with primitive eigenvalues: the unit-residue columns of
    the eigenspace table (`spec.V`).  For prime d this is all of the
    primitive middle cohomology, and `spec.V` is `spec.cohomology`."""
    return spec.V


def secondary_parts(spec: CoverSpec) -> list[tuple[int, CMHodgeStructure]]:
    """Sub-structures keyed by eigenvalue order e (e | d, e > 1),
    descending; the e = d part is V.  Ranks add up to the full
    primitive rank."""
    d = spec.d
    full = spec.cohomology
    orders = sorted({d // gcd(i, d) for i in range(1, d)}, reverse=True)
    parts = []
    for e in orders:
        residues = [i for i in range(1, d) if d // gcd(i, d) == e]
        parts.append((e, full.restrict_residues(residues)))
    if sum(part.rank for _, part in parts) != full.rank:
        raise InvariantError(f"order parts of {spec} do not add up to rank {full.rank}")
    return parts


def order_part_as_substructure(spec: CoverSpec, e: int) -> CMHodgeStructure:
    """The order-e slice rewritten over the e-th cyclotomic field: the
    vector at residue i (a multiple of d/e) moves to the unit i/(d/e)
    mod e."""
    if spec.d % e or e < 3:
        raise UnsupportedCaseError(f"order {e} needs e | d and e >= 3")
    step = spec.d // e
    part = dict(secondary_parts(spec))[e]
    vectors = {i // step: vec for i, vec in part.vectors.items()}
    return CMHodgeStructure(make_cyclotomic(e), spec.k, vectors)


@cache
def curve_h1(d: int) -> CMHodgeStructure:
    """H^1 of the degree-d Fermat curve, the first storey of its tower
    (no hard-coded values); built once per degree."""
    return next(tower(d, 1)).cohomology


def one_pass_cohomology(spec: CoverSpec) -> CMHodgeStructure:
    """The table of `spec` in one pass by `jacobian.eigenspace_dims`,
    apart from its series: what `oracle-equivalence` holds it to."""
    return CMHodgeStructure(spec.field, spec.k, eigenspace_dims(spec.d, spec.k))


# ---------------------------------------------------------------------------
# (q, t) normal form and the existence predicates


def qt_decompose(spec: CoverSpec) -> QTDecomposition:
    """The unique (q, t) with k = q*d + t, t in [-1, d-2], that is
    q, t + 1 = divmod(k + 1, d), and `top`, the highest nonzero Hodge
    index, checked to equal k - q: the spec's `normal_form`, computed
    and checked once per spec."""
    return spec.normal_form


def full_level_V(spec: CoverSpec) -> CMHodgeStructure:
    """V(q): V Tate-twisted by its own q, of weight k - 2q.  Its top
    Hodge piece is the extremal piece of V."""
    return tate_twist(primitive_V(spec), qt_decompose(spec).q)


def half_twist_exists_direct(spec: CoverSpec, tate: bool = False) -> bool:
    """The authoritative predicate: the top Hodge piece of V (or the
    extremal piece, the top of V(q), when tate=True) is one-sided, i.e.
    `hodge.top_offenders` finds no residue outside sigma0 there."""
    top = qt_decompose(spec).top if tate else spec.k
    return not top_offenders(primitive_V(spec), top)


def half_twist_exists_printed(spec: CoverSpec) -> bool:
    """The stated closed form for V(q): t > (d-4)/2, with (d-6)/2 when
    d = 2 mod 4.  (Real-number inequality, kept exactly as stated.)"""
    t = qt_decompose(spec).t
    d = spec.d
    if d % 4 == 2:
        return 2 * t > d - 6
    return 2 * t > d - 4


def half_twist_exists_derived(spec: CoverSpec) -> bool:
    """The closed form that follows from the eigenspace count itself:
    with a = d - t - 2, existence for V(q) is a - e < 0 where e = d/2
    for d = 0 mod 4 and e = (d-1)/2 for odd d, and a - e - 1 < 0 for
    d = 2 mod 4.  For odd d this reads t > (d-3)/2, one step stricter
    than the stated form."""
    t = qt_decompose(spec).t
    d = spec.d
    a = d - t - 2
    if d % 2 == 1:
        return a - (d - 1) // 2 < 0
    if d % 4 == 0:
        return a - d // 2 < 0
    return a - d // 2 - 1 < 0


def degree_bound_printed(spec: CoverSpec) -> bool:
    """The stated degree bound for V itself: d < 2k+4 for even k,
    d <= 2k+4 for odd k.  (Kept exactly as stated; the direct check it
    is compared against is `half_twist_exists_direct(spec)`.)"""
    d, k = spec.d, spec.k
    return (d < 2 * k + 4 and k % 2 == 0) or (d <= 2 * k + 4 and k % 2 == 1)


def half_twist_any_cmtype(spec: CoverSpec) -> bool:
    """Whether some CM-type makes the top Hodge piece of V one-sided.

    A CM-type picks one embedding from each conjugate pair {a, d - a},
    so some CM-type contains the top support exactly when the support
    holds no such pair: O(phi(d)).  The exhaustive search over all
    2^(phi(d)/2) CM-types gives its two test oracles in
    tests/test_covers.py: `any_cmtype_exhaustive` tests this containment
    for each CM-type, and `any_cmtype_by_predicate` asks
    `has_positive_half_twist` of V rebuilt over each CM-type."""
    top = primitive_V(spec).row(spec.k)
    top_support = {a for a in spec.field.units if top[a]}
    return all(spec.d - a not in top_support for a in top_support)


# ---------------------------------------------------------------------------
# dimension identities and decompositions


def euler_recursion_rank(d: int, k: int) -> int:
    """Primitive middle rank h_k, k >= 0, in the closed form of the
    Euler-characteristic recursion of the tower of covers,
    (-1)^k h_k = (d-1)(1 - (-1)^(k-1) h_{k-1}) from h_0 = d - 1.
    Independent of the Jacobian-ring route.

    With g_k = (-1)^k h_k the recursion reads g_k = (d-1)(1 - g_{k-1}),
    whose fixed point is (d-1)/d, so g_k - (d-1)/d = (1-d)^k (g_0 - (d-1)/d)
    with g_0 - (d-1)/d = (d-1)^2/d.  Hence

        h_k = ((d-1)^{k+2} + (-1)^k (d-1)) / d,

    and the division is exact, since (d-1)^{k+2} = (-1)^k mod d."""
    return ((d - 1) ** (k + 2) + (-1) ** k * (d - 1)) // d


def middle_rank_both_routes(d: int, k: int, griffiths: int) -> int:
    """The primitive middle rank h_k by the Euler recursion, checked
    against `griffiths`, the rank from the Jacobian-ring counts: off the
    tower in the dim-identity check, off the recurrence in the ledger's
    `euler.matches_griffiths`.  A ValueError names both when they differ."""
    euler = euler_recursion_rank(d, k)
    if euler != griffiths:
        raise ValueError(f"euler {euler} != griffiths {griffiths}")
    return euler


def dim_identity_terms(spec: CoverSpec) -> tuple[int, int, int]:
    """The terms (h_{k+1}, (d-1) h_{k-1}, (d-2) h_k) of Lemma 3.7,
    h_{k+1} = (d-1) h_{k-1} + (d-2) h_k, for the cover `spec` of
    dimension k: the sums of the branch columns of `spec` and the two
    storeys above it.  The one definition that the sweep check and the
    ledger's examples read."""
    if spec.k < 2:
        raise ValueError("identity needs k >= 2")
    h = [sum(cover.branch_column) for cover in (spec, spec.up, spec.up.up)]
    return h[2], (spec.d - 1) * h[0], (spec.d - 2) * h[1]


def build_W(spec: CoverSpec) -> CMHodgeStructure:
    """Invariants of the product automorphism inside (middle primitive
    cohomology of the cover) tensor (H^1 of the Fermat curve), graded by
    the cover-side residue.  Rank is pinned to (d-2) * h_k."""
    W = tensor_invariants(spec.cohomology, curve_h1(spec.d), rule="sum")
    expected = (spec.d - 2) * euler_recursion_rank(spec.d, spec.k)
    if W.rank != expected:
        raise ValueError(f"W rank {W.rank} != (d-2) h_k = {expected}")
    return W


def _checked_ranks(label: str, ranks: list[int], expected: int) -> list[int]:
    """Summand ranks, multiplicities folded in, after checking that they
    add up to the independently computed total; ValueError otherwise."""
    if sum(ranks) != expected:
        raise ValueError(f"{label}: checksum {sum(ranks)} != expected {expected}")
    return ranks


def z_decomposition(spec: CoverSpec) -> list[int]:
    """Middle primitive cohomology of the next cover in the tower:
    d-1 Tate-twisted copies of the branch locus middle cohomology, then
    W, checked against the Euler-recursion rank one level up, and then
    Hodge number by Hodge number against the branch columns of `spec`
    and of the storey two up: h^p(Z_{k+1}) = (d-1) h^{p-1}(Z_{k-1}) +
    h^p(W) for p = 0..k+1.  A failure names the first p."""
    d, k = spec.d, spec.k
    label = f"H^{k + 1}_0(Z_{k + 1}) for d={d}"
    W = build_W(spec)
    lower, in_W = spec.branch_column, W.hodge_numbers()
    ranks = _checked_ranks(
        label, [(d - 1) * sum(lower), W.rank], euler_recursion_rank(d, k + 1)
    )
    for p, total in enumerate(spec.up.up.branch_column):
        twisted = (d - 1) * lower[p - 1] if 1 <= p <= k else 0
        if total != twisted + in_W.get(p, 0):
            raise ValueError(
                f"{label}: h^{p} = {total} != "
                f"{twisted} (twisted copies) + {in_W.get(p, 0)} (W)"
            )
    return ranks


def quartic_W_split(spec: CoverSpec) -> list[int]:
    """For d = 4: W splits as two Tate-twisted half twists of V plus the
    order-two part tensored with the CM elliptic-curve structure, and
    the split holds as an equality of full residue-graded tables (the
    third summand keeps the cover-side grading, since the elliptic
    factor's field action is not the covering automorphism)."""
    if spec.d != 4:
        raise UnsupportedCaseError(f"split needs d = 4, got d={spec.d}")
    field = spec.field
    W = build_W(spec)
    V = primitive_V(spec)
    v_prime = spec.cohomology.restrict_residues([2])
    twisted = tate_twist(pos_half_twist(V), -1)
    third = tensor(v_prime, collapse_residues(k_minus_half(field)))
    recombined = direct_sum(twisted, twisted, third)
    require_equal(W, recombined, "W against the recombined table")
    return [2 * twisted.rank, third.rank]


def quartic_isogeny_report(spec: CoverSpec) -> list[int]:
    """Dimension bookkeeping, ranks only, for the intermediate Jacobian of
    the quartic threefold over a plane quartic, from the quartic surface
    cover `spec` (d = 4, k = 2): three copies of the genus-3 Jacobian, two
    copies of the half-twist abelian 7-fold, seven CM elliptic curves,
    checked against the threefold's h^{2,1} off the tower, two storeys up."""
    if (spec.d, spec.k) != (4, 2):
        raise UnsupportedCaseError(f"report needs d = 4, k = 2, got {spec}")
    genus = curve_h1(4).rank // 2
    a_c = abelian_summary(pos_half_twist(primitive_V(spec))).dim_abelian
    a_k = abelian_summary(k_minus_half(spec.field)).dim_abelian
    return _checked_ranks(
        "J of the quartic threefold",
        [3 * genus, 2 * a_c, 7 * a_k],
        spec.up.up.branch_column[2],
    )


# ---------------------------------------------------------------------------
# the gamma-invariant forms and the Kuga-Satake dimension space


def fermat_gamma_invariants(d: int) -> list[int]:
    """Exponents of the covering automorphism on the invariant
    holomorphic forms of the Fermat curve under the extra order-d
    symmetry: forms are indexed by (a, b) with a + b <= d - 3 and the
    invariant ones have a = b mod d.  The result must be 1..floor((d-1)/2)
    and its unit members must be exactly the CM-type; `InvariantError`
    otherwise."""
    field = make_cyclotomic(d)
    exponents = sorted(
        a + 1
        for a in range(max(d - 2, 0))
        for b in range(d - 2 - a)
        if (a - b) % d == 0
    )
    if exponents != list(range(1, (d - 1) // 2 + 1)):
        raise InvariantError(f"invariant exponents of d={d} are {exponents}")
    if {a for a in exponents if a in field.units} != set(field.sigma0):
        raise InvariantError(f"unit exponents of d={d} are not the CM-type")
    return exponents


def gamma_invariant_h1_dimension(d: int) -> int:
    """Rank of the invariant part of H^1: twice the form count."""
    return 2 * len(fermat_gamma_invariants(d))


def ks_invariant_space(spec: CoverSpec) -> CMHodgeStructure:
    """The subspace of V (x) K_half (x) K_half cut out by eigen-triples
    (a, b, c) with a + b = 0 and b + c = 0 mod d, with Hodge bidegrees
    added: the "sum" invariants of V (x) K_half, then the "difference"
    invariants of that with K_half.  Must coincide with the Tate twist
    V(-1) as a full table."""
    V = primitive_V(spec)
    K = k_minus_half(spec.field)
    S = tensor_invariants(
        tensor_invariants(V, K, rule="sum"), K, rule="difference"
    )
    require_equal(
        S, tate_twist(V, -1), f"invariant space differs from V(-1) for {spec}"
    )
    return S

"""The half-twist calculus on CM-graded Hodge structures.

A structure of weight k with an action of the d-th cyclotomic field is
held as an exact table of dimensions indexed by (Hodge index p, residue
a mod d): the entry at (p, a) is the dimension of the simultaneous
subspace of bidegree (p, k - p) on which the order-d automorphism acts
through the a-th embedding.  Tables built by tensoring may carry
non-unit residues (including 0); structures coming straight from a
cyclic cover are supported on units.

All operations are pure and exact: dimensions are Python integers and
every identity asserted here is an equality of full tables.

The positive half twist exists exactly when the top Hodge piece is
one-sided: no residue outside the CM-type sigma0 carries dimension
there.  `top_offenders` is the one definition of that test; the
predicate `has_positive_half_twist`, the error of `pos_half_twist` and
the cover predicates of `covers` all read it.  `tate_commutations` is
likewise the one comparison of the half twist with Tate twists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .cyclotomic import CyclotomicData, InvariantError, conjugate_residue


class EmptyStructureError(ValueError):
    """Operation undefined on a structure with an empty table."""


class TwistRangeError(ValueError):
    """A Tate twist would push an entry below Hodge index 0."""


class NoHalfTwistError(ValueError):
    """Top Hodge piece is not one-sided for the fixed CM-type."""


class FieldMismatchError(ValueError):
    """Operands live over cyclotomic fields of different degree."""


class NotWeightOneError(ValueError):
    """Abelian-variety summary requested for a weight != 1 structure."""


class MalformedStructureError(ValueError):
    """Table violates effectivity or conjugation symmetry."""


class CMHodgeStructure:
    """Dimension table of an effective Hodge structure with residue grading.

    Equality is exact equality of (d, weight, table); there is no
    isogeny or isomorphism coarsening.
    """

    def __init__(
        self,
        field: CyclotomicData,
        weight: int,
        table: Mapping[tuple[int, int], int],
        check_symmetry: bool = True,
    ):
        if weight < 0:
            raise MalformedStructureError(f"weight must be >= 0, got {weight}")
        clean: dict[tuple[int, int], int] = {}
        for (p, a), dim in table.items():
            if dim < 0:
                raise MalformedStructureError(f"negative dimension at {(p, a)}")
            if dim == 0:
                continue
            if not 0 <= p <= weight:
                raise MalformedStructureError(
                    f"entry at p={p} outside [0, {weight}] (not effective)"
                )
            clean[(p, a % field.d)] = clean.get((p, a % field.d), 0) + dim
        self.field = field
        self.weight = weight
        self._table = clean
        if check_symmetry and not self.is_conjugation_symmetric():
            raise MalformedStructureError("table breaks conjugation symmetry")

    @property
    def table(self) -> dict[tuple[int, int], int]:
        return dict(self._table)

    @property
    def rank(self) -> int:
        return sum(self._table.values())

    def entry(self, p: int, a: int) -> int:
        return self._table.get((p, a % self.field.d), 0)

    def residues(self) -> frozenset[int]:
        return frozenset(a for (_, a) in self._table)

    def hodge_numbers(self) -> dict[int, int]:
        """Residue-blind Hodge numbers p -> h^{p, weight-p}."""
        out: dict[int, int] = {}
        for (p, _), dim in self._table.items():
            out[p] = out.get(p, 0) + dim
        return out

    def is_conjugation_symmetric(self) -> bool:
        d = self.field.d
        k = self.weight
        return all(
            dim == self._table.get((k - p, (-a) % d), 0)
            for (p, a), dim in self._table.items()
        )

    def restrict_residues(self, residues: Iterable[int]) -> "CMHodgeStructure":
        keep = {a % self.field.d for a in residues}
        table = {key: dim for key, dim in self._table.items() if key[1] in keep}
        symmetric = all(conjugate_residue(self.field, a) in keep for a in keep)
        return CMHodgeStructure(
            self.field, self.weight, table, check_symmetry=symmetric
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CMHodgeStructure):
            return NotImplemented
        return (
            self.field.d == other.field.d
            and self.weight == other.weight
            and self._table == other._table
        )

    def __hash__(self):
        return hash(
            (self.field.d, self.weight, tuple(sorted(self._table.items())))
        )

    def __repr__(self) -> str:
        return (
            f"CMHodgeStructure(d={self.field.d}, weight={self.weight}, "
            f"rank={self.rank})"
        )


@dataclass(frozen=True)
class AbelianSummary:
    """Weight-one bookkeeping: dim of the abelian variety and, per
    embedding a in sigma0, the multiplicities of (sigma_a, conjugate)
    on the tangent space."""

    dim_abelian: int
    signature: dict[int, tuple[int, int]]

    @property
    def cm_type(self) -> tuple[int, int]:
        """The (r, s) type when the field acts through a single sigma0
        embedding (imaginary quadratic case)."""
        if len(self.signature) != 1:
            raise ValueError("cm_type is only defined for a single embedding pair")
        return next(iter(self.signature.values()))


def require_equal(
    actual: CMHodgeStructure, expected: CMHodgeStructure, context: str
) -> None:
    """ValueError unless the structures are equal.  The message names
    the first difference only: the degree, the weight, or the first
    differing (p, residue) entry with both dimensions."""
    if actual.field.d != expected.field.d:
        diff = f"degree {actual.field.d} != {expected.field.d}"
    elif actual.weight != expected.weight:
        diff = f"weight {actual.weight} != {expected.weight}"
    else:
        for p, a in sorted(actual._table.keys() | expected._table.keys()):
            left, right = actual.entry(p, a), expected.entry(p, a)
            if left != right:
                diff = f"entry (p={p}, residue={a}): {left} != {right}"
                break
        else:
            return
    raise ValueError(f"{context}: {diff}")


def level(structure: CMHodgeStructure) -> int:
    """max |2p - k| over nonzero entries; level <= 1 means abelian type."""
    if not structure._table:
        raise EmptyStructureError("level of an empty structure is undefined")
    k = structure.weight
    return max(abs(2 * p - k) for (p, _) in structure._table)


def tate_twist(structure: CMHodgeStructure, m: int) -> CMHodgeStructure:
    """Shift weight by -2m and every Hodge index by -m."""
    if m > 0:
        low = min(p for (p, _) in structure._table) if structure._table else 0
        if structure._table and low < m:
            raise TwistRangeError(
                f"twist by {m} would leave effectivity (min p = {low})"
            )
    table = {(p - m, a): dim for (p, a), dim in structure._table.items()}
    return CMHodgeStructure(structure.field, structure.weight - 2 * m, table)


def k_minus_half(field: CyclotomicData) -> CMHodgeStructure:
    """Weight-one structure of an abelian variety with CM by the field:
    tangent directions exactly on the sigma0 embeddings."""
    table = {(1, a): 1 for a in field.sigma0}
    table.update({(0, field.d - a): 1 for a in field.sigma0})
    return CMHodgeStructure(field, 1, table)


def _require_unit_support(structure: CMHodgeStructure, op: str) -> None:
    # twists shift the sigma0 side against its conjugate side, so they
    # need the field to act through embeddings: unit residues only
    stray = structure.residues() - frozenset(structure.field.units)
    if stray:
        raise MalformedStructureError(
            f"{op} needs a structure supported on unit residues; "
            f"found {sorted(stray)}"
        )


def _shift_sigma0(structure: CMHodgeStructure, step: int) -> CMHodgeStructure:
    # weight and the sigma0 side move by step, the conjugate side stays;
    # an entry's residue fixes its shift, so no two entries collide
    sigma0 = structure.field.sigma0
    table = {
        (p + step if a in sigma0 else p, a): dim
        for (p, a), dim in structure._table.items()
    }
    return CMHodgeStructure(structure.field, structure.weight + step, table)


def neg_half_twist(structure: CMHodgeStructure) -> CMHodgeStructure:
    """Weight k+1 structure on the same space: the sigma0 side of the
    table moves up one Hodge step, the conjugate side keeps its p."""
    _require_unit_support(structure, "negative half twist")
    return _shift_sigma0(structure, 1)


def pos_half_twist(structure: CMHodgeStructure) -> CMHodgeStructure:
    """Weight k-1 structure: sigma0 entries drop one Hodge step.

    Defined only when the top piece is one-sided, i.e. carries no
    residue outside sigma0; otherwise the dropped entries would leave
    no Hodge structure at all.  A sigma0 entry at p = 0, which
    conjugation symmetry rules out once the top is one-sided, fails the
    constructor's effectivity check.
    """
    _require_unit_support(structure, "positive half twist")
    k = structure.weight
    offending = [(k, a) for a in top_offenders(structure, k)]
    if offending:
        raise NoHalfTwistError(
            f"top Hodge piece is not one-sided at entries {offending}"
        )
    return _shift_sigma0(structure, -1)


def top_offenders(structure: CMHodgeStructure, p: int) -> list[int]:
    """The residues outside sigma0 that carry dimension at Hodge index p,
    ascending.  The top piece is one-sided when there are none at
    p = weight."""
    sigma0 = structure.field.sigma0
    return sorted(a for (row, a) in structure._table if row == p and a not in sigma0)


def tate_commutations(structure: CMHodgeStructure) -> int:
    """How many Tate twists m >= 0 have both composites
    pos_half_twist(tate_twist(V, m)) and tate_twist(pos_half_twist(V), m)
    defined; ValueError at the first such m where they differ.  Only a
    TwistRangeError or NoHalfTwistError marks a composite as undefined;
    any other error propagates."""
    compared = 0
    for m in range(min((p for (p, _) in structure._table), default=0) + 1):
        try:
            lhs = pos_half_twist(tate_twist(structure, m))
            rhs = tate_twist(pos_half_twist(structure), m)
        except (TwistRangeError, NoHalfTwistError):
            continue
        if lhs != rhs:
            raise ValueError(f"twist/Tate commutation fails at m={m}")
        compared += 1
    return compared


def has_positive_half_twist(structure: CMHodgeStructure) -> bool:
    """Whether the top Hodge piece is one-sided for the fixed CM-type."""
    return not top_offenders(structure, structure.weight)


def tensor(left: CMHodgeStructure, right: CMHodgeStructure) -> CMHodgeStructure:
    """Graded tensor product; residues add mod d."""
    if left.field.d != right.field.d:
        raise FieldMismatchError(
            f"cannot tensor structures over d={left.field.d} and d={right.field.d}"
        )
    d = left.field.d
    table: dict[tuple[int, int], int] = {}
    for (p1, a1), dim1 in left._table.items():
        for (p2, a2), dim2 in right._table.items():
            key = (p1 + p2, (a1 + a2) % d)
            table[key] = table.get(key, 0) + dim1 * dim2
    return CMHodgeStructure(left.field, left.weight + right.weight, table)


def tensor_invariants(
    left: CMHodgeStructure,
    right: CMHodgeStructure,
    rule: str = "sum",
) -> CMHodgeStructure:
    """Sub-structure of left (x) right cut out by a residue matching rule,
    graded by the left-hand residue (the surviving quotient action).

    rule="sum" keeps pairs with a + b = 0 mod d (invariants of the
    product automorphism); rule="difference" keeps a = b mod d
    (invariants of alpha (x) zeta^{-1}).
    """
    if left.field.d != right.field.d:
        raise FieldMismatchError("matching rule needs a common field")
    d = left.field.d
    table: dict[tuple[int, int], int] = {}
    for (p1, a1), dim1 in left._table.items():
        if rule == "sum":
            b = (-a1) % d
        elif rule == "difference":
            b = a1
        else:
            raise ValueError(f"unknown matching rule {rule!r}")
        for p2 in range(right.weight + 1):
            dim2 = right.entry(p2, b)
            if dim2:
                key = (p1 + p2, a1)
                table[key] = table.get(key, 0) + dim1 * dim2
    return CMHodgeStructure(left.field, left.weight + right.weight, table)


def collapse_residues(structure: CMHodgeStructure) -> CMHodgeStructure:
    """Forget the residue grading: all mass moves to residue 0."""
    table: dict[tuple[int, int], int] = {}
    for (p, _), dim in structure._table.items():
        table[(p, 0)] = table.get((p, 0), 0) + dim
    return CMHodgeStructure(structure.field, structure.weight, table)


def direct_sum(*structures: CMHodgeStructure) -> CMHodgeStructure:
    if not structures:
        raise ValueError("direct sum of nothing")
    first = structures[0]
    if any(
        s.field.d != first.field.d or s.weight != first.weight for s in structures
    ):
        raise FieldMismatchError("summands must share degree and weight")
    table: dict[tuple[int, int], int] = {}
    for s in structures:
        for key, dim in s._table.items():
            table[key] = table.get(key, 0) + dim
    return CMHodgeStructure(first.field, first.weight, table)


def abelian_summary(structure: CMHodgeStructure) -> AbelianSummary:
    """Dimension and CM signature of the abelian variety attached to a
    weight-one structure supported on units."""
    if structure.weight != 1:
        raise NotWeightOneError(
            f"abelian summary needs weight 1, got {structure.weight}"
        )
    if structure.rank % 2:
        raise MalformedStructureError("weight-one structure of odd rank")
    _require_unit_support(structure, "abelian summary")
    field = structure.field
    dim = structure.rank // 2
    signature = {
        a: (structure.entry(1, a), structure.entry(1, field.d - a))
        for a in sorted(field.sigma0)
    }
    if sum(m + mbar for (m, mbar) in signature.values()) != dim:
        raise InvariantError(f"CM signature {signature} does not add up to dim {dim}")
    return AbelianSummary(dim_abelian=dim, signature=signature)

"""The half-twist calculus on CM-graded Hodge structures.

A structure of weight w with an action of the d-th cyclotomic field is
one Hodge vector per residue a mod d, (h^{0,w}_a, ..., h^{w,0}_a): entry
p is the dimension of the subspace of bidegree (p, w - p) on which the
order-d automorphism acts through the a-th embedding.  Tensoring may
give non-unit residues (including 0); a cyclic cover gives units only.

Every operation is exact and acts on whole vectors: conjugation
symmetry puts the reversed vector at -a, a Tate twist slices or pads
every vector, a half twist moves the sigma0 vectors only, tensor
products convolve and sums add.  Every tensor the covers build has a
weight-one factor (the Fermat curve's H^1 or K_{-1/2}), and convolving
with a vector of length 2 takes one pass; longer factors go through
the general loop, which tier-1 compares the one-pass route with.
Symmetry is checked once per conjugate pair {a, -a}, from its lower
residue.
A structure is built from its vectors only; the (p, a) table view
(`table`, `entry`) and the read-only `vectors` view serve callers
outside the module.  `k_minus_half` is built once per field.

The positive half twist exists exactly when the top Hodge piece is
one-sided: no residue outside the CM-type sigma0 carries dimension
there.  `top_offenders` is the one definition of that test; the
predicate `has_positive_half_twist`, the error of `pos_half_twist` and
the cover predicates of `covers` all read it.  Likewise
`ladder_commutations` is the one comparison of the half twist with Tate
twists: it reads a `tate_ladder`, one walk over the Tate twists V(m),
m = 0..(lowest Hodge index), that half-twists each rung once, so a
caller that needs the rungs too (the round-trip sweep check) shares the
walk instead of twisting again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, product, repeat
from operator import add, mul
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .cyclotomic import CyclotomicData, InvariantError, conjugate_residue

Vector = tuple[int, ...]  # entry p: the dimension at Hodge index p


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
    """Hodge vectors {a: (h^{0,w}_a, ..., h^{w,0}_a)}, all-zero ones
    dropped, of an effective weight-w structure with residue grading.

    Built from `vectors` of length w + 1 keyed by residues 0..d-1; a key
    outside that range, a vector of another length, a negative dimension
    and, unless check_symmetry is False, a break of conjugation symmetry
    raise MalformedStructureError.  Equality is exact equality of
    (d, weight, vectors), with no isogeny coarsening."""

    def __init__(
        self,
        field: CyclotomicData,
        weight: int,
        vectors: Mapping[int, Sequence[int]],
        check_symmetry: bool = True,
    ):
        if weight < 0:
            raise MalformedStructureError(f"weight must be >= 0, got {weight}")
        self.field, self.weight, self._vectors = field, weight, {}
        for a, vec in vectors.items():
            if not 0 <= a < field.d:
                raise MalformedStructureError(f"residue {a} outside 0..{field.d - 1}")
            if len(vec) != weight + 1 or min(vec) < 0:
                raise MalformedStructureError(_not_effective(vec, a, weight))
            if any(vec):
                self._vectors[a] = tuple(vec)
        if check_symmetry and not self.is_conjugation_symmetric():
            raise MalformedStructureError("table breaks conjugation symmetry")

    @property
    def table(self) -> dict[tuple[int, int], int]:
        vectors = self._vectors.items()
        return {(p, a): x for a, vec in vectors for p, x in enumerate(vec) if x}

    @property
    def vectors(self) -> Mapping[int, Vector]:
        return MappingProxyType(self._vectors)

    @property
    def rank(self) -> int:
        return sum(map(sum, self._vectors.values()))

    def entry(self, p: int, a: int) -> int:
        vec = self._vectors.get(a % self.field.d)
        return vec[p] if vec is not None and 0 <= p <= self.weight else 0

    def residues(self) -> frozenset[int]:
        return frozenset(self._vectors)

    def hodge_numbers(self) -> dict[int, int]:
        """Residue-blind Hodge numbers p -> h^{p, weight-p}, nonzero only."""
        columns = map(sum, zip(*self._vectors.values()))
        return {p: dim for p, dim in enumerate(columns) if dim}

    def is_conjugation_symmetric(self) -> bool:
        # each conjugate pair {a, d - a} is compared once, from its lower
        # residue (0 and d/2 with their own reverse); an upper residue
        # needs only its partner to be present
        vectors, d = self._vectors, self.field.d
        return all(
            vectors.get(-a % d) == vec[::-1] if 2 * a <= d else d - a in vectors
            for a, vec in vectors.items()
        )

    def restrict_residues(self, residues: Iterable[int]) -> "CMHodgeStructure":
        keep = {a % self.field.d for a in residues}
        symmetric = all(conjugate_residue(self.field, a) in keep for a in keep)
        vectors = {a: vec for a, vec in self._vectors.items() if a in keep}
        return CMHodgeStructure(self.field, self.weight, vectors, symmetric)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CMHodgeStructure):
            return NotImplemented
        return (self.field.d, self.weight, self._vectors) == (
            other.field.d, other.weight, other._vectors
        )

    def __hash__(self):
        return hash((self.field.d, self.weight, frozenset(self._vectors.items())))

    def __repr__(self) -> str:
        d, w = self.field.d, self.weight
        return f"CMHodgeStructure(d={d}, weight={w}, rank={self.rank})"


def _not_effective(vec: Sequence[int], a: int, weight: int) -> str:
    """Why the vector at residue a is rejected: the whole vector when
    its length is wrong, else its first negative entry."""
    if len(vec) != weight + 1:
        return f"not effective: {vec} at residue {a}"
    p = next(p for p, x in enumerate(vec) if x < 0)
    return f"not effective: entry (p={p}, residue={a}) = {vec[p]}"


def _summed(pairs: Iterable[tuple[int, Sequence[int]]]) -> dict[int, list[int]]:
    """Hodge vectors added up by residue."""
    out: dict[int, list[int]] = {}
    for a, vec in pairs:
        out[a] = list(map(add, out[a], vec)) if a in out else list(vec)
    return out


def _trimmed(vec: Vector, low: int, high: int) -> Vector:
    """`vec` cut by `low` entries at the bottom and `high` at the top, a
    negative count padding zeros instead; a cut nonzero fails effectivity."""
    cut_low, cut_high = max(low, 0), len(vec) - max(high, 0)
    if any(vec[:cut_low]) or any(vec[max(cut_low, cut_high):]):
        raise MalformedStructureError(f"shifting {vec} drops an entry (not effective)")
    return (0,) * -low + vec[cut_low:cut_high] + (0,) * -high


def _convolve(x: Vector, y: Vector) -> list[int]:
    """The Hodge vector of a tensor product: the coefficients of the
    product of the polynomials with coefficients x and y.  A weight-one
    factor (c0, c1), the Fermat curve's H^1 or K_{-1/2} in every tensor
    the covers build, takes one pass: c0 * (x, 0) + c1 * (0, x)."""
    if len(x) == 2:
        x, y = y, x
    if len(y) == 2:
        c0, c1 = y
        return [a * c0 + b * c1 for a, b in zip(chain(x, (0,)), chain((0,), x))]
    return _convolve_by_slices(x, y)


def _convolve_by_slices(x: Vector, y: Vector) -> list[int]:
    """`_convolve` for factors of any length: x scaled by each nonzero
    coefficient of y, added in at its shift.  The only route for two
    factors longer than 2, and the reference for the one-pass route."""
    out = [0] * (len(x) + len(y) - 1)
    for shift, c in enumerate(y):
        if c:
            window = slice(shift, shift + len(x))
            out[window] = map(add, out[window], map(mul, x, repeat(c)))
    return out


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
    elif actual._vectors == expected._vectors:
        return
    else:
        left, right = actual.table, expected.table
        p, a = min(k for k in left.keys() | right.keys() if left.get(k) != right.get(k))
        x, y = left.get((p, a), 0), right.get((p, a), 0)
        diff = f"entry (p={p}, residue={a}): {x} != {y}"
    raise ValueError(f"{context}: {diff}")


def level(structure: CMHodgeStructure) -> int:
    """max |2p - k| over nonzero entries; level <= 1 means abelian type."""
    numbers = structure.hodge_numbers()
    if not numbers:
        raise EmptyStructureError("level of an empty structure is undefined")
    return max(abs(2 * p - structure.weight) for p in numbers)


def tate_twist(structure: CMHodgeStructure, m: int) -> CMHodgeStructure:
    """Shift weight by -2m and every Hodge index by -m: each vector loses
    m entries at either end (m > 0) or gains m zeros there (m < 0).  A
    nonzero entry lost at the bottom is a TwistRangeError; one lost at
    the top, which conjugation symmetry rules out, fails effectivity."""
    vectors = structure._vectors
    if m > 0 and any(any(vec[:m]) for vec in vectors.values()):
        low = min(structure.hodge_numbers())
        raise TwistRangeError(f"twist by {m} would leave effectivity (min p = {low})")
    vectors = {a: _trimmed(vec, m, m) for a, vec in vectors.items()}
    return CMHodgeStructure(structure.field, structure.weight - 2 * m, vectors)


@cache
def k_minus_half(field: CyclotomicData) -> CMHodgeStructure:
    """Weight-one structure of an abelian variety with CM by the field:
    tangent directions exactly on the sigma0 embeddings.  Built once
    per field, since structures are immutable."""
    sigma0 = field.sigma0
    vectors = {a: (0, 1) for a in sigma0} | {field.d - a: (1, 0) for a in sigma0}
    return CMHodgeStructure(field, 1, vectors)


def _require_unit_support(structure: CMHodgeStructure, op: str) -> None:
    # twists shift the sigma0 side against its conjugate side, so they
    # need the field to act through embeddings: unit residues only
    stray = structure.residues() - frozenset(structure.field.units)
    if stray:
        raise MalformedStructureError(f"{op} needs unit residues only: {sorted(stray)}")


def _shift_sigma0(structure: CMHodgeStructure, step: int) -> CMHodgeStructure:
    # weight and the sigma0 vectors move by step, the conjugate side stays:
    # sigma0 vectors are padded or cut at the bottom, the others at the top
    sigma0 = structure.field.sigma0
    vectors = {
        a: _trimmed(vec, -step, 0) if a in sigma0 else _trimmed(vec, 0, -step)
        for a, vec in structure._vectors.items()
    }
    return CMHodgeStructure(structure.field, structure.weight + step, vectors)


def neg_half_twist(structure: CMHodgeStructure) -> CMHodgeStructure:
    """Weight k+1 structure on the same space: the sigma0 vectors move
    up one Hodge step, the conjugate side keeps its p."""
    _require_unit_support(structure, "negative half twist")
    return _shift_sigma0(structure, 1)


def pos_half_twist(structure: CMHodgeStructure) -> CMHodgeStructure:
    """Weight k-1 structure: sigma0 vectors drop one Hodge step.

    Defined only when the top piece is one-sided, i.e. carries no
    residue outside sigma0; otherwise the dropped entries would leave
    no Hodge structure at all.  A sigma0 entry at p = 0, which symmetry
    rules out once the top is one-sided, fails effectivity."""
    _require_unit_support(structure, "positive half twist")
    k = structure.weight
    offending = [(k, a) for a in top_offenders(structure, k)]
    if offending:
        raise NoHalfTwistError(f"top Hodge piece is not one-sided at {offending}")
    return _shift_sigma0(structure, -1)


def top_offenders(structure: CMHodgeStructure, p: int) -> list[int]:
    """The residues outside sigma0 that carry dimension at Hodge index p,
    ascending.  The top piece is one-sided when there are none at
    p = weight."""
    sigma0 = structure.field.sigma0
    return sorted(a for a in structure.residues() - sigma0 if structure.entry(p, a))


# rung m of a Tate ladder: (tate_twist(V, m), its positive half twist or None)
Rung = tuple[CMHodgeStructure, Optional[CMHodgeStructure]]


def tate_ladder(structure: CMHodgeStructure) -> list[Rung]:
    """The rungs m = 0..(lowest Hodge index of V) of the Tate ladder of V,
    where every Tate twist is defined: rung m is (tate_twist(V, m), its
    positive half twist), with None for a half twist that NoHalfTwistError
    marks as undefined; any other error propagates.  Rung 0 is V itself,
    and each structure on the ladder is half-twisted once."""
    rungs = []
    for m in range(min(structure.hodge_numbers(), default=0) + 1):
        lowered = tate_twist(structure, m) if m else structure
        try:
            rungs.append((lowered, pos_half_twist(lowered)))
        except NoHalfTwistError:
            rungs.append((lowered, None))
    return rungs


def ladder_commutations(rungs: list[Rung]) -> int:
    """How many rungs m of a Tate ladder (`tate_ladder`) have both
    composites pos_half_twist(tate_twist(V, m)) and
    tate_twist(pos_half_twist(V), m) defined; ValueError at the first such
    m where they differ.  The second composite Tate-twists rung 0's half
    twist, and only a TwistRangeError marks it undefined.  Without a half
    twist of V no m has both composites; with one, m = 0 counts without a
    comparison, since tate_twist(X, 0) is X itself."""
    twisted = rungs[0][1]
    if twisted is None:
        return 0
    compared = 1
    for m, (_, lhs) in enumerate(rungs[1:], start=1):
        if lhs is None:
            continue
        try:
            rhs = tate_twist(twisted, m)
        except TwistRangeError:
            continue
        if lhs != rhs:
            raise ValueError(f"twist/Tate commutation fails at m={m}")
        compared += 1
    return compared


def tate_commutations(structure: CMHodgeStructure) -> int:
    """`ladder_commutations` on the Tate ladder of `structure`, for a
    caller that does not hold the ladder."""
    return ladder_commutations(tate_ladder(structure))


def has_positive_half_twist(structure: CMHodgeStructure) -> bool:
    """Whether the top Hodge piece is one-sided for the fixed CM-type."""
    return not top_offenders(structure, structure.weight)


def tensor(left: CMHodgeStructure, right: CMHodgeStructure) -> CMHodgeStructure:
    """Graded tensor product: residues add mod d, vectors convolve."""
    if left.field.d != right.field.d:
        raise FieldMismatchError(
            f"cannot tensor structures over d={left.field.d} and d={right.field.d}"
        )
    d, pairs = left.field.d, product(left._vectors.items(), right._vectors.items())
    vectors = _summed(((a + b) % d, _convolve(x, y)) for (a, x), (b, y) in pairs)
    return CMHodgeStructure(left.field, left.weight + right.weight, vectors)


def tensor_invariants(
    left: CMHodgeStructure, right: CMHodgeStructure, rule: str = "sum"
) -> CMHodgeStructure:
    """Sub-structure of left (x) right cut out by a residue matching rule,
    graded by the left-hand residue (the surviving quotient action): the
    vector at a is left[a] convolved with right[-a] for rule="sum"
    (invariants of the product automorphism), with right[a] for
    rule="difference" (invariants of alpha (x) zeta^{-1})."""
    if left.field.d != right.field.d:
        raise FieldMismatchError("matching rule needs a common field")
    if rule not in ("sum", "difference"):
        raise ValueError(f"unknown matching rule {rule!r}")
    d, sign = left.field.d, -1 if rule == "sum" else 1
    pairs = ((a, x, right._vectors.get(sign * a % d)) for a, x in left._vectors.items())
    vectors = {a: _convolve(x, y) for a, x, y in pairs if y}
    return CMHodgeStructure(left.field, left.weight + right.weight, vectors)


def collapse_residues(structure: CMHodgeStructure) -> CMHodgeStructure:
    """Forget the residue grading: all vectors add up at residue 0."""
    vectors = _summed((0, vec) for vec in structure._vectors.values())
    return CMHodgeStructure(structure.field, structure.weight, vectors)


def direct_sum(*structures: CMHodgeStructure) -> CMHodgeStructure:
    if not structures:
        raise ValueError("direct sum of nothing")
    first = structures[0]
    if any(
        s.field.d != first.field.d or s.weight != first.weight for s in structures
    ):
        raise FieldMismatchError("summands must share degree and weight")
    vectors = _summed(pair for s in structures for pair in s._vectors.items())
    return CMHodgeStructure(first.field, first.weight, vectors)


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

"""The half-twist calculus on CM-graded Hodge structures.

A structure of weight w with an action of the d-th cyclotomic field has
one Hodge vector per residue a mod d, (h^{0,w}_a, ..., h^{w,0}_a): entry
p is the dimension of the subspace of bidegree (p, w - p) on which the
order-d automorphism acts through the a-th embedding.  Tensoring may
give non-unit residues (including 0); a cyclic cover gives units only.

A structure is stored as one flat p-major list over the residues
1..d-1, entry (p, a) at p(d - 1) + a - 1, and residue 0's vector on its
own.  Conjugation, (p, a) -> (w - p, -a), takes the index
p(d - 1) + a - 1 to (w - p)(d - 1) + (d - a) - 1, and the two add up to
the last index: conjugation is the reversal of the list, and symmetry
is `rows == rows[::-1]`.  Every operation is exact and acts on whole
lists: effectivity is one `min` over the first half of symmetric rows,
a Tate twist slices or pads d - 1 entries per Hodge index, a half twist
moves the columns (one residue's vector each) that the field's sigma0
mask picks by one row (`_moved_columns`), restriction keeps columns,
Hodge numbers are row sums and a direct sum adds the lists.
`tensor_invariants` with a weight-one factor whose residue vectors are
all (0, 0), (1, 0) or (0, 1), such as K_{-1/2}, moves columns the same
way: each column of the left rows moves up one row, stays or empties.
With any other factor, such as the Fermat curve's H^1 for d >= 4 (at
d = 3 it has K_{-1/2}'s table), it adds one shifted copy of the left
rows per Hodge index of the factor, times that row of coefficients
(`_masked_copies`, the tier-1 oracle of the column route).  Only the
general `tensor`, whose residues add, works one residue vector at a
time.  Every construction goes through the constructor and its one
validation, given residue vectors or the flat pair, which makes every
structure effective and conjugation symmetric: no operation guards
against broken input, and a kernel fault still raises.  `row(p)`,
the entries at Hodge index p by residue, is the one read of the flat
rows by index: `entry(p, a)` is `row(p)[a]`, and `top_offenders`,
`abelian_summary` and callers outside the module read whole rows
through it.  The (p, a) table view `table` and the read-only
`vectors` view read columns, one residue's vector each.
`k_minus_half` is built once per field.
A structure lives over one field, its degree and CM-type sigma0: over
two fields structures differ, and combining them is a
FieldMismatchError naming the degree or CM-type that differs.

The positive half twist exists exactly when the top Hodge piece is
one-sided: no residue outside the CM-type sigma0 carries dimension
there.  `top_offenders` is the one definition of that test; the
predicate `has_positive_half_twist`, the error of `pos_half_twist`,
`tate_ladder` and the cover predicates of `covers` all read it.
Likewise `ladder_commutations` is the one comparison of the half twist
with Tate twists: it reads a `tate_ladder`, one walk over the Tate
twists V(m), m = 0..(lowest Hodge index), that checks unit support once
and lowers each rung with a one-sided top piece once.  A cover holds its
ladder (`CoverSpec.ladder`), so the round-trip check and the ledger's
commutation claim read one walk instead of twisting again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import chain, compress, cycle, product, repeat
from operator import add, mul
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .cyclotomic import CyclotomicData, InvariantError

Vector = tuple[int, ...]  # entry p: the dimension at Hodge index p
# (rows, zero): rows p-major over residues 1..d-1, entry (p, a) at
# p(d - 1) + a - 1; zero the vector of residue 0, [] when it vanishes
Flat = tuple[list[int], list[int]]


class EmptyStructureError(ValueError):
    """Operation undefined on a structure with an empty table."""


class TwistRangeError(ValueError):
    """A Tate twist would push an entry below Hodge index 0."""


class NoHalfTwistError(ValueError):
    """Top Hodge piece is not one-sided for the fixed CM-type."""


class FieldMismatchError(ValueError):
    """Operands live over fields of different degree or CM-type."""


class NotWeightOneError(ValueError):
    """Abelian-variety summary requested for a weight != 1 structure."""


class MalformedStructureError(ValueError):
    """Table violates effectivity or conjugation symmetry."""


class CMHodgeStructure:
    """An effective weight-w structure with residue grading, stored flat:
    `_rows` holds h^{p,w-p}_a at p(d - 1) + a - 1 for a = 1..d-1, so
    each Hodge index is one row of d - 1 entries and conjugation,
    (p, a) -> (w - p, -a), is the reversal of the list; `_zero` holds
    residue 0's vector, or [] when it vanishes.

    Built from `vectors`: residue vectors of length w + 1 keyed by
    0..d-1, or the flat pair (rows, zero).  A key outside that range, a
    vector of another length, a negative dimension and a break of
    conjugation symmetry, h^{p,w-p}_a != h^{w-p,p}_{-a}, raise
    MalformedStructureError.  Equality is exact equality of (field,
    weight, table), with no isogeny coarsening."""

    def __init__(
        self,
        field: CyclotomicData,
        weight: int,
        vectors: Union[Mapping[int, Sequence[int]], Flat],
    ):
        if weight < 0:
            raise MalformedStructureError(f"weight must be >= 0, got {weight}")
        self.field, self.weight = field, weight
        if isinstance(vectors, tuple):
            rows, zero = vectors
        else:
            rows, zero = _flattened(field.d, weight, vectors)
        self._rows, self._zero = rows, zero if any(zero) else []
        if len(rows) != (weight + 1) * (field.d - 1) or (
            self._zero and len(zero) != weight + 1
        ):
            raise MalformedStructureError(self._not_effective())
        # (p, a) and its conjugate (w - p, -a) sit at mirrored indices of
        # the rows, so symmetric rows hold every value in their first
        # half; residue 0 is its own conjugate.  An asymmetric table is
        # scanned whole, and a negative entry still names it not effective
        symmetric = rows == rows[::-1] and self._zero == self._zero[::-1]
        scanned = rows[:(len(rows) + 1) // 2] if symmetric else rows
        if min(scanned) < 0 or self._zero and min(zero) < 0:
            raise MalformedStructureError(self._not_effective())
        if not symmetric:
            raise MalformedStructureError(self._not_symmetric())

    def _not_effective(self) -> str:
        """Why the stored lists are rejected: their sizes when those are
        wrong, else the first negative entry of the first residue that
        has one."""
        rows, zero, w, d = self._rows, self._zero, self.weight, self.field.d
        if len(rows) != (w + 1) * (d - 1) or zero and len(zero) != w + 1:
            return f"not effective: {len(rows)} and {len(zero)} entries for weight {w}"
        a, p, x = next(
            (a, p, x) for a in range(d) for p, x in enumerate(self._vector(a)) if x < 0
        )
        return f"not effective: entry (p={p}, residue={a}) = {x}"

    def _not_symmetric(self) -> str:
        """The symmetry error: the first entry, by residue and then by p,
        whose conjugate differs, with both dimensions."""
        d, w, entry = self.field.d, self.weight, self.entry
        p, a = next(
            (p, a) for a in range(d) for p in range(w + 1)
            if entry(p, a) != entry(w - p, -a)
        )
        return (
            f"table breaks conjugation symmetry: entry (p={p}, residue={a}) = "
            f"{entry(p, a)}, conjugate (p={w - p}, residue={-a % d}) = "
            f"{entry(w - p, -a)}"
        )

    def _vector(self, a: int) -> Vector:
        if a:
            return tuple(self._rows[a - 1::self.field.d - 1])
        return tuple(self._zero) or (0,) * (self.weight + 1)

    def _residue_vectors(self) -> Iterator[tuple[int, Vector]]:
        """(a, vector) for every residue with a nonzero vector, ascending."""
        vectors = map(self._vector, range(self.field.d))
        return ((a, vec) for a, vec in enumerate(vectors) if any(vec))

    def _columns(self) -> list[int]:
        """h^{p, w-p} summed over all residues, for p = 0..w: row sums."""
        sums = map(sum, zip(*[iter(self._rows)] * (self.field.d - 1)))
        return list(map(add, sums, self._zero or repeat(0)))

    @property
    def table(self) -> dict[tuple[int, int], int]:
        vectors = self._residue_vectors()
        return {(p, a): x for a, vec in vectors for p, x in enumerate(vec) if x}

    @property
    def vectors(self) -> Mapping[int, Vector]:
        return MappingProxyType(dict(self._residue_vectors()))

    @property
    def rank(self) -> int:
        return sum(self._rows) + sum(self._zero)

    def entry(self, p: int, a: int) -> int:
        return self.row(p)[a % self.field.d]

    def row(self, p: int) -> list[int]:
        """The entries at Hodge index p by residue a = 0..d-1, zeros
        outside 0..weight: one slice of the rows, after residue 0's
        entry.  The one read of the flat rows by Hodge index."""
        width = self.field.d - 1
        if not 0 <= p <= self.weight:
            return [0] * (width + 1)
        zero = self._zero[p] if self._zero else 0
        return [zero, *self._rows[p * width:(p + 1) * width]]

    def hodge_numbers(self) -> dict[int, int]:
        """Residue-blind Hodge numbers p -> h^{p, weight-p}, nonzero only."""
        return {p: dim for p, dim in enumerate(self._columns()) if dim}

    def restrict_residues(self, residues: Iterable[int]) -> "CMHodgeStructure":
        """The sub-structure on the given residues mod d; keeping a nonzero
        vector without its conjugate is a MalformedStructureError."""
        d, width = self.field.d, self.field.d - 1
        keep = {a % d for a in residues}
        rows = [0] * len(self._rows)
        for a in keep - {0}:
            rows[a - 1::width] = self._rows[a - 1::width]
        zero = self._zero if 0 in keep else []
        return CMHodgeStructure(self.field, self.weight, (rows, zero))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CMHodgeStructure):
            return NotImplemented
        return (self.field, self.weight, self._rows, self._zero) == (
            other.field, other.weight, other._rows, other._zero
        )

    def __hash__(self):
        rows, zero = tuple(self._rows), tuple(self._zero)
        return hash((self.field, self.weight, rows, zero))

    def __repr__(self) -> str:
        field, w = self.field, self.weight
        return (
            f"CMHodgeStructure(d={field.d}, sigma0={sorted(field.sigma0)}, "
            f"weight={w}, rank={self.rank})"
        )


def _flattened(d: int, weight: int, vectors: Mapping[int, Sequence[int]]) -> Flat:
    """The flat pair of residue vectors keyed by 0..d-1; a key outside
    that range or a vector of another length than weight + 1 is a
    MalformedStructureError naming it."""
    rows, zero = [0] * ((weight + 1) * (d - 1)), []
    for a, vec in vectors.items():
        if not 0 <= a < d:
            raise MalformedStructureError(f"residue {a} outside 0..{d - 1}")
        if len(vec) != weight + 1:
            raise MalformedStructureError(f"not effective: {vec} at residue {a}")
        if a:
            rows[a - 1::d - 1] = vec
        else:
            zero = list(vec)
    return rows, zero


def _summed(pairs: Iterable[tuple[int, Sequence[int]]]) -> dict[int, list[int]]:
    """Hodge vectors added up by residue."""
    out: dict[int, list[int]] = {}
    for a, vec in pairs:
        out[a] = list(map(add, out[a], vec)) if a in out else list(vec)
    return out


def _shifted(rows: list[int], width: int, m: int) -> list[int]:
    """`rows`, `width` entries per Hodge index, cut by m indices at both
    ends, or padded by -m zero indices there when m is negative."""
    cut, pad = max(m, 0) * width, [0] * (-m * width)
    return pad + rows[cut:len(rows) - cut] + pad


def _convolve(x: Vector, y: Vector) -> list[int]:
    """The Hodge vector of a tensor product, for the general `tensor`
    and for residue 0: the coefficients of the product of the
    polynomials with coefficients x and y, x scaled by each nonzero
    coefficient of y and added in at its shift."""
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


def _field_difference(left: CyclotomicData, right: CyclotomicData) -> str:
    """What sets two different fields apart: the degree, else the CM-type."""
    if left.d != right.d:
        return f"degree {left.d} != {right.d}"
    return f"CM-type {sorted(left.sigma0)} != {sorted(right.sigma0)}"


def _common_field(op: str, *structures: CMHodgeStructure) -> CyclotomicData:
    """The one field of the operands of `op`; a FieldMismatchError that
    names the first difference when another operand's field differs."""
    field = structures[0].field
    for other in structures[1:]:
        if other.field != field:
            diff = _field_difference(field, other.field)
            raise FieldMismatchError(f"{op} needs one field: {diff}")
    return field


def require_equal(
    actual: CMHodgeStructure, expected: CMHodgeStructure, context: str
) -> None:
    """ValueError unless the structures are equal.  The message names
    the first difference only: the degree, the CM-type, the weight, or
    the first differing (p, residue) entry with both dimensions."""
    if actual == expected:
        return
    if actual.field != expected.field:
        diff = _field_difference(actual.field, expected.field)
    elif actual.weight != expected.weight:
        diff = f"weight {actual.weight} != {expected.weight}"
    else:
        p, a = next(
            (p, a)
            for p in range(actual.weight + 1)
            for a in range(actual.field.d)
            if actual.entry(p, a) != expected.entry(p, a)
        )
        x, y = actual.entry(p, a), expected.entry(p, a)
        diff = f"entry (p={p}, residue={a}): {x} != {y}"
    raise ValueError(f"{context}: {diff}")


def level(structure: CMHodgeStructure) -> int:
    """max |2p - k| over nonzero entries; level <= 1 means abelian type."""
    numbers = structure.hodge_numbers()
    if not numbers:
        raise EmptyStructureError("level of an empty structure is undefined")
    return max(abs(2 * p - structure.weight) for p in numbers)


def tate_twist(structure: CMHodgeStructure, m: int) -> CMHodgeStructure:
    """Shift weight by -2m and every Hodge index by -m: the rows lose m
    Hodge indices, m(d - 1) entries, at either end (m > 0) or gain m
    zero rows there (m < 0), and so does residue 0's vector.  A nonzero
    entry lost at the bottom is a TwistRangeError; by conjugation
    symmetry the top then loses none."""
    rows, zero, width = structure._rows, structure._zero, structure.field.d - 1
    if m > 0 and (any(rows[:m * width]) or any(zero[:m])):
        low = min(structure.hodge_numbers())
        raise TwistRangeError(f"twist by {m} would leave effectivity (min p = {low})")
    rows, zero = _shifted(rows, width, m), _shifted(zero, 1, m)
    return CMHodgeStructure(structure.field, structure.weight - 2 * m, (rows, zero))


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
    rows, width = structure._rows, structure.field.d - 1
    stray = [a for a in structure.field.nonunits if any(rows[a - 1::width])]
    if structure._zero or stray:
        stray = [0] * bool(structure._zero) + stray
        raise MalformedStructureError(f"{op} needs unit residues only: {stray}")


def _moved_columns(
    rows: list[int], width: int, step: int, moves: Iterable[int], stays: Sequence[int]
) -> list[int]:
    """`rows`, `width` entries per Hodge index, with step Hodge indices
    more (fewer when step < 0), built column by column: column i, one
    residue's vector, is copied whole, shifted by step rows when
    moves[i], else in place when stays[i], else left empty.  A lowering
    step drops the bottom row of a moved column and the top row of a
    kept one."""
    out = [0] * (len(rows) + step * width)
    up, down = max(step, 0) * width, max(-step, 0) * width
    for i, move in enumerate(moves):
        if move:
            out[up + i::width] = rows[down + i::width]
        elif stays[i]:
            out[i:len(rows):width] = rows[i:len(out):width]
    return out


def _shift_sigma0(structure: CMHodgeStructure, step: int) -> CMHodgeStructure:
    # weight and the sigma0 columns move by step rows, the conjugate side
    # stays; a lowering step drops rows that are empty when the top is
    # one-sided.  Unit support is the callers' check, so residue 0 is empty
    field = structure.field
    rows = _moved_columns(
        structure._rows, field.d - 1, step, field.sigma0_mask, field.other_mask
    )
    return CMHodgeStructure(field, structure.weight + step, (rows, []))


def neg_half_twist(structure: CMHodgeStructure) -> CMHodgeStructure:
    """Weight k+1 structure on the same space: the sigma0 vectors move
    up one Hodge step, the conjugate side keeps its p."""
    _require_unit_support(structure, "negative half twist")
    return _shift_sigma0(structure, 1)


def pos_half_twist(structure: CMHodgeStructure) -> CMHodgeStructure:
    """Weight k-1 structure: sigma0 vectors drop one Hodge step.

    Defined only when the top piece is one-sided, i.e. carries no
    residue outside sigma0; otherwise the dropped entries would leave
    no Hodge structure at all.  By conjugation symmetry the sigma0
    entries at p = 0 then vanish too, so no entry is lost."""
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
    field, row = structure.field, structure.row(p)
    outside = compress(range(1, field.d), map(mul, row[1:], field.other_mask))
    return [0] * bool(row[0]) + list(outside)


# rung m of a Tate ladder: (tate_twist(V, m), its positive half twist or None)
Rung = tuple[CMHodgeStructure, Optional[CMHodgeStructure]]


def tate_ladder(structure: CMHodgeStructure) -> list[Rung]:
    """The rungs m = 0..(lowest Hodge index of V) of the Tate ladder of V,
    where every Tate twist is defined: rung m is (tate_twist(V, m), its
    positive half twist), with None where the half twist is undefined,
    that is where the rung's top piece has `top_offenders`.  Tate twists
    keep the support, so unit support is checked once, for V, and its
    error propagates; each rung's top piece is read once, and a
    one-sided rung is lowered once.  Rung 0 is V itself."""
    _require_unit_support(structure, "positive half twist")
    rungs = []
    for m in range(min(structure.hodge_numbers(), default=0) + 1):
        rung = tate_twist(structure, m) if m else structure
        one_sided = not top_offenders(rung, rung.weight)
        rungs.append((rung, _shift_sigma0(rung, -1) if one_sided else None))
    return rungs


def ladder_commutations(rungs: list[Rung]) -> int:
    """How many rungs m of a Tate ladder (`tate_ladder`) have both
    composites pos_half_twist(tate_twist(V, m)) and
    tate_twist(pos_half_twist(V), m) defined; ValueError at the first such
    m where they differ.  The second composite Tate-twists rung 0's half
    twist, and is defined wherever the first is: a twist at rung m leaves
    V, by conjugation symmetry, no sigma0 entry at index m or below.
    Without a half twist of V no m has both composites; with one, m = 0
    counts without a comparison, since tate_twist(X, 0) is X itself."""
    twisted = rungs[0][1]
    if twisted is None:
        return 0
    compared = 1
    for m, (_, lhs) in enumerate(rungs[1:], start=1):
        if lhs is None:
            continue
        if lhs != tate_twist(twisted, m):
            raise ValueError(f"twist/Tate commutation fails at m={m}")
        compared += 1
    return compared


def has_positive_half_twist(structure: CMHodgeStructure) -> bool:
    """Whether the top Hodge piece is one-sided for the fixed CM-type."""
    return not top_offenders(structure, structure.weight)


def tensor(left: CMHodgeStructure, right: CMHodgeStructure) -> CMHodgeStructure:
    """Graded tensor product: residues add mod d, vectors convolve."""
    field = _common_field("tensor", left, right)
    d, pairs = field.d, product(left._residue_vectors(), right._residue_vectors())
    vectors = _summed(((a + b) % d, _convolve(x, y)) for (a, x), (b, y) in pairs)
    return CMHodgeStructure(field, left.weight + right.weight, vectors)


def tensor_invariants(
    left: CMHodgeStructure, right: CMHodgeStructure, rule: str = "sum"
) -> CMHodgeStructure:
    """Sub-structure of left (x) right cut out by a residue matching rule,
    graded by the left-hand residue (the surviving quotient action): the
    vector at a is left[a] convolved with right[-a] for rule="sum"
    (invariants of the product automorphism), with right[a] for
    rule="difference" (invariants of alpha (x) zeta^{-1}).

    On the rows: when the right factor has weight one and each of its
    columns, the vectors of residues 1..d-1, is (0, 0), (1, 0) or
    (0, 1), as K_{-1/2}'s are, each column of the left rows moves up one
    Hodge row, stays in place or empties, as in a half twist
    (`_moved_columns`).  Any other right factor, such as the Fermat
    curve's H^1 for d >= 4, takes `_masked_copies`.  Residue 0 pairs
    with residue 0 under both rules, outside the rows."""
    field = _common_field("tensor_invariants", left, right)
    if rule not in ("sum", "difference"):
        raise ValueError(f"unknown matching rule {rule!r}")
    x, y, width = left._rows, right._rows, field.d - 1
    # unit columns: entries of at most 1, and no column (1, 1)
    if right.weight == 1 and max(y) <= 1 and not any(map(mul, y, y[width:])):
        # column a matches right's vector at a ("difference") or at -a,
        # which by conjugation symmetry is the vector at a upside down
        # ("sum"); its top entry moves the column, its bottom one keeps it
        low, high = y[:width], y[width:]
        moves, stays = (low, high) if rule == "sum" else (high, low)
        rows = _moved_columns(x, width, 1, moves, stays)
    else:
        rows = _masked_copies(x, y, width, rule)
    zero = _convolve(left._zero, right._zero) if left._zero and right._zero else []
    return CMHodgeStructure(field, left.weight + right.weight, (rows, zero))


def _masked_copies(x: list[int], y: list[int], width: int, rule: str) -> list[int]:
    """The rows of `tensor_invariants` for any right factor: each Hodge
    index p of the right rows y adds one copy of the left rows x shifted
    up by p indices, masked entry by entry by y's row p, read backwards
    for "sum" (residue -a) and forwards for "difference" (residue a)."""
    pad, step = [0] * (len(y) - width), -1 if rule == "sum" else 1
    copies = []
    for start in range(0, len(y), width):
        coefficients = cycle(y[start:start + width][::step])
        copies.append(map(mul, chain(pad[:start], x, pad[start:]), coefficients))
    return list(reduce(partial(map, add), copies))


def collapse_residues(structure: CMHodgeStructure) -> CMHodgeStructure:
    """Forget the residue grading: all vectors add up at residue 0, whose
    vector is the row sums."""
    rows = [0] * len(structure._rows)
    return CMHodgeStructure(
        structure.field, structure.weight, (rows, structure._columns())
    )


def direct_sum(*structures: CMHodgeStructure) -> CMHodgeStructure:
    if not structures:
        raise ValueError("direct sum of nothing")
    field, weight = _common_field("direct sum", *structures), structures[0].weight
    for other in structures[1:]:
        if other.weight != weight:
            raise ValueError(f"direct sum needs one weight: {weight} != {other.weight}")
    rows = list(map(sum, zip(*(s._rows for s in structures))))
    zero = list(map(sum, zip(*(s._zero for s in structures if s._zero))))
    return CMHodgeStructure(field, weight, (rows, zero))


def abelian_summary(structure: CMHodgeStructure) -> AbelianSummary:
    """Dimension and CM signature of the abelian variety attached to a
    weight-one structure supported on units."""
    if structure.weight != 1:
        raise NotWeightOneError(
            f"abelian summary needs weight 1, got {structure.weight}"
        )
    _require_unit_support(structure, "abelian summary")
    row, dim = structure.row(1), structure.rank // 2
    signature = {a: (row[a], row[-a]) for a in sorted(structure.field.sigma0)}
    if sum(m + mbar for (m, mbar) in signature.values()) != dim:
        raise InvariantError(f"CM signature {signature} does not add up to dim {dim}")
    return AbelianSummary(dim_abelian=dim, signature=signature)

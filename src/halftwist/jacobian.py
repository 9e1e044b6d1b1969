"""Exact combinatorics of graded Jacobian rings of Fermat-type hypersurfaces.

Everything here is integer or rational arithmetic: bounded-exponent
monomial counts (the graded dimensions of the Jacobian ring of a Fermat
hypersurface), the eigenspace dimension tables of cyclic covers, the
W-ladder quotients of the d = 3 Jacobian ring, and the
fraction-free linear algebra backing the period-map rank computation.

Two production roads lead to the eigenspace counts, and each is the
other's oracle.  Both read a whole table off its generating function,
the polynomial power P^{k+1} with P = 1 + t + ... + t^{d-2}: padded
with k zeros at either end, with every d-th entry deleted, it is the
flat p-major table of all residues' Hodge vectors (`residue_vectors`,
the one thing the roads share).  The series itself comes by one of two
roads, chosen by the shape of the request: for one cover, it is
`power_series`, one exact holonomic recurrence; along a row of fixed d,
`tower_step` takes level k to level k + 1 by one multiplication by P,
since the covers of one degree form a tower (`covers.CoverSpec.up`).
P^{k+1} is a palindrome, and both roads build only its lower half and
mirror it, so every table they give is conjugation-symmetric by
construction and a fault in a lower half cannot show as an asymmetry.
Such faults are caught by comparison: the `oracle-equivalence` sweep
compares the tower's table with the one-pass table of
`eigenspace_dims` on every cell it visits, and tier-1 does so on every
cell of the CLI sweep grid, checks each tower step against a plain
windowed sum, and checks `power_series` against the closed form below.
The entries that `residue_vectors` deletes, `residue_zero_column`, are
the branch locus: those of P^{k+1} are the primitive Hodge numbers of
the degree-d (k - 1)-fold, the column a storey of the tower reads off
its own series and `primitive_hodge_column` off one `power_series`.
Inclusion-exclusion, a closed-form binomial sum per entry
(`count_bounded_monomials`), is the tier-1 oracle of both the tables
and the column, entry by entry.
An exact integer convolution over the tuple entries
(`shioda_tuple_count`) is a second tier-1 test oracle, and is itself
checked against a literal listing of tuples.

Every rank that is eliminated is computed by one sparse fraction-free
eliminator, `sparse_rank`, on rows stored as {column: value} maps;
`exact_rank` is its front end for dense rows.  The matrices of the W
ladder are built straight from their combinatorics and are almost
empty: every relation row of a ladder quotient is a unit vector, and
every column of the Torelli matrix has exactly one nonzero entry.  So
production counts the cubics with a nonempty Torelli row, from a closed
form for the row length, and builds no matrix.  The elimination route,
the oracle, builds the matrix and checks the second fact each time.

The §6.4 cover-map identity is checked on exact integer polynomials
(`Polynomial`, a dict from exponent tuples over L, Q, R, y, u, v to
ints): the cover equation along the map, times L^3, is reduced fully
modulo u^3 and y^6, i.e. every power of u or y at or above the
relation's degree is rewritten, and the result must be zero.  The
package has no runtime dependency outside the standard library.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, combinations, islice
from math import comb, gcd
from operator import sub
from typing import Iterable, Iterator, Mapping, Sequence

from .cyclotomic import InvariantError


class UnsupportedCaseError(ValueError):
    """Arguments outside the hypotheses of the requested computation."""


# ---------------------------------------------------------------------------
# bounded-exponent monomial counting


def count_bounded_monomials(n_vars: int, d: int, m: int) -> int:
    """N(n, d, m) = #{(b_0..b_{n-1}) : sum b_i = m, 0 <= b_i <= d-2}.

    Inclusion-exclusion over the exponent bound; terms whose upper
    binomial index goes negative contribute nothing.  The coefficient of
    t^m in `power_series(d, n_vars)`, one entry at a time: the tier-1
    oracle of the series and of everything read off it.
    """
    if n_vars < 1:
        raise ValueError(f"need at least one variable, got {n_vars}")
    if d < 3:
        raise ValueError(f"need degree >= 3, got {d}")
    if m < 0 or m > n_vars * (d - 2):
        return 0
    total = 0
    for j in range(n_vars + 1):
        upper = m - j * (d - 1) + n_vars - 1
        if upper < n_vars - 1:
            break
        total += (-1) ** j * comb(n_vars, j) * comb(upper, n_vars - 1)
    return total


def power_series(d: int, n: int) -> list[int]:
    """The coefficients of P^n, P = 1 + t + ... + t^{d-2}, from t^0 to
    t^{n(d-2)}: the generating function of the Jacobian-ring counts in
    n variables.

    Put e = d - 1 and f = P^n with P = (1 - t^e) / (1 - t).  Since
    P'/P = 1/(1 - t) - e t^{e-1}/(1 - t^e), the logarithmic derivative
    f'/f = n P'/P clears its denominators to

        (1 - t)(1 - t^e) f' = n f [(1 - t^e) - e t^{e-1}(1 - t)],

    and the coefficient of t^m on either side gives the recurrence

        (m+1) f_{m+1} = (m+n) f_m + (m-e+1-ne) f_{m-e+1} + ((e-1)n - m + e) f_{m-e}

    with f_0 = 1 and f_j = 0 for j < 0.  Each step divides exactly,
    since its left side is (m+1) times the integer f_{m+1}: three small
    multipliers and one exact division per coefficient.  P is a
    palindrome, so P^n is one too, and only the lower half is built;
    the upper half mirrors it.  n = 0 gives [1].
    """
    if d < 3 or n < 0:
        raise ValueError(f"need d >= 3 and n >= 0, got ({d}, {n})")
    e = d - 1
    top = n * (e - 1)  # the degree of P^n
    # f_m sits at f[m + e], after e zeros that stand for f_j, j < 0
    f = [0] * e + [1]
    a, b, c = n, 1 - e - n * e, (e - 1) * n + e  # the multipliers at m = 0
    for m in range(top // 2):
        f.append((a * f[-1] + b * f[-e] + c * f[-e - 1]) // (m + 1))
        a, b, c = a + 1, b + 1, c - 1
    del f[:e]
    f += reversed(f[:top + 1 - len(f)])
    return f


def primitive_hodge_column(d: int, k: int) -> tuple[int, ...]:
    """The primitive Hodge numbers h^{p, k-p}_0 of a smooth degree-d
    k-fold in projective (k+1)-space, indexed by p = 0..k, and k = 0
    gives the reduced cohomology of d points.

    Entry p is the Jacobian-ring count in k + 2 variables at degree
    m = d(k - p + 1) - k - 2, the coefficient of t^m in P^{k+2}: the
    residue-0 slots of the cover of dimension k + 1
    (`residue_zero_column`), here read off one `power_series`.  Along a
    row of covers the same column is `CoverSpec.branch_column` one
    storey up, read off the tower's series instead."""
    if d < 3:
        raise ValueError(f"need degree >= 3, got {d}")
    if k < 0:
        raise ValueError(f"need dimension >= 0, got {k}")
    return residue_zero_column(power_series(d, k + 2), d, k + 1)


def primitive_middle_rank(d: int, k: int) -> int:
    """The sum of the primitive Hodge numbers of `primitive_hodge_column`."""
    return sum(primitive_hodge_column(d, k))


def eigenspace_dims(d: int, k: int) -> dict[int, list[int]]:
    """The Hodge vectors i -> [dims over p = 0..k], as lists, of the i-th
    eigenspace of the covering automorphism on primitive middle
    cohomology, i = 1..d-1: entry p is the dimension of the (p, k-p) piece.

    Entry p of residue i is N(k+1, d, m) at m = d(k - p + 1) - k - 1 - i,
    the coefficient of t^m in the generating function

        (1 + t + ... + t^{d-2})^{k+1} = (1 - t^{d-1})^{k+1} / (1 - t)^{k+1},

    or 0 outside the series.  This is the one-pass table of one cover,
    the reference that `oracle-equivalence` holds a spec's table to: the
    series is `power_series(d, k + 1)`, sliced by `residue_vectors`,
    whose flat table has residue i's vector at every (d - 1)-th entry
    from i - 1.  k = 0 gives the d - 1 one-dimensional eigenspaces, all
    at p = 0, of the reduced H^0 of d points.
    """
    if d < 3 or k < 0:
        raise ValueError(f"need d >= 3 and k >= 0, got ({d}, {k})")
    rows = residue_vectors(power_series(d, k + 1), d, k)
    return {i: rows[i - 1::d - 1] for i in range(1, d)}


def tower_step(series: list[int], d: int) -> list[int]:
    """The series of the next storey of a degree-d tower: `series`, the
    power (1 + t + ... + t^{d-2})^{k+1} of one storey, times
    P = (1 - t^{d-1}) / (1 - t), in one pass: the series minus its copy
    shifted by d - 1, then one prefix sum.  The product is a palindrome,
    as in `power_series`, so the pass is cut after the lower half and
    the upper half mirrors it, holding the same int objects at conjugate
    positions, so comparing a table with its reversal is mostly identity
    checks.  `series` is only read, and the product is a new list."""
    zeros = [0] * (d - 1)
    size = len(series) + d - 2
    steps = map(sub, chain(series, zeros), chain(zeros, series))
    product = list(islice(accumulate(steps), (size + 1) // 2))
    product += reversed(product[:size // 2])
    return product


def residue_vectors(series: list[int], d: int, k: int) -> list[int]:
    """The Hodge vectors of `eigenspace_dims(d, k)` read off its series,
    as one flat p-major table over the residues 1..d-1, entry p of
    residue i at p(d - 1) + i - 1: the rows of `hodge.CMHodgeStructure`.
    Entry p of residue i is the coefficient at m = d(k - p + 1) - k - 1 - i.
    As p grows by one, m falls by d, so the series padded with k zeros
    at either end and read backwards holds entry p of residue i at
    i - 1 + dp: d entries per Hodge index, the last of them (i = d) the
    invariant part of primitive cohomology, which vanishes.  Deleting
    every d-th entry, `residue_zero_column`, leaves the flat table.

    The padded series is read forwards, which is the same: P^{k+1} is a
    palindrome, so the padded series, of (k + 1)d - 1 entries, is one
    too, and the deleted indices d - 1, 2d - 1, ... are placed
    symmetrically in it.  The structure's constructor checks
    conjugation symmetry, and so rejects a fault here, after the series:
    a deletion pattern that is not symmetric in the padded series, such
    as every d-th entry from index d, breaks symmetry on every cover."""
    # the padded series has (k+1)d - 1 entries, coefficient m at index m + k
    padded = [0] * k + series + [0] * k
    del padded[d - 1::d]
    return padded


def residue_zero_column(series: list[int], d: int, k: int) -> tuple[int, ...]:
    """The entries of the padded series that `residue_vectors` deletes,
    every d-th from index d - 1.  Index d(k - p) - 1 holds the count in
    k + 1 variables at m = d(k - p) - k - 1: entry p of the primitive
    Hodge column of the branch locus, a degree-d (k - 1)-fold, read
    from p = k - 1 down, which the palindrome makes the same as up."""
    return tuple(([0] * k + series + [0] * k)[d - 1::d])


def _tuple_sum_counts(d: int, k: int) -> dict[int, int]:
    """Number of (k+1)-tuples over {1..d-1} for each total sum, by an
    exact integer convolution, one tuple entry at a time.  Independent
    of the one-pass table it is checked against."""
    ways: dict[int, int] = {0: 1}
    for _ in range(k + 1):
        nxt: dict[int, int] = defaultdict(int)
        for s, c in ways.items():
            for a in range(1, d):
                nxt[s + a] += c
        ways = dict(nxt)
    return ways


def shioda_tuple_count(d: int, k: int) -> dict[tuple[int, int], int]:
    """The table (p, i) -> #{(a_0..a_k) : 1 <= a_j <= d-1,
    sum a_j + i = d(k - p + 1)}, i = 1..d-1, from one convolution: the
    tuple count behind entry p of residue i of `eigenspace_dims(d, k)`."""
    sums = _tuple_sum_counts(d, k)
    return {
        (k - q, i): sums.get(d * (q + 1) - i, 0)
        for q in range(k + 1)
        for i in range(1, d)
    }


# ---------------------------------------------------------------------------
# exact rank (sparse fraction-free elimination)


def sparse_rank(rows: Iterable[Mapping[int, int]]) -> int:
    """Rank over the rationals of integer rows given as {column: value}
    maps.

    Each row is divided by its content, then reduced against an
    echelon of earlier rows keyed by their leading (smallest) column
    (`_extend_echelon`, from an empty echelon).  A reduction step is
    fraction-free, ``b * row - a * pivot``, and is followed by division
    by the content, so the integers stay small and nothing is ever
    rounded.  Zero entries may be present or omitted.  Rows whose
    leading columns are all distinct, as in the W ladder and the Torelli
    matrix, enter the echelon without a single reduction.
    """
    return len(_extend_echelon({}, rows))


def _extend_echelon(
    echelon: dict[int, dict[int, int]], rows: Iterable[Mapping[int, int]]
) -> dict[int, dict[int, int]]:
    """`echelon`, extended in place by `rows`: each row is reduced
    against it and, unless it reduces to zero, enters it under its
    leading column.  The pivot rows themselves are never changed, so a
    shallow copy of an echelon can be extended without touching it."""
    for row in rows:
        vec = _primitive({col: x for col, x in row.items() if x})
        while vec:
            lead = min(vec)
            pivot = echelon.get(lead)
            if pivot is None:
                echelon[lead] = vec
                break
            vec = _eliminate(vec, pivot, lead)
    return echelon


def _primitive(vec: dict[int, int]) -> dict[int, int]:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*vec.values())
    return {col: x // g for col, x in vec.items()} if g > 1 else vec


def _eliminate(vec: dict[int, int], pivot: dict[int, int], lead: int) -> dict[int, int]:
    """`vec` with its `lead` entry cleared by a multiple of `pivot`."""
    g = gcd(vec[lead], pivot[lead])
    a, b = vec[lead] // g, pivot[lead] // g
    out = {col: b * x for col, x in vec.items()}
    for col, x in pivot.items():
        out[col] = out.get(col, 0) - a * x
    return _primitive({col: x for col, x in out.items() if x})


def exact_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of a dense integer matrix, given row by
    row; the dense front end of `sparse_rank`."""
    return sparse_rank(dict(enumerate(row)) for row in rows)


# ---------------------------------------------------------------------------
# the W-ladder quotients (d = 3) and the period-map differential

# A sparse matrix row: its nonzero entries as (column, value) pairs in
# column order, immutable so that the quotients holding it stay hashable.
SparseRow = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class GradedQuotient:
    """One rung of the W ladder, presented as ambient square-free
    monomials modulo explicit relation rows.

    Each relation row is a `SparseRow` over the columns of
    `ambient_basis`.  In the ladder every relation row is a unit vector
    (one ambient monomial carrying exactly one cover variable), and
    distinct relations hit distinct monomials; the rank is still
    computed by elimination, never read off that structure.  The
    relation rows are eliminated once per quotient, into
    `relation_echelon`, and `relation_rank` is its size.

    `basis` is the candidate basis (monomials in the base variables
    alone, plus the products carrying both cover variables); it is
    checked against the computed dimension, never assumed.
    """

    degree: int
    ambient_basis: tuple[tuple[int, ...], ...]
    relation_rows: tuple[SparseRow, ...]
    basis: tuple[tuple[int, ...], ...]

    @cached_property
    def relation_echelon(self) -> dict[int, dict[int, int]]:
        return _extend_echelon({}, (dict(row) for row in self.relation_rows))

    @property
    def relation_rank(self) -> int:
        return len(self.relation_echelon)

    @property
    def dimension(self) -> int:
        return len(self.ambient_basis) - self.relation_rank

    def basis_matches_dimension(self) -> bool:
        return len(self.basis) == self.dimension

    def basis_is_independent(self) -> bool:
        """The reported basis is linearly independent in the quotient:
        its unit rows, reduced against a copy of the relation echelon,
        each add one pivot."""
        index = {mono: j for j, mono in enumerate(self.ambient_basis)}
        units = ({index[mono]: 1} for mono in self.basis)
        extended = _extend_echelon(dict(self.relation_echelon), units)
        return len(extended) == self.relation_rank + len(self.basis)


def _empty_quotient(m: int) -> GradedQuotient:
    return GradedQuotient(m, (), (), ())


def build_w_quotient(k: int, p: int) -> GradedQuotient:
    """Degree (3p + 3 - k) rung of the W ladder for the cubic k-fold.

    Ambient: square-free monomials in x_0..x_{k+2}.  Relations: every
    multiple of a cover variable x_{k+1} or x_{k+2} by a square-free
    monomial in the base variables x_0..x_k, one unit row per product.
    The quotient therefore keeps exactly the monomials with no cover
    variable or with both, and its dimension must reproduce the
    corresponding entry of the W table built by the tensor construction.
    """
    if k < 2:
        raise UnsupportedCaseError(f"ladder needs k >= 2, got {k}")
    m = 3 * p + 3 - k
    if m < 0 or m > k + 3:
        return _empty_quotient(m)
    n_vars = k + 3
    base = range(k + 1)
    cover = (k + 1, k + 2)
    ambient = tuple(combinations(range(n_vars), m))
    index = {mono: j for j, mono in enumerate(ambient)}
    # cover variables come after every base variable, so mu + (c,) is
    # already the sorted monomial
    rows = tuple(
        ((index[mu + (c,)], 1),)
        for mu in (combinations(base, m - 1) if m >= 1 else ())
        for c in cover
    )
    basis = tuple(mono for mono in ambient if (k + 1 in mono) == (k + 2 in mono))
    return GradedQuotient(m, ambient, rows, basis)


def w_ladder_steps(k: int) -> list[int]:
    """The p values whose ladder degree 3p + 3 - k is in range."""
    return [p for p in range(k + 2) if 0 <= 3 * p + 3 - k <= k + 3]


def torelli_deformation_dimension(k: int) -> int:
    """Dimension of the deformation space of the cubic (k-1)-fold at the
    Fermat point: square-free cubics in x_0..x_k."""
    return comb(k + 1, 3)


def _torelli_entries(
    k: int, quotients: dict[int, GradedQuotient]
) -> Iterator[tuple[tuple[int, ...], tuple[int, tuple, tuple]]]:
    """Nonzero entries of the multiplication maps along the W ladder, as
    (cubic, (p, in, out)): `in` is a basis monomial of rung p, the cubic
    is square-free in the base variables x_0..x_k, and `out` = in * cubic.
    Cubics meeting `in` give x_i^2 = 0 and are skipped without being
    formed.  Since the cubic carries no cover variable, `out` must be a
    basis monomial of rung p + 1; `InvariantError` if it is not."""
    for p, source in quotients.items():
        target = quotients.get(p + 1)
        if target is None:
            continue
        target_set = set(target.basis)
        for mono in source.basis:
            free = [x for x in range(k + 1) if x not in mono]
            for cubic in combinations(free, 3):
                out = tuple(sorted(mono + cubic))
                if out not in target_set:
                    raise InvariantError(
                        f"{mono} times the cubic {cubic} leaves rung {p + 1}"
                    )
                yield cubic, (p, mono, out)


def _ladder_quotients(k: int) -> dict[int, GradedQuotient]:
    return {p: build_w_quotient(k, p) for p in w_ladder_steps(k)}


def _require_torelli_level(k: int) -> None:
    if k <= 3 or k % 3 != 1:
        raise UnsupportedCaseError(
            f"rank computation needs k = 3q + 1 with k > 3, got {k}"
        )


def _torelli_row_length(k: int) -> int:
    """Nonzero entries in the Torelli row of any one deformation cubic;
    the derivation is in `torelli_differential_rank`."""
    _require_torelli_level(k)
    steps = w_ladder_steps(k)
    length = 0
    for p in steps:
        m = 3 * p + 3 - k
        if p + 1 in steps:
            length += comb(k - 2, m) + (comb(k - 2, m - 2) if m >= 2 else 0)
    return length


def torelli_differential_rank(k: int) -> int:
    """Exact rank of the period-map differential of the cubic (k-1)-fold
    at the Fermat point: a deformation cubic goes to the tuple of
    multiplication maps along the W ladder.  Rank equal to the
    deformation dimension means the differential is injective.

    The matrix has a row per square-free cubic in x_0..x_k and a column
    per (p, in, out) with `in` a basis monomial of rung p and
    `out` = in * cubic != 0.  Every column has exactly one nonzero: `out`
    is square-free and `in` divides it, so the cubic is `out` / `in`.
    Hence no two rows share a column, the nonzero rows have disjoint
    supports and are independent, and the rank is the number of cubics
    with a nonempty row; no matrix is built.

    Row length: a cubic kills every `in` it meets (x_i^2 = 0) and sends
    every other `in` to a monomial of degree m + 3 with the same cover
    variables, a basis monomial of rung p + 1 whenever that rung is on
    the ladder.  A basis monomial of degree m = 3p + 3 - k avoiding the
    cubic takes m of the other k - 2 base variables, or both cover
    variables and m - 2 of them: C(k-2, m) + C(k-2, m-2) of them.
    Summed over the rungs p with p + 1 on the ladder, this is the same
    for every cubic, so the rank is C(k+1, 3) when it is positive and 0
    otherwise.  `torelli_rank_by_elimination` builds the matrix and is
    the oracle.
    """
    return torelli_deformation_dimension(k) if _torelli_row_length(k) > 0 else 0


def torelli_rank_by_elimination(k: int) -> int:
    """The rank of `torelli_differential_rank`, by listing every entry
    of the matrix and eliminating.  A column met twice raises
    `InvariantError`, and so does a product that leaves its rung."""
    _require_torelli_level(k)
    rows: dict[tuple[int, ...], dict[int, int]] = defaultdict(dict)
    col_index: dict[tuple[int, tuple, tuple], int] = {}
    for cubic, key in _torelli_entries(k, _ladder_quotients(k)):
        if key in col_index:
            raise InvariantError(f"Torelli column {key} has more than one nonzero")
        col_index[key] = len(col_index)
        rows[cubic][col_index[key]] = 1
    return sparse_rank(rows.values())


def torelli_witness_nonzero(k: int) -> bool:
    """Whether the single deformation cubic x0*x1*x2 induces a nonzero
    tuple of multiplication maps."""
    _require_torelli_level(k)
    return any(c == (0, 1, 2) for c, _ in _torelli_entries(k, _ladder_quotients(k)))


# ---------------------------------------------------------------------------
# the cover parametrization identity (§6.4)

COVER_VARIABLES = ("L", "Q", "R", "y", "u", "v")
_CONSTANT = (0,) * len(COVER_VARIABLES)


class Polynomial(dict):
    """An exact polynomial in L, Q, R, y, u, v: a dict from exponent
    tuples, in the order of COVER_VARIABLES, to nonzero int coefficients.
    The zero polynomial is the empty dict.  A polynomial on the left of
    +, - or *, with a polynomial or int on the right, an int times a
    polynomial, and ** with a non-negative int exponent give new
    polynomials."""

    @staticmethod
    def lift(value: Polynomial | int) -> Polynomial:
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, int):
            return Polynomial({_CONSTANT: value} if value else {})
        raise TypeError(f"not a polynomial in {COVER_VARIABLES}: {value!r}")

    def __add__(self, other):
        total = Counter(self)
        total.update(Polynomial.lift(other))
        return Polynomial({m: c for m, c in total.items() if c})

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.items()})

    def __sub__(self, other):
        return self + -Polynomial.lift(other)

    def __mul__(self, other):
        product = Counter()
        for ma, ca in self.items():
            for mb, cb in Polynomial.lift(other).items():
                product[tuple(a + b for a, b in zip(ma, mb))] += ca * cb
        return Polynomial({m: c for m, c in product.items() if c})

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError(f"negative exponent {exponent}")
        result = Polynomial.lift(1)
        for _ in range(exponent):
            result = result * self
        return result


def cover_variables() -> tuple[Polynomial, ...]:
    """L, Q, R, y, u, v as polynomials, to build the arguments of
    `verify_cover_parametrization` (for instance `-(v**2)` or `u * y`)."""
    n = len(COVER_VARIABLES)
    return tuple(
        Polynomial({tuple(int(i == j) for j in range(n)): 1}) for i in range(n)
    )


def _rewrite(poly: Polynomial, var: str, power: int, rhs) -> Polynomial:
    """Reduce `poly` modulo var**power - rhs: replace var**power by `rhs`
    in every term, again and again, until no term has var-degree `power`
    or more.  `rhs` must have var-degree below `power`, so this ends."""
    i = COVER_VARIABLES.index(var)
    rhs = Polynomial.lift(rhs)
    if any(m[i] >= power for m in rhs):
        raise ValueError(
            f"the rewrite {var}^{power} -> rhs needs rhs of {var}-degree below {power}"
        )
    reduced = Polynomial()
    while poly:
        reduced = reduced + Polynomial(
            {m: c for m, c in poly.items() if m[i] < power}
        )
        poly = Polynomial({
            m[:i] + (m[i] - power,) + m[i + 1:]: c
            for m, c in poly.items() if m[i] >= power
        }) * rhs
    return reduced


def reduced_cover_numerator(u_cube_rhs=None, cover_numerator=None) -> Polynomial:
    """The numerator of the cover equation along the map, reduced modulo
    the two curve relations; see `verify_cover_parametrization`."""
    L, Q, R, y, u, v = cover_variables()
    if u_cube_rhs is None:
        u_cube_rhs = -(v**2) - 1
    if cover_numerator is None:
        cover_numerator = u * y**2
    n = Polynomial.lift(cover_numerator)
    w = v * y**3 - L * Q  # L^2 * x_k
    numerator = n**3 + w**2 + 2 * Q * L * w + R * L**3
    numerator = _rewrite(numerator, "u", 3, u_cube_rhs)
    return _rewrite(numerator, "y", 6, L**3 * R - L**2 * Q**2)


def verify_cover_parametrization(u_cube_rhs=None, cover_numerator=None) -> bool:
    """Check exactly that the rational map onto the cubic cover satisfies
    the cover's equation.

    Substitutes x_k = (v*y^3 - L*Q)/L^2 and x_{k+1} = n/L, with cover
    numerator n = u*y^2, into x_{k+1}^3 + L*x_k^2 + 2*Q*x_k + R.  Times
    L^3 this is the integer polynomial
    N = n^3 + (v*y^3 - L*Q)^2 + 2*Q*L*(v*y^3 - L*Q) + R*L^3
    in the independent variables L, Q, R, y, u, v.  N is reduced fully
    modulo the two curve relations, first u^3 = -v^2 - 1, then
    y^6 = L^3*R - L^2*Q^2: every u^(3a+b) becomes (-v^2 - 1)^a * u^b,
    unlike sympy's `subs`, which replaces only exact multiples of the
    exponent (`(u**4).subs(u**3, a)` stays `u**4`).  True exactly when
    the reduced N is zero.

    The two keyword arguments exist so mutated maps can be shown to
    fail: `u_cube_rhs` replaces -v^2 - 1 and `cover_numerator` replaces
    u*y^2.  Both are `Polynomial`s (or ints) built from
    `cover_variables()`, e.g. `-(v**2)` or `u * y`.
    """
    return not reduced_cover_numerator(u_cube_rhs, cover_numerator)

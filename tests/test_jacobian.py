from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from halftwist import cli, covers, jacobian
from halftwist.cyclotomic import InvariantError
from halftwist.jacobian import (
    COVER_VARIABLES,
    Polynomial,
    UnsupportedCaseError,
    build_w_quotient,
    count_bounded_monomials,
    cover_variables,
    eigenspace_dims,
    exact_rank,
    power_series,
    primitive_hodge_column,
    reduced_cover_numerator,
    residue_vectors,
    shioda_tuple_count,
    sparse_rank,
    torelli_deformation_dimension,
    torelli_differential_rank,
    torelli_rank_by_elimination,
    torelli_witness_nonzero,
    verify_cover_parametrization,
    w_ladder_steps,
)


def brute_count(n_vars, d, m):
    """Reference oracle written independently of the library: list every
    exponent vector and count."""
    return sum(
        1
        for exps in product(range(d - 1), repeat=n_vars)
        if sum(exps) == m
    )


# ---------------------------------------------------------------------------
# bounded-exponent counting


@pytest.mark.parametrize(
    "n, d, m, expected",
    [
        (3, 6, 2, 6),  # the sextic V^{2,0}
        (3, 6, 0, 1),
        (5, 4, 0, 1),
        (3, 4, 4, 6),  # frozen from brute enumeration below
    ],
)
def test_count_examples(n, d, m, expected):
    assert brute_count(n, d, m) == expected
    assert count_bounded_monomials(n, d, m) == expected


def test_count_out_of_range_is_zero():
    assert count_bounded_monomials(3, 4, -1) == 0
    assert count_bounded_monomials(3, 4, 7) == 0  # above 3 * (4 - 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [3, 4, 5, 6, 9])
def test_inclusion_exclusion_equals_enumeration(n, d):
    for m in range(-1, n * (d - 2) + 2):
        assert count_bounded_monomials(n, d, m) == brute_count(n, d, m), (n, d, m)


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=3, max_value=7),
    st.integers(min_value=-2, max_value=30),
)
@settings(max_examples=80, deadline=None)
def test_count_matches_enumeration_random(n, d, m):
    if (d - 1) ** n <= 100_000:
        assert count_bounded_monomials(n, d, m) == brute_count(n, d, m)


def test_count_symmetry():
    # reversing exponents: N(n, d, m) = N(n, d, n(d-2) - m)
    for n in (2, 3, 4):
        for d in (3, 5, 8):
            top = n * (d - 2)
            for m in range(top + 1):
                assert count_bounded_monomials(n, d, m) == (
                    count_bounded_monomials(n, d, top - m)
                )


# ---------------------------------------------------------------------------
# Hodge numbers and eigenspaces


def test_hodge_numbers_cubic_fourfold():
    numbers = primitive_hodge_column(3, 4)
    assert numbers[4] == 0 and numbers[3] == 1 and numbers[2] == 20


def test_hodge_numbers_quartic_surface():
    numbers = primitive_hodge_column(4, 2)
    assert numbers[2] == 1
    assert sum(numbers) == 21


def test_hodge_numbers_cubic_threefold():
    # cross-check: both middle numbers equal 5, so the intermediate
    # Jacobian is five-dimensional
    numbers = primitive_hodge_column(3, 3)
    assert numbers[2] == 5 and numbers[1] == 5


def test_hodge_numbers_points_on_a_line():
    assert primitive_hodge_column(3, 0) == (2,)
    assert primitive_hodge_column(7, 0) == (6,)


def times_p(series, d):
    """`series` times 1 + t + ... + t^{d-2}, by a plain convolution: each
    coefficient is the sum of the d - 1 coefficients ending at it."""
    return [
        sum(series[max(0, m - d + 2):m + 1]) for m in range(len(series) + d - 2)
    ]


def test_power_series_matches_a_plain_convolution():
    for d in range(3, 41):
        series = [1]
        for n in range(31):
            assert power_series(d, n) == series, (d, n)
            series = times_p(series, d)


def test_power_series_matches_both_other_roads_at_the_cli_limit():
    below = power_series(160, 160)
    top = power_series(160, 161)
    assert top == times_p(below, 160)
    *_, tower_top = covers.tower(160, 160)  # k = 160, with P^{k+1}
    assert top == tower_top.series


def test_power_series_bounds():
    assert power_series(3, 0) == [1] == power_series(50, 0)
    assert power_series(4, 1) == [1, 1, 1]
    assert power_series(3, 4) == [1, 4, 6, 4, 1]
    with pytest.raises(ValueError):
        power_series(2, 3)
    with pytest.raises(ValueError):
        power_series(5, -1)


def test_hodge_column_matches_inclusion_exclusion():
    # every column a sweep of the CLI grid reads (its identities reach
    # k + 1), and a few cells up to the CLI limit, entry by entry
    cells = [
        (d, k) for d in range(3, cli.SWEEP_MAX_D + 1) for k in range(cli.SWEEP_MAX_K + 2)
    ] + [(64, 64), (97, 120), (160, 3), (3, 160), (160, 160)]
    for d, k in cells:
        sums = tuple(
            count_bounded_monomials(k + 2, d, d * (k - p + 1) - k - 2)
            for p in range(k + 1)
        )
        assert primitive_hodge_column(d, k) == sums, (d, k)


@pytest.mark.parametrize(
    "d, k, entries",
    [
        (6, 2, {(1, 1): 15, (1, 2): 18}),
        (5, 1, {(1, 1): 3, (1, 2): 2, (1, 3): 1, (1, 4): 0}),
        (4, 1, {(1, 1): 2, (1, 2): 1, (1, 3): 0}),
    ],
)
def test_eigenspace_examples(d, k, entries):
    dims = eigenspace_dims(d, k)
    for (p, i), value in entries.items():
        assert dims[i][p] == value


def test_eigenspace_column_sums_match_hodge_numbers():
    for d in range(3, 10):
        for k in range(1, 8):
            dims = eigenspace_dims(d, k)
            for p, total in enumerate(primitive_hodge_column(d, k)):
                assert sum(dims[i][p] for i in range(1, d)) == total, (d, k, p)


def test_one_pass_table_matches_inclusion_exclusion():
    # every entry of every sweep-grid table, and of the (64, 64) table
    # the CLI golden file pins, against one closed-form sum per entry
    cells = [(d, k) for d in range(3, 26) for k in range(1, 16)] + [(64, 64)]
    for d, k in cells:
        sums = {
            i: [
                count_bounded_monomials(k + 1, d, d * (k - p + 1) - k - 1 - i)
                for p in range(k + 1)
            ]
            for i in range(1, d)
        }
        assert eigenspace_dims(d, k) == sums, (d, k)


def test_tower_tables_match_the_direct_route_on_the_sweep_grid():
    # the two roads to a table's series, on every cell a sweep may ask for
    for d in range(3, cli.SWEEP_MAX_D + 1):
        for k, spec in enumerate(covers.tower(d, cli.SWEEP_MAX_K), start=1):
            assert len(spec.series) == (k + 1) * (d - 2) + 1, (d, k)
            rows = residue_vectors(spec.series, d, k)
            vectors = {i: rows[i - 1::d - 1] for i in range(1, d)}
            assert vectors == eigenspace_dims(d, k), (d, k)
        assert k == cli.SWEEP_MAX_K


def test_each_tower_step_is_one_multiplication_by_p_on_the_sweep_grid():
    # the tower builds the lower half of each series and mirrors it; the
    # full windowed sum checks every coefficient, the mirrored ones too
    for d in range(3, cli.SWEEP_MAX_D + 1):
        below = times_p([1], d)  # P itself, the series at k = 0
        for k in range(1, cli.SWEEP_MAX_K + 1):
            series = jacobian.tower_step(below, d)
            assert series == times_p(below, d), (d, k)
            below = series


def test_eigenspace_conjugation_symmetry():
    for d in (3, 4, 6, 7):
        for k in (1, 2, 3):
            dims = eigenspace_dims(d, k)
            for i, vector in dims.items():
                for p, value in enumerate(vector):
                    assert value == dims[d - i][k - p]


# ---------------------------------------------------------------------------
# the tuple-count oracle


def test_shioda_examples_by_hand():
    # the only 3-tuple over [1, 6] summing to 7 - 4 = 3 is (1, 1, 1)
    assert shioda_tuple_count(7, 2)[(2, 4)] == 1
    tuples = [
        t for t in product(range(1, 4), repeat=3) if sum(t) + 1 == 4 * 2
    ]
    assert len(tuples) == 6
    assert shioda_tuple_count(4, 2)[(1, 1)] == 6
    assert shioda_tuple_count(4, 2)[(1, 1)] == eigenspace_dims(4, 2)[1][1]


def test_shioda_sum_too_small():
    assert shioda_tuple_count(5, 2)[(2, 4)] == 0  # needs a 3-tuple summing to 1


def tuple_sum_counts_listed(d, k):
    """Oracle for the convolution in `_tuple_sum_counts`: list every
    (k+1)-tuple over 1..d-1 and count the sums."""
    return dict(Counter(sum(t) for t in product(range(1, d), repeat=k + 1)))


def test_tuple_sum_convolution_matches_listing():
    cells = [
        (d, k)
        for k in range(1, 14)
        for d in range(3, 143)
        if (d - 1) ** (k + 1) <= 20_000
    ]
    assert (142, 1) in cells and (3, 13) in cells and len(cells) == 198
    for d, k in cells:
        assert jacobian._tuple_sum_counts(d, k) == tuple_sum_counts_listed(d, k), (d, k)


def test_oracle_equivalence_small_grid():
    for d in range(3, 7):
        for k in range(1, 5):
            dims = eigenspace_dims(d, k)
            tuples = shioda_tuple_count(d, k)
            for i, vector in dims.items():
                for p, value in enumerate(vector):
                    assert value == tuples[(p, i)], (d, k, p, i)


def test_monotonicity_along_extremal_row():
    for d in range(3, 10):
        for k in range(1, 8):
            dims = eigenspace_dims(d, k)
            top = max(p for vector in dims.values() for p, v in enumerate(vector) if v)
            for i in range(1, d - 1):
                assert dims[i][top] >= dims[i + 1][top], (d, k, i)


# ---------------------------------------------------------------------------
# the square-free product along the W ladder (x_i^2 = 0 for d = 3)


def ladder_products(k):
    """Every (p, in, cubic, out) the Torelli matrix is built from."""
    quotients = jacobian._ladder_quotients(k)
    entries = jacobian._torelli_entries(k, quotients)
    return quotients, [(p, mono, cubic, out) for cubic, (p, mono, out) in entries]


def test_square_kills():
    # a cubic sharing a variable with the basis monomial multiplies it
    # to zero; every other square-free cubic gives a nonzero product
    for k in (4, 7):
        quotients, products = ladder_products(k)
        found = {(p, mono, cubic) for p, mono, cubic, _ in products}
        expected = {
            (p, mono, cubic)
            for p, quotient in quotients.items()
            if p + 1 in quotients
            for mono in quotient.basis
            for cubic in combinations(range(k + 1), 3)
            if not set(cubic) & set(mono)
        }
        assert found == expected, k
        assert len(found) == len(products), k


def test_disjoint_supports_multiply():
    _, products = ladder_products(4)
    assert products
    for _, mono, cubic, out in products:
        assert set(out) == set(mono) | set(cubic)
        assert out == tuple(sorted(out))


def test_degree_bookkeeping():
    quotients, products = ladder_products(7)
    for p, mono, cubic, out in products:
        assert len(out) == len(mono) + 3 == quotients[p + 1].degree
        assert quotients[p].degree == len(mono)


# ---------------------------------------------------------------------------
# exact rank


def integer_rows(rows):
    """Each rational row times the lcm of its denominators: the same
    rank, in the integers that `exact_rank` and `sparse_rank` take."""
    scaled = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        scale = lcm(*(f.denominator for f in fracs)) if fracs else 1
        scaled.append([int(f * scale) for f in fracs])
    return scaled


def test_rank_known_matrices():
    assert exact_rank([]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank(integer_rows([[Fraction(1, 2), Fraction(1, 3)], [3, 2]])) == 1
    # a case where floating point would misjudge the rank
    eps = Fraction(1, 10**40)
    assert exact_rank(integer_rows([[1, 1], [1, 1 + eps]])) == 2


@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=60, deadline=None)
def test_rank_matches_sympy(rows):
    assert exact_rank(rows) == sympy.Matrix(rows).rank()


def bareiss_rank(rows):
    """Dense oracle: rank over the rationals by Bareiss fraction-free
    elimination (Bareiss 1968) on integer-scaled rows; every division
    in the loop is exact."""
    matrix = integer_rows(rows)
    if not matrix or not matrix[0]:
        return 0
    n_rows, n_cols = len(matrix), len(matrix[0])
    rank = 0
    prev_pivot = 1
    for col in range(n_cols):
        pivot_row = next((r for r in range(rank, n_rows) if matrix[r][col]), None)
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        pivot = matrix[rank][col]
        for r in range(rank + 1, n_rows):
            # update every row, zero factor included, so the
            # exact-division invariant survives to the next step
            factor = matrix[r][col]
            row_r, row_p = matrix[r], matrix[rank]
            for c in range(col + 1, n_cols):
                row_r[c] = (pivot * row_r[c] - factor * row_p[c]) // prev_pivot
            row_r[col] = 0
        prev_pivot = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank


@st.composite
def rational_matrices(draw):
    """Small rational matrices, wide or tall, with negative entries and
    with zero and duplicate rows spliced in."""
    n_cols = draw(st.integers(min_value=1, max_value=7))
    entry = st.one_of(
        st.just(0),
        st.integers(min_value=-5, max_value=5),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
    )
    rows = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols), max_size=7))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        spliced = [0] * n_cols
        if rows and draw(st.booleans()):
            spliced = list(draw(st.sampled_from(rows)))
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), spliced)
    return rows


@given(rational_matrices(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_sparse_rank_matches_dense_oracle(rows, keep_zeros):
    expected = bareiss_rank(rows)
    scaled = integer_rows(rows)
    sparse = [
        {col: x for col, x in enumerate(row) if keep_zeros or x} for row in scaled
    ]
    assert sparse_rank(sparse) == expected
    assert exact_rank(scaled) == expected


def test_bareiss_oracle_known_matrices():
    assert bareiss_rank([]) == 0
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[2, 0, 1], [0, 3, 0], [2, 3, 1]]) == 2
    assert bareiss_rank([[1, 1], [1, 1 + Fraction(1, 10**40)]]) == 2


def test_sparse_rank_reduces_dependent_rows():
    # every row shares its leading column with the one before, so each
    # row is reduced; the last three are combinations of the first two
    rows = [
        {0: 6, 1: 4},
        {0: 18, 2: 3},
        {0: 3, 1: 2},
        {1: 4, 2: -1},
        {0: 12, 1: 8, 2: 0},
    ]
    assert sparse_rank(rows) == 2
    assert sparse_rank(rows[:1] + rows[2:3] + rows[4:]) == 1
    assert sparse_rank([{}, {5: 0}]) == 0


# ---------------------------------------------------------------------------
# the W ladder


def test_out_of_range_step_is_empty():
    q = build_w_quotient(4, 0)  # degree -1
    assert q.degree == -1 and q.dimension == 0


def test_ladder_k4_dimensions():
    dims = {p: build_w_quotient(4, p).dimension for p in w_ladder_steps(4)}
    assert dims == {1: 11, 2: 11}
    assert sum(dims.values()) == 22


def test_ladder_basis_is_verified_not_assumed():
    for k in (2, 3, 4, 5):
        for p in w_ladder_steps(k):
            q = build_w_quotient(k, p)
            assert q.basis_matches_dimension(), (k, p)
            assert q.basis_is_independent(), (k, p)


def test_ladder_matches_tensor_W_table():
    from halftwist.covers import CoverSpec, build_W

    for k in range(2, 11):
        table = build_W(CoverSpec(3, k)).hodge_numbers()
        for p in w_ladder_steps(k):
            q = build_w_quotient(k, p)
            assert q.dimension == table.get(k - p, 0), (k, p)
            assert q.basis_matches_dimension(), (k, p)
            assert q.basis_is_independent(), (k, p)


def test_relation_rows_are_sparse_unit_rows():
    q = build_w_quotient(7, 3)
    assert q.relation_rows and len(set(q.relation_rows)) == len(q.relation_rows)
    for row in q.relation_rows:
        ((col, value),) = row
        assert value == 1
        assert len({8, 9} & set(q.ambient_basis[col])) == 1
    hash(q)


def test_relation_rank_is_eliminated_once_per_quotient(monkeypatch):
    # the rows each elimination takes in, call by call
    calls = []
    real = jacobian._extend_echelon

    def counting(echelon, rows):
        rows = list(rows)
        calls.append(len(rows))
        return real(echelon, rows)

    monkeypatch.setattr(jacobian, "_extend_echelon", counting)
    q = build_w_quotient(7, 3)
    relations, basis = len(q.relation_rows), len(q.basis)
    assert q.dimension == q.dimension == 112
    assert q.basis_matches_dimension()
    assert calls == [relations]
    # the independence test eliminates only the basis rows, against a
    # copy of the relations' echelon, which it leaves as it was
    assert q.basis_is_independent()
    assert q.basis_is_independent()
    assert calls == [relations, basis, basis]
    assert q.relation_rank == relations


def test_a_dependent_basis_is_rejected():
    # a monomial with one cover variable is a relation, and a repeated
    # monomial is its own copy: either makes the basis dependent, so the
    # shared relation echelon cannot let a wrong basis pass
    q = build_w_quotient(7, 3)
    assert q.basis_is_independent()
    one_cover = next(m for m in q.ambient_basis if (8 in m) != (9 in m))
    for basis in (
        q.basis[1:] + (one_cover,),
        (one_cover,),
        q.basis + q.basis[:1],
        q.basis[:1] * 2,
    ):
        assert not replace(q, basis=basis).basis_is_independent(), basis
    assert q.basis_is_independent()


def test_ladder_needs_k_at_least_two():
    with pytest.raises(UnsupportedCaseError):
        build_w_quotient(1, 1)


# ---------------------------------------------------------------------------
# the period-map differential


def test_deformation_dimensions():
    assert torelli_deformation_dimension(4) == 10
    assert torelli_deformation_dimension(7) == 56


def test_witness_cubic_is_nonzero():
    assert torelli_witness_nonzero(4)
    assert torelli_witness_nonzero(7)
    # the specific image promised by the construction: x5*x6 times the
    # witness cubic stays a basis monomial one step up
    q1 = build_w_quotient(4, 1)
    q2 = build_w_quotient(4, 2)
    assert (5, 6) in q1.basis
    assert (0, 1, 2, 5, 6) in q2.basis


def test_differential_rank_k4():
    assert torelli_differential_rank(4) == 10


def test_differential_rank_is_injective_at_higher_levels():
    assert torelli_differential_rank(7) == comb(8, 3) == 56
    assert torelli_differential_rank(10) == comb(11, 3) == 165


def test_shared_torelli_column_is_rejected(monkeypatch):
    entries = jacobian._torelli_entries

    def first_entry_twice(k, quotients):
        stream = entries(k, quotients)
        first = next(stream)
        yield first
        yield (0, 1, 3), first[1]
        yield from stream

    monkeypatch.setattr(jacobian, "_torelli_entries", first_entry_twice)
    with pytest.raises(InvariantError, match="more than one nonzero"):
        torelli_rank_by_elimination(4)


def test_product_leaving_the_ladder_is_rejected():
    quotients = {p: build_w_quotient(4, p) for p in w_ladder_steps(4)}
    quotients[2] = jacobian._empty_quotient(quotients[2].degree)
    with pytest.raises(InvariantError, match="leaves rung 2"):
        list(jacobian._torelli_entries(4, quotients))


def test_differential_rank_rejects_bad_k():
    for k in (3, 5, 6):
        with pytest.raises(UnsupportedCaseError):
            torelli_differential_rank(k)


@pytest.mark.parametrize("k", [4, 7, 10])
def test_closed_form_rank_matches_elimination(k):
    rank = torelli_differential_rank(k)
    assert rank == torelli_rank_by_elimination(k) == comb(k + 1, 3)
    # the row length catches a wrong degree or a dropped rung even where
    # the rank stays C(k+1, 3)
    _, products = ladder_products(k)
    lengths = Counter(cubic for _, _, cubic, _ in products)
    assert set(lengths) == set(combinations(range(k + 1), 3))
    assert set(lengths.values()) == {jacobian._torelli_row_length(k)}


def test_row_lengths_at_the_first_levels():
    lengths = [jacobian._torelli_row_length(k) for k in (4, 7, 10, 13)]
    assert lengths == [2, 22, 170, 1366]


def test_row_length_is_positive_up_to_k_40():
    assert all(jacobian._torelli_row_length(k) > 0 for k in range(4, 41, 3))


def test_closed_form_rank_builds_no_matrix(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the closed form built a ladder matrix")

    monkeypatch.setattr(jacobian, "_torelli_entries", forbidden)
    monkeypatch.setattr(jacobian, "build_w_quotient", forbidden)
    assert torelli_differential_rank(31) == comb(32, 3) == 4960


@pytest.mark.parametrize("k", [2, 3, 5, 6])
def test_every_torelli_route_rejects_bad_k_before_any_work(monkeypatch, k):
    def forbidden(*args):
        raise AssertionError("work started before k was validated")

    monkeypatch.setattr(jacobian, "build_w_quotient", forbidden)
    monkeypatch.setattr(jacobian, "w_ladder_steps", forbidden)
    for route in (
        torelli_differential_rank,
        torelli_rank_by_elimination,
        torelli_witness_nonzero,
        jacobian._torelli_row_length,
    ):
        with pytest.raises(UnsupportedCaseError):
            route(k)


# ---------------------------------------------------------------------------
# the cover parametrization identity


def test_cover_parametrization_holds():
    assert verify_cover_parametrization() is True


def test_cover_parametrization_mutations_fail():
    _, _, _, y, u, v = cover_variables()
    assert verify_cover_parametrization(u_cube_rhs=-(v**2)) is False
    assert verify_cover_parametrization(cover_numerator=u * y) is False


def to_sympy(poly):
    """A `Polynomial` (or int) as a sympy expression in L, Q, R, y, u, v."""
    symbols = sympy.symbols(COVER_VARIABLES)
    return sympy.Add(*(
        c * sympy.Mul(*(s**e for s, e in zip(symbols, m)))
        for m, c in Polynomial.lift(poly).items()
    ))


def cover_identity_sympy(u_cube_rhs=None, cover_numerator=None):
    """Oracle: the reduced numerator by sympy, with sympy arguments.
    `subs` replaces only exact multiples of u^3 and y^6, so this agrees
    with the full reduction only while no higher power occurs."""
    L, Q, R, y, u, v = sympy.symbols(COVER_VARIABLES)
    if u_cube_rhs is None:
        u_cube_rhs = -(v**2) - 1
    if cover_numerator is None:
        cover_numerator = u * y**2
    x_k = (v * y**3 - L * Q) / L**2
    x_top = cover_numerator / L
    equation = x_top**3 + L * x_k**2 + 2 * Q * x_k + R
    poly = sympy.expand(equation * L**3)
    poly = sympy.expand(poly.subs(u**3, u_cube_rhs))
    return sympy.expand(poly.subs(y**6, L**3 * R - L**2 * Q**2))


def assert_routes_agree(**mutation):
    exact = reduced_cover_numerator(**mutation)
    oracle = cover_identity_sympy(**{k: to_sympy(p) for k, p in mutation.items()})
    assert sympy.expand(to_sympy(exact) - oracle) == 0
    assert verify_cover_parametrization(**mutation) is (oracle == 0)


def test_exact_reducer_matches_sympy_on_the_named_maps():
    _, _, _, y, u, v = cover_variables()
    assert_routes_agree()
    assert_routes_agree(u_cube_rhs=-(v**2))
    assert_routes_agree(cover_numerator=u * y)


def _v_polynomial(coefficients):
    return Polynomial({(0, 0, 0, 0, 0, e): c for e, c in coefficients.items()})


# exponents over (L, Q, R, y, u, v): u-degree <= 1 and y-degree <= 2 keep
# every power of u in N at most 3 and of y at most 6, where sympy's
# `subs` and the full reduction coincide
_numerator_terms = st.tuples(*(st.integers(0, top) for top in (1, 1, 1, 2, 1, 2)))
_coefficients = st.integers(-3, 3).filter(bool)


@given(
    numerator=st.dictionaries(
        _numerator_terms, _coefficients, min_size=1, max_size=3
    ).map(Polynomial),
    rhs=st.dictionaries(
        st.integers(0, 3), _coefficients, max_size=4
    ).map(_v_polynomial),
)
@settings(max_examples=40, deadline=None)
def test_exact_reducer_matches_sympy_on_mutated_maps(numerator, rhs):
    assert_routes_agree(u_cube_rhs=rhs, cover_numerator=numerator)


def test_reduction_rewrites_every_power_above_the_relation():
    L, _, _, y, u, v = cover_variables()
    assert jacobian._rewrite(u**7 + 3 * u, "u", 3, v + 1) == u * (v + 1) ** 2 + 3 * u
    assert jacobian._rewrite(y**13, "y", 6, L) == y * L**2
    # sympy leaves u^4 alone; the exact reducer does not
    assert to_sympy(u**4).subs(to_sympy(u**3), to_sympy(v)) == to_sympy(u**4)
    assert jacobian._rewrite(u**4, "u", 3, v) == u * v
    with pytest.raises(ValueError):
        jacobian._rewrite(u**3, "u", 3, u**3 + 1)


def test_polynomial_arithmetic():
    *_, u, v = cover_variables()
    assert (u + v) ** 2 - u**2 - 2 * u * v == v**2
    assert u - u + 1 - 1 == Polynomial() == u * 0 == 0 * u
    assert (u - v) * (u + v) == u**2 - v**2
    assert (u + 1) ** 0 == Polynomial.lift(1)
    with pytest.raises(TypeError):
        u + 0.5
    with pytest.raises(ValueError):
        u ** -1

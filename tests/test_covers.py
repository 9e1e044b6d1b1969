import sys
import weakref
from collections import Counter
from itertools import combinations

import pytest

from halftwist import cli, covers, hodge, jacobian, sweeps
from halftwist.covers import (
    CoverSpec,
    build_W,
    curve_h1,
    degree_bound_printed,
    dim_identity_terms,
    euler_recursion_rank,
    fermat_gamma_invariants,
    full_level_V,
    gamma_invariant_h1_dimension,
    half_twist_any_cmtype,
    half_twist_exists_derived,
    half_twist_exists_direct,
    half_twist_exists_printed,
    ks_invariant_space,
    order_part_as_substructure,
    primitive_V,
    qt_decompose,
    quartic_W_split,
    quartic_isogeny_report,
    secondary_parts,
    z_decomposition,
)
from halftwist.cyclotomic import (
    CyclotomicData,
    InvariantError,
    all_cm_types,
    make_cyclotomic,
)
from halftwist.hodge import (
    CMHodgeStructure,
    NoHalfTwistError,
    has_positive_half_twist,
    pos_half_twist,
    tate_twist,
    tensor_invariants,
)
from halftwist.jacobian import UnsupportedCaseError, primitive_middle_rank
from hodge_tables import from_table

GRID = [(d, k) for d in range(3, 10) for k in range(1, 8)]


# ---------------------------------------------------------------------------
# the structures


def test_primitive_V_ranks():
    assert primitive_V(CoverSpec(4, 2)).rank == 14
    V6 = primitive_V(CoverSpec(6, 2))
    assert V6.rank == 42
    assert V6.hodge_numbers()[2] == 6
    assert primitive_V(CoverSpec(3, 4)).rank == 22


def test_prime_degree_primitive_part_is_everything():
    for d in (3, 5, 7):
        for k in (1, 2, 3):
            spec = CoverSpec(d, k)
            assert primitive_V(spec) == spec.cohomology
            assert primitive_V(spec).rank == primitive_middle_rank(d, k)


def test_V_is_the_cohomology_itself_only_for_prime_degree():
    prime = CoverSpec(7, 3)
    assert prime.V is prime.cohomology
    composite = CoverSpec(6, 3)
    assert set(composite.V.vectors) < set(composite.cohomology.vectors)
    assert set(composite.V.vectors) == {1, 5}


def test_tower_specs_are_the_covers_of_one_degree():
    for d in (3, 4, 6, 7):
        specs = list(covers.tower(d, 6))
        direct = [CoverSpec(d, k) for k in range(1, 7)]
        assert specs == direct
        assert list(map(hash, specs)) == list(map(hash, direct))
        assert list(map(repr, specs)) == list(map(repr, direct))
        for spec, same in zip(specs, direct):
            assert spec.cohomology == same.cohomology, (spec.d, spec.k)


@pytest.mark.parametrize("size", [0, 8, 10])
def test_a_series_of_the_wrong_length_is_rejected(size):
    # (4, 3) has a series of (3 + 1)(4 - 2) + 1 = 9 coefficients
    with pytest.raises(ValueError, match="expected 9"):
        CoverSpec(4, 3, [0] * size)


def test_secondary_parts_sextic():
    parts = dict(secondary_parts(CoverSpec(6, 2)))
    assert set(parts) == {6, 3, 2}
    assert parts[6].rank == 42
    assert parts[3].rank == 42
    assert parts[3].hodge_numbers() == {2: 3, 1: 36, 0: 3}
    assert parts[2].rank == 21
    assert sum(p.rank for p in parts.values()) == 105


def test_secondary_parts_quartic():
    parts = dict(secondary_parts(CoverSpec(4, 2)))
    assert parts[2].rank == 7
    assert parts[2].hodge_numbers() == {1: 7}


def test_secondary_parts_prime_degree():
    parts = secondary_parts(CoverSpec(3, 3))
    assert len(parts) == 1
    assert parts[0][0] == 3
    assert parts[0][1] == primitive_V(CoverSpec(3, 3))


def test_order_part_as_substructure():
    sub = order_part_as_substructure(CoverSpec(6, 2), 3)
    assert sub.field.d == 3
    assert sub.rank == 42
    assert sub.hodge_numbers() == {2: 3, 1: 36, 0: 3}
    # the CM action by the cube roots admits a half twist
    assert has_positive_half_twist(sub)
    with pytest.raises(UnsupportedCaseError):
        order_part_as_substructure(CoverSpec(6, 2), 2)


def test_order_parts_match_their_re_keyed_tables():
    # the re-keyed vectors against the table route: every (p, i) entry of
    # the order-e slice moves to (p, i / (d/e)) over the e-th field
    checked = 0
    for d in range(3, 31):
        for k in range(1, 7):
            spec = CoverSpec(d, k)
            parts = dict(secondary_parts(spec))
            for e in range(3, d + 1):
                if d % e:
                    continue
                step = d // e
                table = {(p, i // step): x for (p, i), x in parts[e].table.items()}
                expected = from_table(make_cyclotomic(e), k, table)
                assert order_part_as_substructure(spec, e) == expected, (d, k, e)
                checked += 1
    assert checked == 6 * 66  # 66 pairs (d, e) with e | d, 3 <= e <= d <= 30


def test_curve_h1_is_not_hard_coded():
    H1 = curve_h1(4)
    assert H1.rank == 6
    assert H1.table == {(1, 1): 2, (1, 2): 1, (0, 2): 1, (0, 3): 2}


def test_curve_h1_matches_its_closed_form_up_to_the_cli_limit():
    """H^1 of the degree-d Fermat curve has h^{1,0}_i = d - 1 - i and
    h^{0,1}_i = i - 1 for i = 1..d-1, and residue 0 is empty.

    Entry p of residue i of the k = 1 table is the coefficient of t^m in
    P^2, P = 1 + t + ... + t^{d-2}, at m = d(2 - p) - 2 - i.  P^2 has
    coefficient m + 1 for 0 <= m <= d - 2, 2d - 3 - m for
    d - 2 <= m <= 2d - 4, and 0 elsewhere.  At p = 1, m = d - 2 - i runs
    over -1..d - 3, which gives d - 1 - i (0 at i = d - 1, where m = -1).
    At p = 0, m = 2d - 2 - i runs over d - 1..2d - 3, which gives
    i - 1 (0 at i = 1, where m = 2d - 3)."""
    for d in range(3, cli.MAX_D + 1):
        H1 = curve_h1(d)
        assert H1.weight == 1
        assert H1.row(1) == [0] + [d - 1 - i for i in range(1, d)], d
        assert H1.row(0) == [0] + [i - 1 for i in range(1, d)], d


# ---------------------------------------------------------------------------
# the (q, t) normal form


@pytest.mark.parametrize(
    "d, k, q, t",
    [(3, 4, 1, 1), (5, 2, 0, 2), (4, 3, 1, -1), (3, 7, 2, 1), (9, 3, 0, 3)],
)
def test_qt_examples(d, k, q, t):
    qt = qt_decompose(CoverSpec(d, k))
    assert (qt.q, qt.t) == (q, t)
    assert k == q * d + t


def test_qt_uniqueness_on_grid():
    # the ledger grid, and cells at and near the CLI limits
    for d, k in [*GRID, (3, 160), (160, 160), (7, 100), (160, 1)]:
        qt = qt_decompose(CoverSpec(d, k))
        assert k == qt.q * d + qt.t
        assert -1 <= qt.t <= d - 2


def test_qt_owns_the_extremal_index_and_full_level_V():
    for d, k in GRID:
        spec = CoverSpec(d, k)
        qt = qt_decompose(spec)
        assert qt.top == max(spec.cohomology.hodge_numbers()), (d, k)
        Vq = full_level_V(spec)
        assert Vq == tate_twist(primitive_V(spec), qt.q), (d, k)
        assert Vq.weight == k - 2 * qt.q, (d, k)


@pytest.mark.parametrize(
    "table",
    [
        {},  # no piece at all
        {1: (0, 0, 1, 0, 0), 2: (0, 0, 1, 0, 0)},  # the extremal piece p = 3 is zero
        {1: (0, 0, 0, 1, 1), 2: (1, 1, 0, 0, 0)},  # a piece above it
    ],
)
def test_qt_rejects_a_table_without_a_top_extremal_piece(monkeypatch, table):
    # d = 3, k = 4 has q = 1, so the highest nonzero piece must be p = 3;
    # the table is given as residue vectors over p = 0..4, and the spec
    # reads it as its flat p-major rows
    rows = [table.get(i, (0,) * 5)[p] for p in range(5) for i in (1, 2)]
    monkeypatch.setattr(covers, "residue_vectors", lambda series, d, k: rows)
    with pytest.raises(InvariantError, match="extremal p=3"):
        qt_decompose(CoverSpec(3, 4))


# ---------------------------------------------------------------------------
# existence predicates


def test_direct_predicate_examples():
    assert half_twist_exists_direct(CoverSpec(4, 2)) is True
    assert half_twist_exists_direct(CoverSpec(3, 3), tate=True) is False
    assert half_twist_exists_direct(CoverSpec(3, 4), tate=True) is True
    # the surface of degree seven: the stated bound says yes, the count
    # says no
    assert half_twist_exists_direct(CoverSpec(7, 2)) is False


@pytest.mark.parametrize("tate", [False, True])
def test_direct_predicate_is_the_one_sided_test_of_V(tate):
    for d, k in GRID:
        spec = CoverSpec(d, k)
        V = primitive_V(spec)
        target = tate_twist(V, qt_decompose(spec).q) if tate else V
        exists = half_twist_exists_direct(spec, tate=tate)
        assert exists == has_positive_half_twist(target), (d, k)
        if exists:
            pos_half_twist(target)
        else:
            with pytest.raises(NoHalfTwistError):
                pos_half_twist(target)


def test_closed_form_examples():
    # d = 4: both closed forms are t > 0
    for k in range(1, 8):
        spec = CoverSpec(4, k)
        assert half_twist_exists_printed(spec) == half_twist_exists_derived(spec)
        assert half_twist_exists_printed(spec) == (qt_decompose(spec).t > 0)
    # d = 3: the stated form admits t = 0, the derived form does not
    assert half_twist_exists_printed(CoverSpec(3, 3)) is True
    assert half_twist_exists_derived(CoverSpec(3, 3)) is False
    # d = 6: both give t > 0
    for k in range(1, 8):
        spec = CoverSpec(6, k)
        assert half_twist_exists_printed(spec) == half_twist_exists_derived(spec)


def test_derived_form_equals_direct_on_grid():
    for d, k in GRID:
        spec = CoverSpec(d, k)
        assert half_twist_exists_derived(spec) == half_twist_exists_direct(
            spec, tate=True
        ), (d, k)


def test_printed_form_disagreement_set():
    disagreements = [
        (d, k)
        for d, k in GRID
        if half_twist_exists_printed(CoverSpec(d, k))
        != half_twist_exists_direct(CoverSpec(d, k), tate=True)
    ]
    assert disagreements == [(3, 3), (3, 6), (5, 1), (5, 6), (7, 2), (9, 3)]
    # exactly odd degree, at t = (d - 3) / 2
    for d, k in disagreements:
        assert d % 2 == 1
        assert qt_decompose(CoverSpec(d, k)).t == (d - 3) // 2


def corollary_pair(spec):
    return degree_bound_printed(spec), half_twist_exists_direct(spec)


def test_corollary_examples():
    assert corollary_pair(CoverSpec(4, 2)) == (True, True)
    assert corollary_pair(CoverSpec(7, 2)) == (True, False)
    assert corollary_pair(CoverSpec(3, 1)) == (True, True)


def test_corollary_disagreement_set():
    disagreements = [
        (d, k) for d, k in GRID if degree_bound_printed(CoverSpec(d, k))
        != half_twist_exists_direct(CoverSpec(d, k))
    ]
    assert disagreements == [(5, 1), (7, 2), (9, 3)]
    assert all(d % 2 == 1 for d, _ in disagreements)


def any_cmtype_exhaustive(spec):
    """Test oracle for `half_twist_any_cmtype`: search all 2^(phi(d)/2)
    CM-types for one containing the top Hodge support of V."""
    V = covers.primitive_V(spec)
    top_support = {a for a in spec.field.units if V.entry(spec.k, a)}
    return any(top_support <= sigma for sigma in all_cm_types(spec.field))


def any_cmtype_by_predicate(spec):
    """Second test oracle for `half_twist_any_cmtype`: for each of the
    2^(phi(d)/2) CM-types tau, rebuild V over the field with CM-type tau
    and ask `has_positive_half_twist` itself."""
    V = covers.primitive_V(spec)
    return any(
        has_positive_half_twist(
            CMHodgeStructure(CyclotomicData(spec.d, tau), V.weight, V.vectors)
        )
        for tau in all_cm_types(spec.field)
    )


def test_cmtype_search_examples():
    for d, k, expected in [(4, 2, True), (7, 2, False), (3, 4, True)]:
        assert half_twist_any_cmtype(CoverSpec(d, k)) is expected
        assert any_cmtype_exhaustive(CoverSpec(d, k)) is expected
        assert any_cmtype_by_predicate(CoverSpec(d, k)) is expected


def test_cmtype_search_agrees_with_fixed_type_on_grid():
    for d, k in GRID:
        spec = CoverSpec(d, k)
        direct = half_twist_exists_direct(spec)
        assert half_twist_any_cmtype(spec) == direct, (d, k)
        assert any_cmtype_exhaustive(spec) == direct, (d, k)
        assert any_cmtype_by_predicate(spec) == direct, (d, k)


def test_cmtype_closed_form_matches_exhaustive_oracle():
    degrees = [d for d in range(3, 67) if len(CoverSpec(d, 1).field.units) <= 20]
    assert len(degrees) == 39
    mismatches = [
        (d, k)
        for d in degrees
        for k in range(1, 11)
        if half_twist_any_cmtype(CoverSpec(d, k))
        != any_cmtype_exhaustive(CoverSpec(d, k))
    ]
    assert mismatches == []


def test_cmtype_closed_form_matches_oracle_on_every_support(monkeypatch):
    # a cover's top support is an initial segment of the units, where the
    # closed form agrees with the fixed CM-type; arbitrary supports tell
    # the two apart.  Each top entry (1, a) comes with its conjugate
    # (0, d - a), which keeps the top support as it is
    for d in (5, 7, 8, 11, 12):
        spec = CoverSpec(d, 1)
        units = spec.field.units
        for size in range(len(units) + 1):
            for support in combinations(units, size):
                table = {(1, a): 1 for a in support} | {(0, d - a): 1 for a in support}
                V = from_table(spec.field, 1, table)
                monkeypatch.setattr(covers, "primitive_V", lambda spec: V)
                closed = half_twist_any_cmtype(spec)
                assert closed == any_cmtype_exhaustive(spec), (d, support)
                assert closed == any_cmtype_by_predicate(spec), (d, support)


def test_cmtype_search_reaches_large_prime_degree():
    # 2^50 CM-types at d = 101: only the closed form can answer this
    cell = sweeps.run_check("cmtype-search", 101, 2)
    assert cell.ok
    assert cell.detail.startswith("fixed CM-type is optimal")


# ---------------------------------------------------------------------------
# dimension identities


def test_euler_recursion_examples():
    assert euler_recursion_rank(3, 4) == 22
    assert euler_recursion_rank(4, 2) == 21
    for d in (3, 4, 7):
        assert euler_recursion_rank(d, 0) == d - 1


def euler_by_recursion(d, k_max):
    """h_0, ..., h_{k_max} by the Euler-characteristic recursion of the
    tower of covers, (-1)^k h_k = (d-1)(1 - (-1)^(k-1) h_{k-1}) from
    h_0 = d - 1: the oracle of the closed form."""
    h = d - 1
    yield h
    for j in range(1, k_max + 1):
        h = (-1) ** j * (d - 1) * (1 - (-1) ** (j - 1) * h)
        yield h


def test_euler_closed_form_matches_the_recursion_up_to_the_cli_limits():
    for d in range(3, cli.MAX_D + 1):
        for k, h in enumerate(euler_by_recursion(d, cli.MAX_K)):
            assert euler_recursion_rank(d, k) == h, (d, k)


def test_euler_matches_griffiths_on_grid():
    for d in range(3, 10):
        for k in range(0, 8):
            assert euler_recursion_rank(d, k) == primitive_middle_rank(d, k), (d, k)


def identity_holds(d, k):
    total, lower, same = dim_identity_terms(CoverSpec(d, k))
    return total == lower + same


def test_dim_identity_examples():
    assert primitive_middle_rank(4, 3) == 60
    assert 60 == 3 * 6 + 2 * 21
    assert dim_identity_terms(CoverSpec(4, 2)) == (60, 18, 42)
    assert primitive_middle_rank(3, 5) == 42
    assert 42 == 2 * 10 + 1 * 22
    assert dim_identity_terms(CoverSpec(3, 4)) == (42, 20, 22)
    assert identity_holds(6, 3)


def test_dim_identity_on_grid():
    for d, k in GRID:
        if k >= 2:
            assert identity_holds(d, k), (d, k)


# ---------------------------------------------------------------------------
# W and the decomposition of the next cover


def test_build_W_ranks():
    assert build_W(CoverSpec(4, 2)).rank == 42
    assert build_W(CoverSpec(5, 2)).rank == 3 * primitive_middle_rank(5, 2)
    for d, k in GRID:
        spec = CoverSpec(d, k)
        assert build_W(spec).rank == (d - 2) * euler_recursion_rank(d, k), (d, k)


def test_W_is_the_matched_tensor():
    spec = CoverSpec(3, 4)
    W = build_W(spec)
    assert W == tensor_invariants(
        spec.cohomology, curve_h1(3), rule="sum"
    )
    assert W.rank == 22


def test_W_is_two_shifted_copies_of_the_table_on_the_sweep_grid():
    # h^p_a(W) = (d - 1 - a) h^p_a + (a - 1) h^{p-1}_a, the factors being
    # the Fermat curve's h^{0,1} and h^{1,0} at residue -a; for d >= 4
    # some factor exceeds 1, so W's table is no move of whole columns
    for d in range(3, 26):
        for spec in covers.tower(d, 15):
            h, k = spec.cohomology, spec.k
            vectors = {
                a: [(d - 1 - a) * h.entry(p, a) + (a - 1) * h.entry(p - 1, a)
                    for p in range(k + 2)]
                for a in range(1, d)
            }
            expected = CMHodgeStructure(spec.field, k + 1, vectors)
            hodge.require_equal(build_W(spec), expected, f"W of {spec}")


def test_cubic_W_equals_twisted_half_twist():
    for k in range(2, 8):
        spec = CoverSpec(3, k)
        W = build_W(spec)
        assert W == tate_twist(pos_half_twist(primitive_V(spec)), -1), k


def test_z_decomposition_examples():
    ranks = z_decomposition(CoverSpec(4, 2))
    assert sum(ranks) == 60
    assert ranks == [18, 42]
    ranks = z_decomposition(CoverSpec(3, 4))
    assert sum(ranks) == 42
    assert ranks == [20, 22]
    ranks = z_decomposition(CoverSpec(3, 2))
    assert sum(ranks) == 10
    assert ranks == [4, 6]


def test_z_decomposition_on_grid():
    for d, k in GRID:
        ranks = z_decomposition(CoverSpec(d, k))
        assert sum(ranks) == euler_recursion_rank(d, k + 1)


def test_a_checksum_mismatch_fails_loudly(monkeypatch):
    # one too high one level up, where only the checksum reads it
    real = covers.euler_recursion_rank
    monkeypatch.setattr(
        covers, "euler_recursion_rank", lambda d, k: real(d, k) + (k == 3)
    )
    message = "H^3_0(Z_3) for d=4: checksum 60 != expected 61"
    with pytest.raises(ValueError) as caught:
        z_decomposition(CoverSpec(4, 2))
    assert str(caught.value) == message
    cell = sweeps.check_cover("z-checksum", CoverSpec(4, 2))
    assert (cell.ok, cell.detail) == (False, message)


def test_a_regraded_W_fails_the_z_checksum_at_its_first_hodge_number(monkeypatch):
    # the conjugate Fermat curve makes a W of the right rank but the
    # grading of the "difference" rule, which only the Hodge-number
    # identity sees
    real = covers.curve_h1

    def conjugate_curve(d):
        vectors = {a: vec[::-1] for a, vec in real(d).vectors.items()}
        return CMHodgeStructure(make_cyclotomic(d), 1, vectors)

    monkeypatch.setattr(covers, "curve_h1", conjugate_curve)
    message = "H^4_0(Z_4) for d=3: h^1 = 1 != 0 (twisted copies) + 4 (W)"
    with pytest.raises(ValueError) as caught:
        z_decomposition(CoverSpec(3, 3))
    assert str(caught.value) == message
    cell = sweeps.check_cover("z-checksum", CoverSpec(3, 3))
    assert (cell.ok, cell.detail) == (False, message)


def test_corollary_of_inclusion_rank_inequality():
    # when the half twist exists, (d-1) h_{k-1} + rank(V) <= h_{k+1}
    for d, k in GRID:
        spec = CoverSpec(d, k)
        if not half_twist_exists_direct(spec):
            continue
        V = primitive_V(spec)
        lhs = (d - 1) * primitive_middle_rank(d, k - 1) + V.rank
        assert lhs <= primitive_middle_rank(d, k + 1), (d, k)


# ---------------------------------------------------------------------------
# quartic covers


def test_quartic_split_table_equality():
    for k in (1, 2, 3):
        ranks = quartic_W_split(CoverSpec(4, k))
        assert sum(ranks) == build_W(CoverSpec(4, k)).rank
        if k == 2:
            assert ranks == [28, 14]


def bump_first_entry(structure):
    """The structure with its first (p, residue) entry one larger, and
    so its conjugate entry too."""
    table, d, w = structure.table, structure.field.d, structure.weight
    p, a = key = min(table)
    table[key] += 1
    conjugate = (w - p, -a % d)
    if conjugate != key:
        table[conjugate] += 1
    return key, from_table(structure.field, w, table)


def test_quartic_split_failure_names_one_entry(monkeypatch):
    real = covers.build_W
    bumped = {}

    def build_W(spec):
        key, W = bump_first_entry(real(spec))
        bumped["key"] = key
        return W

    monkeypatch.setattr(covers, "build_W", build_W)
    with pytest.raises(ValueError) as caught:
        quartic_W_split(CoverSpec(4, 2))
    message = str(caught.value)
    p, a = bumped["key"]
    assert message.count("entry") == 1 and "{" not in message
    assert f"entry (p={p}, residue={a}): " in message


def test_ks_space_failure_names_one_entry(monkeypatch):
    real = covers.tate_twist
    monkeypatch.setattr(
        covers, "tate_twist", lambda V, m: bump_first_entry(real(V, m))[1]
    )
    with pytest.raises(ValueError) as caught:
        ks_invariant_space(CoverSpec(3, 4))
    message = str(caught.value)
    assert message.count("entry") == 1 and "{" not in message
    assert message.endswith("entry (p=2, residue=2): 1 != 2")


def test_ks_space_failure_names_a_weight_mismatch(monkeypatch):
    real = covers.tate_twist
    monkeypatch.setattr(covers, "tate_twist", lambda V, m: real(V, m - 1))
    with pytest.raises(ValueError, match=r"weight 6 != 8$"):
        ks_invariant_space(CoverSpec(3, 4))


def test_quartic_split_rejects_other_degrees():
    with pytest.raises(UnsupportedCaseError):
        quartic_W_split(CoverSpec(3, 2))


def test_quartic_isogeny_report():
    ranks = quartic_isogeny_report(CoverSpec(4, 2))
    assert sum(ranks) == 30
    assert ranks == [9, 14, 7]


@pytest.mark.parametrize("d, k", [(4, 1), (4, 3), (3, 2), (5, 2)])
def test_quartic_isogeny_report_rejects_other_covers(d, k):
    with pytest.raises(UnsupportedCaseError):
        quartic_isogeny_report(CoverSpec(d, k))


# ---------------------------------------------------------------------------
# gamma invariants and the Kuga-Satake space


def test_gamma_invariants_examples():
    assert fermat_gamma_invariants(4) == [1]
    assert fermat_gamma_invariants(7) == [1, 2, 3]
    assert set(fermat_gamma_invariants(7)) == set(CoverSpec(7, 1).field.sigma0)


def test_gamma_invariant_dimension():
    for d in range(3, 13):
        assert gamma_invariant_h1_dimension(d) == 2 * ((d - 1) // 2)


def test_ks_invariant_space_theorem_cases():
    S = ks_invariant_space(CoverSpec(3, 4))
    assert S.rank == 22
    assert S == tate_twist(primitive_V(CoverSpec(3, 4)), -1)
    S = ks_invariant_space(CoverSpec(4, 2))
    assert S.rank == 14


def test_ks_invariant_space_rank_preserved_on_grid():
    for d, k in GRID:
        spec = CoverSpec(d, k)
        assert ks_invariant_space(spec).rank == primitive_V(spec).rank, (d, k)


# ---------------------------------------------------------------------------
# one eigenspace table per cover


@pytest.fixture
def table_builds(monkeypatch):
    """Counts the series that specs build by the recurrence, by (d, k):
    a single cover's.  A storey of a tower is stepped from the one below
    it, the first from P."""
    builds = Counter()
    build = covers.power_series

    def counted(d, n):
        builds[(d, n - 1)] += 1
        return build(d, n)

    monkeypatch.setattr(covers, "power_series", counted)
    return builds


@pytest.mark.parametrize("d, k", [(3, 4), (7, 2), (4, 3), (6, 5), (8, 1)])
def test_round_trip_cell_builds_one_table(table_builds, d, k):
    assert sweeps.run_check("round-trip", d, k).ok
    assert table_builds == {(d, k): 1}


def test_round_trip_cell_half_twists_each_rung_once(monkeypatch):
    # (3, 7) has q = 2 and runs both round trips: V, V(1) and V(2) are
    # each lowered once, for the round trips and the commutations
    seen = []
    real = hodge._shift_sigma0

    def counted(structure, step):
        if step < 0:
            seen.append(structure)
        return real(structure, step)

    monkeypatch.setattr(hodge, "_shift_sigma0", counted)
    spec = CoverSpec(3, 7)
    cell = sweeps.check_cover("round-trip", spec)
    assert cell.ok
    assert cell.detail == "round trips: V,V(q); commutations: 3"
    V = primitive_V(spec)
    assert seen == [V, tate_twist(V, 1), tate_twist(V, 2)]


def test_the_normal_form_is_checked_once_per_spec(monkeypatch):
    spec = CoverSpec(5, 7)
    first = qt_decompose(spec)
    # with every table now lacking its extremal piece, only a new spec
    # checks its normal form again
    monkeypatch.setattr(
        CMHodgeStructure, "row", lambda self, p: [0] * self.field.d
    )
    assert qt_decompose(spec) is first
    with pytest.raises(InvariantError, match="extremal"):
        qt_decompose(CoverSpec(5, 7))


def test_half_twist_command_builds_one_table(table_builds, capsys):
    assert cli.main(["half-twist", "7", "5", "--tate"]) == 0
    assert "half twist of V(q)" in capsys.readouterr().out
    assert table_builds == {(7, 5): 1}


def test_a_round_trip_sweep_builds_no_table_directly(table_builds):
    # every row of covers, on a sweep as in the ledger, walks its tower;
    # only single covers take the direct route
    cells = sweeps.run_sweep("round-trip", d_max=8, k_max=5, jobs=1)
    assert len(cells) == 6 * 5
    assert all(cell.ok for cell in cells)
    assert table_builds == {}


def test_a_sweep_reads_its_hodge_columns_off_the_tower(monkeypatch):
    # the Lemma 3.7 terms, the Euler-vs-Griffiths comparison and the
    # graded checksum read the columns of levels k - 1, k and k + 1 off
    # the storeys k, k + 1 and k + 2, and no column off the recurrence
    columns = Counter()
    real = jacobian.power_series

    def counted(d, n):
        columns[(d, n - 2)] += 1
        return real(d, n)

    monkeypatch.setattr(jacobian, "power_series", counted)
    cells = sweeps.run_sweep("z-checksum", d_max=8, k_max=6, jobs=1)
    assert all(cell.ok for cell in cells)
    assert columns == {}
    cells = sweeps.run_sweep("dim-identity", d_max=8, k_max=6, jobs=1)
    assert all(cell.ok for cell in cells)
    assert columns == {}


def test_each_storey_reads_its_branch_column_on_the_sweep_grid():
    # the two routes to a hypersurface's primitive Hodge numbers, on
    # every storey of the CLI grid up to the highest one z-checksum
    # reads: the residue-0 slots of the storey's series, one level below
    # it, and the same slots of P^{k+1} off the recurrence
    for d in range(3, cli.SWEEP_MAX_D + 1):
        for spec in covers.tower(d, cli.SWEEP_MAX_K + 2):
            column = jacobian.primitive_hodge_column(d, spec.k - 1)
            assert spec.branch_column == column, (d, spec.k)
        assert spec.k == cli.SWEEP_MAX_K + 2


def test_a_sweep_holds_at_most_three_storeys_of_a_row(monkeypatch):
    # `up` points only upward, so a storey that the walk has left is
    # freed: after each z-checksum cell only the cell's storey and the
    # two above it, which its checksum read, are alive
    made = []
    post_init = CoverSpec.__post_init__

    def tracked(self):
        post_init(self)
        made.append(weakref.ref(self))

    alive = []
    check_cover = sweeps.check_cover

    def counted(check, spec):
        cell = check_cover(check, spec)
        alive.append(sorted(ref().k for ref in made if ref() is not None))
        return cell

    monkeypatch.setattr(CoverSpec, "__post_init__", tracked)
    monkeypatch.setattr(sweeps, "check_cover", counted)
    cells = sweeps.run_sweep("z-checksum", d_max=6, k_max=5, jobs=1)
    assert all(cell.ok for cell in cells)
    assert alive == [[k, k + 1, k + 2] for d in range(3, 7) for k in range(1, 6)]


@pytest.mark.parametrize("check", sorted(sweeps.CHECKS))
def test_a_check_returns_its_pass_text(check):
    # a check fails only by raising, so what it returns is the text of a
    # passing cell
    assert isinstance(sweeps.CHECKS[check](CoverSpec(5, 3)), str)


@pytest.mark.parametrize("check", sorted(sweeps.CHECKS))
def test_a_passing_sweep_reads_no_per_residue_view(monkeypatch, check):
    # the (p, residue) table and the residue vectors are views for callers
    # outside `hodge`; the sweeps run on the flat rows alone
    def unread(self):
        raise AssertionError("a per-residue view was read")

    for view in ("table", "vectors"):
        monkeypatch.setattr(CMHodgeStructure, view, property(unread))
    cells = sweeps.run_sweep(check, d_max=6, k_max=4, jobs=1)
    assert len(cells) == 4 * 4
    assert all(cell.ok for cell in cells)


def test_a_ks_space_sweep_builds_k_once_per_degree(monkeypatch):
    # a build of K_{-1/2} is a constructor call made by k_minus_half
    builds = Counter()
    init = CMHodgeStructure.__init__

    def counted(self, field, weight, vectors):
        if sys._getframe(1).f_code.co_name == "k_minus_half":
            builds[field.d] += 1
        init(self, field, weight, vectors)

    monkeypatch.setattr(CMHodgeStructure, "__init__", counted)
    hodge.k_minus_half.cache_clear()
    cells = sweeps.run_sweep("ks-space", d_max=9, k_max=7, jobs=1)
    assert len(cells) == 7 * 7
    assert all(cell.ok for cell in cells)
    assert builds == {d: 1 for d in range(3, 10)}


def test_verify_builds_one_table_per_cover(table_builds, monkeypatch, capsys):
    # 55 covers, plus the curve tables of d = 3..9 that build_W tensors
    # with, each read off its tower series and none built directly: one
    # walk to k = 8 per degree of the ledger, and one first storey per
    # degree for its curve
    walks, read_off = Counter(), Counter()
    tower, residue_vectors = covers.tower, covers.residue_vectors

    def walked(d, k_max):
        walks[(d, k_max)] += 1
        return tower(d, k_max)

    def counted(series, d, k):
        read_off[(d, k)] += 1
        return residue_vectors(series, d, k)

    monkeypatch.setattr(covers, "tower", walked)
    monkeypatch.setattr(covers, "residue_vectors", counted)
    curve_h1.cache_clear()
    assert cli.main(["verify"]) == 0
    capsys.readouterr()
    assert table_builds == {}
    assert sum(read_off.values()) == 62
    assert walks == {(d, k_max): 1 for d in range(3, 10) for k_max in (1, 8)}


@pytest.mark.parametrize("check", sorted(sweeps.CHECKS))
def test_a_sweep_of_any_check_builds_no_table_directly(table_builds, check):
    # the curve tables of w-rank and z-checksum come off towers too; the
    # oracle's one-pass table is built by `jacobian.eigenspace_dims`, not
    # through a spec
    curve_h1.cache_clear()
    cells = sweeps.run_sweep(check, d_max=14, k_max=6, jobs=1)
    assert len(cells) == 12 * 6
    assert all(cell.ok for cell in cells)
    assert table_builds == {}

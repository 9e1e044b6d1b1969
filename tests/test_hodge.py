from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halftwist import cli, covers, hodge
from halftwist.cyclotomic import all_cm_types, make_cyclotomic
from halftwist.hodge import (
    CMHodgeStructure,
    EmptyStructureError,
    FieldMismatchError,
    MalformedStructureError,
    NoHalfTwistError,
    NotWeightOneError,
    TwistRangeError,
    abelian_summary,
    collapse_residues,
    direct_sum,
    has_positive_half_twist,
    k_minus_half,
    level,
    neg_half_twist,
    pos_half_twist,
    require_equal,
    tate_twist,
    tensor,
    tensor_invariants,
)
from halftwist.covers import CoverSpec, curve_h1, primitive_V, tower
from hodge_tables import from_table

K3 = make_cyclotomic(3)
K4 = make_cyclotomic(4)
K5 = make_cyclotomic(5)


def symmetric_structure(field, weight, half_entries):
    """Build a conjugation-symmetric table from one representative per
    conjugate orbit."""
    table = {}
    for (p, a), dim in half_entries.items():
        table[(p, a % field.d)] = table.get((p, a % field.d), 0) + dim
        mirror = (weight - p, (-a) % field.d)
        if mirror != (p, a % field.d):
            table[mirror] = table.get(mirror, 0) + dim
    return from_table(field, weight, table)


# ---------------------------------------------------------------------------
# construction


def test_rejects_non_effective_entries():
    # a negative dimension, a vector of the wrong length, and a table
    # entry outside 0 <= p <= weight
    for vectors in ({1: (1, -1), 3: (-1, 1)}, {1: (0, 0, 1), 3: (1, 0, 0)}):
        with pytest.raises(MalformedStructureError):
            CMHodgeStructure(K4, 1, vectors)
    with pytest.raises(MalformedStructureError):
        from_table(K4, 1, {(2, 1): 1, (-1, 3): 1})


def test_the_effectivity_error_names_the_first_negative_entry():
    with pytest.raises(MalformedStructureError) as info:
        CMHodgeStructure(K4, 2, {1: (0, -11, 4), 3: (4, 0, 0)})
    assert str(info.value) == "not effective: entry (p=1, residue=1) = -11"
    with pytest.raises(MalformedStructureError) as info:
        CMHodgeStructure(K4, 1, {1: (0, 0, 1), 3: (1, 0, 0)})
    assert str(info.value) == "not effective: (0, 0, 1) at residue 1"


@pytest.mark.parametrize(
    "field, weight, vectors, named",
    [
        # symmetric rows: the negative entries mirror each other, one in
        # the scanned first half; the error names the lower residue's
        (K5, 1, {2: (0, -3), 3: (-3, 0)}, "(p=1, residue=2) = -3"),
        # a negative entry alone at the middle of the rows (residue d/2)
        (K4, 0, {2: (-1,)}, "(p=0, residue=2) = -1"),
        # asymmetric rows with a negative entry in their second half
        (K4, 1, {1: (0, 1), 3: (0, -2)}, "(p=1, residue=3) = -2"),
    ],
)
def test_the_effectivity_error_wins_over_the_symmetry_error(
    field, weight, vectors, named
):
    with pytest.raises(MalformedStructureError) as info:
        CMHodgeStructure(field, weight, vectors)
    assert str(info.value) == f"not effective: entry {named}"


def test_rejects_residue_keys_outside_the_field():
    # a key is a residue 0..d-1, not any integer congruent to one: 5 would
    # show in `table` while `entry(1, 5)` reads residue 1, and -1 would
    # make a structure unequal to the same one keyed at 3
    for key in (5, -1, 4):
        vectors = {key: (0, 1), 3: (1, 0)}
        with pytest.raises(MalformedStructureError, match=r"outside 0\.\.3"):
            CMHodgeStructure(K4, 1, vectors=vectors)


def test_rejects_asymmetric_tables():
    # the error names the first entry whose conjugate differs, and both
    with pytest.raises(MalformedStructureError) as info:
        CMHodgeStructure(K4, 2, {1: (0, 0, 1)})
    assert str(info.value) == (
        "table breaks conjugation symmetry: entry (p=2, residue=1) = 1, "
        "conjugate (p=0, residue=3) = 0"
    )


@pytest.mark.parametrize(
    "field, weight, vectors",
    [
        # the upper partner of residue 1 is present but not the reverse
        (K5, 1, {1: (0, 1), 4: (0, 1)}),
        # a missing partner, seen from the lower and from the upper residue
        (K5, 1, {1: (0, 1)}),
        (K5, 1, {4: (1, 0)}),
        # residues 0 and d/2 are their own conjugates
        (K4, 1, {0: (1, 0)}),
        (K4, 2, {2: (0, 1, 2)}),
    ],
)
def test_each_conjugate_pair_is_checked(field, weight, vectors):
    with pytest.raises(MalformedStructureError, match="conjugation symmetry"):
        CMHodgeStructure(field, weight, vectors)


def test_zero_entries_are_dropped():
    s = CMHodgeStructure(K4, 2, {1: (0, 0, 1), 3: [1, 0, 0], 2: (0, 0, 0)})
    assert s.table == {(2, 1): 1, (0, 3): 1}
    assert s.rank == 2
    assert dict(s.vectors) == {1: (0, 0, 1), 3: (1, 0, 0)}
    with pytest.raises(TypeError):
        s.vectors[2] = (0, 1, 0)


# ---------------------------------------------------------------------------
# level


def test_level_examples():
    assert level(k_minus_half(K4)) == 1
    # cubic fourfold after one Tate twist: entries at p = 2, 1, 0 of weight 2
    V1 = tate_twist(primitive_V(CoverSpec(3, 4)), 1)
    assert level(V1) == 2
    # cubic surface: everything sits in the middle
    assert level(primitive_V(CoverSpec(3, 2))) == 0


def test_level_of_empty_structure():
    with pytest.raises(EmptyStructureError):
        level(CMHodgeStructure(K4, 2, {}))


# ---------------------------------------------------------------------------
# Tate twists


def test_tate_twist_identity_and_inverse():
    V = primitive_V(CoverSpec(3, 4))
    assert tate_twist(V, 0) == V
    assert tate_twist(tate_twist(V, 1), -1) == V


def test_tate_twist_h20_of_cubic_fourfold():
    V1 = tate_twist(primitive_V(CoverSpec(3, 4)), 1)
    assert V1.weight == 2
    assert V1.hodge_numbers()[2] == 1


def test_tate_twist_out_of_range():
    with pytest.raises(TwistRangeError):
        tate_twist(primitive_V(CoverSpec(3, 4)), 2)


# ---------------------------------------------------------------------------
# the weight-one CM structure


def test_k_minus_half_d4():
    K = k_minus_half(K4)
    assert K.rank == 2
    assert K.table == {(1, 1): 1, (0, 3): 1}


def test_k_minus_half_d3_is_elliptic():
    K = k_minus_half(K3)
    assert K.rank == 2
    assert abelian_summary(K).dim_abelian == 1
    assert abelian_summary(K).cm_type == (1, 0)


def test_k_minus_half_d5():
    K = k_minus_half(K5)
    assert K.rank == 4
    assert abelian_summary(K).dim_abelian == 2


def test_k_minus_half_is_built_once_per_field():
    for field in (K3, K4, K5):
        assert k_minus_half(field) is k_minus_half(field)


# ---------------------------------------------------------------------------
# half twists


def test_neg_twist_of_trivial_structure_is_k_minus_half():
    for field in (K3, K4, K5, make_cyclotomic(12)):
        # the field itself: weight 0, one dimension per unit
        trivial = CMHodgeStructure(field, 0, {a: (1,) for a in field.units})
        assert neg_half_twist(trivial) == k_minus_half(field)


def test_half_twists_follow_a_replaced_cm_type():
    # over the conjugate CM-type {3, 4}, K_{-1/2} carries 3 and 4 in its
    # top piece, so that piece is one-sided, and both twists move 3 and 4
    field = replace(K5, sigma0=frozenset({3, 4}))
    K = k_minus_half(field)
    assert {a for p, a in K.table if p == 1} == {3, 4}
    assert hodge.top_offenders(K, 1) == []
    assert has_positive_half_twist(K)
    lowered = pos_half_twist(K)
    assert lowered.table == {(0, a): 1 for a in (1, 2, 3, 4)}
    trivial = CMHodgeStructure(field, 0, {a: (1,) for a in field.units})
    for raised in (neg_half_twist(lowered), neg_half_twist(trivial)):
        assert raised.table == {(1, 3): 1, (1, 4): 1, (0, 1): 1, (0, 2): 1}


def test_pos_twist_requires_one_sided_top():
    V = symmetric_structure(K4, 2, {(2, 3): 1, (1, 1): 2})
    with pytest.raises(NoHalfTwistError, match=r"\(2, 3\)"):
        pos_half_twist(V)
    assert not has_positive_half_twist(V)


def test_kondo_twist_table():
    V = primitive_V(CoverSpec(4, 2))
    tw = pos_half_twist(V)
    assert tw.weight == 1 and tw.rank == 14
    summary = abelian_summary(tw)
    assert summary.dim_abelian == 7
    assert summary.cm_type == (1, 6)


def test_cubic_fourfold_twist_signature():
    V1 = tate_twist(primitive_V(CoverSpec(3, 4)), 1)
    tw = pos_half_twist(V1)
    summary = abelian_summary(tw)
    assert summary.dim_abelian == 11
    assert summary.cm_type == (1, 10)


def test_round_trip_on_the_grid():
    for d in range(3, 9):
        for k in range(1, 9):
            V = primitive_V(CoverSpec(d, k))
            if not has_positive_half_twist(V):
                continue
            tw = pos_half_twist(V)
            # no entry may survive below index zero
            assert all(p >= 0 for (p, _) in tw.table)
            assert neg_half_twist(tw) == V


def test_twist_tate_commutation():
    compared = 0
    for d in range(3, 9):
        for k in range(1, 9):
            V = primitive_V(CoverSpec(d, k))
            max_m = min((p for (p, _) in V.table), default=0)
            for m in range(max_m + 1):
                try:
                    lhs = pos_half_twist(tate_twist(V, m))
                    rhs = tate_twist(pos_half_twist(V), m)
                except (NoHalfTwistError, TwistRangeError):
                    continue
                assert lhs == rhs, (d, k, m)
                compared += 1
    assert compared > 0


# ---------------------------------------------------------------------------
# tensor products


def test_tensor_unit_law():
    V = primitive_V(CoverSpec(4, 2))
    unit = CMHodgeStructure(K4, 0, {0: (1,)})
    assert tensor(V, unit) == V
    assert tensor(unit, V) == V


def test_tensor_rank_is_multiplicative():
    from halftwist.covers import curve_h1

    H2 = CoverSpec(4, 2).cohomology
    H1 = curve_h1(4)
    assert H2.rank == 21 and H1.rank == 6
    assert tensor(H2, H1).rank == 126


def test_direct_sum_of_two_weights_names_both():
    V = primitive_V(CoverSpec(4, 2))
    with pytest.raises(ValueError) as caught:
        direct_sum(V, V, tate_twist(V, -1))
    assert not isinstance(caught.value, FieldMismatchError)
    assert str(caught.value) == "direct sum needs one weight: 2 != 4"


def test_tensor_field_mismatch():
    with pytest.raises(FieldMismatchError) as caught:
        tensor(k_minus_half(K3), k_minus_half(K4))
    assert str(caught.value) == "tensor needs one field: degree 3 != 4"


def units_over_both_cm_types():
    """The weight-0 structure with one dimension per unit over d = 5,
    over the preferred CM-type {1, 2} and over its conjugate {3, 4}:
    the same table, but not the same half twists."""
    other = replace(K5, sigma0=frozenset({3, 4}))
    return [CMHodgeStructure(f, 0, {a: (1,) for a in f.units}) for f in (K5, other)]


def test_structures_over_different_cm_types_are_different():
    left, right = units_over_both_cm_types()
    assert left.table == right.table
    assert neg_half_twist(left) != neg_half_twist(right)
    assert left != right
    assert len({left, right}) == 2
    with pytest.raises(ValueError) as caught:
        require_equal(left, right, "ctx")
    assert str(caught.value) == "ctx: CM-type [1, 2] != [3, 4]"


def test_structures_over_different_cm_types_print_differently():
    left, right = units_over_both_cm_types()
    assert repr(left) == "CMHodgeStructure(d=5, sigma0=[1, 2], weight=0, rank=4)"
    assert repr(right) == "CMHodgeStructure(d=5, sigma0=[3, 4], weight=0, rank=4)"
    assert repr(left.field) != repr(right.field)


def test_a_row_reads_every_residue_at_one_hodge_index():
    H = tensor(primitive_V(CoverSpec(4, 2)), curve_h1(4))
    assert H._zero
    for p in range(-1, H.weight + 2):
        assert H.row(p) == [H.entry(p, a) for a in range(4)], p


@pytest.mark.parametrize(
    "combine, op",
    [
        (tensor, "tensor"),
        (partial(tensor_invariants, rule="sum"), "tensor_invariants"),
        (partial(tensor_invariants, rule="difference"), "tensor_invariants"),
        (direct_sum, "direct sum"),
    ],
    ids=["tensor", "invariants-sum", "invariants-difference", "direct_sum"],
)
def test_operations_reject_operands_over_different_cm_types(combine, op):
    left, right = units_over_both_cm_types()
    with pytest.raises(FieldMismatchError) as caught:
        combine(left, right)
    assert str(caught.value) == f"{op} needs one field: CM-type [1, 2] != [3, 4]"


# ---------------------------------------------------------------------------
# invariant parts and the matched tensor identities


def test_invariant_part_of_absent_residue_is_empty():
    V = primitive_V(CoverSpec(4, 2))  # residues {1, 3}, so sums hit {0, 2}
    T = tensor(V, V)
    assert set(T.vectors) == {0, 2}
    assert T.restrict_residues([1]).rank == 0
    assert T.restrict_residues([3]).rank == 0


def test_invariant_part_slices_total_residue():
    from halftwist.covers import curve_h1

    # rank of the residue-0 slice of the tensor with the curve: (d-2) h_k
    T = tensor(CoverSpec(3, 4).cohomology, curve_h1(3))
    assert T.restrict_residues([0]).rank == 22


def test_restricting_to_a_residue_without_its_conjugate_fails():
    # (a residue whose vector vanishes may go without its conjugate: see
    # test_invariant_part_of_absent_residue_is_empty)
    V = primitive_V(CoverSpec(5, 2))
    assert V.restrict_residues([1, 4]).rank == sum(V.vectors[1]) + sum(V.vectors[4])
    with pytest.raises(MalformedStructureError, match="conjugation symmetry"):
        V.restrict_residues([1])


def test_require_equal_names_the_first_difference():
    V = primitive_V(CoverSpec(4, 2))
    require_equal(V, V, "same")
    # one conjugate pair one larger: (2, 1) and (0, 3), which comes first
    bumped = from_table(
        K4, V.weight, {**V.table, (2, 1): 2, (0, 3): V.entry(0, 3) + 1}
    )
    with pytest.raises(ValueError) as caught:
        require_equal(V, bumped, "ctx")
    assert str(caught.value) == "ctx: entry (p=0, residue=3): 1 != 2"
    with pytest.raises(ValueError, match=r"^ctx: weight 2 != 4$"):
        require_equal(V, tate_twist(V, -1), "ctx")
    with pytest.raises(ValueError, match=r"^ctx: degree 3 != 4$"):
        require_equal(k_minus_half(K3), k_minus_half(K4), "ctx")


def test_matched_tensor_reproduces_both_twists():
    for d in range(3, 9):
        for k in range(1, 9):
            V = primitive_V(CoverSpec(d, k))
            K = k_minus_half(V.field)
            assert tensor_invariants(V, K, rule="difference") == neg_half_twist(V)
            if has_positive_half_twist(V):
                direct = tensor_invariants(V, K, rule="sum")
                assert direct == tate_twist(pos_half_twist(V), -1)


# ---------------------------------------------------------------------------
# the two routes of tensor_invariants: a unit-column weight-one factor
# moves whole columns, any other factor takes the masked copies


def masked_route(left, right, rule):
    """`tensor_invariants` by the masked copies, whatever the factor."""
    rows = hodge._masked_copies(left._rows, right._rows, left.field.d - 1, rule)
    zero = left._zero and right._zero and hodge._convolve(left._zero, right._zero)
    return CMHodgeStructure(left.field, left.weight + right.weight, (rows, zero))


def test_the_ks_tensors_match_the_masked_copies_on_the_sweep_grid():
    # both K_{-1/2} tensors of `ks_invariant_space`, on every cell a
    # sweep may ask for: "sum" on V, "difference" on the intermediate
    for d in range(3, cli.SWEEP_MAX_D + 1):
        K = k_minus_half(make_cyclotomic(d))
        for spec in tower(d, cli.SWEEP_MAX_K):
            inner = tensor_invariants(spec.V, K, rule="sum")
            require_equal(inner, masked_route(spec.V, K, "sum"), f"{spec} sum")
            outer = tensor_invariants(inner, K, rule="difference")
            expected = masked_route(inner, K, "difference")
            require_equal(outer, expected, f"{spec} difference")


@st.composite
def unit_column_cases(draw):
    """A field of random degree and random CM-type, a random structure
    over it, and a weight-one factor whose residue vectors are each
    (0, 0), (1, 0) or (0, 1), with (1, 1) at residue 0 at times."""
    base = make_cyclotomic(draw(st.sampled_from(DEGREES)))
    sigma0 = draw(st.sampled_from(list(all_cm_types(base))))
    field = replace(base, sigma0=sigma0)
    left = draw_structure(draw, field, st.integers(min_value=0, max_value=field.d - 1))
    vectors = {0: (1, 1)} if draw(st.booleans()) else {}
    for a in range(1, (field.d + 1) // 2):
        vec = draw(st.sampled_from([(0, 0), (1, 0), (0, 1)]))
        vectors |= {a: vec, field.d - a: vec[::-1]}
    return left, CMHodgeStructure(field, 1, vectors)


@given(unit_column_cases(), st.sampled_from(["sum", "difference"]))
@settings(max_examples=150, deadline=None)
def test_unit_column_factors_match_the_masked_copies(case, rule):
    left, right = case
    moved = tensor_invariants(left, right, rule=rule)
    assert moved == masked_route(left, right, rule)
    assert (moved.weight, moved.table) == entrywise_tensor_invariants(left, right, rule)


@pytest.mark.parametrize(
    "right",
    [
        curve_h1(7),
        CMHodgeStructure(K4, 1, {1: (1, 1), 3: (1, 1)}),
        CMHodgeStructure(K4, 1, {1: (2, 0), 3: (0, 2)}),
    ],
    ids=["fermat-curve", "column-1-1", "entry-2"],
)
def test_other_factors_take_the_masked_copies(right, monkeypatch):
    def refused(*args):
        raise AssertionError("column route taken")

    left = primitive_V(CoverSpec(right.field.d, 3))
    monkeypatch.setattr(hodge, "_moved_columns", refused)
    for rule in ("sum", "difference"):
        result = tensor_invariants(left, right, rule=rule)
        assert result == masked_route(left, right, rule)
        assert (result.weight, result.table) == entrywise_tensor_invariants(
            left, right, rule
        )


def test_k_minus_half_takes_the_column_route(monkeypatch):
    def refused(*args):
        raise AssertionError("masked copies taken")

    monkeypatch.setattr(hodge, "_masked_copies", refused)
    for d in range(3, 13):
        for spec in tower(d, 6):
            covers.ks_invariant_space(spec)


def test_an_unknown_matching_rule_fails_before_any_work():
    empty = CMHodgeStructure(K4, 1, {})
    with pytest.raises(ValueError, match="unknown matching rule 'bogus'"):
        tensor_invariants(empty, k_minus_half(K4), rule="bogus")


def test_tate_commutations_let_a_defect_propagate(monkeypatch):
    # only a rung without a twist marks a composite undefined
    V = primitive_V(CoverSpec(4, 2))
    assert hodge.ladder_commutations(hodge.tate_ladder(V)) > 0

    def broken(structure, step):
        raise MalformedStructureError("shift defect")

    monkeypatch.setattr(hodge, "_shift_sigma0", broken)
    with pytest.raises(MalformedStructureError, match="shift defect"):
        hodge.ladder_commutations(hodge.tate_ladder(V))


def test_tate_commutations_twist_the_structure_once(monkeypatch):
    V = primitive_V(CoverSpec(3, 7))
    real = hodge._shift_sigma0
    seen = []

    def counted(structure, step):
        if step < 0:
            seen.append(structure)
        return real(structure, step)

    monkeypatch.setattr(hodge, "_shift_sigma0", counted)
    compared = hodge.ladder_commutations(hodge.tate_ladder(V))
    assert compared > 1
    assert sum(structure is V for structure in seen) == 1
    # one more lowering per m >= 1, of the Tate twist of V; m = 0
    # counts as the identity and rebuilds nothing
    assert len(seen) == compared


def test_a_failing_twist_of_the_half_twist_fails_the_commutations(monkeypatch):
    # wherever a rung has a twist, the Tate twist of V's half twist is
    # defined, so a TwistRangeError there is a fault and not a composite
    # left out of the count
    V = primitive_V(CoverSpec(3, 7))
    assert hodge.ladder_commutations(hodge.tate_ladder(V)) == 3
    real = hodge.tate_twist

    def refused(structure, m):
        if structure.weight == V.weight - 1 and m >= 1:
            raise TwistRangeError("forced range fault")
        return real(structure, m)

    monkeypatch.setattr(hodge, "tate_twist", refused)
    with pytest.raises(TwistRangeError, match="forced range fault"):
        hodge.ladder_commutations(hodge.tate_ladder(V))


# ---------------------------------------------------------------------------
# abelian summaries


def test_abelian_summary_requires_weight_one():
    with pytest.raises(NotWeightOneError):
        abelian_summary(primitive_V(CoverSpec(4, 2)))


def test_abelian_summary_signature_mass():
    for d in (3, 4, 5, 7, 8, 12):
        field = make_cyclotomic(d)
        summary = abelian_summary(k_minus_half(field))
        assert sum(m + mbar for m, mbar in summary.signature.values()) == (
            summary.dim_abelian
        )


def test_abelian_summary_needs_unit_support():
    V = CMHodgeStructure(K4, 1, {2: (1, 1)})
    with pytest.raises(MalformedStructureError, match=r"^abelian summary .* \[2\]$"):
        abelian_summary(V)


# ---------------------------------------------------------------------------
# random symmetric tables: operations preserve the symmetry


def draw_structure(draw, field, residues, weight=None):
    """A random conjugation-symmetric structure over `field` whose
    entries sit on residues drawn from the strategy `residues`; of a
    random weight 0..4 unless one is given."""
    if weight is None:
        weight = draw(st.integers(min_value=0, max_value=4))
    n = draw(st.integers(min_value=1, max_value=5))
    entries = {}
    for _ in range(n):
        p = draw(st.integers(min_value=0, max_value=weight))
        a = draw(residues)
        entries[(p, a)] = entries.get((p, a), 0) + draw(
            st.integers(min_value=1, max_value=4)
        )
    return symmetric_structure(field, weight, entries)


# d = 9 is an odd composite: its non-unit residues 3 and 6 form a
# conjugate pair, where the even degrees have the self-conjugate d/2
DEGREES = [3, 4, 5, 6, 8, 9]


@st.composite
def random_structures(draw):
    field = make_cyclotomic(draw(st.sampled_from(DEGREES)))
    return draw_structure(draw, field, st.integers(min_value=0, max_value=field.d - 1))


def conjugation_symmetric(structure):
    """Entry by entry: h^{p,w-p}_a == h^{w-p,p}_{-a}."""
    w, entry = structure.weight, structure.entry
    return all(
        entry(p, a) == entry(w - p, -a)
        for p in range(w + 1)
        for a in range(structure.field.d)
    )


@given(random_structures())
@settings(max_examples=120, deadline=None)
def test_operations_preserve_conjugation_symmetry(V):
    assert conjugation_symmetric(V)
    assert conjugation_symmetric(tensor(V, V))
    assert conjugation_symmetric(tensor_invariants(V, V, rule="sum"))
    assert conjugation_symmetric(tensor(V, V).restrict_residues([0]))
    if set(V.vectors) <= set(V.field.units):
        assert conjugation_symmetric(neg_half_twist(V))
        if has_positive_half_twist(V):
            tw = pos_half_twist(V)
            assert conjugation_symmetric(tw)
            assert neg_half_twist(tw) == V


def test_half_twists_need_unit_support():
    V = symmetric_structure(K4, 2, {(1, 2): 3})
    with pytest.raises(MalformedStructureError):
        neg_half_twist(V)
    with pytest.raises(MalformedStructureError):
        pos_half_twist(V)


@given(random_structures())
@settings(max_examples=60, deadline=None)
def test_tensor_rank_multiplicative_random(V):
    assert tensor(V, V).rank == V.rank * V.rank


# ---------------------------------------------------------------------------
# the entry-wise oracle: every vector operation redone one (p, residue)
# entry at a time on tables, as (weight, table) pairs


def entrywise(field, weight, table):
    """(weight, table) with zero entries dropped and residues reduced;
    MalformedStructureError for an entry outside 0 <= p <= weight."""
    out = {}
    for (p, a), dim in table.items():
        if not dim:
            continue
        if not 0 <= p <= weight:
            raise MalformedStructureError(f"entry at p={p} outside [0, {weight}]")
        out[(p, a % field.d)] = out.get((p, a % field.d), 0) + dim
    if weight < 0:
        raise MalformedStructureError(f"weight {weight}")
    return weight, out


def entrywise_tensor(left, right):
    table = {}
    for (p1, a1), dim1 in left.table.items():
        for (p2, a2), dim2 in right.table.items():
            key = (p1 + p2, a1 + a2)
            table[key] = table.get(key, 0) + dim1 * dim2
    return entrywise(left.field, left.weight + right.weight, table)


def entrywise_tensor_invariants(left, right, rule):
    table = {}
    for (p1, a1), dim1 in left.table.items():
        b = -a1 if rule == "sum" else a1
        for p2 in range(right.weight + 1):
            dim2 = right.table.get((p2, b % right.field.d), 0)
            table[(p1 + p2, a1)] = table.get((p1 + p2, a1), 0) + dim1 * dim2
    return entrywise(left.field, left.weight + right.weight, table)


def entrywise_tate_twist(structure, m):
    table = structure.table
    if m > 0 and table and min(p for p, _ in table) < m:
        raise TwistRangeError(f"twist by {m}")
    shifted = {(p - m, a): dim for (p, a), dim in table.items()}
    return entrywise(structure.field, structure.weight - 2 * m, shifted)


def entrywise_shift_sigma0(structure, step):
    sigma0 = structure.field.sigma0
    shifted = {
        (p + step if a in sigma0 else p, a): dim
        for (p, a), dim in structure.table.items()
    }
    return entrywise(structure.field, structure.weight + step, shifted)


def entrywise_pos_half_twist(structure):
    sigma0, k = structure.field.sigma0, structure.weight
    if any(p == k and a not in sigma0 for (p, a) in structure.table):
        raise NoHalfTwistError("top piece is not one-sided")
    return entrywise_shift_sigma0(structure, -1)


def entrywise_restrict_residues(structure, residues):
    d, w = structure.field.d, structure.weight
    keep = {a % d for a in residues}
    table = {(p, a): dim for (p, a), dim in structure.table.items() if a in keep}
    if any(table.get((w - p, -a % d), 0) != dim for (p, a), dim in table.items()):
        raise MalformedStructureError("a kept entry lost its conjugate")
    return entrywise(structure.field, w, table)


def entrywise_direct_sum(*structures):
    table = {}
    for s in structures:
        for key, dim in s.table.items():
            table[key] = table.get(key, 0) + dim
    return entrywise(structures[0].field, structures[0].weight, table)


def entrywise_collapse_residues(structure):
    table = {}
    for (p, _), dim in structure.table.items():
        table[(p, 0)] = table.get((p, 0), 0) + dim
    return entrywise(structure.field, structure.weight, table)


def outcome(compute):
    """(weight, table) of what `compute` returns, or the type of the
    ValueError it raises."""
    try:
        result = compute()
    except ValueError as exc:
        return type(exc)
    return result if isinstance(result, tuple) else (result.weight, result.table)


@st.composite
def oracle_cases(draw):
    """Random symmetric structures over one field: two of any weights,
    a third of the first one's weight and a fourth on units only; then
    a Tate twist and a set of residues to keep."""
    field = make_cyclotomic(draw(st.sampled_from(DEGREES)))
    any_residue = st.integers(min_value=0, max_value=field.d - 1)
    left = draw_structure(draw, field, any_residue)
    right = draw_structure(draw, field, any_residue)
    same = draw_structure(draw, field, any_residue, weight=left.weight)
    units = draw_structure(draw, field, st.sampled_from(field.units))
    m = draw(st.integers(min_value=-2, max_value=left.weight + 1))
    keep = draw(st.sets(any_residue))
    return left, right, same, units, m, keep


@given(oracle_cases())
@settings(max_examples=200, deadline=None)
def test_vector_operations_match_the_entrywise_oracle(case):
    V, W, S, U, m, keep = case
    pairs = [
        (lambda: tensor(V, W), lambda: entrywise_tensor(V, W)),
        (
            lambda: tensor_invariants(V, W, rule="sum"),
            lambda: entrywise_tensor_invariants(V, W, "sum"),
        ),
        (
            lambda: tensor_invariants(V, W, rule="difference"),
            lambda: entrywise_tensor_invariants(V, W, "difference"),
        ),
        (lambda: tate_twist(V, m), lambda: entrywise_tate_twist(V, m)),
        (lambda: neg_half_twist(U), lambda: entrywise_shift_sigma0(U, 1)),
        (lambda: pos_half_twist(U), lambda: entrywise_pos_half_twist(U)),
        (
            lambda: V.restrict_residues(keep),
            lambda: entrywise_restrict_residues(V, keep),
        ),
        (lambda: direct_sum(V, S, V), lambda: entrywise_direct_sum(V, S, V)),
        (lambda: collapse_residues(V), lambda: entrywise_collapse_residues(V)),
    ]
    for number, (vector_route, entry_route) in enumerate(pairs):
        assert outcome(vector_route) == outcome(entry_route), number


def test_operations_on_cover_tables_match_the_entrywise_oracle():
    # real tables, with entries far larger than the random draws reach:
    # every cover in 3..12 x 1..8, on the tower route that the sweeps read
    for d in range(3, 13):
        C, K = curve_h1(d), k_minus_half(make_cyclotomic(d))
        for spec in tower(d, 8):
            H, V = spec.cohomology, spec.V
            pairs = [
                (partial(tate_twist, H, m), partial(entrywise_tate_twist, H, m))
                for m in (-1, 1)
            ] + [
                (partial(neg_half_twist, V), partial(entrywise_shift_sigma0, V, 1)),
                (partial(pos_half_twist, V), partial(entrywise_pos_half_twist, V)),
            ] + [
                (
                    partial(tensor_invariants, H, right, rule),
                    partial(entrywise_tensor_invariants, H, right, rule),
                )
                for right in (C, K)
                for rule in ("sum", "difference")
            ]
            for number, (vector_route, entry_route) in enumerate(pairs):
                assert outcome(vector_route) == outcome(entry_route), (spec, number)

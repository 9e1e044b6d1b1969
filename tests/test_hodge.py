import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halftwist import hodge
from halftwist.cyclotomic import make_cyclotomic
from halftwist.hodge import (
    CMHodgeStructure,
    EmptyStructureError,
    FieldMismatchError,
    MalformedStructureError,
    NoHalfTwistError,
    NotWeightOneError,
    TwistRangeError,
    abelian_summary,
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
from halftwist.covers import CoverSpec, primitive_V

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
    return CMHodgeStructure(field, weight, table)


# ---------------------------------------------------------------------------
# construction


def test_rejects_non_effective_entries():
    with pytest.raises(MalformedStructureError):
        CMHodgeStructure(K4, 1, {(2, 1): 1, (-1, 3): 1})


def test_rejects_asymmetric_tables():
    with pytest.raises(MalformedStructureError):
        CMHodgeStructure(K4, 2, {(2, 1): 1})


def test_zero_entries_are_dropped():
    s = CMHodgeStructure(K4, 2, {(2, 1): 1, (0, 3): 1, (1, 2): 0})
    assert s.table == {(2, 1): 1, (0, 3): 1}
    assert s.rank == 2


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


# ---------------------------------------------------------------------------
# half twists


def test_neg_twist_of_trivial_structure_is_k_minus_half():
    for field in (K3, K4, K5, make_cyclotomic(12)):
        # the field itself: weight 0, one dimension per unit
        trivial = CMHodgeStructure(field, 0, {(0, a): 1 for a in field.units})
        assert neg_half_twist(trivial) == k_minus_half(field)


def test_pos_twist_requires_one_sided_top():
    V = symmetric_structure(K4, 2, {(2, 3): 1, (1, 1): 2})
    with pytest.raises(NoHalfTwistError, match=r"\(2, 3\)"):
        pos_half_twist(V)
    assert not has_positive_half_twist(V)


def test_pos_twist_rejects_a_sigma0_entry_at_the_bottom():
    # one-sided top, but without conjugation symmetry the sigma0 entry at
    # p = 0 would drop below effectivity
    V = CMHodgeStructure(K4, 1, {(0, 1): 1}, check_symmetry=False)
    assert has_positive_half_twist(V)
    with pytest.raises(MalformedStructureError):
        pos_half_twist(V)


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
    unit = CMHodgeStructure(K4, 0, {(0, 0): 1})
    assert tensor(V, unit) == V
    assert tensor(unit, V) == V


def test_tensor_rank_is_multiplicative():
    from halftwist.covers import curve_h1

    H2 = CoverSpec(4, 2).cohomology
    H1 = curve_h1(4)
    assert H2.rank == 21 and H1.rank == 6
    assert tensor(H2, H1).rank == 126


def test_tensor_field_mismatch():
    with pytest.raises(FieldMismatchError):
        tensor(k_minus_half(K3), k_minus_half(K4))


# ---------------------------------------------------------------------------
# invariant parts and the matched tensor identities


def test_invariant_part_of_absent_residue_is_empty():
    V = primitive_V(CoverSpec(4, 2))  # residues {1, 3}, so sums hit {0, 2}
    T = tensor(V, V)
    assert T.residues() == frozenset({0, 2})
    assert T.restrict_residues([1]).rank == 0
    assert T.restrict_residues([3]).rank == 0


def test_invariant_part_slices_total_residue():
    from halftwist.covers import curve_h1

    # rank of the residue-0 slice of the tensor with the curve: (d-2) h_k
    T = tensor(CoverSpec(3, 4).cohomology, curve_h1(3))
    assert T.restrict_residues([0]).rank == 22


def test_require_equal_names_the_first_difference():
    V = primitive_V(CoverSpec(4, 2))
    require_equal(V, V, "same")
    bumped = CMHodgeStructure(
        K4, V.weight, {**V.table, (2, 1): V.entry(2, 1) + 1}, check_symmetry=False
    )
    with pytest.raises(ValueError) as caught:
        require_equal(V, bumped, "ctx")
    assert str(caught.value) == "ctx: entry (p=2, residue=1): 1 != 2"
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


def test_tate_commutations_let_a_defect_propagate(monkeypatch):
    # only TwistRangeError and NoHalfTwistError mark a composite undefined
    V = primitive_V(CoverSpec(4, 2))
    assert hodge.tate_commutations(V) > 0

    def broken(structure, step):
        raise MalformedStructureError("shift defect")

    monkeypatch.setattr(hodge, "_shift_sigma0", broken)
    with pytest.raises(MalformedStructureError, match="shift defect"):
        hodge.tate_commutations(V)


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
    V = CMHodgeStructure(K4, 1, {(1, 2): 1, (0, 2): 1})
    with pytest.raises(MalformedStructureError, match=r"^abelian summary .* \[2\]$"):
        abelian_summary(V)


# ---------------------------------------------------------------------------
# random symmetric tables: operations preserve the symmetry


@st.composite
def random_structures(draw):
    d = draw(st.sampled_from([3, 4, 5, 6, 8]))
    field = make_cyclotomic(d)
    weight = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=5))
    entries = {}
    for _ in range(n):
        p = draw(st.integers(min_value=0, max_value=weight))
        a = draw(st.integers(min_value=0, max_value=d - 1))
        entries[(p, a)] = entries.get((p, a), 0) + draw(
            st.integers(min_value=1, max_value=4)
        )
    return symmetric_structure(field, weight, entries)


@given(random_structures())
@settings(max_examples=120, deadline=None)
def test_operations_preserve_conjugation_symmetry(V):
    assert V.is_conjugation_symmetric()
    assert tensor(V, V).is_conjugation_symmetric()
    assert tensor_invariants(V, V, rule="sum").is_conjugation_symmetric()
    assert tensor(V, V).restrict_residues([0]).is_conjugation_symmetric()
    if V.residues() <= frozenset(V.field.units):
        assert neg_half_twist(V).is_conjugation_symmetric()
        if has_positive_half_twist(V):
            tw = pos_half_twist(V)
            assert tw.is_conjugation_symmetric()
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

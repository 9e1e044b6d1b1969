"""Acceptance suite: one test per criterion, every equality exact.

Each test prints one `criterion NN PASS/FAIL` line (visible with
``pytest -s`` or in captured output) and enforces its runtime budget.
Run with ``pytest -v tests/test_acceptance.py``.
"""

import time
from contextlib import contextmanager

from halftwist import claims
from halftwist.covers import (
    CoverSpec,
    build_W,
    degree_bound_printed,
    dim_identity_terms,
    euler_recursion_rank,
    half_twist_any_cmtype,
    half_twist_exists_direct,
    half_twist_exists_printed,
    ks_invariant_space,
    primitive_V,
    qt_decompose,
    quartic_W_split,
    quartic_isogeny_report,
    secondary_parts,
    z_decomposition,
)
from halftwist.hodge import (
    abelian_summary,
    neg_half_twist,
    pos_half_twist,
    tate_twist,
)
from halftwist.jacobian import (
    build_w_quotient,
    cover_variables,
    eigenspace_dims,
    primitive_hodge_column,
    primitive_middle_rank,
    shioda_tuple_count,
    torelli_deformation_dimension,
    torelli_differential_rank,
    torelli_witness_nonzero,
    verify_cover_parametrization,
    w_ladder_steps,
)

GRID = [(d, k) for d in range(3, 10) for k in range(1, 8)]


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
    )
    print(f"criterion {number:02d} PASS ({elapsed:.2f}s): {description}")


def test_c01_kondo_quartic_surface_suite():
    with criterion(1, "quartic K3 suite", 1.0):
        spec = CoverSpec(4, 2)
        assert primitive_V(spec).rank == 14
        assert dict(secondary_parts(spec))[2].rank == 7
        summary = abelian_summary(pos_half_twist(primitive_V(spec)))
        assert summary.dim_abelian == 7
        assert summary.cm_type == (1, 6)
        assert primitive_hodge_column(4, 3)[2] == 30
        isogeny = quartic_isogeny_report(spec)
        assert sum(isogeny) == 30
        assert isogeny == [9, 14, 7]


def test_c02_cubic_fourfold_suite():
    with criterion(2, "cubic fourfold suite", 1.0):
        numbers = primitive_hodge_column(3, 4)
        assert numbers[3] == 1 and numbers[2] == 20
        V = primitive_V(CoverSpec(3, 4))
        assert V.rank == 22
        summary = abelian_summary(pos_half_twist(tate_twist(V, 1)))
        assert summary.dim_abelian == 11
        assert summary.cm_type == (1, 10)
        jz5 = euler_recursion_rank(3, 5) // 2
        jx3 = primitive_middle_rank(3, 3) // 2
        assert (jz5, jx3) == (21, 5)
        assert jz5 == 2 * jx3 + summary.dim_abelian


def test_c03_sextic_suite():
    with criterion(3, "sextic surface suite", 1.0):
        spec = CoverSpec(6, 2)
        assert spec.cohomology.rank == 105
        parts = dict(secondary_parts(spec))
        assert parts[6].rank == 42
        assert parts[6].hodge_numbers() == {2: 6, 1: 30, 0: 6}
        cube_part = parts[3]  # the summand with CM by the cube roots
        assert cube_part.rank == 42
        assert cube_part.hodge_numbers() == {2: 3, 1: 36, 0: 3}


def test_c04_quintic_suite():
    with criterion(4, "quintic extremal eigenspaces", 1.0):
        for k in (2, 7):
            spec = CoverSpec(5, k)
            qt = qt_decompose(spec)
            assert k == 5 * qt.q + 2
            top = k - qt.q
            assert primitive_hodge_column(5, k)[top] == k + 2
            dims = eigenspace_dims(5, k)
            assert dims[1][top] == k + 1
            assert dims[2][top] == 1
            assert all(dims[i][top] == 0 for i in range(3, 5))
        curve = eigenspace_dims(5, 1)
        assert [curve[i][1] for i in range(1, 5)] == [3, 2, 1, 0]


def test_c05_oracle_equivalence_full_grid():
    with criterion(5, "tuple enumeration = one-pass table on the grid", 30.0):
        for d, k in GRID:
            dims = eigenspace_dims(d, k)
            tuples = shioda_tuple_count(d, k)
            for i, vector in dims.items():
                for p, value in enumerate(vector):
                    assert value == tuples[(p, i)], (d, k, p, i)


def test_c06_dimension_identity_and_checksums():
    with criterion(6, "dimension identity, decomposition checksum, Euler oracle", 30.0):
        for d, k in GRID:
            spec = CoverSpec(d, k)
            assert euler_recursion_rank(d, k) == primitive_middle_rank(d, k)
            if k >= 2:
                total, lower, same = dim_identity_terms(d, k)
                assert total == lower + same, (d, k)
            ranks = z_decomposition(spec)
            assert sum(ranks) == euler_recursion_rank(d, k + 1)


def test_c07_round_trip_and_commutation():
    with criterion(7, "half-twist round trip and Tate commutation", 30.0):
        trips = 0
        for d, k in GRID:
            spec = CoverSpec(d, k)
            V = primitive_V(spec)
            if half_twist_exists_direct(spec):
                assert neg_half_twist(pos_half_twist(V)) == V, (d, k)
                trips += 1
            if half_twist_exists_direct(spec, tate=True):
                q = qt_decompose(spec).q
                Vq = tate_twist(V, q)
                assert neg_half_twist(pos_half_twist(Vq)) == Vq, (d, k)
                trips += 1
        assert trips > 0
        # commutation swept wherever both composites are defined
        compared = 0
        for d, k in GRID:
            V = primitive_V(CoverSpec(d, k))
            max_m = min((p for (p, _) in V.table), default=0)
            for m in range(max_m + 1):
                try:
                    lhs = pos_half_twist(tate_twist(V, m))
                    rhs = tate_twist(pos_half_twist(V), m)
                except ValueError:
                    continue
                assert lhs == rhs, (d, k, m)
                compared += 1
        assert compared > 0


def test_c08_cubic_identity_and_quartic_split():
    with criterion(8, "W = twisted half twist (d=3); quartic split (d=4)", 30.0):
        for k in range(2, 8):
            spec = CoverSpec(3, k)
            assert build_W(spec) == tate_twist(
                pos_half_twist(primitive_V(spec)), -1
            ), k
        for k in (1, 2, 3):
            quartic_W_split(CoverSpec(4, k))  # raises on any table mismatch


def test_c09_known_discrepancy_detection():
    with criterion(9, "stated-vs-direct disagreement exactly on odd degree", 30.0):
        thm = [
            (d, k)
            for d, k in GRID
            if half_twist_exists_printed(CoverSpec(d, k))
            != half_twist_exists_direct(CoverSpec(d, k), tate=True)
        ]
        assert thm == [(3, 3), (3, 6), (5, 1), (5, 6), (7, 2), (9, 3)]
        cor = [
            (d, k)
            for d, k in GRID
            if degree_bound_printed(CoverSpec(d, k))
            != half_twist_exists_direct(CoverSpec(d, k))
        ]
        assert cor == [(5, 1), (7, 2), (9, 3)]
        assert all(d % 2 == 1 for d, _ in thm + cor)
        for d in (4, 6, 8):
            for k in range(1, 8):
                spec = CoverSpec(d, k)
                assert half_twist_exists_printed(spec) == (
                    half_twist_exists_direct(spec, tate=True)
                )
                assert degree_bound_printed(spec) == half_twist_exists_direct(spec)
        # degree seven surfaces: no CM-type at all rescues the twist
        assert half_twist_any_cmtype(CoverSpec(7, 2)) is False
        # and the ledger reports exactly these families as known
        reports = claims.run_verification()
        known = sorted(
            r.claim_id for r in reports if r.status == claims.STATUS_KNOWN
        )
        assert known == [
            "cor2.7.surfaces_bound",
            "thm2.6.printed_vs_direct.d3",
            "thm2.6.printed_vs_direct.d5",
            "thm2.6.printed_vs_direct.d7",
            "thm2.6.printed_vs_direct.d9",
        ]
        assert claims.exit_code(reports) == 0


def test_c10_torelli_computation():
    with criterion(10, "period-map differential at the Fermat cubic (k=4)", 60.0):
        assert torelli_deformation_dimension(4) == 10
        assert torelli_witness_nonzero(4)
        assert torelli_differential_rank(4) == 10
        table = build_W(CoverSpec(3, 4)).hodge_numbers()
        for p in w_ladder_steps(4):
            assert build_w_quotient(4, p).dimension == table.get(4 - p, 0)


def test_c11_kuga_satake_invariant_space():
    with criterion(11, "triple-tensor invariant space equals V(-1)", 30.0):
        for d, k in ((3, 4), (4, 2)):
            S = ks_invariant_space(CoverSpec(d, k))
            assert S == tate_twist(primitive_V(CoverSpec(d, k)), -1)


def test_c12_cover_parametrization_identity():
    _, _, _, y, u, v = cover_variables()
    with criterion(12, "rational-map identity and its mutations", 1.0):
        assert verify_cover_parametrization() is True
        assert verify_cover_parametrization(u_cube_rhs=-(v**2)) is False
        assert verify_cover_parametrization(cover_numerator=u * y) is False

import json
from collections import Counter
from dataclasses import replace
from itertools import accumulate, chain, islice, product
from operator import sub

import pytest

from halftwist import claims, cli, covers, hodge, jacobian, sweeps
from halftwist.cyclotomic import InvariantError


def test_ledger_is_large_enough():
    assert len(claims.all_claims()) >= 25


def test_claim_ids_are_unique():
    ids = [c.claim_id for c in claims.all_claims()]
    assert len(ids) == len(set(ids))


def test_full_run_has_no_unexpected_failures():
    reports = claims.run_verification()
    assert claims.exit_code(reports) == 0
    failures = [r.claim_id for r in reports if r.status == claims.STATUS_FAIL]
    assert failures == []


def test_known_discrepancies_are_exactly_the_odd_degree_closed_forms():
    reports = claims.run_verification()
    known = sorted(r.claim_id for r in reports if r.status == claims.STATUS_KNOWN)
    assert known == [
        "cor2.7.surfaces_bound",
        "thm2.6.printed_vs_direct.d3",
        "thm2.6.printed_vs_direct.d5",
        "thm2.6.printed_vs_direct.d7",
        "thm2.6.printed_vs_direct.d9",
    ]


def test_discrepancy_claims_are_preregistered():
    flagged = {c.claim_id for c in claims.all_claims() if c.known_discrepancy}
    reports = claims.run_verification()
    known = {r.claim_id for r in reports if r.status == claims.STATUS_KNOWN}
    assert known <= flagged


def test_provenance_tags_are_closed_vocabulary():
    assert {c.provenance for c in claims.all_claims()} <= {
        "paper",
        "derived",
        "trivial",
    }


def test_section_filters():
    kondo = claims.run_verification("kondo")
    assert kondo and all(r.location == "4.2" for r in kondo)
    six = claims.run_verification("6")
    assert six and all(r.location.startswith("6") for r in six)
    assert any(r.claim_id == "cubic4.jz5_dims" for r in six)
    thm = claims.run_verification("thm2.6")
    assert any(r.status == claims.STATUS_KNOWN for r in thm)
    assert claims.run_verification("no-such-section") == []
    # sections match whole dotted components: 3.1 is not a prefix of 3.10
    assert claims.run_verification("3.1") == []
    assert sorted(r.claim_id for r in claims.run_verification("3.10")) == [
        "quartics.curve_h10_eigenspaces",
        "quartics.split_table_equality",
    ]
    chapter4 = {
        c.claim_id for c in claims.all_claims() if c.location.split(".")[0] == "4"
    }
    assert chapter4
    assert {r.claim_id for r in claims.run_verification("4")} == chapter4


def test_report_dict_schema_and_json_round_trip():
    for report in claims.run_verification("kondo"):
        payload = report.to_dict()
        assert set(payload) == {
            "claim_id",
            "location",
            "expected",
            "computed",
            "status",
        }
        assert set(payload["expected"]) == {"value", "provenance"}
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload


def test_deterministic_output():
    first = [r.to_dict() for r in claims.run_verification()]
    second = [r.to_dict() for r in claims.run_verification()]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_crashing_claim_reports_failure():
    def boom():
        raise RuntimeError("broken computation")

    claim = claims.Claim("x.crash", "0.0", "x", "derived", 1, boom)
    report = claims.evaluate(claim)
    assert report.status == claims.STATUS_FAIL
    assert "broken computation" in report.computed


def claim_named(claim_id):
    return next(c for c in claims.all_claims() if c.claim_id == claim_id)


def test_gamma_exponent_claim_compares_the_exponents(monkeypatch):
    # the claim fails when fermat_gamma_invariants itself finds that the
    # unit exponents are not the CM-type: here sigma0 is conjugated
    claim = claim_named("gamma.exponents_are_cmtype")
    assert claims.evaluate(claim).status == claims.STATUS_PASS
    real = covers.make_cyclotomic

    def conjugate_type(d):
        field = real(d)
        return replace(field, sigma0=frozenset(d - a for a in field.sigma0))

    monkeypatch.setattr(covers, "make_cyclotomic", conjugate_type)
    with pytest.raises(InvariantError, match="not the CM-type"):
        covers.fermat_gamma_invariants(5)
    report = claims.evaluate(claim)
    assert report.status == claims.STATUS_FAIL
    assert "not the CM-type" in report.computed


def test_torelli_rank_claim_fails_when_the_routes_disagree(monkeypatch):
    # the claim recomputes the rank by elimination, so a wrong closed
    # form cannot pass it
    claim = claim_named("torelli.differential_rank")
    assert claims.evaluate(claim).status == claims.STATUS_PASS
    monkeypatch.setattr(jacobian, "torelli_rank_by_elimination", lambda k: 9)
    report = claims.evaluate(claim)
    assert report.status == claims.STATUS_FAIL
    assert "closed form 10, elimination 9" in report.computed


# Each claim on W, with what it says when W is counted twice.
W_CLAIMS = [
    ("cubics.W_equals_half_twist",
     "cubic W identity fails at (d=3, k=2): W against the twisted V: "
     "entry (p=1, residue=1): 6 != 3"),
    ("quartics.split_table_equality",
     "quartic split fails at (d=4, k=1): W against the recombined table: "
     "entry (p=0, residue=2): 2 != 1"),
    ("torelli.quotients_match_W", "W ladder rung p=1: dimension 11 != h^3(W) = 22"),
]


@pytest.mark.parametrize("claim_id, message", W_CLAIMS, ids=[c for c, _ in W_CLAIMS])
def test_a_failing_W_claim_names_what_differs(monkeypatch, claim_id, message):
    claim = claim_named(claim_id)
    assert claims.evaluate(claim).status == claims.STATUS_PASS
    real = covers.build_W

    def doubled(spec):
        return hodge.direct_sum(real(spec), real(spec))

    monkeypatch.setattr(covers, "build_W", doubled)
    report = claims.evaluate(claim)
    assert report.status == claims.STATUS_FAIL
    assert report.computed == f"error: {message}"


def failing_at(cell, error, real):
    """The sweep check `real`, raising `error` on the cover of `cell`."""

    def check(spec):
        if (spec.d, spec.k) == cell:
            raise error("forced failure")
        return real(spec)

    return check


# Each grid claim runs a sweep check, or for the commutation claim a
# cover's Tate ladder; (claim, check, a cell of its grid).
SWEEP_BACKED = [
    ("lemma3.7.grid", "dim-identity", (9, 7)),
    ("prop3.5.checksum_grid", "z-checksum", (9, 7)),
    ("twists.roundtrip_grid", "round-trip", (8, 8)),
    ("twists.tate_commutation", "tate commutation", (9, 7)),
    ("ks.cubic4_table", "ks-space", (3, 4)),
    ("ks.kondo_table", "ks-space", (4, 2)),
    ("cmtype.optimality_grid", "cmtype-search", (9, 7)),
]


@pytest.mark.parametrize(
    "claim_id, check, cell", SWEEP_BACKED, ids=[c for c, _, _ in SWEEP_BACKED]
)
def test_sweep_backed_claim_fails_with_one_failing_cell(
    monkeypatch, claim_id, check, cell
):
    claim = claim_named(claim_id)
    assert claims.evaluate(claim).status == claims.STATUS_PASS
    if check == "tate commutation":
        # the commutation count of the cover's ladder, told by rung 0, V
        real_count = hodge.ladder_commutations

        def one_count_fails(rungs):
            V = rungs[0][0]
            if (V.field.d, V.weight) == cell:
                raise ValueError("forced failure")
            return real_count(rungs)

        monkeypatch.setattr(hodge, "ladder_commutations", one_count_fails)
    else:
        real = sweeps.CHECKS[check]
        monkeypatch.setitem(sweeps.CHECKS, check, failing_at(cell, ValueError, real))
    report = claims.evaluate(claim)
    assert report.status == claims.STATUS_FAIL
    d, k = cell
    assert report.computed == (
        f"error: {check} fails at (d={d}, k={k}): forced failure"
    )
    if check != "tate commutation":
        # a broken invariant inside the check fails the claim with the
        # detail that the sweep gives the same cell
        monkeypatch.setitem(
            sweeps.CHECKS, check, failing_at(cell, InvariantError, real)
        )
        swept = sweeps.check_cover(check, covers.CoverSpec(d, k))
        assert (swept.ok, swept.detail) == (False, "InvariantError: forced failure")
        report = claims.evaluate(claim)
        assert report.status == claims.STATUS_FAIL
        assert report.computed == (
            f"error: {check} fails at (d={d}, k={k}): {swept.detail}"
        )


def test_the_grid_runner_refuses_an_empty_grid():
    ran = []
    for grid in ([], product(range(3, 3), range(1, 8))):
        with pytest.raises(ValueError, match="^middle rank has an empty grid$"):
            claims._holds("middle rank", grid, lambda d, k: ran.append((d, k)))
    assert ran == []


def test_the_grid_runner_checks_every_cell_in_order():
    ran = []
    grid = product((3, 4), (1, 2))
    assert claims._holds("cells", grid, lambda d, k: ran.append((d, k)))
    assert ran == [(3, 1), (3, 2), (4, 1), (4, 2)]

    def last_fails(d, k):
        if (d, k) == (4, 2):
            raise ValueError("forced failure")

    with pytest.raises(ValueError) as caught:
        claims._holds("cells", product((3, 4), (1, 2)), last_fails)
    assert str(caught.value) == "cells fails at (d=4, k=2): forced failure"


def test_a_swapped_lemma37_coefficient_fails_the_sweep_and_the_ledger(monkeypatch):
    # the sweep check and the ledger's examples read one definition of
    # the three terms, so one fault in it fails all of them
    real = covers.dim_identity_terms

    def swapped(spec):
        total, _, same = real(spec)
        return total, (spec.d - 2) * sum(spec.branch_column), same

    monkeypatch.setattr(covers, "dim_identity_terms", swapped)
    cells = sweeps.run_sweep("dim-identity", d_max=6, k_max=4, jobs=1)
    assert [(c.d, c.k) for c in cells if not c.ok] == [
        (d, k) for d in range(3, 7) for k in range(2, 5)
    ]
    # h_3 = 10 at d = 3, and the swapped middle term is 1 * h_1 = 2
    assert cells[1].detail == "h_{k+1} != (d-1) h_{k-1} + (d-2) h_k: 10 != 2 + 6"
    for claim_id in ("lemma3.7.grid", "lemma3.7.kondo", "lemma3.7.cubic4"):
        assert claims.evaluate(claim_named(claim_id)).status == claims.STATUS_FAIL
    # the two rank routes still agree, and their claim says so
    euler = claims.evaluate(claim_named("euler.matches_griffiths"))
    assert euler.status == claims.STATUS_PASS


def test_an_euler_fault_fails_its_claim_at_the_first_cell(monkeypatch):
    claim = claim_named("euler.matches_griffiths")
    assert claims.evaluate(claim).status == claims.STATUS_PASS
    real = covers.euler_recursion_rank

    def off_by_one_at_9_0(d, k):
        return real(d, k) + ((d, k) == (9, 0))

    monkeypatch.setattr(covers, "euler_recursion_rank", off_by_one_at_9_0)
    report = claims.evaluate(claim)
    assert report.status == claims.STATUS_FAIL
    assert report.computed == (
        "error: middle rank fails at (d=9, k=0): euler 9 != griffiths 8"
    )


def test_a_verify_run_evaluates_each_sweep_cell_once(monkeypatch):
    # no two grid claims share a cell, and no claim runs a cell twice; a
    # claim calls the registered check itself, so no sweep cell is made
    runs = Counter()
    made = []
    for name, real in list(sweeps.CHECKS.items()):

        def counted(spec, name=name, real=real):
            runs[(name, spec.d, spec.k)] += 1
            return real(spec)

        monkeypatch.setitem(sweeps.CHECKS, name, counted)
    init = sweeps.SweepCell.__init__

    def counted_cell(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sweeps.SweepCell, "__init__", counted_cell)
    reports = claims.run_verification()
    assert {("round-trip", 8, 7), ("dim-identity", 9, 7)} <= set(runs)
    assert set(runs.values()) == {1}
    assert len(runs) == 190
    assert made == []
    assert Counter(r.status for r in reports) == {
        claims.STATUS_PASS: 60, claims.STATUS_KNOWN: 5
    }


def test_the_two_roads_to_h21_of_the_quartic_threefold_fail_apart(monkeypatch):
    # h^{2,1} = 30 of the quartic threefold: `kondo.h21_quartic_threefold`
    # reads it off the recurrence, and the isogeny checksum off the
    # branch column of the (4, 4) storey on the Kondo cover's tower, so
    # a fault on either road fails one claim and leaves the other; each
    # evaluation lists the claims anew, on covers made under the fault
    def evaluated(claim_id):
        return claims.evaluate(claim_named(claim_id))

    with monkeypatch.context() as patch:
        real_column = jacobian.residue_zero_column

        def bumped(series, d, k):
            column = real_column(series, d, k)
            if (d, k) == (4, 4):  # the column of the quartic threefold
                column = column[:2] + (column[2] + 1,) + column[3:]
            return column

        patch.setattr(jacobian, "residue_zero_column", bumped)
        assert jacobian.primitive_hodge_column(4, 3)[2] == 31
        assert evaluated("kondo.h21_quartic_threefold").computed == 31
        assert evaluated("kondo.isogeny_checksum").status == claims.STATUS_PASS
    real_step = covers.tower_step

    def step(series, d):
        up = real_step(series, d)
        if (d, len(up)) == (4, 11):  # the series of the (4, 4) storey
            # both halves, so the table stays symmetric; entry 2 of the
            # branch column reads index 3
            up[3] += 1
            up[7] += 1
        return up

    monkeypatch.setattr(covers, "tower_step", step)
    assert evaluated("kondo.isogeny_checksum").computed == (
        "error: J of the quartic threefold: checksum 30 != expected 31"
    )
    assert evaluated("kondo.h21_quartic_threefold").status == claims.STATUS_PASS


def test_a_verify_run_walks_each_ladder_once(monkeypatch):
    # the round-trip cells and the commutation claim read the ladder that
    # the run's cover holds, so no ladder is walked twice; the claim walks
    # every cell of its grid
    walks = Counter()
    real = hodge.tate_ladder

    def counted(structure):
        walks[(structure.field.d, structure.weight)] += 1
        return real(structure)

    monkeypatch.setattr(hodge, "tate_ladder", counted)
    monkeypatch.setattr(covers, "tate_ladder", counted)
    claims.run_verification()
    assert set(walks.values()) == {1}
    grid = set(product(claims.GRID_D, claims.GRID_K))
    assert len(grid) == 49
    assert grid <= set(walks)


NO_COMMUTATION = (
    "error: no cell of the grid compares a Tate commutation at m >= 1"
)


def test_tate_commutation_needs_a_compared_commutation(monkeypatch):
    claim = claim_named("twists.tate_commutation")
    assert claims.evaluate(claim).status == claims.STATUS_PASS
    monkeypatch.setattr(hodge, "ladder_commutations", lambda rungs: 0)
    report = claims.evaluate(claim)
    assert report.status == claims.STATUS_FAIL
    assert report.computed == NO_COMMUTATION


def test_tate_commutation_needs_more_than_the_identity(monkeypatch):
    # a count of 1 is the m = 0 comparison alone, which holds by
    # construction since tate_twist(X, 0) is X
    claim = claim_named("twists.tate_commutation")
    monkeypatch.setattr(hodge, "ladder_commutations", lambda rungs: 1)
    report = claims.evaluate(claim)
    assert report.status == claims.STATUS_FAIL
    assert report.computed == NO_COMMUTATION


def test_even_degree_claims_fail_on_an_even_disagreement(monkeypatch):
    printed = covers.half_twist_exists_printed

    def flipped_at_d4_k1(spec):
        return printed(spec) != ((spec.d, spec.k) == (4, 1))

    monkeypatch.setattr(covers, "half_twist_exists_printed", flipped_at_d4_k1)
    for claim_id in ("thm2.6.even_degree_agreement", "thm2.6.disagreement_set"):
        assert claims.evaluate(claim_named(claim_id)).status == claims.STATUS_FAIL


def tower_step_with(bump, mirror):
    """`jacobian.tower_step` with two faults to set: `bump` is added to
    the fourth coefficient of every lower half that has one, after the
    cut, and the mirror reads `mirror` entries past the lower half."""

    def tower_step(series, d):
        zeros = [0] * (d - 1)
        size = len(series) + d - 2
        steps = map(sub, chain(series, zeros), chain(zeros, series))
        product = list(islice(accumulate(steps), (size + 1) // 2))
        if len(product) > 3:
            product[3] += bump
        product += reversed(product[:size // 2 + mirror])
        return product

    return tower_step


def test_the_fault_free_tower_copy_is_the_tower():
    copy = tower_step_with(bump=0, mirror=0)
    for d in claims.GRID_D:
        for spec in covers.tower(d, 8):
            assert copy(spec.series, d) == spec.up.series, (d, spec.k)


# (a) a lower-half coefficient one too large, so every table stays
# symmetric; (b) an off-by-one in the mirror slice, so every series has
# one coefficient too many
TOWER_FAULTS = {"lower-half": (1, 0), "mirror": (0, 1)}


@pytest.mark.parametrize("bump, mirror", TOWER_FAULTS.values(), ids=list(TOWER_FAULTS))
def test_a_tower_fault_fails_verify_claim_by_claim(monkeypatch, capsys, bump, mirror):
    # the ledger reads its covers off the towers the sweeps walk, so a
    # fault there fails the claims that read it; every claim still
    # reports, and the whole table is printed
    monkeypatch.setattr(covers, "tower_step", tower_step_with(bump, mirror))
    covers.curve_h1.cache_clear()
    try:
        reports = claims.run_verification()
        code = cli.main(["verify"])
    finally:
        covers.curve_h1.cache_clear()
    assert len(reports) == 65
    assert claims.exit_code(reports) == 1
    failures = sum(r.status == claims.STATUS_FAIL for r in reports)
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(out) == 1 + 65 + 1
    assert out[-1].startswith("65 claims: ")
    assert out[-1].endswith(f", {failures} failures")
    if bump:
        # the identities that link storeys read their columns off the
        # tower, so a fault in its steps fails them too
        failing = {r.claim_id for r in reports if r.status == claims.STATUS_FAIL}
        assert {"lemma3.7.grid", "prop3.5.checksum_grid"} <= failing


def power_series_with_coefficient(b0):
    """`jacobian.power_series` with the recurrence's middle multiplier at
    m = 0 set to `b0` - e - n e, where the true value has b0 = 1."""

    def power_series(d, n):
        e = d - 1
        top = n * (e - 1)
        f = [0] * e + [1]
        a, b, c = n, b0 - e - n * e, (e - 1) * n + e
        for m in range(top // 2):
            f.append((a * f[-1] + b * f[-e] + c * f[-e - 1]) // (m + 1))
            a, b, c = a + 1, b + 1, c - 1
        del f[:e]
        f += reversed(f[:top + 1 - len(f)])
        return f

    return power_series


def test_the_fault_free_recurrence_copy_is_the_recurrence():
    copy = power_series_with_coefficient(1)
    for d in claims.GRID_D:
        for n in range(10):
            assert copy(d, n) == jacobian.power_series(d, n), (d, n)


def test_a_recurrence_fault_fails_verify_and_the_oracle_sweep(monkeypatch, capsys):
    # the recurrence builds every single cover's series, the hypersurface
    # columns and the one-pass oracle, and no storey of a tower: a wrong
    # multiplier fails the literature values it reads and the
    # Euler-vs-Griffiths comparison, and the oracle sweep sees the tower
    # away from the one-pass table
    faulty = power_series_with_coefficient(2)
    monkeypatch.setattr(jacobian, "power_series", faulty)
    monkeypatch.setattr(covers, "power_series", faulty)
    reports = claims.run_verification()
    code = cli.main(["sweep", "--check", "oracle-equivalence",
                     "--d-max", "6", "--k-max", "3"])
    assert len(reports) == 65
    assert claims.exit_code(reports) == 1
    failing = {r.claim_id for r in reports if r.status == claims.STATUS_FAIL}
    assert {"euler.matches_griffiths", "cubic4.h22_0"} <= failing
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("check oracle-equivalence: ")
    assert not out[-1].endswith("12/12 cells pass")


def test_a_cover_outside_the_rows_fails_its_claim(monkeypatch):
    # the rows hold d in the given degrees and k up to the height; any
    # other read is a KeyError, never a wrapped index or a direct build
    walks = []
    real = covers.tower

    def counted(d, k_max):
        walks.append((d, k_max))
        return real(d, k_max)

    monkeypatch.setattr(covers, "tower", counted)
    spec = claims._tower_rows(range(3, 5), 2)
    assert walks == []
    assert spec(4, 2) == covers.CoverSpec(4, 2)
    assert spec(4, 1) is spec(4, 1)
    assert walks == [(4, 2)]
    for d, k in ((4, 3), (4, 0), (5, 1), (2, 1)):
        with pytest.raises(KeyError):
            spec(d, k)
    assert walks == [(4, 2)]
    claim = claims.Claim("x.outside", "0.0", "x", "derived", 1, lambda: spec(4, 3).k)
    assert claims.evaluate(claim).status == claims.STATUS_FAIL


def test_listing_the_claims_makes_no_cover(monkeypatch):
    # no cover is made, so no tower is walked, until a claim that reads
    # one is evaluated; then its degree's whole row is made
    made = []
    post_init = covers.CoverSpec.__post_init__

    def counted(self):
        made.append((self.d, self.k))
        post_init(self)

    monkeypatch.setattr(covers.CoverSpec, "__post_init__", counted)
    listed = claims.all_claims()
    assert len(listed) == 65
    assert made == []
    (claim,) = [c for c in listed if c.claim_id == "kondo.dim_V"]
    assert claims.evaluate(claim).status == claims.STATUS_PASS
    assert made == [(4, k) for k in range(1, 9)]

import json

from halftwist import claims, covers


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


def test_gamma_exponent_claim_compares_the_exponents(monkeypatch):
    claim = next(c for c in claims.all_claims() if c.claim_id == "gamma.exponents_are_cmtype")
    assert claims.evaluate(claim).status == claims.STATUS_PASS
    monkeypatch.setattr(covers, "fermat_gamma_invariants", lambda d: [1])
    assert claims.evaluate(claim).status == claims.STATUS_FAIL

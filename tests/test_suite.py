"""Verification suite registry and runner tests."""

import io
import json

import pytest

import rookgon.suite as suite
from rookgon import run_suite, suite_claims
from rookgon.suite import SUITE_NAMES


def test_suite_names_and_nesting():
    assert SUITE_NAMES == ("smoke", "standard", "full")
    smoke = {c.id for c in suite_claims("smoke")}
    standard = {c.id for c in suite_claims("standard")}
    full = {c.id for c in suite_claims("full")}
    assert smoke < standard < full


def test_suite_claims_are_well_formed():
    for name in SUITE_NAMES:
        claims = suite_claims(name)
        assert len({c.id for c in claims}) == len(claims)
        for c in claims:
            assert c.statement and isinstance(c.statement, str)
            assert isinstance(c.params, dict)
            assert c.cost > 0


def test_suite_claims_unknown_name():
    with pytest.raises(ValueError):
        suite_claims("paper")


def test_run_smoke_suite_passes():
    log = io.StringIO()
    report = run_suite("smoke", log=log)
    assert report["suite"] == "smoke"
    assert report["counts"] == {"pass": len(report["claims"]),
                                "fail": 0, "skipped": 0}
    for row in report["claims"]:
        assert row["status"] == "pass"
        assert row["expected"] == row["computed"]
    assert "[suite] PASS" in log.getvalue()


def test_run_suite_report_is_deterministic_and_json_safe():
    a = run_suite("smoke", log=io.StringIO())
    b = run_suite("smoke", log=io.StringIO())
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert "time" not in json.dumps(a)  # no wall clocks in the report


def test_run_suite_budget_skips():
    report = run_suite("smoke", budget_secs=0.0, log=io.StringIO())
    assert report["counts"]["skipped"] == len(report["claims"])
    assert all(r["status"] == "skipped" for r in report["claims"])
    assert all(r["reason"] == "declared cost exceeds remaining budget"
               for r in report["claims"])
    assert report["budget_secs"] == 0.0


def test_run_suite_seed_changes_params_not_outcome():
    a = run_suite("smoke", seed=1, log=io.StringIO())
    b = run_suite("smoke", seed=2, log=io.StringIO())
    assert a["seed"] == 1 and b["seed"] == 2
    assert all(r["status"] == "pass" for r in a["claims"] + b["claims"])


def test_burn_maximal_claim_catches_a_wrong_burn(monkeypatch):
    claim = next(c for c in suite_claims("smoke") if c.id.startswith("burn-maximal"))
    assert claim.fn({"seed": 0}) == (True, True)
    real = suite.divisors.dhar_burn

    def wrong(g, d, source):
        rep = real(g, d, source)
        return rep._replace(unburnt=rep.unburnt[1:] if rep.unburnt else (1,))

    monkeypatch.setattr(suite.divisors, "dhar_burn", wrong)
    ok, computed = claim.fn({"seed": 0})
    assert ok is True and "burn mismatch" in computed

"""Verification suite plumbing: reports, bounds, determinism."""

import json

import pytest

from pfaffkit import uea
from pfaffkit.cli import main
from pfaffkit.verify import (
    BoundExceededError,
    CheckResult,
    VerificationReport,
    central_suite,
    check_n_bound,
    forms_suite,
    msf_suite,
    ncmsf_suite,
    run_suite,
)


def test_report_status_and_sorting():
    rep = VerificationReport("demo")
    rep.checks.append(CheckResult("b:second", True, "", 1.0))
    rep.checks.append(CheckResult("a:first", True, "", 2.0))
    assert rep.passed
    assert [c.check_id for c in rep.sorted_checks()] == ["a:first", "b:second"]
    d = rep.to_dict()
    assert d["schema"] == 1 and d["status"] == "pass"
    assert [c["id"] for c in d["checks"]] == ["a:first", "b:second"]


def test_report_failure_propagates():
    rep = VerificationReport("demo")
    rep.checks.append(CheckResult("a", False, "boom", 0.1))
    assert not rep.passed
    assert rep.to_dict()["status"] == "fail"
    assert "FAIL a" in rep.to_text()
    assert "boom" in rep.to_text()


def test_report_json_serializable():
    rep = run_suite("central", n=1)
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back["schema"] == 1
    assert all(c["status"] == "pass" for c in back["checks"])


def test_single_coloring_run():
    rep = msf_suite(pq=(2, 2))
    assert rep.passed
    assert [c.check_id for c in rep.checks] == ["msf:identity:p2q2"]


def test_msf_bounds():
    with pytest.raises(BoundExceededError):
        msf_suite(pq=(5, 5))
    with pytest.raises(ValueError):
        msf_suite(pq=(2, 3))
    rep = msf_suite(pq=(5, 5), force=True)
    assert rep.passed


def test_uea_bounds():
    with pytest.raises(BoundExceededError):
        ncmsf_suite(n=4)
    with pytest.raises(BoundExceededError):
        central_suite(n=4)
    with pytest.raises(BoundExceededError):
        forms_suite(n=5)


def test_n_bound_stops_at_the_largest_generator_index():
    check_n_bound(uea.MAX_INDEX, force=True)
    with pytest.raises(ValueError, match="largest generator index") as err:
        check_n_bound(uea.MAX_INDEX + 1, force=True)
    assert not isinstance(err.value, BoundExceededError)  # --force cannot lift it


def test_bound_error_mentions_force():
    with pytest.raises(BoundExceededError) as err:
        ncmsf_suite(n=4)
    assert "--force" in str(err.value)


def test_unrestricted_oracle_runs_at_small_rank(monkeypatch):
    ranks = []
    real = uea.nc_pfaffian_unrestricted

    def counting(X):
        ranks.append(X.half)
        return real(X)

    monkeypatch.setattr(uea, "nc_pfaffian_unrestricted", counting)
    rep = ncmsf_suite()
    assert rep.passed and ranks == [1, 2, 3]
    assert {c.status for c in rep.checks} == {"pass"}


def test_unrestricted_oracle_is_skipped_above_its_cap(monkeypatch):
    def oracle(X):
        raise AssertionError("the (2n)!-term oracle must not run at n = 5")

    monkeypatch.setattr(uea, "nc_pfaffian_unrestricted", oracle)
    rep = ncmsf_suite(n=5, force=True)
    assert rep.passed
    skipped = [c for c in rep.checks if c.skipped]
    assert [c.check_id for c in skipped] == ["ncmsf:restricted-vs-unrestricted:n5"]
    assert skipped[0].status == "skip" and "n <= 4" in skipped[0].residual
    assert "SKIP ncmsf:restricted-vs-unrestricted:n5" in rep.to_text()
    assert "1 skipped" in rep.to_text().splitlines()[-1]


def test_a_failing_z_build_fails_the_checks_that_read_it(monkeypatch, capsys):
    # z is built inside the checks, so its error is the residual of each
    # check that reads the failing route, and the suite still returns a report
    def broken(arg):
        raise RuntimeError("no z today")

    for suite, route, failing in (
        (ncmsf_suite, "nc_pfaffian", {"identity:n2", "restricted-vs-unrestricted:n2", "symbol:n2", "intro:uea-basis"}),
        (ncmsf_suite, "nc_minor_summation_rhs", {"identity:n2"}),
        (central_suite, "nc_minor_summation_rhs", {"commutant:n2", "eigenvalue:n2", "eigenvalue:spot-n2"}),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(uea, route, broken)
            rep = suite(n=2)
        assert not rep.passed
        failed = {c.check_id.split(":", 1)[1]: c.residual for c in rep.checks if c.status == "fail"}
        assert set(failed) == failing and set(failed.values()) == {"RuntimeError: no z today"}, (suite, route)
    monkeypatch.setattr(uea, "nc_minor_summation_rhs", broken)
    assert main(["verify", "--suite", "central", "--n", "2"]) == 1
    assert "FAIL central:commutant:n2" in capsys.readouterr().out


def test_suite_all_builds_each_z_once_per_route(z_builds):
    # the recursion runs in ncmsf only; the formula's z is shared by
    # ncmsf:identity, central and the uea top route
    assert run_suite("all").passed
    assert z_builds == {"nc_pfaffian": [1, 2, 3], "nc_minor_summation_rhs": [1, 2, 3]}


def test_skip_neither_passes_nor_fails():
    rep = VerificationReport("demo")
    rep.checks.append(CheckResult("a", True, "", 1.0))
    rep.checks.append(CheckResult("b", False, "not run", 0.0, skipped=True))
    assert rep.passed
    assert [c["status"] for c in rep.to_dict()["checks"]] == ["pass", "skip"]
    rep.checks.append(CheckResult("c", False, "boom", 0.0))
    assert not rep.passed


def test_single_n_runs():
    rep = ncmsf_suite(n=1)
    assert rep.passed
    assert all(":n1" in c.check_id for c in rep.checks)
    rep = central_suite(n=2)
    assert rep.passed
    assert any(c.check_id == "central:eigenvalue:spot-n2" for c in rep.checks)


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_crashing_check_is_reported_not_raised():
    rep = VerificationReport("demo")
    from pfaffkit.verify import _run_check

    _run_check(rep, "x", lambda: 1 / 0)
    assert not rep.passed
    assert "ZeroDivisionError" in rep.checks[0].residual


def test_forms_suite_single_n():
    rep = forms_suite(n=2)
    assert rep.passed
    # both coefficient modes are exercised for the requested rank
    ids = {c.check_id for c in rep.checks}
    assert "forms:trinomial:uea-n2" in ids
    assert "forms:trinomial:comm-n2" in ids

import hashlib
import json

import pytest

from hlgt import formulas, oracle
from hlgt.polyring import Polynomial
from hlgt.verify import SUITE_NAMES, CaseResult, check_case, grid, run_suite

from helpers import count_memoized_work


def test_grid_enumeration():
    lams = list(grid(2, 1))
    assert lams == [(1,), (0,), (1, 1), (1, 0), (0, 0)]


def test_run_suite_all_passes():
    report = run_suite("all", 2, 2)
    assert report.failed == 0
    assert report.passed == report.total > 0
    assert report.wall_time > 0


def test_single_case():
    report = run_suite("main", 1, 0)
    assert report.total == 1
    assert report.cases[0] == CaseResult((0,), "closed=vq*hl", True)


def test_raising_suite_targets_unit_steps():
    report = run_suite("raising", 2, 2)
    lams = {c.lam for c in report.cases}
    assert lams == {(1, 0), (2, 1)}
    assert report.failed == 0


def test_stanley_suite_strict_cases_only_for_strict_lambda():
    names = {c.identity for c in check_case("stanley", (1, 1))}
    assert "stanley=hl@t=-1" not in names
    names = {c.identity for c in check_case("stanley", (1, 0))}
    assert "stanley=hl@t=-1" in names


def test_report_to_dict():
    report = run_suite("tokuyama", 1, 1)
    data = report.to_dict()
    assert data["suite"] == "tokuyama"
    assert data["total"] == data["passed"] + data["failed"]
    assert all(set(c) == {"lambda", "identity", "ok"} for c in data["cases"])


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus", 1, 1)
    with pytest.raises(ValueError):
        check_case("bogus", (0,))


def test_failure_is_reported(monkeypatch):
    # The tokuyama suite checks Tokuyama's sum through its quotient by v_n(x;q).
    monkeypatch.setattr(
        formulas, "tokuyama_quotient", lambda lam: Polynomial.zero(len(lam))
    )
    report = run_suite("tokuyama", 1, 1)
    failing = {c.identity for c in report.cases if not c.ok}
    assert failing == {"tokuyama=vq*schur", "closed@t=0=tokuyama"}


# The identities each suite fails when the engine's sums are wrong.  The
# stanley sums go through the same engine; monomial's oracle-only
# hl@t=1=monomial still passes.
_FAILED_BY_PERTURBATION = {
    "stanley": {"closed@q=-1,t=0=v(-1)*schur", "filtered=x^rho*hl@t=-1", "stanley=hl@t=-1"},
    "monomial": {"closed@t=1=vq*monomial"},
}


@pytest.mark.parametrize("suite", ["main", "recursive", "tokuyama", "stanley", "monomial"])
def test_a_sum_that_v_does_not_divide_fails_its_identity(suite, monkeypatch):
    # One q,t coefficient of every packed engine result off by one.
    row_sums = formulas._row_sums

    def perturbed(*args):
        packed, layout = row_sums(*args)
        packed[min(packed)] += 1
        return packed, layout

    monkeypatch.setattr(formulas, "_row_sums", perturbed)
    results = check_case(suite, (2, 1, 0))
    if suite in _FAILED_BY_PERTURBATION:
        assert {c.identity for c in results if not c.ok} == _FAILED_BY_PERTURBATION[suite]
    else:
        assert results and not any(c.ok for c in results)


@pytest.mark.parametrize("suite", ["stanley", "monomial"])
def test_an_unproven_quotient_fails_the_closed_identity(suite, monkeypatch):
    def unproven(lam):
        raise formulas.QuotientError("forced")

    monkeypatch.setattr(formulas, "hl_pattern_quotient", unproven)
    results = check_case(suite, (2, 1, 0))
    failing = [c.identity for c in results if not c.ok]
    assert len(failing) == 1 and failing[0].startswith("closed@")


def _refuse_pattern_sums(monkeypatch):
    # The oracle refuses n = 4, and any pattern sum or row step fails the test.
    def no_sum(*args, **kwargs):
        raise AssertionError("a pattern sum started before the oracle's cap")

    monkeypatch.setattr(formulas, "_transfer", no_sum)
    monkeypatch.setattr(formulas, "_row_sums", no_sum)
    monkeypatch.setenv("GT_ORACLE_NMAX", "3")


@pytest.mark.parametrize("suite", SUITE_NAMES[:-1])
def test_an_over_cap_case_is_refused_before_any_pattern_sum(suite, monkeypatch):
    _refuse_pattern_sums(monkeypatch)
    # (0, 0, 0, 0) has no part one above the next, so the raising suite needs no HL.
    for lam in [(2, 1, 0, 0), (0, 0, 0, 0)]:
        with pytest.raises(oracle.OracleCapError, match="safety cap"):
            check_case(suite, lam)


@pytest.mark.parametrize("lam", [(2, -1), (1, 2)], ids=["negative", "ascent"])
@pytest.mark.parametrize("suite", SUITE_NAMES[:-1])
def test_every_suite_refuses_a_bad_partition(suite, lam):
    with pytest.raises(ValueError, match="parts must be"):
        check_case(suite, lam)


def test_the_raising_suite_computes_no_hl_it_does_not_compare(monkeypatch):
    def no_hl(kappa):
        raise AssertionError(f"computed HL{kappa}")

    monkeypatch.setattr(oracle, "hall_littlewood", no_hl)
    assert check_case("raising", (2, 0)) == []


def test_an_over_cap_grid_is_refused_before_any_case(monkeypatch):
    _refuse_pattern_sums(monkeypatch)
    with pytest.raises(oracle.OracleCapError, match="safety cap"):
        run_suite("all", 4, 1)


@pytest.mark.parametrize(("n_max", "part_max", "message"), [
    (0, 2, "suite 'all' records no identity on the grid n <= 0, parts <= 2"),
    (2, -1, "suite 'all' records no identity on the grid n <= 2, parts <= -1"),
    (-3, 1, "suite 'all' records no identity on the grid n <= -3, parts <= 1"),
], ids=["no-length", "no-part", "negative-length"])
def test_an_empty_grid_is_refused(n_max, part_max, message):
    # The grid yields no case, so the rule for a grid with no identity refuses it.
    assert list(grid(n_max, part_max)) == []
    with pytest.raises(ValueError, match=message):
        run_suite("all", n_max, part_max)


@pytest.mark.parametrize(("n_max", "part_max"), [(1, 3), (3, 0)], ids=["one-part", "zero-parts"])
def test_a_grid_on_which_the_suite_records_nothing_is_refused(n_max, part_max):
    # No part of these grids exceeds its right neighbour by exactly one.
    with pytest.raises(ValueError, match=f"'raising' records no identity on the grid "
                                         f"n <= {n_max}, parts <= {part_max}"):
        run_suite("raising", n_max, part_max)


def test_identities_and_verdicts_on_the_n4_grid_are_pinned():
    # (suite, lambda, identity, ok) for every suite on grid(4, 3), as the
    # oracle-product comparison gave them before the quotient routes.
    rows = [[suite, list(lam), c.identity, c.ok]
            for lam in grid(4, 3)
            for suite in SUITE_NAMES[:-1]
            for c in check_case(suite, lam)]
    assert len(rows) == 681 and all(ok for *_, ok in rows)
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "504dbb1fc4ad0cff857c4865030d75e7d3911d12a58089eb55f84fa72457ae19"


def test_one_run_shares_each_quotient_and_schur_expansion(monkeypatch):
    # main, tokuyama, stanley and monomial all compare the closed quotient,
    # whose partitions share the rows under their tops, and the oracle's
    # HL, s_lam and raised HL overlap across the suites.  The one-part
    # recursive cases add the oracle's expansion of ().
    calls = count_memoized_work(monkeypatch)
    report = run_suite("all", 4, 3)
    assert report.total == 681 and report.failed == 0
    rows = calls["closed_rows"]
    assert len(rows) == len(set(rows)) == 98
    assert calls["schur_coefficients"] == 153

"""Exhaustive identity suites over grids of weakly decreasing partitions.

Every check is an exact polynomial equality in Z[x, q, t]; there are no
tolerances.  A suite iterates all weakly decreasing tuples up to a given
length and part bound and compares a pattern-statistic evaluator against
the brute-force oracle.  ``run_suite`` refuses an n_max over the
oracle's n! cap before any case, and a grid on which the suite records
no identity after its last case; an empty grid (n_max < 1 or
part_max < 0) has no case, so the same rule refuses it.  Each suite
calls the oracle before any pattern sum.  A case is a ``CaseResult``
named tuple (lam, identity, ok); a ``VerifyReport`` is a plain class
holding the suite's name, its own list of cases and the run's wall
time, so importing this module loads no ``dataclasses``.

The identities pattern sum = v_n(x;q) * H, with H = HL_lam(x;t) or
s_lam(x), are checked in the quotient: ``main``, ``recursive`` and
``tokuyama`` take the pattern sum's exact quotient by its factors
x_i - q x_j from the ``formulas`` quotient routes, which prove that the
sum equals the factors times the quotient, and compare it with the
oracle's HL or Schur polynomial.  ``stanley`` and ``monomial`` compare
the same quotient at t = 0 and t = 1 with s_lam and the monomial
symmetric polynomial: v_n(x;q) and v_n(x;-1) are nonzero in Z[x, q], so
this holds exactly when the sum's specialization is v_n times them.  A
sum those routes cannot prove to be such a product fails its identity.
A one-row step is divided by prod_{j>1} (x_1 - q x_j) only, since the
oracle polynomials it sums in x_2..x_n carry no factor v_{n-1}(x;q).

The suites of one run share work through the memo tables of the routes
they call: each row's proven closed quotient and each oracle input's
Schur coefficients are computed once per process, however many
partitions and identities use them.  Input checks, the oracle's cap and a failed
proof are never memoized.  ``formulas.clear_caches`` empties the tables.
"""

from __future__ import annotations

import time
from typing import Iterator, NamedTuple, Sequence

from . import formulas, oracle
from .polyring import Polynomial, monomial, parameter
from .patterns import check_partition, is_strictly_decreasing, staircase, weakly_decreasing_tuples

SUITE_NAMES = ("main", "recursive", "tokuyama", "stanley", "monomial", "raising", "all")


class CaseResult(NamedTuple):
    lam: tuple[int, ...]
    identity: str
    ok: bool


class VerifyReport:
    def __init__(self, suite: str, cases: list[CaseResult] | None = None,
                 wall_time: float = 0.0) -> None:
        self.suite = suite
        self.cases = [] if cases is None else cases
        self.wall_time = wall_time

    @property
    def total(self) -> int:
        return len(self.cases)

    @property
    def passed(self) -> int:
        return sum(c.ok for c in self.cases)

    @property
    def failed(self) -> int:
        return self.total - self.passed

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "total": self.total,
            "passed": self.passed,
            "failed": self.failed,
            "wall_time": self.wall_time,
            "cases": [
                {"lambda": list(c.lam), "identity": c.identity, "ok": c.ok}
                for c in self.cases
            ],
        }


def grid(n_max: int, part_max: int) -> Iterator[tuple[int, ...]]:
    """All weakly decreasing tuples of length 1..n_max with parts <= part_max."""
    for n in range(1, n_max + 1):
        yield from weakly_decreasing_tuples(n, part_max)


def _proven(quotient, lam: tuple[int, ...]) -> Polynomial | None:
    # The quotient route's result, or None if it cannot prove the product.
    try:
        return quotient(lam)
    except formulas.QuotientError:
        return None


def check_case(suite: str, lam: Sequence[int]) -> list[CaseResult]:
    """Run the named suite's identities for one partition."""
    lam = tuple(lam)
    n = len(lam)
    results: list[CaseResult] = []

    def record(identity: str, ok: bool) -> None:
        results.append(CaseResult(lam, identity, ok))

    if suite == "main":
        record("closed=vq*hl",
               oracle.hall_littlewood(lam) == _proven(formulas.hl_pattern_quotient, lam))
    elif suite == "recursive":
        record("recursive=vq*hl",
               _proven(formulas.hl_row_quotient, lam) == oracle.hall_littlewood(lam))
    elif suite == "tokuyama":
        schur = oracle.schur(lam)
        toku = _proven(formulas.tokuyama_quotient, lam)
        record("tokuyama=vq*schur", toku == schur)
        # Both sums are v_n(x;q), which is free of t, times their quotients.
        closed = _proven(formulas.hl_pattern_quotient, lam)
        record(
            "closed@t=0=tokuyama",
            None not in (closed, toku) and closed.substitute("t", 0) == toku,
        )
        record(
            "tokuyama_recursive=vq*schur",
            _proven(formulas.tokuyama_row_quotient, lam) == schur,
        )
    elif suite == "stanley":
        schur = oracle.schur(lam)
        closed = _proven(formulas.hl_pattern_quotient, lam)
        record(
            "closed@q=-1,t=0=v(-1)*schur",
            closed is not None and closed.substitute("t", 0) == schur,
        )
        hl_m1 = oracle.hall_littlewood(lam).substitute("t", -1)
        record(
            "filtered=x^rho*hl@t=-1",
            formulas.stanley_filtered_sum(lam) == monomial(1, staircase(n)) * hl_m1,
        )
        if is_strictly_decreasing(lam):
            record("stanley=hl@t=-1", formulas.stanley_sum(lam) == hl_m1)
    elif suite == "monomial":
        mono = oracle.monomial_symmetric(lam)
        record("hl@t=1=monomial", oracle.hall_littlewood(lam).substitute("t", 1) == mono)
        closed = _proven(formulas.hl_pattern_quotient, lam)
        record("closed@t=1=vq*monomial",
               closed is not None and closed.substitute("t", 1) == mono)
    elif suite == "raising":
        # Refuse a bad or over-cap case as every suite does, even with no raise to check.
        check_partition(lam)
        oracle._check_cap(n)
        raises = [i for i in range(n - 1) if lam[i] == lam[i + 1] + 1]
        if raises:
            t_hl = parameter("t", n) * oracle.hall_littlewood(lam)
        for i in raises:
            raised = formulas.elementary_raise(lam, i)
            record(f"raise[{i + 1},{i + 2}]=t*hl", oracle.hall_littlewood(raised) == t_hl)
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return results


def run_suite(suite: str, n_max: int, part_max: int) -> VerifyReport:
    """Run one named suite (or all of them) over the grid."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
    oracle._check_cap(n_max)
    suites = SUITE_NAMES[:-1] if suite == "all" else (suite,)
    report = VerifyReport(suite)
    start = time.perf_counter()
    for lam in grid(n_max, part_max):
        for name in suites:
            report.cases.extend(check_case(name, lam))
    if not report.cases:
        raise ValueError(
            f"suite {suite!r} records no identity on the grid n <= {n_max}, parts <= {part_max}")
    report.wall_time = time.perf_counter() - start
    return report

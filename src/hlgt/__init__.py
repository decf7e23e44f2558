"""Exact Hall-Littlewood polynomials from Gelfand-Tsetlin pattern statistics.

Two independent evaluation routes for the same polynomials: a brute-force
oracle and pattern-statistic expansions built from tridiagonal transition
determinants and raising-operator closures.  The oracle collects the
alternant of x^kappa * prod_{i<j}(x_i - t x_j) in one pass on its orbit
representatives (the one on x^(mu + rho) carries the Schur coefficient
K[mu](t)), and one triangular solve of a_rho * HL = alternant, with no
division, gives HL; s_lam solves the one term a_(lam+rho).  The
verification suites check that both routes agree in x, q and t, with the
classical specializations (Schur at t = 0, monomial orbit sums at t = 1,
Schur q-polynomials at t = -1, Tokuyama's formula).  Every identity with the
factor v_n(x;q) is checked in the pattern sum's exact quotient by it.
"""

from .polyring import (
    Polynomial,
    constant,
    generators,
    monomial,
    parameter,
    permutation_sign,
    variable,
)
from .patterns import (
    EntryLabels,
    GtPattern,
    add_staircase,
    check_partition,
    entry_labels,
    enumerate_patterns,
    interleaves,
    is_strictly_decreasing,
    is_weakly_decreasing,
    staircase,
    weakly_decreasing_tuples,
)
from .formulas import (
    RaisingOperator,
    elementary_raise,
    hl_pattern_expansion,
    hl_pattern_quotient,
    hl_row_quotient,
    hl_row_recursion,
    pattern_row_weights,
    raising_closure,
    row_weight_sum,
    stanley_filtered_sum,
    stanley_sum,
    tokuyama_quotient,
    tokuyama_row_quotient,
    tokuyama_sum,
    transition_det,
)
from .oracle import (
    hall_littlewood,
    max_oracle_vars,
    monomial_symmetric,
    schur,
    schur_coefficients,
    weyl_denominator,
)
from .verify import SUITE_NAMES, CaseResult, VerifyReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "CaseResult",
    "EntryLabels",
    "GtPattern",
    "Polynomial",
    "RaisingOperator",
    "SUITE_NAMES",
    "VerifyReport",
    "add_staircase",
    "check_partition",
    "constant",
    "elementary_raise",
    "entry_labels",
    "enumerate_patterns",
    "generators",
    "hall_littlewood",
    "hl_pattern_expansion",
    "hl_pattern_quotient",
    "hl_row_quotient",
    "hl_row_recursion",
    "interleaves",
    "is_strictly_decreasing",
    "is_weakly_decreasing",
    "max_oracle_vars",
    "monomial",
    "monomial_symmetric",
    "parameter",
    "pattern_row_weights",
    "permutation_sign",
    "raising_closure",
    "row_weight_sum",
    "run_suite",
    "schur",
    "schur_coefficients",
    "staircase",
    "stanley_filtered_sum",
    "stanley_sum",
    "tokuyama_quotient",
    "tokuyama_row_quotient",
    "tokuyama_sum",
    "transition_det",
    "variable",
    "weakly_decreasing_tuples",
    "weyl_denominator",
]

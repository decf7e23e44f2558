"""Acceptance suite: every check is an exact polynomial identity.

The working grid is all weakly decreasing partitions of length 1..3 with
largest part at most 4, plus length 4 with largest part at most 3.  Run
with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.
"""

import csv
from functools import lru_cache

from hlgt import formulas, oracle
from hlgt.cli import main as cli_main
from hlgt.polyring import Polynomial, constant, monomial, parameter
from hlgt.patterns import (
    ALMOST_LEFT,
    ALMOST_RIGHT,
    LEFT,
    RIGHT,
    SPECIAL,
    _interleavings,
    _row_labels,
    enumerate_patterns,
    is_strictly_decreasing,
    staircase,
    weakly_decreasing_tuples,
)
from hlgt.formulas import (
    elementary_raise,
    hl_pattern_expansion,
    hl_row_recursion,
    pattern_row_weights,
    raising_closure,
    stanley_filtered_sum,
    stanley_sum,
    tokuyama_row_quotient,
    tokuyama_sum,
    transition_det,
)

from helpers import coeff_sum, laplace_det, strict_tuples, tridiagonal_matrix, x_coefficient

ONE = constant(1, 0)
Q = parameter("q", 0)
T = parameter("t", 0)

GRID = [
    lam
    for n, max_part in ((1, 4), (2, 4), (3, 4), (4, 3))
    for lam in weakly_decreasing_tuples(n, max_part)
]


@lru_cache(maxsize=None)
def vq(n):
    return oracle.weyl_denominator(n, "q")


@lru_cache(maxsize=None)
def hl(lam):
    return oracle.hall_littlewood(lam)


@lru_cache(maxsize=None)
def closed(lam):
    return hl_pattern_expansion(lam)


@lru_cache(maxsize=None)
def schur(lam):
    return oracle.schur(lam)


def test_criterion_01_closed_identity():
    for lam in GRID:
        assert closed(lam) == vq(len(lam)) * hl(lam), lam


def test_criterion_02_recursive_identity():
    # the grid exercises non-strict interleaving rows, e.g. (1, 1) below (2, 1, 0)
    assert any(
        not is_strictly_decreasing(mu)
        for lam in GRID
        if len(lam) > 1
        for mu in _interleavings(tuple(p + s for p, s in zip(lam, staircase(len(lam)))))
    )
    for lam in GRID:
        assert hl_row_recursion(lam) == vq(len(lam)) * hl(lam), lam


def test_criterion_03_tokuyama_specialization():
    for lam in GRID:
        toku = tokuyama_sum(lam)
        assert toku == vq(len(lam)) * schur(lam), lam
        assert closed(lam).substitute("t", 0) == toku, lam
        assert tokuyama_row_quotient(lam) == schur(lam), lam


def test_criterion_04_stanley():
    for lam in GRID:
        n = len(lam)
        lhs = closed(lam).substitute("q", -1).substitute("t", 0)
        assert lhs == vq(n).substitute("q", -1) * schur(lam), lam
        assert stanley_filtered_sum(lam) == monomial(1, staircase(n)) * hl(lam).substitute("t", -1), lam
    for n in range(1, 5):
        for lam in strict_tuples(n, 5):
            assert stanley_sum(lam) == hl(lam).substitute("t", -1), lam


def test_criterion_05_monomial_specialization():
    for lam in GRID:
        mono = oracle.monomial_symmetric(lam)
        assert hl(lam).substitute("t", 1) == mono, lam
        assert closed(lam).substitute("t", 1) == vq(len(lam)) * mono, lam


def test_criterion_06_raising_shift():
    checked = 0
    for lam in GRID:
        n = len(lam)
        for i in range(n - 1):
            if lam[i] == lam[i + 1] + 1:
                raised = elementary_raise(lam, i)
                assert oracle.hall_littlewood(raised) == parameter("t", n) * hl(lam), (lam, i)
                checked += 1
    assert checked > 0


def test_criterion_07_worked_example():
    assert transition_det((3, 1, 0), (2, 0)) == ONE - Q + T - Q * T + Q * T ** 2
    assert transition_det((3, 1, 0), (1, 1)) == -Q * T
    assert formulas.row_weight_sum((3, 1, 0), (2, 0)) == (ONE - Q) * (ONE + T)
    pattern = next(
        p for p in enumerate_patterns((3, 1, 0), strict=True) if p.weight() == (2, 1, 1)
    )
    weights = pattern_row_weights(pattern)
    assert weights == [(ONE - Q) * (ONE + T), ONE - Q]
    contribution = weights[0] * weights[1]
    assert contribution == (ONE - Q) ** 2 * (ONE + T)
    product = vq(3) * hl((1, 0, 0))
    assert x_coefficient(product, (2, 1, 1)) == (ONE - Q) ** 2 * (ONE + T)


def test_criterion_08_raising_closure_golden():
    ops = raising_closure((6, 4, 3, 1))
    assert {op.result: op.length for op in ops} == {
        (6, 4, 3, 1): 0,
        (5, 5, 3, 1): 1,
        (5, 4, 4, 1): 2,
        (6, 3, 3, 2): 2,
        (6, 4, 2, 2): 1,
        (5, 5, 2, 2): 2,
    }
    for op in ops:
        displacement = sum(
            i * (b - a) for i, (a, b) in enumerate(zip((6, 4, 3, 1), op.result))
        )
        assert op.length == displacement


def test_criterion_09_weight_tables():
    # Diagonal weight by the entry's (left, right) labels.
    w_rows = {
        (LEFT, SPECIAL): -Q,
        (SPECIAL, RIGHT): ONE,
        (LEFT, ALMOST_RIGHT): -Q - Q * T,
        (ALMOST_LEFT, RIGHT): ONE + T,
        (SPECIAL, ALMOST_RIGHT): ONE - Q - T,
        (ALMOST_LEFT, SPECIAL): ONE - Q + Q * T,
        (ALMOST_LEFT, ALMOST_RIGHT): ONE - Q,
        (SPECIAL, SPECIAL): (ONE - Q) * (ONE - T),
    }
    for labels, expected in w_rows.items():
        assert formulas._diagonal_weight(*labels) == expected, labels
    # Subdiagonal weight by (right label of an entry, left label of the next).
    d_rows = {
        (SPECIAL, SPECIAL): Polynomial.zero(0),
        (SPECIAL, LEFT): Polynomial.zero(0),
        (RIGHT, SPECIAL): Polynomial.zero(0),
        (RIGHT, LEFT): -Q,
        (ALMOST_RIGHT, LEFT): Q ** 2 * T,
        (RIGHT, ALMOST_LEFT): T,
        (ALMOST_RIGHT, ALMOST_LEFT): -Q * T ** 2,
    }
    for (right, left), expected in d_rows.items():
        first, second = (SPECIAL, right), (left, SPECIAL)
        assert formulas._subdiagonal_weight(first, second) == expected, (right, left)
    word = _row_labels((5, 3, 1), (4, 3))
    assert [formulas._diagonal_weight(*labels) for labels in word] == [ONE - Q, -Q]
    assert formulas._subdiagonal_weight(*word) == Q ** 2 * T


def test_criterion_10_structural_oracles(tmp_path):
    # interleaving-row counts match the product of gap sizes
    for length in range(1, 6):
        for alpha in strict_tuples(length, 6):
            expected = 1
            for a, b in zip(alpha, alpha[1:]):
                expected *= a - b + 1
            assert len(_interleavings(alpha)) == expected
    # Schur polynomials at x = (1, ..., 1) count unrestricted patterns
    for n in range(1, 5):
        for lam in weakly_decreasing_tuples(n, 3):
            assert coeff_sum(schur(lam)) == len(enumerate_patterns(lam))
    # determinant recurrence agrees with naive cofactor expansion
    for length in range(2, 6):
        for alpha in strict_tuples(length, 6):
            for mu in _interleavings(alpha):
                assert transition_det(alpha, mu) == laplace_det(
                    tridiagonal_matrix(alpha, mu)
                ), (alpha, mu)
    # benchmark CSV comes out well formed for 3 and 4 variables
    target = tmp_path / "bench.csv"
    code = cli_main(
        ["bench", "--n", "3,4", "--max-part", "2", "--repeats", "1", "--out", str(target)]
    )
    assert code == 0
    with open(target, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows and set(rows[0]) == {"n", "lambda", "mode", "terms", "seconds"}
    assert {row["n"] for row in rows} == {"3", "4"}

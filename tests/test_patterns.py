from itertools import product

import pytest

from hlgt.polyring import Polynomial, constant, parameter
from hlgt.patterns import (
    ALMOST_LEFT,
    ALMOST_RIGHT,
    LEFT,
    RIGHT,
    SPECIAL,
    GtPattern,
    _diagonal_weight,
    _interleavings,
    _row_labels,
    add_staircase,
    check_partition,
    diagonal_weight,
    entry_labels,
    enumerate_patterns,
    interleaves,
    is_strictly_decreasing,
    is_weakly_decreasing,
    staircase,
    subdiagonal_weight,
    weakly_decreasing_tuples,
)

from helpers import strict_tuples

ONE = constant(1, 0)
Q = parameter("q", 0)
T = parameter("t", 0)


# ----------------------------------------------------------------------
# partitions

def test_staircase():
    assert staircase(1) == (0,)
    assert staircase(3) == (2, 1, 0)
    assert staircase(4) == (3, 2, 1, 0)
    with pytest.raises(ValueError):
        staircase(0)


def test_add_staircase():
    assert add_staircase((1, 0, 0)) == (3, 1, 0)
    assert add_staircase((0, 0)) == (1, 0)


def test_predicates():
    assert is_weakly_decreasing((3, 3, 1))
    assert not is_weakly_decreasing((1, 2))
    assert is_strictly_decreasing((3, 1, 0))
    assert not is_strictly_decreasing((3, 3, 1))


def test_check_partition():
    assert check_partition([2, 1, 1]) == (2, 1, 1)
    with pytest.raises(ValueError, match="strictly"):
        check_partition((2, 2), strict=True)
    with pytest.raises(ValueError, match="weakly"):
        check_partition((1, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        check_partition((1, -1))


def test_weakly_decreasing_tuples():
    got = list(weakly_decreasing_tuples(2, 2))
    assert got == [(2, 2), (2, 1), (2, 0), (1, 1), (1, 0), (0, 0)]
    assert list(weakly_decreasing_tuples(1, 0)) == [(0,)]


@pytest.mark.parametrize("length", range(7))
@pytest.mark.parametrize("max_part", range(5))
def test_weakly_decreasing_tuples_are_lex_descending(length, max_part):
    every = product(range(max_part + 1), repeat=length)
    want = sorted((t for t in every if is_weakly_decreasing(t)), reverse=True)
    assert list(weakly_decreasing_tuples(length, max_part)) == want


def test_weakly_decreasing_tuples_reject_a_negative_length():
    with pytest.raises(ValueError, match="length must be nonnegative"):
        weakly_decreasing_tuples(-1, 2)


# ----------------------------------------------------------------------
# next rows

def test_next_rows_two_parts():
    assert _interleavings((1, 0)) == [(1,), (0,)]


def test_next_rows_three_parts():
    got = _interleavings((3, 1, 0))
    assert got == [(3, 1), (3, 0), (2, 1), (2, 0), (1, 1), (1, 0)]


def test_next_rows_single_part():
    assert _interleavings((5,)) == [()]


def test_next_rows_count_formula():
    for length in range(1, 5):
        for alpha in strict_tuples(length, 6):
            expected = 1
            for a, b in zip(alpha, alpha[1:]):
                expected *= a - b + 1
            assert len(_interleavings(alpha)) == expected


def test_interleaves():
    assert interleaves((3, 1, 0), (2, 0))
    assert not interleaves((3, 1, 0), (4, 0))
    assert not interleaves((3, 1, 0), (2,))


# ----------------------------------------------------------------------
# GT patterns

def test_pattern_validation():
    GtPattern([(3, 1, 0), (2, 0), (1,)])
    for rows in ([(3, 1, 0), (0, 0), (0,)], [(3, 1, 0), (2, 2), (2,)], [(3, 1, 0), (2, 0), (3,)]):
        with pytest.raises(ValueError, match="interleaving"):
            GtPattern(rows)
    with pytest.raises(ValueError, match="row lengths"):
        GtPattern([(3, 1, 0), (2,)])
    with pytest.raises(ValueError, match="weakly"):
        GtPattern([(1, 2), (1,)])
    with pytest.raises(ValueError):
        GtPattern([])


def test_enumerate_patterns_strict_pair():
    found = enumerate_patterns((1, 0), strict=True)
    assert [p.rows for p in found] == [((1, 0), (1,)), ((1, 0), (0,))]


def test_enumerate_patterns_forced():
    found = enumerate_patterns((0, 0, 0))
    assert len(found) == 1
    assert found[0].rows == ((0, 0, 0), (0, 0), (0,))


def test_enumerate_patterns_unique_weight():
    found = enumerate_patterns((3, 1, 0), strict=True)
    matching = [p for p in found if p.weight() == (2, 1, 1)]
    assert len(matching) == 1
    assert matching[0].rows == ((3, 1, 0), (2, 0), (1,))


def test_enumerated_patterns_pass_the_checked_constructor():
    for length in range(1, 5):
        for top in weakly_decreasing_tuples(length, 3):
            found = enumerate_patterns(top)
            assert found == [GtPattern(p.rows) for p in found]
            assert all(type(row) is tuple for p in found for row in p.rows)


@pytest.mark.parametrize("top, strict", [
    ((3, 1, 0), False), ((3, 1, 0), True), ((4, 2, 1, 0), True),
    ((3, 3, 1, 1), False), ((5, 3, 2, 0), True),
])
def test_enumerate_patterns_are_strictly_lex_descending(top, strict):
    rows = [p.rows for p in enumerate_patterns(top, strict=strict)]
    assert len(rows) > 1
    assert all(a > b for a, b in zip(rows, rows[1:]))


def test_enumerate_patterns_strict_needs_strict_top():
    with pytest.raises(ValueError):
        enumerate_patterns((2, 2), strict=True)


def test_weight():
    assert GtPattern([(3, 1, 0), (2, 0), (1,)]).weight() == (2, 1, 1)
    assert GtPattern([(0, 0), (0,)]).weight() == (0, 0)
    assert GtPattern([(5,)]).weight() == (5,)


def test_weight_sums_to_top_row_size():
    for pattern in enumerate_patterns((3, 1, 0)):
        assert sum(pattern.weight()) == 4


def test_leaning_counts():
    assert GtPattern([(1, 0), (1,)]).leaning_counts() == (1, 0, 0)
    assert GtPattern([(1, 0), (0,)]).leaning_counts() == (0, 1, 0)
    assert GtPattern([(2, 0), (1,)]).leaning_counts() == (0, 0, 1)
    # an entry equal to both parents counts once on each side
    assert GtPattern([(1, 1), (1,)]).leaning_counts() == (1, 1, 0)


def test_is_strict():
    assert GtPattern([(3, 1, 0), (2, 0), (1,)]).is_strict
    assert not GtPattern([(3, 1, 0), (1, 1), (1,)]).is_strict


def test_triangle_lines():
    lines = GtPattern([(3, 1, 0), (2, 0), (1,)]).triangle_lines()
    assert lines == ["3  1  0", "  2  0", "    1"]
    # entries wider than one digit stay aligned
    wide = GtPattern([(12, 0), (3,)]).triangle_lines()
    assert wide == ["12    0", "    3"]


# ----------------------------------------------------------------------
# refined labels

def test_entry_labels_example():
    assert entry_labels((5, 3, 1), (4, 3), 0) == (ALMOST_LEFT, ALMOST_RIGHT)
    assert entry_labels((5, 3, 1), (4, 3), 1) == (LEFT, SPECIAL)
    assert entry_labels((3, 0), (1,), 0) == (SPECIAL, ALMOST_RIGHT)


def test_entry_labels_validation():
    with pytest.raises(ValueError, match="one part shorter"):
        entry_labels((3, 1, 0), (2,), 0)
    with pytest.raises(ValueError, match="out of range"):
        entry_labels((3, 1), (2,), 1)
    with pytest.raises(ValueError, match="strictly"):
        entry_labels((3, 3), (3,), 0)
    # (3, 1, 0) / (5, 0) reads (s, s), yet 5 lies above its parent 3.
    with pytest.raises(ValueError, match="violate the interleaving condition"):
        entry_labels((3, 1, 0), (5, 0), 0)


# ----------------------------------------------------------------------
# diagonal weights, all eight label pairs

@pytest.mark.parametrize(
    "upper,lower,expected",
    [
        ((5, 2), (5,), -Q),                      # (l, s)
        ((5, 2), (2,), ONE),                     # (s, r)
        ((3, 2), (3,), -Q - Q * T),              # (l, ar)
        ((3, 2), (2,), ONE + T),                 # (al, r)
        ((5, 2), (3,), ONE - Q - T),             # (s, ar)
        ((5, 2), (4,), ONE - Q + Q * T),         # (al, s)
        ((4, 2), (3,), ONE - Q),                 # (al, ar)
        ((6, 2), (4,), (ONE - Q) * (ONE - T)),   # (s, s)
    ],
)
def test_diagonal_weight_table(upper, lower, expected):
    assert diagonal_weight(upper, lower, 0) == expected


def test_diagonal_weight_worked_rows():
    assert diagonal_weight((5, 3, 1), (4, 3), 0) == ONE - Q
    assert diagonal_weight((5, 3, 1), (4, 3), 1) == -Q
    with pytest.raises(ValueError, match="violate the interleaving condition"):
        diagonal_weight((3, 1, 0), (5, 0), 0)


# ----------------------------------------------------------------------
# subdiagonal weights, all seven table rows

@pytest.mark.parametrize(
    "lower,expected",
    [
        ((7, 3), Polynomial.zero(0)),   # (s, s)
        ((7, 5), Polynomial.zero(0)),   # (s, l)
        ((7, 4), Polynomial.zero(0)),   # (s, al)
        ((5, 3), Polynomial.zero(0)),   # (r, s)
        ((6, 3), Polynomial.zero(0)),   # (ar, s)
        ((5, 5), -Q),                   # (r, l)
        ((6, 5), Q ** 2 * T),           # (ar, l)
        ((5, 4), T),                    # (r, al)
        ((6, 4), -Q * T ** 2),          # (ar, al)
    ],
)
def test_subdiagonal_weight_table(lower, expected):
    assert subdiagonal_weight((9, 5, 1), lower, 1) == expected


def test_subdiagonal_weight_worked_rows():
    assert subdiagonal_weight((5, 3, 1), (4, 3), 1) == Q ** 2 * T


def test_subdiagonal_weight_bounds():
    with pytest.raises(ValueError):
        subdiagonal_weight((3, 1), (2,), 1)
    with pytest.raises(ValueError):
        subdiagonal_weight((5, 3, 1), (4, 3), 2)
    with pytest.raises(ValueError, match="violate the interleaving condition"):
        subdiagonal_weight((3, 1, 0), (5, 0), 1)


def test_left_and_right_never_coincide_under_strict_rows():
    # exhaustive over strict tops with parts <= 6 and up to 4 rows
    for length in range(2, 5):
        for top in strict_tuples(length, 6):
            for pattern in enumerate_patterns(top, strict=True):
                for upper, lower in zip(pattern.rows, pattern.rows[1:]):
                    word = _row_labels(upper, lower)
                    assert len(word) == len(lower)
                    for k in range(len(lower)):
                        labels = entry_labels(upper, lower, k)
                        assert labels != (LEFT, RIGHT)
                        assert word[k] == labels


def test_row_labels_are_unchecked_and_read_the_two_gaps():
    # below the non-strict row (3, 3) the entry 3 touches both parents
    assert _row_labels((3, 3), (3,)) == ((LEFT, RIGHT),)
    assert _row_labels((5, 3, 1), (4, 3)) == ((ALMOST_LEFT, ALMOST_RIGHT), (LEFT, SPECIAL))
    assert _row_labels((9, 5, 1), (7, 2)) == ((SPECIAL, SPECIAL), (SPECIAL, ALMOST_RIGHT))


def test_label_diagonal_weight_rejects_left_and_right():
    with pytest.raises(ArithmeticError):
        _diagonal_weight(LEFT, RIGHT)
    assert _diagonal_weight(LEFT, ALMOST_RIGHT) == -Q - Q * T

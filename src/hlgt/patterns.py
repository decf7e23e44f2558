"""Partitions, Gelfand-Tsetlin patterns, and per-entry statistics.

A partition here is a plain tuple of nonnegative integers with explicit
length: trailing zeros matter, because adding the staircase (n-1, ..., 1, 0)
depends on position.  Tuples with ascents are representable on purpose
(raised tuples and mu - staircase differences show up downstream), so
monotonicity is a checkable predicate, not an invariant.

A GT pattern is a triangular stack of rows, each one entry shorter than the
row above, where every row is weakly decreasing and consecutive rows
interleave: each entry lies between its upper-left and upper-right parents.
An entry equal to its upper-left parent is called left-leaning, equal to its
upper-right parent right-leaning, and special otherwise.

The refined per-entry labels track near-misses and are set by the entry's
two gaps: 0 to the upper-left parent gives ``l``, 1 gives ``al``, more ``s``;
0 to the upper-right parent gives ``r``, 1 gives ``ar``, more ``s``.
``_row_labels`` labels a row pair in one pass, and every per-entry
statistic reads those labels, including the q,t-weights ``diagonal_weight``
and ``subdiagonal_weight`` of the evaluators' transition determinant.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from typing import Iterable, Iterator, NamedTuple, Sequence

from .polyring import Polynomial, constant, parameter

LEFT = "l"
ALMOST_LEFT = "al"
RIGHT = "r"
ALMOST_RIGHT = "ar"
SPECIAL = "s"

# Label weight g: the q,t factor contributed by each refined label.
_Q = parameter("q", 0)
_T = parameter("t", 0)
_ONE = constant(1, 0)
_ZERO = Polynomial.zero(0)
_LABEL_WEIGHT = {
    LEFT: -_Q,
    ALMOST_LEFT: _T,
    RIGHT: _ONE,
    ALMOST_RIGHT: -(_Q * _T),
    SPECIAL: _ZERO,
}
# Labels by gap: upper-left parent minus entry, entry minus upper-right parent.
_LEFT_BY_GAP = {0: LEFT, 1: ALMOST_LEFT}
_RIGHT_BY_GAP = {0: RIGHT, 1: ALMOST_RIGHT}


class EntryLabels(NamedTuple):
    left: str
    right: str


# ----------------------------------------------------------------------
# partitions

def is_weakly_decreasing(parts: Sequence[int]) -> bool:
    return all(a >= b for a, b in zip(parts, parts[1:]))


def is_strictly_decreasing(parts: Sequence[int]) -> bool:
    return all(a > b for a, b in zip(parts, parts[1:]))


def check_partition(parts: Iterable[int], *, strict: bool = False) -> tuple[int, ...]:
    """Validate and normalize a partition, returning it as a tuple."""
    parts = tuple(parts)
    if any(not isinstance(p, int) or p < 0 for p in parts):
        raise ValueError(f"parts must be nonnegative integers: {parts!r}")
    if strict:
        if not is_strictly_decreasing(parts):
            raise ValueError(f"parts must be strictly decreasing: {parts!r}")
    elif not is_weakly_decreasing(parts):
        raise ValueError(f"parts must be weakly decreasing: {parts!r}")
    return parts


def staircase(n: int) -> tuple[int, ...]:
    """The staircase partition (n-1, n-2, ..., 1, 0)."""
    if n < 1:
        raise ValueError("staircase requires n >= 1")
    return tuple(range(n - 1, -1, -1))


def add_staircase(lam: Sequence[int]) -> tuple[int, ...]:
    """lam + (n-1, ..., 1, 0); strictly decreasing when lam weakly decreases."""
    lam = tuple(lam)
    return tuple(p + s for p, s in zip(lam, staircase(len(lam))))


def weakly_decreasing_tuples(length: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """All weakly decreasing tuples of the given length with parts <= max_part, lex-descending."""
    if length < 0:
        raise ValueError(f"length must be nonnegative, got {length}")
    return combinations_with_replacement(range(max_part, -1, -1), length)


# ----------------------------------------------------------------------
# rows and interleaving

def _interleavings(row: tuple[int, ...]) -> list[tuple[int, ...]]:
    # All next rows under a weakly decreasing row, in lex-descending order.
    # Interleaving forces the result weakly decreasing automatically.
    ranges = [range(row[i], row[i + 1] - 1, -1) for i in range(len(row) - 1)]
    return [tuple(mu) for mu in product(*ranges)]


def _check_upper_row(alpha: Sequence[int]) -> tuple[int, ...]:
    # A strictly decreasing row with at least one part, as a tuple.
    alpha = check_partition(alpha, strict=True)
    if len(alpha) == 0:
        raise ValueError("alpha must have at least one part")
    return alpha


def interleaves(upper: Sequence[int], lower: Sequence[int]) -> bool:
    """Whether lower is a valid row directly below upper (one part shorter)."""
    upper, lower = tuple(upper), tuple(lower)
    if len(lower) != len(upper) - 1:
        return False
    return all(upper[i] >= lower[i] >= upper[i + 1] for i in range(len(lower)))


# ----------------------------------------------------------------------
# GT patterns

class GtPattern:
    """Triangular array of interleaving weakly decreasing rows.

    Construction validates shape, monotonicity and interleaving eagerly;
    downstream statistics assume a valid pattern.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Sequence[int]]) -> None:
        rows = tuple(tuple(r) for r in rows)
        if not rows:
            raise ValueError("a GT pattern needs at least one row")
        n = len(rows[0])
        if [len(r) for r in rows] != list(range(n, 0, -1)):
            raise ValueError("row lengths must decrease from n down to 1")
        for r in rows:
            check_partition(r)
        for upper, lower in zip(rows, rows[1:]):
            if not interleaves(upper, lower):
                raise ValueError(
                    f"rows {upper!r} and {lower!r} violate the interleaving condition"
                )
        self.rows = rows

    @classmethod
    def _raw(cls, rows: tuple[tuple[int, ...], ...]) -> "GtPattern":
        # Fast path for internal use: rows are already a valid pattern of tuples.
        pattern = object.__new__(cls)
        pattern.rows = rows
        return pattern

    @property
    def is_strict(self) -> bool:
        return all(is_strictly_decreasing(r) for r in self.rows)

    def weight(self) -> tuple[int, ...]:
        """Successive row-sum differences (m_1, ..., m_n); the x-exponent vector."""
        sums = [sum(r) for r in self.rows]
        return tuple(sums[i] - sums[i + 1] for i in range(len(sums) - 1)) + (sums[-1],)

    def leaning_counts(self) -> tuple[int, int, int]:
        """Counts of (left-leaning, right-leaning, special) entries.

        An entry equal to both parents (possible only below a non-strict
        row) counts once on each side.
        """
        return _leaning(lbl for upper, lower in zip(self.rows, self.rows[1:])
                        for lbl in _row_labels(upper, lower))

    def triangle_lines(self) -> list[str]:
        """Centered triangle rendering, one string per row."""
        cell = max(len(str(e)) for r in self.rows for e in r)
        lines = []
        for i, row in enumerate(self.rows):
            body = (" " * (cell + 1)).join(str(e).rjust(cell) for e in row)
            lines.append(" " * (i * (cell + 1)) + body)
        return lines

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GtPattern):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"GtPattern({list(self.rows)!r})"


def enumerate_patterns(top: Sequence[int], strict: bool = False) -> list[GtPattern]:
    """All GT patterns with the given top row, in lex-descending order.

    Grown one row per level: each partial pattern, in order, is extended by
    the rows that may sit below its last, lex-descending.  With
    ``strict=True`` only patterns whose rows are all strictly decreasing
    are produced, and the top row itself must be strict.
    """
    top = check_partition(top, strict=strict)
    if len(top) == 0:
        raise ValueError("top row must have at least one part")
    rows = [(top,)]
    for _ in range(len(top) - 1):
        rows = [p + (mu,) for p in rows for mu in _interleavings(p[-1])
                if not strict or is_strictly_decreasing(mu)]
    return [GtPattern._raw(p) for p in rows]


# ----------------------------------------------------------------------
# refined entry labels and their weights

def _row_labels(upper: Sequence[int], lower: Sequence[int]) -> tuple[tuple[str, str], ...]:
    # (left, right) labels of every entry of lower under upper; unchecked, so (l, r) can occur.
    return tuple((_LEFT_BY_GAP.get(a - m, SPECIAL), _RIGHT_BY_GAP.get(m - b, SPECIAL))
                 for a, m, b in zip(upper, lower, upper[1:]))


def _leaning(labels: Iterable[tuple[str, str]]) -> tuple[int, int, int]:
    # (left-leaning, right-leaning, special) counts of the given labels.
    left = right = special = 0
    for left_label, right_label in labels:
        left += left_label == LEFT
        right += right_label == RIGHT
        special += left_label != LEFT and right_label != RIGHT
    return left, right, special


def entry_labels(upper: Sequence[int], lower: Sequence[int], i: int) -> EntryLabels:
    """Refined (left, right) labels of entry lower[i] under a strict row upper."""
    upper = check_partition(upper, strict=True)
    lower = tuple(lower)
    if len(lower) != len(upper) - 1:
        raise ValueError(
            f"lower row must be one part shorter than upper: {upper!r} / {lower!r}"
        )
    if not interleaves(upper, lower):
        raise ValueError(f"rows {upper!r} and {lower!r} violate the interleaving condition")
    if not 0 <= i < len(lower):
        raise ValueError(f"entry index {i} out of range for row {lower!r}")
    return EntryLabels(*_row_labels(upper, lower)[i])


def _diagonal_weight(left: str, right: str) -> Polynomial:
    if left == LEFT and right == RIGHT:
        raise ArithmeticError("label (l, r): an entry equal to both parents of a strict row")
    if left == LEFT or right == RIGHT:
        base = _ZERO
    else:
        base = (_ONE - _Q) * (_ONE - _T)
    return base + _LABEL_WEIGHT[left] + _LABEL_WEIGHT[right]


def _subdiagonal_weight(first: tuple[str, str], second: tuple[str, str]) -> Polynomial:
    # Right label weight of an entry times the left label weight of the next.
    return _LABEL_WEIGHT[first[1]] * _LABEL_WEIGHT[second[0]]


def diagonal_weight(upper: tuple[int, ...], lower: tuple[int, ...], i: int) -> Polynomial:
    """Diagonal entry weight of lower[i] under upper, a polynomial in q and t.

    Sum of the two label weights plus (1-q)(1-t) when the entry touches
    neither parent exactly.  The (l, r) combination cannot occur under a
    strictly decreasing upper row and is treated as fatal.
    """
    return _diagonal_weight(*entry_labels(upper, lower, i))


def subdiagonal_weight(upper: tuple[int, ...], lower: tuple[int, ...], j: int) -> Polynomial:
    """Subdiagonal weight attached to upper[j], for 1 <= j <= len(upper) - 2.

    Product of the right label weight of lower[j-1] and the left label
    weight of lower[j].
    """
    if not 1 <= j <= len(upper) - 2:
        raise ValueError(f"subdiagonal index {j} out of range for row {tuple(upper)!r}")
    return _subdiagonal_weight(entry_labels(upper, lower, j - 1), entry_labels(upper, lower, j))

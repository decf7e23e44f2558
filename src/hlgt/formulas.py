"""Gelfand-Tsetlin pattern expansions of Hall-Littlewood polynomials.

The central object is the tridiagonal transition determinant attached to a
strictly decreasing row alpha and a candidate next row mu: diagonal
entries are the per-entry ``diagonal_weight`` values of mu under alpha,
the superdiagonal is all ones, and the subdiagonal holds the
``subdiagonal_weight`` values.  Both read only the label word of mu under
alpha (its entries' labels, in order), so the determinant is memoized on
that word and evaluated by the two-term top-row expansion

    M(word) = w(word_1) * M(word') - d(word_1, word_2) * M(word''),

where a prime drops the first label, rather than by generic determinant
code; the empty word gives 1, and the determinant is 0 whenever mu fails
to interleave with alpha.

Raising operators move one unit from a part to the next ([i i+1] style);
``raising_closure(alpha)`` collects every tuple reachable from alpha by
repeatedly raising a consecutive pair whose gap is exactly 2, together
with the number of elementary raises needed.  That length is recovered
from the weighted displacement sum(j * (image_j - alpha_j)): each
elementary raise adds exactly one to it, so word order never matters.

Each sum over strict GT patterns here weights a pattern by a product
over its consecutive row pairs, so all four run on one row-transfer
engine: with F((a,)) = x_n^a and k = n - len(row) + 1,

    F(row) = sum over strict next rows mu of
             edge_weight(row, mu) * x_k^(|row| - |mu|) * F(mu),

memoized per distinct row, which folds the pattern tree into a DAG (the
transfer-matrix view of Tokuyama-type formulas).  The edge weights:
``hl_pattern_expansion`` uses ``row_weight_sum``; ``tokuyama_sum``
(-q)^left * (1-q)^special; ``stanley_sum`` 2^special, with top row lam
itself; ``stanley_filtered_sum`` the product of the lower row's diagonal
weights at q = 0, t = -1, or 0 if the pair fails its row-local filter.
``hl_row_recursion`` and ``tokuyama_row_recursion`` take one step of the
same engine under the top row with the oracle's F(mu) = inner(mu - staircase),
then multiply once by v_{n-1}(x;q) in x_2..x_n; they obey the oracle's cap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Sequence

from . import oracle
from .polyring import Polynomial, constant
from .patterns import (
    ALMOST_LEFT,
    LEFT,
    RIGHT,
    _ONE,
    _Q,
    _T,
    _ZERO,
    GtPattern,
    _check_upper_row,
    _diagonal_weight,
    _interleavings,
    _leaning,
    _row_labels,
    _subdiagonal_weight,
    add_staircase,
    check_partition,
    interleaves,
    is_strictly_decreasing,
    staircase,
)


# ----------------------------------------------------------------------
# raising operators

@dataclass(frozen=True)
class RaisingOperator:
    """A reachable image tuple together with its elementary-raise count."""

    result: tuple[int, ...]
    length: int


def elementary_raise(parts: Sequence[int], i: int) -> tuple[int, ...]:
    """Move one unit from part i to part i+1 (0-based)."""
    parts = tuple(parts)
    if not 0 <= i < len(parts) - 1:
        raise ValueError(f"raise index {i} out of range for {parts!r}")
    return parts[:i] + (parts[i] - 1, parts[i + 1] + 1) + parts[i + 2:]


def _displacement(source: tuple[int, ...], image: tuple[int, ...]) -> int:
    # Each elementary raise adds exactly 1; 0- and 1-based weightings agree
    # because raises preserve the total.
    return sum(i * (b - a) for i, (a, b) in enumerate(zip(source, image)))


@lru_cache(maxsize=None)
def raising_closure(alpha: tuple[int, ...]) -> tuple[RaisingOperator, ...]:
    """Closure of alpha under raising consecutive pairs with gap exactly 2.

    Breadth-first from the identity; images are deduplicated, and each
    carries the number of elementary raises reaching it.  The identity
    (length 0) always comes first.
    """
    alpha = check_partition(alpha, strict=True)
    depth = {alpha: 0}
    order = [alpha]
    queue = deque([alpha])
    while queue:
        cur = queue.popleft()
        for i in range(len(cur) - 1):
            if cur[i] == cur[i + 1] + 2:
                image = elementary_raise(cur, i)
                if image not in depth:
                    depth[image] = depth[cur] + 1
                    order.append(image)
                    queue.append(image)
    ops = []
    for image in order:
        length = _displacement(alpha, image)
        if length != depth[image]:
            raise ArithmeticError(
                f"raise count mismatch for {image!r}: bfs {depth[image]}, "
                f"displacement {length}"
            )
        ops.append(RaisingOperator(image, length))
    return tuple(ops)


# ----------------------------------------------------------------------
# transition determinant

@lru_cache(maxsize=None)
def _det_recurrence(word: tuple[tuple[str, str], ...]) -> Polynomial:
    if not word:
        return _ONE
    det = _diagonal_weight(*word[0]) * _det_recurrence(word[1:])
    if len(word) > 1:
        det = det - _subdiagonal_weight(word[0], word[1]) * _det_recurrence(word[2:])
    return det


def transition_det(alpha: Sequence[int], mu: Sequence[int]) -> Polynomial:
    """Tridiagonal determinant weighting candidate next row mu under alpha.

    Returns a polynomial in q and t (zero x-variables): 1 for a
    single-part alpha, 0 when mu does not interleave with alpha, and the
    top-row two-term recurrence otherwise.  Entries of invalid rows are
    never labeled.
    """
    alpha = _check_upper_row(alpha)
    mu = tuple(mu)
    if not interleaves(alpha, mu):
        return Polynomial.zero(0)
    return _det_recurrence(_row_labels(alpha, mu))


def row_weight_sum(upper: tuple[int, ...], lower: tuple[int, ...]) -> Polynomial:
    """Sum of t^length * transition_det(upper, image) over the closure of lower."""
    return _row_weight_sum(_check_upper_row(upper), lower)


def _row_weight_sum(upper: tuple[int, ...], lower: tuple[int, ...]) -> Polynomial:
    # row_weight_sum for an upper row already known to be strictly decreasing.
    acc = Polynomial.zero(0)
    for op in raising_closure(lower):
        if interleaves(upper, op.result):
            det = _det_recurrence(_row_labels(upper, op.result))
            if det:
                acc = acc + _T ** op.length * det
    return acc


def pattern_row_weights(pattern: GtPattern) -> list[Polynomial]:
    """The per-row-pair weight sums of a strict pattern (q,t polynomials)."""
    if not pattern.is_strict:
        raise ValueError("row weights are defined for strict patterns only")
    rows = pattern.rows
    return [row_weight_sum(rows[i], rows[i + 1]) for i in range(len(rows) - 1)]


# ----------------------------------------------------------------------
# pattern sums

def _row_step(row: tuple[int, ...], edges, below: dict) -> dict:
    """Sum over edges (mu, weight) of weight * x_k^(|row| - |mu|) * below[mu].

    Each F is nested as {x-exponents of the last len(row) variables:
    {(q, t): coeff}}; the result is F(row) in the same form.  F may hold
    zero coefficients: they add nothing downstream, and ``_flatten``
    drops them once.
    """
    out: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
    for mu, weight in edges:
        w_terms = weight._terms.items()
        drop = (sum(row) - sum(mu),)
        for xs, qt in below[mu].items():
            acc = out.setdefault(drop + xs, {})
            for (wq, wt), wc in w_terms:
                for (q, t), c in qt.items():
                    key = (q + wq, t + wt)
                    acc[key] = acc.get(key, 0) + wc * c
    return out


def _nest(poly: Polynomial) -> dict:
    nested: dict = {}
    for mono, c in poly._terms.items():
        nested.setdefault(mono[:-2], {})[mono[-2:]] = c
    return nested


def _flatten(n_vars: int, nested: dict) -> Polynomial:
    return Polynomial._raw(n_vars, {xs + key: c for xs, qt in nested.items()
                                    for key, c in qt.items() if c})


def _transfer(top: tuple[int, ...], edge_weight) -> Polynomial:
    """F(top) of the row transfer in the module docstring, one row length at a time."""
    # Top down: the rows of each length reachable through nonzero weights,
    # each mapped to its (next row, weight) edges.
    levels: list[dict] = [{top: None}]
    for _ in range(len(top) - 1):
        for row in levels[-1]:
            levels[-1][row] = [(mu, w) for mu in _interleavings(row)
                               if is_strictly_decreasing(mu) and (w := edge_weight(row, mu))]
        levels.append(dict.fromkeys(mu for edges in levels[-1].values() for mu, _ in edges))
    # Bottom up, holding F for two row lengths at a time.
    below = {row: {row: {(0, 0): 1}} for row in levels.pop()}
    while levels:
        below = {row: _row_step(row, edges, below) for row, edges in levels.pop().items()}
    return _flatten(len(top), below[top])


def hl_pattern_expansion(lam: Sequence[int]) -> Polynomial:
    """Strict-pattern expansion of v_n(x;q) * HL_lam(x;t).

    Sums, over all strict GT patterns with top row lam + staircase, the
    product over consecutive row pairs of the raising-closure-summed
    transition determinants, times x^weight.
    """
    return _transfer(add_staircase(check_partition(lam)), _row_weight_sum)


def _tokuyama_weight(upper: tuple[int, ...], lower: tuple[int, ...]) -> Polynomial:
    left, _, special = _leaning(_row_labels(upper, lower))
    return (-_Q) ** left * (_ONE - _Q) ** special


def tokuyama_sum(lam: Sequence[int]) -> Polynomial:
    """Tokuyama's strict-pattern expansion of v_n(x;q) * s_lam(x).

    Each pattern contributes (1-q)^special * (-q)^left * x^weight.
    """
    return _transfer(add_staircase(check_partition(lam)), _tokuyama_weight)


def _one_step(lam: Sequence[int], weight, inner) -> Polynomial:
    # One _row_step under alpha = lam + staircase, with the oracle's
    # F(mu) = inner(mu - staircase), times v_{n-1}(x;q) in x_2..x_n.
    lam = check_partition(lam)
    n = len(lam)
    oracle._check_cap(n)
    alpha = add_staircase(lam)
    if n == 1:
        return Polynomial(1, {(alpha[0], 0, 0): 1})
    rho = staircase(n - 1)
    edges = [(mu, w) for mu in _interleavings(alpha) if (w := weight(alpha, mu))]
    below = {mu: _nest(inner(tuple(m - r for m, r in zip(mu, rho)))) for mu, _ in edges}
    step = _flatten(n, _row_step(alpha, edges, below))
    return step * oracle.weyl_denominator(n - 1, "q").shift_vars(0, n)


def hl_row_recursion(lam: Sequence[int]) -> Polynomial:
    """One-step recursion for v_n(x;q) * HL_lam(x;t).

    Sums over every next row mu under alpha = lam + staircase (strict or
    not) the transition determinant times x_1^(|alpha| - |mu|) times the
    variable-shifted product v_{n-1}(x;q) * HL_{mu - staircase}(x;t),
    with the Hall-Littlewood factor taken from the brute-force oracle.
    Non-strict mu feed exponent tuples with ascents straight into it.
    """
    # Every mu comes from _interleavings(alpha), so label it unchecked.
    return _one_step(lam, lambda alpha, mu: _det_recurrence(_row_labels(alpha, mu)),
                     oracle.hall_littlewood)


def tokuyama_row_recursion(lam: Sequence[int]) -> Polynomial:
    """One-step recursion for v_n(x;q) * s_lam(x), over strict next rows only.

    A part of mu equal to the part of alpha above-left counts as
    left-leaning, one equal to neither neighbour of alpha as special;
    non-strict mu drop out because their Schur factor vanishes.
    """
    def weight(alpha, mu):
        return _tokuyama_weight(alpha, mu) if is_strictly_decreasing(mu) else _ZERO

    return _one_step(lam, weight, oracle.schur)


def _stanley_weight(upper: tuple[int, ...], lower: tuple[int, ...]) -> Polynomial:
    return constant(2 ** _leaning(_row_labels(upper, lower))[2], 0)


def stanley_sum(lam: Sequence[int]) -> Polynomial:
    """Stanley's expansion of HL_lam(x;-1) for strictly decreasing lam.

    Sums 2^special * x^weight over strict patterns with top row lam
    itself (no staircase shift).
    """
    return _transfer(check_partition(lam, strict=True), _stanley_weight)


def _admits_filtered(word: tuple[tuple[str, str], ...]) -> bool:
    # Reject any left-equal entry, and any adjacent pair where the first
    # entry sits on its upper-right parent and the second is one below its
    # upper-left parent.
    return all(left != LEFT for left, _ in word) and not any(
        a[1] == RIGHT and b[0] == ALMOST_LEFT for a, b in zip(word, word[1:])
    )


def _filtered_weight(upper: tuple[int, ...], lower: tuple[int, ...]) -> Polynomial:
    word = _row_labels(upper, lower)
    if not _admits_filtered(word):
        return _ZERO
    coeff = prod((_diagonal_weight(left, right) for left, right in word), start=_ONE)
    return coeff.substitute("q", 0).substitute("t", -1)


def stanley_filtered_sum(lam: Sequence[int]) -> Polynomial:
    """Filtered-pattern expansion of x^staircase * HL_lam(x;-1).

    Sums the product of all diagonal entry weights, evaluated at q = 0 and
    t = -1, times x^weight, over strict patterns with top row
    lam + staircase whose every row pair's label word passes
    :func:`_admits_filtered`.
    """
    return _transfer(add_staircase(check_partition(lam)), _filtered_weight)


def clear_caches() -> None:
    """Drop all memoized determinants, closures and Weyl denominators (benchmark hygiene)."""
    raising_closure.cache_clear()
    _det_recurrence.cache_clear()
    oracle._weyl_denominator.cache_clear()

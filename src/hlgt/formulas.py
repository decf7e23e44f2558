"""Gelfand-Tsetlin pattern expansions of Hall-Littlewood polynomials.

The central object is the tridiagonal transition determinant attached to a
strictly decreasing row alpha and a candidate next row mu: the diagonal
holds ``_diagonal_weight`` of the (left, right) labels of each entry of
mu under alpha, the superdiagonal is all ones, and the subdiagonal holds
``_subdiagonal_weight`` of the labels of each two adjacent entries.
These label-pair entries and the q,t weight of each label live here,
beside the determinant, their one consumer; at import they are also
tabulated as plain {(q, t): c} maps, the form every edge weight below
takes.  Both read only the label word of mu under alpha (its entries'
labels, in order), so the determinant is memoized on that word and
evaluated, on those maps, by the two-term top-row expansion

    M(word) = w(word_1) * M(word') - d(word_1, word_2) * M(word''),

where a prime drops the first label, rather than by generic determinant
code; the empty word gives 1, and the determinant is 0 whenever mu fails
to interleave with alpha.

Raising operators move one unit from a part to the next ([i i+1] style);
``raising_closure(alpha)`` collects every tuple reachable from alpha by
repeatedly raising a consecutive pair whose gap is exactly 2, together
with the number of elementary raises needed, as ``RaisingOperator``
named tuples.  That length is recovered
from the weighted displacement sum(j * (image_j - alpha_j)): each
elementary raise adds exactly one to it, so word order never matters.

Each sum over strict GT patterns here weights a pattern by a product
over its consecutive row pairs, so all run on one row-transfer engine:
with F(()) = 1 and k = n - len(row) + 1,

    F(row) = sum over next rows mu of
             weight(row, mu) * x_k^(|row| - |mu|) * F(mu),

memoized per distinct row, which folds the pattern tree into a DAG (the
transfer-matrix view of Tokuyama-type formulas).  One walk, in
``_row_sums``, builds every edge and filters nothing, so each formula's
one weight is 0 on the rows it excludes, here every non-strict mu.  A
weight is a {(q, t): c} map with no zero entry, empty for no edge, and
no Polynomial arithmetic runs between the label tables and the packed
row sums; memoized maps are shared, so nothing mutates a weight.
``_strict_row_weight_sum`` is ``row_weight_sum``;
``_strict_tokuyama_weight`` (-q)^left * (1-q)^special; ``_stanley_weight``
2^special, with top row lam itself; ``_filtered_weight`` the product of
the lower row's diagonal weights at q = 0, t = -1, or 0 if the pair
fails its row-local filter.  Only ``hl_row_quotient`` keeps non-strict
mu, with weight ``_det_weight``.  The public ``transition_det``,
``row_weight_sum`` and ``pattern_row_weights`` return copies of these
maps as q,t Polynomials.  The pattern sums walk to the empty row;
the quotient routes form neither F(top) nor a product: ``_one_step``
walks one row down over inner sums H(mu) and returns its proven quotient
by prod_{j>1} (x_1 - q x_j).  ``hl_pattern_quotient`` and
``tokuyama_quotient`` take H(mu) from the step below, memoized with the
bounds its proof took (``_row_quotient``); the row routes from the oracle.

The engine holds each F(row) as {x-exponents: packed int}: the q,t
coefficient sum c q^a t^b of an x-monomial packs to
sum c << width * (a * stride + b), Kronecker substitution with signed
fields, so an edge costs one bigint multiply-add per x-monomial.  The
layout is proven, not guessed: one scalar pass over the same rows and
edges, ``_top_bounds``, bounds each row's q-degree, t-degree and
coefficient L1 norm from the bounds each inner row comes with and those
of each distinct weight map, taken once.  The top row's bounds give
stride = t-degree + 1 and byte-aligned fields: the smallest of 8, 16, 32
and 64 bits that holds L1.bit_length() + 1.  A larger need raises
PatternSizeError before any product.  One ``_bounds`` and one
``_Layout.pack`` serve rows and weights: a weight is a term map keyed
(x-part.., q, t) whose one x-part is ().

The packed result has three exits, all reading each value once as signed
machine integers through one decoder, ``_Layout._decode``; a value
beyond the proven q-degree raises ArithmeticError in each.  The pattern
sums return F(top) still packed, as a Polynomial whose terms are decoded
on first read.  ``_Layout.to_json`` writes its canonical JSON text with
no term map, joining text pieces shared between terms in one pass: that
is what ``compute --format json`` prints in modes closed, tokuyama and
stanley.  ``unpack`` gives the terms to every other use (text output,
arithmetic, equality in ``verify``).
``_Layout.quotient``, called by ``_one_step`` only, divides a packed row
step exactly by its factors x_1 - q x_j before anything is unpacked, and
returns the quotient and its bounds only with a proof that the step is
the factors times it, else QuotientError.  ``_row_quotient`` composes
these proofs.
"""

from __future__ import annotations

import sys
from collections import deque
from functools import lru_cache
from itertools import chain, compress, product, repeat
from math import comb, prod
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import oracle
from .polyring import Polynomial, constant, parameter, synthetic_division
from .patterns import (
    ALMOST_LEFT,
    ALMOST_RIGHT,
    LEFT,
    RIGHT,
    SPECIAL,
    GtPattern,
    _check_upper_row,
    _interleavings,
    _leaning,
    _row_labels,
    add_staircase,
    check_partition,
    interleaves,
    is_strictly_decreasing,
    staircase,
)


# ----------------------------------------------------------------------
# raising operators

class RaisingOperator(NamedTuple):
    """A reachable image tuple together with its elementary-raise count."""

    result: tuple[int, ...]
    length: int


def elementary_raise(parts: Sequence[int], i: int) -> tuple[int, ...]:
    """Move one unit from part i to part i+1 (0-based); part i must be positive."""
    parts = tuple(parts)
    if not (0 <= i < len(parts) - 1 and parts[i] > 0):
        raise ValueError(f"cannot move a unit from part {i} to part {i + 1} of {parts!r}")
    return parts[:i] + (parts[i] - 1, parts[i + 1] + 1) + parts[i + 2:]


def _displacement(source: tuple[int, ...], image: tuple[int, ...]) -> int:
    # Each elementary raise adds exactly 1; 0- and 1-based weightings agree
    # because raises preserve the total.
    return sum(i * (b - a) for i, (a, b) in enumerate(zip(source, image)))


@lru_cache(maxsize=None)
def raising_closure(alpha: tuple[int, ...]) -> tuple[RaisingOperator, ...]:
    """Closure of alpha under raising consecutive pairs with gap exactly 2.

    Breadth-first from the identity, walking ``order`` while it grows;
    images are deduplicated, and each carries the number of elementary
    raises reaching it.  The identity (length 0) always comes first.
    """
    alpha = check_partition(alpha, strict=True)
    depth = {alpha: 0}
    order = [alpha]
    for cur in order:
        for i in range(len(cur) - 1):
            if cur[i] == cur[i + 1] + 2:
                image = elementary_raise(cur, i)
                if image not in depth:
                    depth[image] = depth[cur] + 1
                    order.append(image)
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


def _diagonal_weight(left: str, right: str) -> Polynomial:
    # Sum of the two label weights, plus (1-q)(1-t) when the entry touches
    # neither parent exactly.  (l, r) cannot occur under a strict row.
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


# A q,t polynomial as a plain {(q, t): c} map with no zero c.
_QtMap = dict[tuple[int, int], int]

# The same weights as {(q, t): c} maps, for every (left, right) label of
# an entry and every adjacent pair of them; (l, r) has no diagonal entry.
_ENTRY_LABELS = tuple(product((LEFT, ALMOST_LEFT, SPECIAL), (RIGHT, ALMOST_RIGHT, SPECIAL)))
_DIAGONAL = {labels: _diagonal_weight(*labels)._terms
             for labels in _ENTRY_LABELS if labels != (LEFT, RIGHT)}
_SUBDIAGONAL = {pair: _subdiagonal_weight(*pair)._terms
                for pair in product(_ENTRY_LABELS, repeat=2)}
_UNIT = {(0, 0): 1}


def _add_product(out: _QtMap, a: _QtMap, b: _QtMap, sign: int = 1) -> None:
    # out += sign * a * b on {(q, t): c} maps; zero entries may remain in out.
    get = out.get
    for (qa, ta), ca in a.items():
        ca *= sign
        for (qb, tb), cb in b.items():
            key = qa + qb, ta + tb
            out[key] = get(key, 0) + ca * cb


@lru_cache(maxsize=None)
def _det_recurrence(word: tuple[tuple[str, str], ...]) -> _QtMap:
    if not word:
        return _UNIT
    if word[0] not in _DIAGONAL:
        _diagonal_weight(*word[0])  # raises for the one label without an entry, (l, r)
    det: _QtMap = {}
    _add_product(det, _DIAGONAL[word[0]], _det_recurrence(word[1:]))
    if len(word) > 1:
        _add_product(det, _SUBDIAGONAL[word[0], word[1]], _det_recurrence(word[2:]), -1)
    return {key: c for key, c in det.items() if c}


def _det_weight(alpha: tuple[int, ...], mu: tuple[int, ...]) -> _QtMap:
    # The determinant of a next row mu already known to interleave with alpha.
    return _det_recurrence(_row_labels(alpha, mu))


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
        return _ZERO
    return Polynomial._raw(0, dict(_det_weight(alpha, mu)))


def row_weight_sum(upper: tuple[int, ...], lower: tuple[int, ...]) -> Polynomial:
    """Sum of t^length * transition_det(upper, image) over the closure of lower.

    0 unless lower interleaves with upper: a raise makes two adjacent
    parts equal, two equal parts b under a strict row both equal the part
    of it between them, and its strictness leaves room for the undone
    pair (b + 1, b - 1), so undoing the raise keeps the row interleaved.
    Hence no image of a lower row that fails to interleave does.
    """
    upper, lower = _check_upper_row(upper), check_partition(lower, strict=True)
    if not interleaves(upper, lower):
        return _ZERO
    return Polynomial._raw(0, dict(_row_weight_sum(upper, lower)))


def _row_weight_sum(upper: tuple[int, ...], lower: tuple[int, ...]) -> _QtMap:
    # row_weight_sum for a strict upper row and a strict lower row that
    # interleaves with it, so the identity image needs no check.  A closure
    # of the identity alone shares its memoized map: never mutate it.
    _, *raised = raising_closure(lower)
    det = _det_weight(upper, lower)
    if not raised:
        return det
    out = dict(det)
    for op in raised:
        if interleaves(upper, op.result):
            _add_product(out, {(0, op.length): 1}, _det_weight(upper, op.result))
    return {key: c for key, c in out.items() if c}


def pattern_row_weights(pattern: GtPattern) -> list[Polynomial]:
    """The per-row-pair q,t weight sums of a strict pattern; row_weight_sum checks the rows."""
    rows = pattern.rows
    return [row_weight_sum(rows[i], rows[i + 1]) for i in range(len(rows) - 1)]


# ----------------------------------------------------------------------
# pattern sums

class PatternSizeError(ValueError):
    """A pattern sum whose packed q,t coefficients would need fields over 64 bits."""


class QuotientError(ArithmeticError):
    """A packed pattern sum not proven to be a product of x_i - q x_j factors and its quotient."""


# Field width in bits -> the memoryview format of that signed machine integer.
_FIELD_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"}
_Q_EXP, _T_EXP = itemgetter(-2), itemgetter(-1)  # the q and t exponents of a term's key


class _Heads(dict):
    """Coefficient -> the JSON text that opens its term, each formatted on first use."""

    def __missing__(self, c: int) -> str:
        head = self[c] = '{"c": "%d", "x": [' % c
        return head


class _Layout(NamedTuple):
    """Kronecker layout of q,t coefficients in signed fields of one int.

    ``sum c q^a t^b`` packs to ``sum c << width * (a * stride + b)``, with
    ``stride = t_deg + 1``.  Packing is a ring map, so a product or sum of
    packed ints is the packed product or sum.  It unpacks uniquely when
    every t-degree is at most ``t_deg`` and every coefficient is at most
    ``2**(width - 1) - 1`` in absolute value: ``proven`` takes the width
    from an L1 bound on the coefficients, rounded up to a byte-aligned
    field of 8, 16, 32 or 64 bits.  A layout is an immutable named tuple.
    """

    width: int
    q_deg: int
    t_deg: int

    @classmethod
    def proven(cls, q_deg: int, t_deg: int, l1: int) -> "_Layout":
        need = l1.bit_length() + 1
        for width in _FIELD_FORMATS:
            if need <= width:
                return cls(width, q_deg, t_deg)
        raise PatternSizeError(
            f"pattern sum too large: its q,t coefficients need {need}-bit fields, "
            f"more than the 64 bits supported")

    def pack(self, terms: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
        """Terms keyed (x-part.., q, t) as {x-part: packed q,t coefficient}: pack(w)[()] for a weight w."""
        width, stride = self.width, self.t_deg + 1
        packed: dict[tuple[int, ...], int] = {}
        for mono, c in terms.items():
            xs = mono[:-2]
            packed[xs] = packed.get(xs, 0) + (c << width * (mono[-2] * stride + mono[-1]))
        return packed

    def _slots(self) -> list[tuple[int, int]]:
        # The (q, t) exponents of each field, highest field first: the order
        # in which _decode yields every value's digits.
        stride = self.t_deg + 1
        return [divmod(k, stride) for k in reversed(range((self.q_deg + 1) * stride))]

    def _decode(self, items: Iterable[tuple[tuple[int, ...], int]]
                ) -> Iterator[tuple[tuple[int, ...], list[int]]]:
        """(xs, digits) for each (xs, value) of items: value's fields as signed ints, highest first.

        Adding 2**(width-1) to every field, then flipping that bit back,
        turns each digit c into its width-bit two's complement c mod
        2**width with no borrow between fields.  The value's bytes, cast
        to signed machine integers of the field width, then give every
        digit.  A value outside the fields of q-degree <= q_deg raises
        ArithmeticError.
        """
        width = self.width
        n_bits = width * (self.q_deg + 1) * (self.t_deg + 1)
        offset = ((1 << n_bits) - 1) // ((1 << width) - 1) << (width - 1)
        n_bytes, fmt, order = n_bits >> 3, _FIELD_FORMATS[width], sys.byteorder
        for xs, value in items:
            value += offset
            if value >> n_bits:  # nonzero for a negative value too
                raise ArithmeticError(
                    f"packed q,t coefficient of x^{xs} beyond q-degree {self.q_deg}")
            digits = memoryview((value ^ offset).to_bytes(n_bytes, order)).cast(fmt).tolist()
            if order == "little":
                digits.reverse()
            yield xs, digits

    def unpack(self, n_vars: int, packed: dict[tuple[int, ...], int]) -> Polynomial:
        """The Polynomial of packed: each value read once by ``_decode``, its nonzero digits kept."""
        slots = self._slots()
        terms: dict[tuple[int, ...], int] = {}
        update = terms.update
        for xs, digits in self._decode(packed.items()):
            update(zip(map(xs.__add__, compress(slots, digits)), compress(digits, digits)))
        return Polynomial._raw(n_vars, terms)

    def to_json(self, n_vars: int, packed: dict[tuple[int, ...], int]) -> str:
        """``unpack(n_vars, packed).to_json()``, written with no term map and no sort of terms.

        Each term's text is three shared strings: a head ``{"c": "<c>",
        "x": [`` formatted once per distinct coefficient of the call, the
        x-part's exponents formatted once per x-part, and a tail ``],
        "q": <q>, "t": <t>}, `` formatted once per (q, t) field.  The
        x-parts are sorted once, lex-descending, and each one's digits
        come highest field first: q descending, then t.  So extending the
        bucket of each term's total degree with its three pieces leaves
        every bucket in lex-descending order on (x.., q, t), and the
        buckets read by descending degree give the canonical order.  Per
        x-part, ``compress`` over the digits picks the nonzero ones'
        heads, tails and buckets, and ``list.extend`` runs over them in C,
        so no string is formatted and no Python loop runs per term.  The
        last piece loses its separator, and one join writes the document.
        """
        slots = self._slots()
        tails = ['], "q": %d, "t": %d}, ' % qt for qt in slots]
        heads = _Heads()
        degrees = set(map(sum, packed))
        top = max(degrees, default=0) + self.q_deg + self.t_deg
        buckets: list[list[str]] = [[] for _ in range(top + 1)]
        targets = {d: [buckets[d + q + t] for q, t in slots] for d in degrees}
        exponents, drain = ", ".join(["%d"] * n_vars), deque(maxlen=0).extend
        for xs, digits in self._decode((xs, packed[xs]) for xs in sorted(packed, reverse=True)):
            drain(map(list.extend, compress(targets[sum(xs)], digits), zip(
                map(heads.__getitem__, compress(digits, digits)),
                repeat(exponents % xs), compress(tails, digits))))
        last = next(filter(None, buckets), None)
        if last is not None:
            last[-1] = last[-1][:-2]
        return "".join(chain(('{"n_vars": %d, "terms": [' % n_vars,),
                             chain.from_iterable(reversed(buckets)), ("]}",)))

    def quotient(self, n_vars: int, packed: dict[tuple[int, ...], int],
                 factors: Sequence[tuple[int, int]]) -> tuple[Polynomial, tuple[int, int, int]]:
        """(H, _bounds of H) for the q-free H with packed = prod over factors (i, j) of (x_i - q x_j) * H.

        ``packed`` must lie in this layout's range, as ``_row_sums`` proves
        of its result.  Each factor divides with Horner's rule in x_i on
        the packed values, in which a factor q is a left shift by
        width * stride bits.  That is exact division in Z[x] of the image
        at T = 2**width, Q = 2**(width * stride), and H is decoded from
        the image's quotient with no q fields.  Equal images prove equal
        polynomials once the product of the factors and H lies in the
        layout's range too.  So the quotient counts only when
        - every division leaves no remainder;
        - the quotient decodes with no q field, so H is free of q;
        - there are at most q_deg factors;
        - every x-monomial's L1 norm in the product is below
          2**(width - 1).  An x-monomial of the factors' product has L1
          norm its number of picks of one variable per factor, since a
          pick of x_j carries -q, so 2**len(factors) times H's L1 bound
          bounds the product's norms.  Failing that, H's per-x-monomial
          norms pass through the factors one at a time, each moving up one
          in x_i and one in x_j; every pick sequence counts once, so each
          result bounds that x-monomial's norm in the product.

        Otherwise it raises QuotientError.
        """
        if len(factors) > self.q_deg:
            raise QuotientError(
                f"{len(factors)} factors x_i - q x_j exceed the proven q-degree {self.q_deg}")
        shift = self.width * (self.t_deg + 1)
        for i, j in factors:
            packed, exact = synthetic_division(packed, i, j, shift)
            if not exact:
                raise QuotientError(f"x{i + 1} - q*x{j + 1} does not divide the pattern sum")
        try:
            h = self._replace(q_deg=0).unpack(n_vars, packed)
        except ArithmeticError:
            raise QuotientError("the quotient by the x_i - q x_j factors holds q") from None
        bounds = _bounds(h._terms)
        limit = 1 << (self.width - 1)
        if bounds[2] << len(factors) >= limit:
            norms = {xs: sum(map(abs, digits))
                     for xs, digits in self._replace(q_deg=0)._decode(packed.items())}
            for pair in factors:
                step: dict[tuple[int, ...], int] = {}
                for xs, c in norms.items():
                    for k in pair:
                        key = xs[:k] + (xs[k] + 1,) + xs[k + 1:]
                        step[key] = step.get(key, 0) + c
                norms = step
            if max(norms.values()) >= limit:
                raise QuotientError(
                    f"the product of the quotient and its factors may overflow {self.width}-bit fields")
        return h, bounds


def _bounds(terms: dict[tuple[int, ...], int]) -> tuple[int, int, int]:
    # (q-degree, t-degree, largest L1 norm of one x-part's q,t coefficient) of
    # terms keyed (x-part.., q, t), a {(q, t): c} weight map's x-part being ().
    l1: dict[tuple[int, ...], int] = {}
    for mono, c in terms.items():
        xs = mono[:-2]
        l1[xs] = l1.get(xs, 0) + abs(c)
    return (max(map(_Q_EXP, terms), default=0), max(map(_T_EXP, terms), default=0),
            max(l1.values(), default=0))


# F(()) = 1 of the pattern sums and H(()) = 1 of the quotients, with its bounds.
_BOUNDED_ONE = _ONE, _bounds(_UNIT)


def _top_bounds(top: tuple[int, ...], levels: list[dict], base: dict,
                weights: dict[int, _QtMap]) -> tuple[int, int, int]:
    """The (q-degree, t-degree, L1) bounds of F(top) over the rows of _row_sums.

    L1 bounds the L1 norm of every x-monomial's q,t coefficient:
    L1(row) = max over drops d of the sum, over the edges (mu, d, weight),
    of L1(weight) * L1(F(mu)).  ``_row_sums`` says why this holds.  The
    rows of ``base`` come bounded by ``inner``, and each distinct weight
    map in ``weights``, keyed by id, is bounded once by ``_bounds``.
    """
    bounds = {mu: b for mu, (_, b) in base.items()}
    weight_bounds = {key: _bounds(w) for key, w in weights.items()}
    for level in reversed(levels):
        for row, edges in level.items():
            q_deg = t_deg = 0
            by_drop: dict[int, int] = {}
            for mu, drop, weight in edges:
                wq, wt, wl = weight_bounds[id(weight)]
                mq, mt, ml = bounds[mu]
                q_deg = max(q_deg, wq + mq)
                t_deg = max(t_deg, wt + mt)
                by_drop[drop] = by_drop.get(drop, 0) + wl * ml
            bounds[row] = q_deg, t_deg, max(by_drop.values(), default=0)
    return bounds[top]


def _row_sums(top: tuple[int, ...], weight, depth: int,
              inner) -> tuple[dict[tuple[int, ...], int], _Layout]:
    """F(top), packed, and its layout: ``depth`` row steps below top, the last over inner.

    The walk goes top down: a row's edges (mu, drop, w) are its interleavings
    mu with w = weight(row, mu) a nonempty {(q, t): c} map and drop =
    |row| - |mu|; the next level holds the rows they reach, once each, and
    the rows ``depth`` levels down take (F(mu), its ``_bounds``) = inner(mu),
    F(mu) a Polynomial in len(mu) variables.  The row step is

        F(row) = sum over edges (mu, drop, w) of w * x_k^drop * F(mu),

    with each F held as {x-exponents of the last len(row) variables:
    packed q,t coefficient} and each distinct w packed once to one int,
    so each edge costs one multiply-add per x-monomial.  The packed
    layout comes from ``_top_bounds``: an edge writes only x-monomials
    whose x_k exponent is its drop, so a coefficient of F(row), and every
    partial sum of it, adds products w * (a coefficient of F(mu)) over
    edges of one drop only.  Each product has L1 norm at most L1(w) *
    L1(F(mu)), so the largest per-drop sum of these bounds it.  Every row
    is reachable from top through nonzero weights, so top's bounds cover
    all rows and fix one layout of byte-aligned fields of at most 64
    bits.  F(top) lies in its range.
    """
    levels: list[dict] = []
    rows = (top,)
    for _ in range(depth):
        levels.append({row: [(mu, sum(row) - sum(mu), w) for mu in _interleavings(row)
                             if (w := weight(row, mu))]
                       for row in rows})
        rows = dict.fromkeys(mu for edges in levels[-1].values() for mu, _, _ in edges)
    base = {mu: inner(mu) for mu in rows}
    # Shared maps (memoized determinants, Tokuyama factors) count once;
    # ids stay valid while ``levels`` holds every map.
    weights = {id(w): w for level in levels for edges in level.values() for _, _, w in edges}
    layout = _Layout.proven(*_top_bounds(top, levels, base, weights))
    below = {mu: layout.pack(f._terms) for mu, (f, _) in base.items()}
    packed = {key: layout.pack(w)[()] for key, w in weights.items()}
    for level in reversed(levels):
        above = {}
        for row, edges in level.items():
            out: dict[tuple[int, ...], int] = {}
            get = out.get
            for mu, drop, w in edges:
                c = packed[id(w)]
                lead = (drop,)
                for xs, f in below[mu].items():
                    key = lead + xs
                    out[key] = get(key, 0) + c * f
            above[row] = out
        below = above
    return below[top], layout


class _PackedSum(Polynomial):
    """A pattern sum kept as ``_row_sums`` packs it, its terms decoded on first read.

    ``to_json`` writes the text straight from the packed values with
    ``_Layout.to_json``; anything that reads the terms (text, arithmetic,
    equality) decodes them once with ``_Layout.unpack``.  Either way the
    value is the Polynomial of the packed sum, and ``compute`` prints the
    very value the public pattern sum returns.
    """

    # The _terms property shadows Polynomial's slot, which stays unset.
    __slots__ = ("_layout", "_packed", "_decoded")

    def __init__(self, n_vars: int, layout: _Layout, packed: dict[tuple[int, ...], int]) -> None:
        self.n_vars, self._layout, self._packed, self._decoded = n_vars, layout, packed, None

    @property
    def _terms(self) -> dict[tuple[int, ...], int]:
        if self._decoded is None:
            self._decoded = self._layout.unpack(self.n_vars, self._packed)._terms
        return self._decoded

    def to_json(self) -> str:
        return self._layout.to_json(self.n_vars, self._packed)


def _transfer(top: tuple[int, ...], weight) -> Polynomial:
    """F(top) of the row transfer in the module docstring: every row step down to the empty row."""
    packed, layout = _row_sums(top, weight, len(top), lambda mu: _BOUNDED_ONE)
    return _PackedSum(len(top), layout, packed)


def hl_pattern_expansion(lam: Sequence[int]) -> Polynomial:
    """Strict-pattern expansion of v_n(x;q) * HL_lam(x;t).

    Sums, over all strict GT patterns with top row lam + staircase, the
    product over consecutive row pairs of the raising-closure-summed
    transition determinants, times x^weight.
    """
    return _transfer(add_staircase(check_partition(lam)), _strict_row_weight_sum)


def hl_pattern_quotient(lam: Sequence[int]) -> Polynomial:
    """HL_lam(x;t) as the exact quotient of hl_pattern_expansion(lam) by v_n(x;q).

    Divides row by row in ``_row_quotient``; raises QuotientError unless
    the sum is proven to be v_n(x;q) times the returned polynomial.
    """
    return _row_quotient(add_staircase(check_partition(lam)), _strict_row_weight_sum)[0]


def _strict_row_weight_sum(alpha: tuple[int, ...], mu: tuple[int, ...]) -> _QtMap:
    return _row_weight_sum(alpha, mu) if is_strictly_decreasing(mu) else {}


@lru_cache(maxsize=None)
def _tokuyama_factor(left: int, special: int) -> _QtMap:
    # (-q)^left * (1-q)^special = sum over k of (-1)^(left+k) C(special, k) q^(left+k).
    return {(left + k, 0): (-1) ** (left + k) * comb(special, k) for k in range(special + 1)}


def _strict_tokuyama_weight(alpha: tuple[int, ...], mu: tuple[int, ...]) -> _QtMap:
    if not is_strictly_decreasing(mu):
        return {}
    left, _, special = _leaning(_row_labels(alpha, mu))
    return _tokuyama_factor(left, special)


def tokuyama_sum(lam: Sequence[int]) -> Polynomial:
    """Tokuyama's strict-pattern expansion of v_n(x;q) * s_lam(x).

    Each pattern contributes (1-q)^special * (-q)^left * x^weight.
    """
    return _transfer(add_staircase(check_partition(lam)), _strict_tokuyama_weight)


def tokuyama_quotient(lam: Sequence[int]) -> Polynomial:
    """s_lam(x) as the exact quotient of tokuyama_sum(lam) by v_n(x;q), as in hl_pattern_quotient."""
    return _row_quotient(add_staircase(check_partition(lam)), _strict_tokuyama_weight)[0]


def _one_step(alpha: tuple[int, ...], weight, inner) -> tuple[Polynomial, tuple[int, int, int]]:
    # The proven quotient by prod_{j>1} (x_1 - q x_j), and its bounds, of the row step under alpha.
    packed, layout = _row_sums(alpha, weight, 1, inner)
    return layout.quotient(len(alpha), packed, [(0, j) for j in range(1, len(alpha))])


@lru_cache(maxsize=None)
def _row_quotient(row: tuple[int, ...], weight) -> tuple[Polynomial, tuple[int, int, int]]:
    """H(row) = F(row) / v_L(x;q), L = len(row), for F the strict pattern sum of weight, and its bounds.

    v_L = prod_{j>1} (x_1 - q x_j) * v_{L-1}, so if F(mu) = v_{L-1} * H(mu)
    for each next row mu, F(row) = v_{L-1} * S(row) with S(row) the row step
    over H(mu); ``_one_step`` proves S(row) = prod_{j>1} (x_1 - q x_j) *
    H(row), so F(row) = v_L * H(row), by induction from H(()) = 1.  Keyed
    by weight too, so HL and Tokuyama rows never share an entry; no step
    above bounds H(row) again.
    """
    if not row:
        return _BOUNDED_ONE
    return _one_step(row, weight, lambda mu: _row_quotient(mu, weight))


def _oracle_step(lam: Sequence[int], weight, inner) -> Polynomial:
    # The proven quotient of the row step under lam + staircase over the
    # oracle's F(mu) = inner(mu - staircase), each bounded once.
    lam = check_partition(lam)
    oracle._check_cap(len(lam))
    rho = staircase(len(lam))[1:]

    def bounded(mu: tuple[int, ...]) -> tuple[Polynomial, tuple[int, int, int]]:
        f = inner(tuple(m - r for m, r in zip(mu, rho)))
        return f, _bounds(f._terms)

    return _one_step(add_staircase(lam), weight, bounded)[0]


def hl_row_quotient(lam: Sequence[int]) -> Polynomial:
    """HL_lam(x;t) from one row step, as its exact quotient by prod_{j>1} (x_1 - q x_j).

    The row step sums over every next row mu under alpha = lam + staircase
    (strict or not) the transition determinant times x_1^(|alpha| - |mu|)
    times HL_{mu - staircase}(x_2..x_n;t), taken from the brute-force
    oracle.  Non-strict mu feed exponent tuples with ascents straight into
    it.  Raises QuotientError as hl_pattern_quotient does.
    """
    return _oracle_step(lam, _det_weight, oracle.hall_littlewood)


def hl_row_recursion(lam: Sequence[int]) -> Polynomial:
    """One-step recursion for v_n(x;q) * HL_lam(x;t): v_n(x;q) times hl_row_quotient(lam).

    The input checks, the cap and the quotient's proof all come before the product.
    """
    h = hl_row_quotient(lam)
    return oracle.weyl_denominator(h.n_vars, "q") * h


def tokuyama_row_quotient(lam: Sequence[int]) -> Polynomial:
    """s_lam(x) from one row step over strict next rows, as in hl_row_quotient.

    Each mu weighs (-q)^left * (1-q)^special, with the Schur factor
    s_{mu - staircase}(x_2..x_n) from the oracle.  A part of mu equal to
    the part of alpha above-left counts as left-leaning, one equal to
    neither neighbour of alpha as special; non-strict mu drop out because
    their Schur factor vanishes.
    """
    return _oracle_step(lam, _strict_tokuyama_weight, oracle.schur)


def _stanley_weight(upper: tuple[int, ...], lower: tuple[int, ...]) -> _QtMap:
    if not is_strictly_decreasing(lower):
        return {}
    return {(0, 0): 2 ** _leaning(_row_labels(upper, lower))[2]}


def stanley_sum(lam: Sequence[int]) -> Polynomial:
    """Stanley's expansion of HL_lam(x;-1) for strictly decreasing lam.

    Sums 2^special * x^weight over strict patterns with top row lam
    itself (no staircase shift).
    """
    return _transfer(_check_upper_row(lam), _stanley_weight)


def _admits_filtered(word: tuple[tuple[str, str], ...]) -> bool:
    # Reject any left-equal entry, and any adjacent pair where the first
    # entry sits on its upper-right parent and the second is one below its
    # upper-left parent.
    return all(left != LEFT for left, _ in word) and not any(
        a[1] == RIGHT and b[0] == ALMOST_LEFT for a, b in zip(word, word[1:])
    )


def _filtered_weight(upper: tuple[int, ...], lower: tuple[int, ...]) -> _QtMap:
    # 0 on non-strict rows unchecked: of two equal entries the second is left-equal.
    word = _row_labels(upper, lower)
    if not _admits_filtered(word):
        return {}
    # Each diagonal weight at q = 0, t = -1: the sum of its q-free (-1)^t c.
    coeff = prod(sum(c * (-1) ** t for (q, t), c in _DIAGONAL[labels].items() if not q)
                 for labels in word)
    return {(0, 0): coeff} if coeff else {}


def stanley_filtered_sum(lam: Sequence[int]) -> Polynomial:
    """Filtered-pattern expansion of x^staircase * HL_lam(x;-1).

    Sums the product of all diagonal entry weights, evaluated at q = 0 and
    t = -1, times x^weight, over strict patterns with top row
    lam + staircase whose every row pair's label word passes
    :func:`_admits_filtered`.
    """
    return _transfer(add_staircase(check_partition(lam)), _filtered_weight)


def clear_caches() -> None:
    """Drop every memo table of the program, so the next call starts cold.

    That is the determinants, closures, Tokuyama factors and proven row
    quotients here, and the oracle's Weyl denominators, sign and shift
    tables, and alternant passes (its Schur coefficients).
    Within one process these tables are shared by every call, so one
    ``hlgt verify`` run computes each entry once; ``hlgt bench`` clears
    them before each timed call.
    """
    raising_closure.cache_clear()
    _det_recurrence.cache_clear()
    _tokuyama_factor.cache_clear()
    _row_quotient.cache_clear()
    oracle._weyl_denominator.cache_clear()
    oracle._signs.cache_clear()
    oracle._shifts.cache_clear()
    oracle._schur_coefficients.cache_clear()

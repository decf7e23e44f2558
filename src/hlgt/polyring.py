"""Exact sparse polynomial ring Z[x_1, ..., x_n, q, t].

A monomial is a tuple of ``n_vars + 2`` nonnegative integer exponents: one
per x-variable, then the exponent of the deformation parameter q, then the
exponent of t.  A polynomial maps monomials to nonzero arbitrary-precision
integer coefficients; the zero polynomial is the empty map.  Coefficients
are plain Python ints because antisymmetrized numerators over S_n can
exceed machine words, and the whole point of this ring is exactness.

Polynomials are immutable values: every operation returns a fresh
instance, so they can be shared between threads without locking.

The canonical term order (used by :meth:`Polynomial.terms` and the JSON
encoding) is graded-lexicographic on the concatenated exponent vector
(x_1, ..., x_n, q, t), descending.  It comes from two stable sorts of the
exponent tuples: lexicographic descending, then by total degree
descending.  The JSON text is filled in term by term from one template per
ring; :meth:`Polynomial.to_dict` is its parse.  ``formulas._Layout.to_json``
writes the same text for a packed pattern sum.  Equality is structural, so
two construction orders of the same polynomial compare equal.

The constructor is the checked entry for terms from outside the program.
No stored coefficient is ever zero: :meth:`Polynomial._collect` drops
them from every computed sum of terms, and every other caller of
:meth:`Polynomial._raw` (constants, negation, synthetic division,
``formulas._Layout.unpack`` and the oracle's ``_alternant``, ``_solve``
and ``_symmetric``) hands it a map that holds none.
"""

from __future__ import annotations

import json
import operator
from itertools import chain, repeat
from math import prod
from typing import Mapping, Sequence

# Exponent tuple: x_1 .. x_n exponents, then the q exponent, then the t
# exponent.  Always of length n_vars + 2 for the ring it belongs to.
Monomial = tuple


class Polynomial:
    """Immutable sparse polynomial over Z in x_1..x_n and parameters q, t."""

    __slots__ = ("n_vars", "_terms")

    def __init__(self, n_vars: int, terms: Mapping[Monomial, int] | None = None) -> None:
        if n_vars < 0:
            raise ValueError("n_vars must be nonnegative")
        width = n_vars + 2
        clean: dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != width:
                    raise ValueError(
                        f"monomial {mono!r} has {len(mono)} exponents, expected {width}"
                    )
                if any(not isinstance(e, int) or e < 0 for e in mono):
                    raise ValueError(f"exponents must be nonnegative integers: {mono!r}")
                if not isinstance(coeff, int):
                    raise TypeError(f"coefficients must be int, got {type(coeff).__name__}")
                if coeff:
                    clean[mono] = coeff
        self.n_vars = n_vars
        self._terms = clean

    @classmethod
    def _raw(cls, n_vars: int, terms: dict[Monomial, int]) -> "Polynomial":
        # Fast path for internal use: terms is already canonical (tuple
        # keys of the right width, no zero coefficients).
        poly = object.__new__(cls)
        poly.n_vars = n_vars
        poly._terms = terms
        return poly

    @classmethod
    def _collect(cls, n_vars: int, pairs) -> "Polynomial":
        # Sum the (monomial, coeff) pairs per monomial, then drop zeros.
        out: dict[Monomial, int] = {}
        get = out.get
        for mono, coeff in pairs:
            out[mono] = get(mono, 0) + coeff
        if 0 in out.values():
            out = {mono: c for mono, c in out.items() if c}
        return cls._raw(n_vars, out)

    @classmethod
    def zero(cls, n_vars: int) -> "Polynomial":
        return cls(n_vars)

    @classmethod
    def one(cls, n_vars: int) -> "Polynomial":
        return constant(1, n_vars)

    # ------------------------------------------------------------------
    # basic queries

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        """Number of (nonzero) terms."""
        return len(self._terms)

    def _canonical(self) -> list[Monomial]:
        # The monomials in canonical order, from two stable C-keyed sorts.
        return sorted(sorted(self._terms, reverse=True), key=sum, reverse=True)

    def terms(self) -> list[tuple[Monomial, int]]:
        """Terms in canonical order: graded-lex descending on (x.., q, t)."""
        monos = self._canonical()
        return list(zip(monos, map(self._terms.__getitem__, monos)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = constant(other, self.n_vars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n_vars == other.n_vars and self._terms == other._terms

    # ------------------------------------------------------------------
    # ring operations

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, int):
            return constant(other, self.n_vars)
        if isinstance(other, Polynomial):
            if other.n_vars != self.n_vars:
                raise ValueError(
                    f"variable-count mismatch: {self.n_vars} vs {other.n_vars}"
                )
            return other
        return None

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial._collect(
            self.n_vars, chain(self._terms.items(), other._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.n_vars, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        right = other._terms.items()
        return Polynomial._collect(self.n_vars, (
            (tuple(map(operator.add, m1, m2)), c1 * c2)
            for m1, c1 in self._terms.items() for m2, c2 in right))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return prod(repeat(self, exponent), start=Polynomial.one(self.n_vars))

    # ------------------------------------------------------------------
    # division and specialization

    def divide_by_diff(self, i: int, j: int) -> "Polynomial":
        """Exact quotient by (x_i - x_j), via synthetic division in x_i at x_i = x_j.

        A nonzero remainder means an antisymmetry invariant was broken
        upstream and raises ArithmeticError.
        """
        n = self.n_vars
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ValueError(f"invalid variable pair ({i}, {j}) for {n} variables")
        quotient, exact = synthetic_division(self._terms, i, j)
        if not exact:
            raise ArithmeticError(
                f"(x{i + 1} - x{j + 1}) does not divide exactly; "
                "antisymmetry invariant broken upstream"
            )
        return Polynomial._raw(n, quotient)

    def substitute(self, param: str, value: int) -> "Polynomial":
        """Replace parameter q or t by an integer constant and recollect."""
        if param == "q":
            slot = self.n_vars
        elif param == "t":
            slot = self.n_vars + 1
        else:
            raise ValueError(f"parameter must be 'q' or 't', got {param!r}")
        return Polynomial._collect(self.n_vars, (
            (mono[:slot] + (0,) + mono[slot + 1:], coeff * value ** mono[slot])
            for mono, coeff in self._terms.items()))

    # ------------------------------------------------------------------
    # rendering and serialization

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        n = self.n_vars

        def display_key(mono: Monomial):
            xs, ps = mono[:n], mono[n:]
            # x-monomials first (graded-lex descending), then low q,t degree
            # first so specializable "1 + t" style factors read naturally.
            return (-sum(xs), tuple(-e for e in xs), sum(ps), tuple(-e for e in ps))

        pieces: list[str] = []
        for mono, coeff in sorted(self._terms.items(), key=lambda kv: display_key(kv[0])):
            factors: list[str] = []
            if mono[n]:
                factors.append("q" if mono[n] == 1 else f"q^{mono[n]}")
            if mono[n + 1]:
                factors.append("t" if mono[n + 1] == 1 else f"t^{mono[n + 1]}")
            for idx in range(n):
                if mono[idx]:
                    factors.append(
                        f"x{idx + 1}" if mono[idx] == 1 else f"x{idx + 1}^{mono[idx]}"
                    )
            mag = abs(coeff)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self.n_vars}, '{self}')"

    def to_dict(self) -> dict:
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """Canonical JSON text: terms in canonical order, coefficients as decimal strings."""
        n = self.n_vars
        term = '{"c": "%d", "x": [' + ", ".join(["%d"] * n) + '], "q": %d, "t": %d}'
        monos = self._canonical()
        # Each term's (coeff,) + monomial fills the template, all in C iterators.
        body = ", ".join(map(term.__mod__, map(
            operator.add, zip(map(self._terms.__getitem__, monos)), monos)))
        return '{"n_vars": %d, "terms": [%s]}' % (n, body)

    @classmethod
    def from_dict(cls, data: dict) -> "Polynomial":
        n = int(data["n_vars"])
        terms: dict[Monomial, int] = {}
        for entry in data["terms"]:
            mono = tuple(int(e) for e in entry["x"]) + (int(entry["q"]), int(entry["t"]))
            terms[mono] = terms.get(mono, 0) + int(entry["c"])
        return cls(n, terms)

    @classmethod
    def from_json(cls, text: str) -> "Polynomial":
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# exact division by a linear factor

def synthetic_division(terms: Mapping[Monomial, int], i: int, j: int,
                       shift: int = 0) -> tuple[dict[Monomial, int], bool]:
    """Divide terms by (x_i - 2**shift * x_j) with Horner's rule in x_i.

    ``terms`` maps exponent tuples, whose slots i and j are x-exponents, to
    int coefficients.  Returns the quotient and whether the remainder is
    zero.  Highest x_i-degree first, the term c*x_i^k*r moves to the
    quotient as c*x_i^(k-1)*r and leaves (c << shift)*x_i^(k-1)*x_j*r one
    degree lower.  ``levels[k]`` lists the remainder keys of x_i-degree k,
    including those created from degree k + 1.  With ``shift`` 0 this is
    division by (x_i - x_j); a packed q,t coefficient divides by
    (x_i - q x_j) with ``shift`` the bit offset of q.
    """
    remainder = dict(terms)
    levels: dict[int, list[Monomial]] = {}
    for mono in remainder:
        levels.setdefault(mono[i], []).append(mono)
    quotient: dict[Monomial, int] = {}
    for k in range(max(levels, default=0), 0, -1):
        lower = levels.setdefault(k - 1, [])
        for mono in levels[k]:
            c = remainder.pop(mono)
            if not c:  # cancelled by a term carried down from degree k + 1
                continue
            exps = list(mono)
            exps[i] = k - 1
            quotient[tuple(exps)] = c
            exps[j] += 1
            moved = tuple(exps)
            c <<= shift
            if moved in remainder:
                remainder[moved] += c
            else:
                remainder[moved] = c
                lower.append(moved)
    return quotient, not any(remainder.values())


# ----------------------------------------------------------------------
# constructors

def constant(value: int, n_vars: int) -> Polynomial:
    if not isinstance(value, int):
        raise TypeError("constant coefficient must be int")
    if n_vars < 0:
        raise ValueError("n_vars must be nonnegative")
    if value == 0:
        return Polynomial.zero(n_vars)
    return Polynomial._raw(n_vars, {(0,) * (n_vars + 2): value})


def variable(i: int, n_vars: int) -> Polynomial:
    """The polynomial x_{i+1} (0-based index i)."""
    if not 0 <= i < n_vars:
        raise ValueError(f"variable index {i} out of range for {n_vars} variables")
    mono = tuple(1 if k == i else 0 for k in range(n_vars)) + (0, 0)
    return Polynomial._raw(n_vars, {mono: 1})


def parameter(name: str, n_vars: int) -> Polynomial:
    """The deformation parameter q or t as an element of the ring."""
    if name == "q":
        mono = (0,) * n_vars + (1, 0)
    elif name == "t":
        mono = (0,) * n_vars + (0, 1)
    else:
        raise ValueError(f"parameter must be 'q' or 't', got {name!r}")
    return Polynomial(n_vars, {mono: 1})


def monomial(coeff: int, x_exps: Sequence[int], q_exp: int = 0, t_exp: int = 0) -> Polynomial:
    """A single-term polynomial c * x^e * q^a * t^b."""
    x_exps = tuple(x_exps)
    return Polynomial(len(x_exps), {x_exps + (q_exp, t_exp): coeff})


def generators(n_vars: int) -> tuple[list[Polynomial], Polynomial, Polynomial]:
    """Return ([x_1, ..., x_n], q, t) as ring elements."""
    xs = [variable(i, n_vars) for i in range(n_vars)]
    return xs, parameter("q", n_vars), parameter("t", n_vars)


def permutation_sign(sigma: Sequence[int]) -> int:
    """Sign of a permutation given as a sequence of 0-based images."""
    sign = 1
    for a in range(len(sigma)):
        for b in range(a + 1, len(sigma)):
            if sigma[a] > sigma[b]:
                sign = -sign
    return sign

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
(x_1, ..., x_n, q, t), descending.  Equality is structural, so two
construction orders of the same polynomial compare equal.
"""

from __future__ import annotations

import json
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
    def zero(cls, n_vars: int) -> "Polynomial":
        return cls._raw(n_vars, {})

    @classmethod
    def one(cls, n_vars: int) -> "Polynomial":
        return cls._raw(n_vars, {(0,) * (n_vars + 2): 1})

    # ------------------------------------------------------------------
    # basic queries

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        """Number of (nonzero) terms."""
        return len(self._terms)

    def terms(self) -> list[tuple[Monomial, int]]:
        """Terms in canonical order: graded-lex descending on (x.., q, t)."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def coefficient(self, mono: Monomial) -> int:
        return self._terms.get(tuple(mono), 0)

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
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            total = out.get(mono, 0) + coeff
            if total:
                out[mono] = total
            elif mono in out:
                del out[mono]
        return Polynomial._raw(self.n_vars, out)

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
        out: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                total = out.get(mono, 0) + c1 * c2
                if total:
                    out[mono] = total
                elif mono in out:
                    del out[mono]
        return Polynomial._raw(self.n_vars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one(self.n_vars)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # ------------------------------------------------------------------
    # variable manipulation

    def permuted(self, sigma: Sequence[int]) -> "Polynomial":
        """Apply the variable permutation x_i -> x_{sigma[i]} (0-based images).

        ``sigma`` must be a bijection on range(n_vars); q and t exponents
        are untouched.
        """
        n = self.n_vars
        sigma = tuple(sigma)
        if sorted(sigma) != list(range(n)):
            raise ValueError("sigma is not a bijection on the variable indices")
        out: dict[Monomial, int] = {}
        for mono, coeff in self._terms.items():
            xs = [0] * n
            for i in range(n):
                xs[sigma[i]] = mono[i]
            out[tuple(xs) + mono[n:]] = coeff
        return Polynomial._raw(n, out)

    def shift_vars(self, i: int, new_n: int) -> "Polynomial":
        """Reindex x_k to x_{k+1} for every k >= i, widening to new_n variables.

        Slot ``i`` of the result is unused (exponent 0 everywhere), as are
        any slots past ``n_vars + 1``.  Requires ``0 <= i <= n_vars`` and
        ``new_n >= n_vars + 1``.
        """
        n = self.n_vars
        if not 0 <= i <= n:
            raise ValueError(f"shift index {i} out of range for {n} variables")
        if new_n < n + 1:
            raise ValueError(f"new_n must be at least {n + 1}, got {new_n}")
        out: dict[Monomial, int] = {}
        for mono, coeff in self._terms.items():
            xs = [0] * new_n
            for k in range(n):
                xs[k if k < i else k + 1] = mono[k]
            out[tuple(xs) + mono[n:]] = coeff
        return Polynomial._raw(new_n, out)

    def with_vars(self, new_n: int) -> "Polynomial":
        """Embed into a ring with new_n >= n_vars variables; new slots unused."""
        n = self.n_vars
        if new_n < n:
            raise ValueError(f"cannot shrink from {n} to {new_n} variables")
        if new_n == n:
            return self
        pad = (0,) * (new_n - n)
        out = {mono[:n] + pad + mono[n:]: c for mono, c in self._terms.items()}
        return Polynomial._raw(new_n, out)

    def divide_by_diff(self, i: int, j: int) -> "Polynomial":
        """Exact quotient by (x_i - x_j), via synthetic division in x_i at x_i = x_j.

        A nonzero remainder means an antisymmetry invariant was broken
        upstream and raises ArithmeticError.
        """
        n = self.n_vars
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ValueError(f"invalid variable pair ({i}, {j}) for {n} variables")
        if not self._terms:
            return self
        # Horner's rule in x_i, highest degree first, on one remainder: the
        # term c*x_i^k*r moves to the quotient as c*x_i^(k-1)*r and leaves
        # c*x_i^(k-1)*x_j*r one degree lower.  levels[k] lists the remainder
        # keys of x_i-degree k, including those created from degree k + 1.
        remainder = dict(self._terms)
        levels: dict[int, list[Monomial]] = {}
        for mono in remainder:
            levels.setdefault(mono[i], []).append(mono)
        quotient: dict[Monomial, int] = {}
        for k in range(max(levels), 0, -1):
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
                if moved in remainder:
                    remainder[moved] += c
                else:
                    remainder[moved] = c
                    lower.append(moved)
        if any(remainder.values()):
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
        out: dict[Monomial, int] = {}
        for mono, coeff in self._terms.items():
            scaled = coeff * value ** mono[slot]
            key = mono[:slot] + (0,) + mono[slot + 1:]
            total = out.get(key, 0) + scaled
            if total:
                out[key] = total
            elif key in out:
                del out[key]
        return Polynomial._raw(self.n_vars, out)

    def coefficient_of(self, x_exps: Sequence[int]) -> "Polynomial":
        """The polynomial in q, t only multiplying the given x-monomial."""
        n = self.n_vars
        target = tuple(x_exps)
        if len(target) != n:
            raise ValueError(f"expected {n} x-exponents, got {len(target)}")
        zeros = (0,) * n
        out = {
            zeros + mono[n:]: coeff
            for mono, coeff in self._terms.items()
            if mono[:n] == target
        }
        return Polynomial._raw(n, out)

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
        n = self.n_vars
        return {
            "n_vars": n,
            "terms": [
                {"c": str(c), "x": list(m[:n]), "q": m[n], "t": m[n + 1]}
                for m, c in self.terms()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

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
# constructors

def constant(value: int, n_vars: int) -> Polynomial:
    if not isinstance(value, int):
        raise TypeError("constant coefficient must be int")
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
    return Polynomial._raw(n_vars, {mono: 1})


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

"""Brute-force reference implementations of the symmetric polynomials.

Everything here works straight from the defining formulas: sum over all
n! permutations, antisymmetrize, and divide exactly by the Vandermonde
product.  The module exists to be obviously correct; the formula
evaluators in :mod:`hlgt.formulas` are checked against it.

``hall_littlewood`` computes the unnormalized polynomial

    sum over sigma in S_n of sigma(x^kappa * prod_{i<j}(x_i - t x_j) / prod_{i<j}(x_i - x_j))

via the common-denominator route: build the antisymmetrized numerator,
then strip the Vandermonde factors one by one with exact synthetic
division.  A nonzero remainder at any step is a fatal internal error.
No stabilizing prefactor is applied, so hall_littlewood((0, 0)) is 1 + t,
and specializing t to 0 / 1 / -1 yields the Schur polynomial, the
monomial orbit sum, and the Schur q-polynomial respectively.

The numerator is antisymmetrized over orbit representatives rather than
by adding n! permuted copies.  A term whose x-exponents repeat has a
signed orbit sum of zero and is dropped; every other term is sorted into
decreasing x-exponents and its coefficient, times the sign of the sort,
is collected on that representative.  Each representative is then
expanded once over S_n into the full alternant.  ``schur`` (one
representative, lam + staircase) and ``monomial_symmetric`` (the plain
orbit of lam) use the same expansion.

The n! enumeration is capped (default 6 variables); set the environment
variable GT_ORACLE_NMAX to raise or lower the cap.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import chain, permutations, repeat
from math import factorial, prod
from operator import add, mul
from typing import Mapping, Sequence

from .polyring import Monomial, Polynomial, generators, monomial, permutation_sign
from .patterns import add_staircase, check_partition

DEFAULT_MAX_VARS = 6
_ENV_CAP = "GT_ORACLE_NMAX"


class OracleCapError(ValueError):
    """The n! safety cap refuses an input, or GT_ORACLE_NMAX is not an integer."""


def max_oracle_vars() -> int:
    raw = os.environ.get(_ENV_CAP)
    if raw is None:
        return DEFAULT_MAX_VARS
    try:
        return int(raw)
    except ValueError:
        raise OracleCapError(f"{_ENV_CAP} must be an integer, got {raw!r}") from None


def _check_cap(n: int) -> None:
    cap = max_oracle_vars()
    if n > cap:
        raise OracleCapError(
            f"{n} variables exceeds the n! safety cap ({cap}); "
            f"set {_ENV_CAP} to override"
        )


def weyl_denominator(n: int, deform: str | None = None) -> Polynomial:
    """prod_{i<j} (x_i - p*x_j) with p = 1 (deform=None), q, or t."""
    if deform not in (None, "q", "t"):
        raise ValueError(f"deform must be None, 'q' or 't', got {deform!r}")
    return _weyl_denominator(n, deform)


@lru_cache(maxsize=None)
def _weyl_denominator(n: int, deform: str | None) -> Polynomial:
    xs, q, t = generators(n)
    p = {None: 1, "q": q, "t": t}[deform]
    return prod((xs[i] - p * xs[j] for i in range(n) for j in range(i + 1, n)),
                start=Polynomial.one(n))


def _orbit_sum(reps: Mapping[Monomial, int], n: int, weights: Sequence[int]) -> Polynomial:
    """sum over sigma in S_n of weights[sigma] * sigma(term), over the terms of reps.

    ``weights`` holds one weight per permutation, in the order of
    ``itertools.permutations(range(n))``.
    """
    # permutations(xs) yields (xs[p[0]], ..., xs[p[n-1]]): the image of the
    # term under the inverse of p, whose sign is p's.  The (image, weight)
    # pairs are built by C iterators, not a generator, on this hot path.
    return Polynomial._collect(n, chain.from_iterable(
        zip(map(add, permutations(mono[:n]), repeat(mono[n:])),
            map(mul, weights, repeat(coeff)))
        for mono, coeff in reps.items()))


def _alternant(terms: Mapping[Monomial, int], n: int) -> Polynomial:
    """sum over sigma in S_n of sign(sigma) * sigma(terms), via orbit representatives."""
    def signed_reps():
        for mono, coeff in terms.items():
            xs = mono[:n]
            if len(set(xs)) == n:  # else a transposition fixes it and flips its sign
                order = sorted(range(n), key=xs.__getitem__, reverse=True)
                yield tuple(xs[k] for k in order) + mono[n:], permutation_sign(order) * coeff

    signs = [permutation_sign(sigma) for sigma in permutations(range(n))]
    return _orbit_sum(Polynomial._collect(n, signed_reps())._terms, n, signs)


def _divide_vandermonde(p: Polynomial) -> Polynomial:
    # Factor order fixed (i, j) lexicographic; the quotient is order
    # independent but a fixed order keeps failures reproducible.
    n = p.n_vars
    for i in range(n):
        for j in range(i + 1, n):
            p = p.divide_by_diff(i, j)
    return p


def schur(lam: Sequence[int]) -> Polynomial:
    """Schur polynomial via the bialternant: antisymmetrize x^(lam + staircase), divide by the Vandermonde."""
    lam = check_partition(lam)
    n = len(lam)
    _check_cap(n)
    return _divide_vandermonde(_alternant({add_staircase(lam) + (0, 0): 1}, n))


def hall_littlewood(kappa: Sequence[int]) -> Polynomial:
    """Unnormalized Hall-Littlewood polynomial of any nonnegative exponent tuple.

    Monotonicity is not required: tuples with ascents are meaningful
    inputs (the row recursion produces them) and simply antisymmetrize to
    whatever the defining sum gives.
    """
    kappa = tuple(kappa)
    if any(not isinstance(p, int) or p < 0 for p in kappa):
        raise ValueError(f"parts must be nonnegative integers: {kappa!r}")
    n = len(kappa)
    _check_cap(n)
    base = monomial(1, kappa) * weyl_denominator(n, "t")
    return _divide_vandermonde(_alternant(base._terms, n))


def monomial_symmetric(lam: Sequence[int]) -> Polynomial:
    """Orbit sum with multiplicity: sum of sigma(x^lam) over all n! permutations."""
    lam = check_partition(lam)
    n = len(lam)
    _check_cap(n)
    return _orbit_sum({lam + (0, 0): 1}, n, [1] * factorial(n))

"""Brute-force reference implementations of the symmetric polynomials.

Everything here works straight from the defining formulas: antisymmetrize
over all n! permutations and divide exactly by the Vandermonde product.
The module exists to be obviously correct; the formula evaluators in
:mod:`hlgt.formulas` are checked against it.

``hall_littlewood`` computes the unnormalized polynomial

    sum over sigma in S_n of sigma(x^kappa * prod_{i<j}(x_i - t x_j) / prod_{i<j}(x_i - x_j))

No stabilizing prefactor is applied, so hall_littlewood((0, 0)) is 1 + t,
and specializing t to 0 / 1 / -1 yields the Schur polynomial, the
monomial orbit sum, and the Schur q-polynomial respectively.

Its numerator, the alternant of x^kappa * prod_{i<j}(x_i - t x_j), is
collected on signed orbit representatives.  A term whose x-exponents
repeat has a signed orbit sum of zero and is dropped; every other term is
sorted into decreasing x-exponents and its coefficient, times the sign of
the sort, is collected on that representative.  The alternant is Z[t]-linear
in the representatives, and the representative x^(mu + rho), rho the
staircase, divides to a_(mu+rho) / a_rho = s_mu.  So its t-polynomial is
the coefficient K[mu](t) of s_mu in HL_kappa = sum_mu K[mu](t) s_mu
(Macdonald, Symmetric Functions and Hall Polynomials, III.2);
``schur_coefficients`` returns them.  ``hall_littlewood`` is that sum, with
each s_mu an integer bialternant: its one representative expanded over
S_n, then the Vandermonde factors stripped one by one with exact synthetic
division.  A nonzero remainder at any step is a fatal internal error.
``schur`` is one such bialternant, and ``monomial_symmetric`` is the plain
orbit sum of lam.

The signed-representative pass behind ``schur_coefficients`` shifts each
term of the memoized v_n(x;t) = prod_{i<j}(x_i - t x_j) by kappa, with no
polynomial product, and reads the sign of each sort from one table,
``_signs(n)``: every permutation of range(n) mapped to its sign, in
``itertools.permutations`` order.  The bialternants weight their orbit
sums with the values of the same table.  The pass is memoized per input
tuple, so one process runs it once per kappa; ``formulas.clear_caches``
empties that memo and the sign table.  The part check and the cap run on
every call, outside the memo, and ``schur_coefficients`` returns a fresh
dict each time.

The n! enumeration is capped (default 6 variables); set the environment
variable GT_ORACLE_NMAX to raise or lower the cap.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import chain, permutations, repeat
from math import factorial, prod
from operator import add, mul, sub
from typing import Collection, Mapping, Sequence

from .polyring import Monomial, Polynomial, generators, permutation_sign
from .patterns import check_partition

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


def weyl_denominator(n: int, deform: str) -> Polynomial:
    """prod_{i<j} (x_i - p*x_j) with p = q (deform="q") or t (deform="t")."""
    if deform not in ("q", "t"):
        raise ValueError(f"deform must be 'q' or 't', got {deform!r}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _weyl_denominator(n, deform)


@lru_cache(maxsize=None)
def _weyl_denominator(n: int, deform: str) -> Polynomial:
    xs, q, t = generators(n)
    p = q if deform == "q" else t
    return prod((xs[i] - p * xs[j] for i in range(n) for j in range(i + 1, n)),
                start=Polynomial.one(n))


@lru_cache(maxsize=None)
def _signs(n: int) -> dict[tuple[int, ...], int]:
    # {permutation of range(n): its sign}, in the order of itertools.permutations(range(n)).
    return {p: permutation_sign(p) for p in permutations(range(n))}


def _orbit_sum(reps: Mapping[Monomial, int], n: int, weights: Collection[int]) -> Polynomial:
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


def _signed_reps(terms: Mapping[Monomial, int], n: int) -> dict[Monomial, int]:
    """The alternant of terms as {decreasing x-exponents + (q, t): coefficient}."""
    sign = _signs(n)

    def pairs():
        for mono, coeff in terms.items():
            xs = mono[:n]
            if len(set(xs)) == n:  # else a transposition fixes it and flips its sign
                order = tuple(sorted(range(n), key=xs.__getitem__, reverse=True))
                yield tuple(map(xs.__getitem__, order)) + mono[n:], sign[order] * coeff

    return Polynomial._collect(n, pairs())._terms


def _divide_vandermonde(p: Polynomial) -> Polynomial:
    # Factor order fixed (i, j) lexicographic; the quotient is order
    # independent but a fixed order keeps failures reproducible.
    n = p.n_vars
    for i in range(n):
        for j in range(i + 1, n):
            p = p.divide_by_diff(i, j)
    return p


def _bialternant(alpha: tuple[int, ...]) -> Polynomial:
    # a_alpha / a_rho for strictly decreasing alpha: the Schur polynomial
    # of alpha - rho, through the exact Vandermonde division.
    n = len(alpha)
    return _divide_vandermonde(_orbit_sum({alpha + (0, 0): 1}, n, _signs(n).values()))


def schur(lam: Sequence[int]) -> Polynomial:
    """Schur polynomial via the bialternant: antisymmetrize x^(lam + staircase), divide by the Vandermonde."""
    lam = check_partition(lam)
    _check_cap(len(lam))
    return _bialternant(tuple(map(add, lam, range(len(lam) - 1, -1, -1))))


def schur_coefficients(kappa: Sequence[int]) -> dict[tuple[int, ...], Polynomial]:
    """The Schur expansion HL_kappa = sum_mu K[mu](t) * s_mu, as {mu: K[mu]}.

    Each K[mu] is a q,t polynomial with n_vars = 0; the partitions mu come
    in reverse-lexicographic order and carry nonzero coefficients only.
    ``kappa`` is any nonnegative exponent tuple, as for ``hall_littlewood``.
    """
    kappa = tuple(kappa)
    if any(not isinstance(p, int) or p < 0 for p in kappa):
        raise ValueError(f"parts must be nonnegative integers: {kappa!r}")
    _check_cap(len(kappa))
    return dict(_schur_coefficients(kappa))


@lru_cache(maxsize=None)
def _schur_coefficients(kappa: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], Polynomial], ...]:
    # schur_coefficients of a checked tuple, as (mu, K[mu]) pairs.
    n = len(kappa)
    rho = range(n - 1, -1, -1)
    # x^kappa * v_n(x;t): the terms of v_n(x;t), each shifted by kappa.
    shift = kappa + (0, 0)
    base = {tuple(map(add, mono, shift)): c
            for mono, c in _weyl_denominator(n, "t")._terms.items()}
    grouped: dict[tuple[int, ...], dict[Monomial, int]] = {}
    for mono, coeff in _signed_reps(base, n).items():
        grouped.setdefault(tuple(map(sub, mono[:n], rho)), {})[mono[n:]] = coeff
    return tuple((mu, Polynomial._raw(0, grouped[mu])) for mu in sorted(grouped, reverse=True))


def hall_littlewood(kappa: Sequence[int]) -> Polynomial:
    """Unnormalized Hall-Littlewood polynomial of any nonnegative exponent tuple.

    Monotonicity is not required: tuples with ascents are meaningful
    inputs (the row recursion produces them) and simply antisymmetrize to
    whatever the defining sum gives.
    """
    kappa = tuple(kappa)
    coefficients = schur_coefficients(kappa)
    n = len(kappa)
    rho = range(n - 1, -1, -1)
    # Each s_mu is free of q and t, so K[mu](t) * s_mu puts K's (q, t)
    # exponents on s_mu's x-exponents.
    return Polynomial._collect(n, (
        (mono[:n] + qt, c * d)
        for mu, coeff in coefficients.items()
        for mono, d in _bialternant(tuple(map(add, mu, rho)))._terms.items()
        for qt, c in coeff._terms.items()))


def monomial_symmetric(lam: Sequence[int]) -> Polynomial:
    """Orbit sum with multiplicity: sum of sigma(x^lam) over all n! permutations."""
    lam = check_partition(lam)
    n = len(lam)
    _check_cap(n)
    return _orbit_sum({lam + (0, 0): 1}, n, [1] * factorial(n))

"""Brute-force reference implementations of the symmetric polynomials.

Everything here works straight from the defining formulas, over all n!
permutations of the variables, with no pattern combinatorics.  The module
exists to be obviously correct; the formula evaluators in
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
``schur_coefficients`` returns them.

No polynomial is divided.  HL_kappa and every s_mu are symmetric, so their
coefficients on the dominant monomials x^nu, nu a partition, fix them.
Those of s_mu are the Kostka numbers K_{mu,nu}, which ``_kostka`` solves
from a_rho * s_mu = a_(mu+rho) (Macdonald I.3), read on the strictly
decreasing exponents nu + rho:

    sum over sigma in S_n of sign(sigma) * K_{mu, sort(nu + rho - sigma(rho))} = [nu == mu]

where a composition with a negative part counts zero.  The identity term
is K_{mu,nu} itself, and every other sorted key strictly dominates nu, so
visiting nu lex-descending solves the system by substitution.  Each solve
is checked: the Kostka numbers times the orbit sizes must add up to
s_mu(1, ..., 1), the Weyl dimension prod_{i<j} (alpha_i - alpha_j) / (j - i)
with alpha = mu + rho, and any other total is a fatal internal error.
``hall_littlewood`` sums K[mu](t) * K_{mu,nu} over mu for each nu and
writes each sum onto the distinct permutations of nu, once.  ``schur``
writes the Kostka numbers of lam that way, and ``monomial_symmetric``
writes lam with its stabilizer order as multiplicity.

Two tables depend on n alone.  ``_signs(n)`` maps every permutation of
range(n) to its sign, in ``itertools.permutations`` order, and signs each
sort of the representative pass; ``_shifts(n)`` holds the pairs
(rho - sigma(rho), sign(sigma)) of the Kostka solve, identity excluded.
The signed-representative pass behind ``schur_coefficients`` shifts each
term of the memoized v_n(x;t) = prod_{i<j}(x_i - t x_j) by kappa, with no
polynomial product.  The pass is memoized per input tuple, so one process
runs it once per kappa; ``formulas.clear_caches`` empties that memo and
both tables.  The part check and the cap run on every call, outside the
memo, and ``schur_coefficients`` returns a fresh dict each time.

The n! enumeration is capped (default 6 variables); set the environment
variable GT_ORACLE_NMAX to raise or lower the cap.
"""

from __future__ import annotations

import os
from functools import lru_cache
from collections import Counter
from itertools import permutations
from math import factorial, prod
from operator import add, sub
from typing import Mapping, Sequence

from .polyring import Monomial, Polynomial, generators, permutation_sign
from .patterns import check_partition, weakly_decreasing_tuples

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


@lru_cache(maxsize=None)
def _shifts(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    # (rho - sigma(rho), sign(sigma)) for every sigma in _signs(n) but the
    # identity: sigma(rho)_i = rho_sigma(i), so the shift is sigma(i) - i.
    identity = tuple(range(n))
    return tuple((tuple(map(sub, p, identity)), sign)
                 for p, sign in _signs(n).items() if p != identity)


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


def _stabilizer_order(nu: tuple[int, ...]) -> int:
    # The number of permutations of range(len(nu)) that fix nu.
    return prod(map(factorial, Counter(nu).values()))


def _kostka(mu: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """{nu: K_{mu,nu}}, the nonzero Kostka numbers of a partition: s_mu = sum_nu K_{mu,nu} m_nu.

    nu runs lex-descending over the partitions of |mu| with len(mu) parts
    and nu_1 <= mu_1 (s_mu has x_1-degree mu_1), from mu down, since K_{mu,nu}
    vanishes unless mu dominates nu.  Raises ArithmeticError unless the
    numbers add up to the Weyl dimension s_mu(1, ..., 1).
    """
    n = len(mu)
    size = sum(mu)
    kostka: dict[tuple[int, ...], int] = {}
    get = kostka.get
    for nu in weakly_decreasing_tuples(n, mu[0] if mu else 0):
        if nu > mu or sum(nu) != size:
            continue
        # A sigma with sigma(i) < i at one of nu's trailing zeros gives a
        # negative part, so only the sigma fixing all of them count: those
        # of _shifts(m) on nu's m nonzero parts, with the zeros kept.
        m = n - nu.count(0)
        head, zeros = nu[:m], nu[m:]
        k = int(nu == mu)
        for shift, sign in _shifts(m):
            beta = tuple(map(add, head, shift))
            if min(beta) >= 0:
                k -= sign * get(tuple(sorted(beta, reverse=True)) + zeros, 0)
        if k:
            kostka[nu] = k
    alpha = tuple(map(add, mu, range(n - 1, -1, -1)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    weyl = prod(alpha[i] - alpha[j] for i, j in pairs) // prod(j - i for i, j in pairs)
    total = sum(k * (factorial(n) // _stabilizer_order(nu)) for nu, k in kostka.items())
    if total != weyl:
        raise ArithmeticError(
            f"the Kostka numbers of {mu} add up to {total} at x = (1, ..., 1), "
            f"not to the Weyl dimension {weyl}"
        )
    return kostka


def _symmetric(n: int,
               dominant: Mapping[tuple[int, ...], Mapping[tuple[int, int], int]]) -> Polynomial:
    """The symmetric polynomial whose coefficient on x^nu is dominant[nu], for each partition nu.

    Each coefficient is a q,t polynomial as {(q, t): c}; zero c are
    dropped.  It is written onto every distinct permutation of nu.
    """
    return Polynomial._raw(n, {beta + qt: c
                               for nu, coeff in dominant.items()
                               for beta in set(permutations(nu))
                               for qt, c in coeff.items() if c})


def schur(lam: Sequence[int]) -> Polynomial:
    """Schur polynomial of a partition: its Kostka numbers, each on the orbit of its exponent."""
    lam = check_partition(lam)
    _check_cap(len(lam))
    return _symmetric(len(lam), {nu: {(0, 0): k} for nu, k in _kostka(lam).items()})


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
    # The coefficient on x^nu: sum over mu of K[mu](t) * K_{mu,nu}.
    dominant: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
    for mu, coeff in schur_coefficients(kappa).items():
        for nu, k in _kostka(mu).items():
            acc = dominant.setdefault(nu, {})
            for qt, c in coeff._terms.items():
                acc[qt] = acc.get(qt, 0) + k * c
    return _symmetric(len(kappa), dominant)


def monomial_symmetric(lam: Sequence[int]) -> Polynomial:
    """Orbit sum with multiplicity: sum of sigma(x^lam) over all n! permutations."""
    lam = check_partition(lam)
    n = len(lam)
    _check_cap(n)
    return _symmetric(n, {lam: {(0, 0): _stabilizer_order(lam)}})

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

Each polynomial is the symmetric f with a_rho * f equal to an alternant,
a_alpha the antisymmetrization of x^alpha and rho the staircase (Macdonald,
Symmetric Functions and Hall Polynomials, I.3): one alternant pass and one
solve.  The pass, ``_alternant``, drops each term whose x-exponents repeat
(its signed orbit sum is zero), sorts every other into decreasing
exponents mu + rho and adds its coefficient, times the sign of the sort,
to A[mu], so the alternant is sum_mu A[mu] * a_(mu+rho).  On the numerator
x^kappa * v_n(x;t), v_n(x;t) = prod_{i<j}(x_i - t x_j), A[mu] is the
coefficient K[mu](t) of s_mu = a_(mu+rho) / a_rho in HL_kappa =
sum_mu K[mu](t) s_mu (Macdonald III.2), which ``schur_coefficients``
returns; the pass shifts each term of the memoized v_n(x;t) by kappa and
is memoized per tuple.  ``schur`` needs no pass: its alternant is {lam: 1}.

The solve, ``_solve``, divides nothing.  f is fixed by its coefficients
f[nu] on the dominant monomials x^nu, nu a partition, and a_rho * f =
alternant, read on the strictly decreasing exponents nu + rho, is

    sum over sigma in S_n of sign(sigma) * f[sort(nu + rho - sigma(rho))] = A[nu]

where a composition with a negative part counts zero.  The identity term
is f[nu], and every other sorted key strictly dominates nu, so visiting nu
lex-descending solves for one q,t polynomial f[nu] at a time.  Each solve
is checked at x = (1, ..., 1), as a q,t polynomial: f[nu] times the orbit
size of nu, summed over nu, must equal A[mu] times the Weyl dimension
s_mu(1, ..., 1), summed over mu, or the solve is a fatal internal error.
Each f[nu] is then written onto the distinct permutations of nu, once.

``formulas.clear_caches`` empties the memo of the pass and the sign and
shift tables, ``_signs`` and ``_shifts``.  ``_checked`` runs the part check
and the cap on every call of ``hall_littlewood`` and
``schur_coefficients``, outside the memo.

The n! enumeration is capped (default 6 variables); set the environment
variable GT_ORACLE_NMAX to raise or lower the cap.
"""

from __future__ import annotations

import os
from functools import lru_cache
from collections import Counter
from itertools import combinations, permutations
from math import factorial, prod
from operator import add, sub
from typing import Mapping, Sequence

from .polyring import Monomial, Polynomial, generators, permutation_sign
from .patterns import check_partition, weakly_decreasing_tuples

DEFAULT_MAX_VARS = 6
_ENV_CAP = "GT_ORACLE_NMAX"

# {partition: its q,t coefficient as {(q, t): c}}, nonzero c only.
_ByPartition = Mapping[tuple[int, ...], Mapping[tuple[int, int], int]]


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


def _checked(kappa: Sequence[int]) -> tuple[int, ...]:
    """kappa as a tuple, once its parts are nonnegative integers and its length is within the cap."""
    kappa = tuple(kappa)
    if any(not isinstance(p, int) or p < 0 for p in kappa):
        raise ValueError(f"parts must be nonnegative integers: {kappa!r}")
    _check_cap(len(kappa))
    return kappa


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


def _alternant(terms: Mapping[Monomial, int], kappa: tuple[int, ...]) -> _ByPartition:
    """The alternant of x^kappa * terms as {mu: {(q, t): c}}, the coefficients of the a_(mu+rho)."""
    n = len(kappa)
    sign = _signs(n)
    rho = range(n - 1, -1, -1)
    out: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
    for mono, c in terms.items():
        xs = tuple(map(add, mono, kappa))
        if len(set(xs)) == n:  # else a transposition fixes it and flips its sign
            order = tuple(sorted(range(n), key=xs.__getitem__, reverse=True))
            coeff = out.setdefault(tuple(map(sub, map(xs.__getitem__, order), rho)), {})
            coeff[mono[n:]] = coeff.get(mono[n:], 0) + sign[order] * c
    return {mu: nonzero for mu, coeff in out.items()
            if (nonzero := {qt: c for qt, c in coeff.items() if c})}


def _stabilizer_order(nu: tuple[int, ...]) -> int:
    # The number of permutations of range(len(nu)) that fix nu.
    return prod(map(factorial, Counter(nu).values()))


def _weyl_dimension(mu: tuple[int, ...]) -> int:
    # s_mu(1, ..., 1) = prod_{i<j} (alpha_i - alpha_j) / (j - i), alpha = mu + rho.
    pairs = list(combinations(range(len(mu)), 2))
    return prod(mu[i] - mu[j] + j - i for i, j in pairs) // prod(j - i for i, j in pairs)


def _at_ones(coefficients: _ByPartition, weight) -> Polynomial:
    # sum over the partitions p of weight(p) * coefficients[p], a q,t polynomial.
    return Polynomial._collect(0, ((qt, w * c) for p, coeff in coefficients.items()
                                   for w in (weight(p),) for qt, c in coeff.items()))


def _solve(n: int, alternant: _ByPartition) -> _ByPartition:
    """The symmetric f with a_rho * f = sum_mu alternant[mu] * a_(mu+rho), as {nu: f[nu]}.

    Every mu has one size.  f[nu] vanishes unless some mu dominates nu, so
    nu runs over the partitions of that size from the lex-largest mu down,
    with nu_1 at most that mu's first part.  Raises ArithmeticError unless
    f(1, ..., 1) is the alternant's sum of Weyl dimensions.
    """
    f: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
    get = f.get
    top = max(alternant, default=(0,) * n)
    for nu in weakly_decreasing_tuples(n, max(top, default=0)):
        if nu > top or sum(nu) != sum(top):
            continue
        # A sigma with sigma(i) < i at one of nu's trailing zeros gives a
        # negative part, so only the sigma fixing all of them count: those
        # of _shifts(m) on nu's m nonzero parts, with the zeros kept.
        m = n - nu.count(0)
        head, zeros = nu[:m], nu[m:]
        acc = dict(alternant.get(nu, ()))
        for shift, sign in _shifts(m):
            beta = tuple(map(add, head, shift))
            if min(beta) >= 0 and (coeff := get(tuple(sorted(beta, reverse=True)) + zeros)):
                for qt, c in coeff.items():
                    acc[qt] = acc.get(qt, 0) - sign * c
        if nonzero := {qt: c for qt, c in acc.items() if c}:
            f[nu] = nonzero
    total = _at_ones(f, lambda nu: factorial(n) // _stabilizer_order(nu))
    weyl = _at_ones(alternant, _weyl_dimension)
    if total != weyl:
        raise ArithmeticError(
            f"the solve for {dict(alternant)} adds up to {total} at x = (1, ..., 1), "
            f"not to the sum of Weyl dimensions {weyl}"
        )
    return f


def _symmetric(n: int, dominant: _ByPartition) -> Polynomial:
    """The symmetric polynomial with q,t coefficient dominant[nu] on each permutation of each nu."""
    return Polynomial._raw(n, {beta + qt: c
                               for nu, coeff in dominant.items()
                               for beta in set(permutations(nu))
                               for qt, c in coeff.items()})


def schur(lam: Sequence[int]) -> Polynomial:
    """Schur polynomial of a partition: the solve of its one alternant a_(lam+rho)."""
    lam = check_partition(lam)
    n = len(lam)
    _check_cap(n)
    return _symmetric(n, _solve(n, {lam: {(0, 0): 1}}))


def schur_coefficients(kappa: Sequence[int]) -> dict[tuple[int, ...], Polynomial]:
    """The Schur expansion HL_kappa = sum_mu K[mu](t) * s_mu, as {mu: K[mu]}.

    Each K[mu] is a q,t polynomial with n_vars = 0; the partitions mu come
    in reverse-lexicographic order and carry nonzero coefficients only.
    ``kappa`` is any nonnegative exponent tuple, as for ``hall_littlewood``.
    """
    return dict(_schur_coefficients(_checked(kappa)))


@lru_cache(maxsize=None)
def _schur_coefficients(kappa: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], Polynomial], ...]:
    # schur_coefficients of a checked tuple, as (mu, K[mu]) pairs.
    n = len(kappa)
    alternant = _alternant(_weyl_denominator(n, "t")._terms, kappa)
    return tuple((mu, Polynomial._raw(0, alternant[mu])) for mu in sorted(alternant, reverse=True))


def hall_littlewood(kappa: Sequence[int]) -> Polynomial:
    """Unnormalized Hall-Littlewood polynomial of any nonnegative exponent tuple.

    Monotonicity is not required: tuples with ascents are meaningful
    inputs (the row recursion produces them) and simply antisymmetrize to
    whatever the defining sum gives.
    """
    kappa = _checked(kappa)
    n = len(kappa)
    return _symmetric(n, _solve(n, {mu: k._terms for mu, k in _schur_coefficients(kappa)}))


def monomial_symmetric(lam: Sequence[int]) -> Polynomial:
    """Orbit sum with multiplicity: sum of sigma(x^lam) over all n! permutations."""
    lam = check_partition(lam)
    n = len(lam)
    _check_cap(n)
    return _symmetric(n, {lam: {(0, 0): _stabilizer_order(lam)}})

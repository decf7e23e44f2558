from collections import Counter
from itertools import accumulate, permutations
from math import prod

import pytest

from hlgt import formulas, oracle
from hlgt.oracle import (
    OracleCapError,
    hall_littlewood,
    max_oracle_vars,
    monomial_symmetric,
    schur,
    schur_coefficients,
    weyl_denominator,
)
from hlgt.polyring import Polynomial, generators, monomial
from hlgt.patterns import enumerate_patterns, staircase, weakly_decreasing_tuples

from helpers import coeff_sum, literal_alternant, literal_numerator, orbit_alternant, permuted


def test_weyl_denominator_two_vars():
    xs, q, t = generators(2)
    assert weyl_denominator(2, "q") == xs[0] - q * xs[1]
    assert weyl_denominator(2, "t") == xs[0] - t * xs[1]
    assert weyl_denominator(2) == xs[0] - xs[1]


def test_weyl_denominator_empty_product():
    assert weyl_denominator(1) == Polynomial.one(1)
    assert weyl_denominator(1, "q") == Polynomial.one(1)


def test_weyl_denominator_at_t_zero_is_staircase_monomial():
    for n in (2, 3, 4):
        assert weyl_denominator(n, "t").substitute("t", 0) == monomial(1, staircase(n))


def test_weyl_denominator_rejects_unknown_deform():
    with pytest.raises(ValueError):
        weyl_denominator(2, "u")


def test_weyl_denominator_rejects_negative_n_before_the_memo():
    entries = oracle._weyl_denominator.cache_info().currsize
    for deform in (None, "q", "t"):
        with pytest.raises(ValueError, match="nonnegative"):
            weyl_denominator(-1, deform)
    assert oracle._weyl_denominator.cache_info().currsize == entries
    assert weyl_denominator(0) == Polynomial.one(0)


def test_schur_examples():
    xs, _, _ = generators(3)
    assert schur((1, 0, 0)) == xs[0] + xs[1] + xs[2]
    assert schur((0, 0, 0)) == Polynomial.one(3)
    xs2, _, _ = generators(2)
    assert schur((1, 1)) == xs2[0] * xs2[1]


def test_schur_rejects_non_monotone():
    with pytest.raises(ValueError):
        schur((1, 2))


def test_hall_littlewood_examples():
    xs, _, t = generators(2)
    assert hall_littlewood((1, 0)) == xs[0] + xs[1]
    assert hall_littlewood((1, 1)) == (1 + t) * xs[0] * xs[1]


def test_hall_littlewood_of_zero_partition():
    p = hall_littlewood((0, 0, 0))
    assert p.substitute("t", 0) == Polynomial.one(3)


def test_hall_littlewood_accepts_ascending_tuples():
    # unit-step raises multiply by t when the raised part exceeds its
    # neighbour by exactly one
    _, _, t2 = generators(2)
    assert hall_littlewood((1, 2)) == t2 * hall_littlewood((2, 1))
    _, _, t3 = generators(3)
    assert hall_littlewood((1, 2, 0)) == t3 * hall_littlewood((2, 1, 0))
    assert hall_littlewood((2, 0, 1)) == t3 * hall_littlewood((2, 1, 0))


def test_hall_littlewood_rejects_negative_parts():
    with pytest.raises(ValueError):
        hall_littlewood((1, -1))


def test_monomial_symmetric_examples():
    xs, _, _ = generators(2)
    assert monomial_symmetric((1, 0)) == xs[0] + xs[1]
    assert monomial_symmetric((1, 1)) == 2 * xs[0] * xs[1]
    assert monomial_symmetric((1, 1)) == hall_littlewood((1, 1)).substitute("t", 1)
    assert len(monomial_symmetric((2, 1, 0))) == 6


def test_hall_littlewood_is_symmetric():
    for lam in [(2, 0), (2, 1, 0), (1, 1, 0), (2, 2, 1)]:
        p = hall_littlewood(lam)
        for sigma in permutations(range(len(lam))):
            assert permuted(p, sigma) == p


def test_specializations_on_a_grid():
    for n in (1, 2, 3):
        for lam in weakly_decreasing_tuples(n, 2):
            hl = hall_littlewood(lam)
            assert hl.substitute("t", 0) == schur(lam)
            assert hl.substitute("t", 1) == monomial_symmetric(lam)


def test_schur_at_ones_counts_patterns():
    for n in (1, 2, 3):
        for lam in weakly_decreasing_tuples(n, 3):
            assert coeff_sum(schur(lam)) == len(enumerate_patterns(lam))


def test_antisymmetrized_numerator_flips_sign_under_transpositions():
    # rebuilt from the definition, independently of the oracle internals
    kappa = (2, 1, 0)
    n = len(kappa)
    num = literal_numerator(kappa)
    for i in range(n - 1):
        swap = list(range(n))
        swap[i], swap[i + 1] = swap[i + 1], swap[i]
        assert permuted(num, swap) == -num


def test_alternant_of_cancelling_representatives_is_zero():
    # x1^2*x2 and x1*x2^2 share the representative x1^2*x2, with opposite signs
    xs, _, _ = generators(2)
    p = xs[0] ** 2 * xs[1] + xs[0] * xs[1] ** 2
    assert orbit_alternant(p._terms, 2) == Polynomial.zero(2)


@pytest.mark.parametrize("exps", [
    [(2, 1)],
    [(2, 1, 0), (1, 2, 0), (0, 2, 1), (3, 0, 0), (1, 1, 0)],
    [(2, 1, 0), (0, 1, 2), (3, 1, 0)],
], ids=str)
def test_alternant_matches_copy_by_copy_sum(exps):
    n = len(exps[0])
    _, q, _ = generators(n)
    p = sum((monomial(1, e) for e in exps), start=Polynomial.zero(n)) * (1 - q)
    alternant = orbit_alternant(p._terms, n)
    assert alternant == literal_alternant(p)
    assert 0 not in [c for _, c in alternant.terms()]


LITERAL_CASES = [
    kappa for n in (1, 2, 3, 4) for kappa in weakly_decreasing_tuples(n, 2)
] + [(0, 2, 1), (1, 1, 2), (0, 1, 2, 3)] + list(weakly_decreasing_tuples(5, 1)) + [
    # non-monotone tuples of the kind the row recursion passes in
    (0, 2, 1, 1, 0), (1, 0, 2, 0, 1), (2, 0, 1, 1, 0),
]


@pytest.mark.parametrize("kappa", LITERAL_CASES, ids=str)
def test_hall_littlewood_matches_literal_definition(kappa):
    # n! permuted copies added with their signs, then the Vandermonde division
    assert hall_littlewood(kappa) == oracle._divide_vandermonde(literal_numerator(kappa))


def _t_factorial(m):
    # prod_{j <= m} (1 + t + ... + t^(j-1)), a q,t polynomial
    return prod((Polynomial(0, {(0, e): 1 for e in range(j)}) for j in range(1, m + 1)),
                start=Polynomial.one(0))


def _dominated(mu, lam):
    return sum(mu) == sum(lam) and all(a <= b for a, b in zip(accumulate(mu), accumulate(lam)))


SCHUR_COEFFICIENT_CASES = [lam for n in range(1, 6) for lam in weakly_decreasing_tuples(n, 3)]


@pytest.mark.parametrize("lam", SCHUR_COEFFICIENT_CASES, ids=str)
def test_schur_coefficients_are_unitriangular_up_to_v_lam(lam):
    coefficients = schur_coefficients(lam)
    # K[lam] = v_lam(t), the product of t-factorials of the part multiplicities
    assert coefficients[lam] == prod(map(_t_factorial, Counter(lam).values()), start=Polynomial.one(0))
    for mu, coeff in coefficients.items():
        assert coeff and coeff.n_vars == 0
        assert _dominated(mu, lam)
        assert all(q == 0 for q, _ in coeff._terms)
    at_zero = {mu: coeff.substitute("t", 0) for mu, coeff in coefficients.items()}
    assert {mu: c for mu, c in at_zero.items() if c} == {lam: Polynomial.one(0)}


def test_schur_coefficients_examples():
    t = Polynomial(0, {(0, 1): 1})
    assert schur_coefficients((0, 0)) == {(0, 0): 1 + t}
    assert schur_coefficients((1, 0)) == {(1, 0): Polynomial.one(0)}
    # HL_(1,1,0) = (1 + t) s_(1,1,0); HL_(2,0) = s_(2,0) - t s_(1,1)
    assert schur_coefficients((1, 1, 0)) == {(1, 1, 0): 1 + t}
    assert schur_coefficients((2, 0)) == {(2, 0): Polynomial.one(0), (1, 1): -t}
    assert list(schur_coefficients((3, 0, 0))) == [(3, 0, 0), (2, 1, 0), (1, 1, 1)]


def test_schur_coefficients_of_ascending_tuples():
    t = Polynomial(0, {(0, 1): 1})
    for raised, kappa in [((1, 2, 0), (2, 1, 0)), ((2, 1, 2, 1, 0), (2, 2, 1, 1, 0))]:
        assert schur_coefficients(raised) == {
            mu: t * coeff for mu, coeff in schur_coefficients(kappa).items()}
    with pytest.raises(ValueError):
        schur_coefficients((1, -1))


@pytest.mark.parametrize("kappa", [(2, 1, 0), (1, 1, 0, 0), (0, 2, 1)], ids=str)
def test_hall_littlewood_is_its_schur_expansion(kappa):
    n = len(kappa)
    expansion = Polynomial.zero(n)
    for mu, coeff in schur_coefficients(kappa).items():
        lifted = Polynomial(n, {(0,) * n + mono: c for mono, c in coeff.terms()})
        expansion = expansion + lifted * schur(mu)
    assert hall_littlewood(kappa) == expansion


def test_every_bialternant_is_divided_exactly(monkeypatch):
    # one stray term in any s_mu's alternant must make the division fatal
    orbit_sum = oracle._orbit_sum

    def perturbed(reps, n, weights):
        return orbit_sum(reps, n, weights) + monomial(1, (1,) + (0,) * (n - 1))

    monkeypatch.setattr(oracle, "_orbit_sum", perturbed)
    for kappa in [(1, 0), (2, 1, 0), (0, 1, 1)]:
        with pytest.raises(ArithmeticError, match="antisymmetry"):
            hall_littlewood(kappa)


def test_oracle_cap(monkeypatch):
    monkeypatch.setenv("GT_ORACLE_NMAX", "2")
    assert max_oracle_vars() == 2
    with pytest.raises(OracleCapError, match="safety cap"):
        hall_littlewood((1, 0, 0))
    with pytest.raises(OracleCapError, match="safety cap"):
        schur((1, 0, 0))
    with pytest.raises(OracleCapError, match="safety cap"):
        schur_coefficients((1, 0, 0))
    with pytest.raises(OracleCapError, match="safety cap"):
        monomial_symmetric((1, 0, 0))
    monkeypatch.setenv("GT_ORACLE_NMAX", "3")
    assert hall_littlewood((1, 0, 0)).substitute("t", 0) == schur((1, 0, 0))


def test_the_cap_is_read_on_every_call(monkeypatch):
    lam = (1, 1, 0, 0)
    routes = (hall_littlewood, schur, schur_coefficients, formulas.hl_row_quotient)
    for route in routes:
        route(lam)
    monkeypatch.setenv("GT_ORACLE_NMAX", "3")
    for route in routes:
        with pytest.raises(OracleCapError, match=r"safety cap \(3\)"):
            route(lam)


@pytest.mark.parametrize("route", [hall_littlewood, schur, schur_coefficients,
                                   formulas.hl_pattern_quotient], ids=lambda f: f.__name__)
def test_bad_parts_are_refused_after_a_memoized_call(route):
    route((1, 0))
    # (1.0, 0) hashes and compares equal to the memoized key (1, 0).
    for bad in [(1.0, 0), (1, -1)]:
        with pytest.raises(ValueError, match="nonnegative integers"):
            route(bad)


def test_schur_coefficients_are_a_fresh_dict_on_every_call():
    _, _, t = generators(0)
    first = schur_coefficients((2, 0))
    first[(2, 0)] = t
    del first[(1, 1)]
    assert schur_coefficients((2, 0)) == {(2, 0): Polynomial.one(0), (1, 1): -t}


def test_oracle_cap_rejects_garbage(monkeypatch):
    monkeypatch.setenv("GT_ORACLE_NMAX", "lots")
    with pytest.raises(OracleCapError):
        max_oracle_vars()
    assert issubclass(OracleCapError, ValueError)


def test_default_cap():
    assert oracle.DEFAULT_MAX_VARS == 6

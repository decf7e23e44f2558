import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlgt.oracle import hall_littlewood
from hlgt.polyring import (
    Polynomial,
    constant,
    generators,
    monomial,
    parameter,
    permutation_sign,
    variable,
)

from helpers import (
    canonical_terms,
    divide_vandermonde,
    literal_numerator,
    permuted,
    reference_json,
)


def ring(n):
    xs, q, t = generators(n)
    return xs, q, t


def polynomials(n_vars, max_exp=3, max_terms=5):
    mono = st.tuples(*([st.integers(0, max_exp)] * (n_vars + 2)))
    return st.dictionaries(mono, st.integers(-9, 9), max_size=max_terms).map(
        lambda d: Polynomial(n_vars, d)
    )


def crowded_polynomials():
    """Polynomials in 0-3 x-variables whose terms share two adjacent total degrees."""
    def build(n_vars):
        monos = [m for m in product(range(4), repeat=n_vars + 2) if sum(m) in (3, 4)]
        coeffs = st.integers(-10 ** 25, 10 ** 25)
        return st.dictionaries(st.sampled_from(monos), coeffs, min_size=1, max_size=40).map(
            lambda d: Polynomial(n_vars, d)
        )
    return st.integers(0, 3).flatmap(build)


# ----------------------------------------------------------------------
# addition and multiplication

def test_add_inverse():
    xs, _, _ = ring(1)
    assert xs[0] + (-xs[0]) == Polynomial.zero(1)


def test_add_collects_cross_terms():
    xs, q, _ = ring(2)
    lhs = (xs[0] - q * xs[1]) + (xs[1] - q * xs[0])
    assert lhs == (1 - q) * (xs[0] + xs[1])


@given(polynomials(2))
def test_add_zero_is_identity(p):
    assert p + Polynomial.zero(2) == p


def test_mul_expands_binomials():
    xs, _, t = ring(2)
    lhs = (xs[0] - t * xs[1]) * (xs[0] - xs[1])
    assert lhs == xs[0] ** 2 - (1 + t) * xs[0] * xs[1] + t * xs[1] ** 2


@given(polynomials(2))
def test_mul_one_and_zero(p):
    assert p * Polynomial.one(2) == p
    assert p * Polynomial.zero(2) == Polynomial.zero(2)


def test_var_count_mismatch_rejected():
    with pytest.raises(ValueError, match="variable-count mismatch"):
        variable(0, 2) + variable(0, 3)
    with pytest.raises(ValueError, match="variable-count mismatch"):
        variable(0, 2) * variable(0, 3)


@settings(max_examples=40)
@given(polynomials(3), polynomials(3), polynomials(3))
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_canonical_form_is_construction_independent():
    xs, q, t = ring(2)
    left = ((xs[0] + xs[1]) * (xs[0] - q * t * xs[1])) + 3
    right = 3 + (xs[0] ** 2 - q * t * xs[0] * xs[1] + xs[0] * xs[1] - q * t * xs[1] ** 2)
    assert left == right
    assert left.terms() == right.terms()


def test_pow():
    xs, q, _ = ring(1)
    assert (xs[0] - q) ** 0 == Polynomial.one(1)
    assert (xs[0] - q) ** 3 == (xs[0] - q) * (xs[0] - q) * (xs[0] - q)
    with pytest.raises(ValueError):
        xs[0] ** -1


@pytest.mark.parametrize("k", range(6))
def test_pow_is_the_repeated_product(k):
    xs, _, t = ring(2)
    p = xs[0] * xs[0] - 2 * t * xs[1] + 3
    expected = Polynomial.one(2)
    for _ in range(k):
        expected = expected * p
    assert p ** k == expected


def cancelling_pairs():
    """(a, b) with b = c - a in 2 x-variables: the terms of a cancel in a + b, leaving c."""
    return st.tuples(polynomials(2), polynomials(2)).map(
        lambda ac: (ac[0], ac[1] - ac[0])
    )


@settings(max_examples=60)
@given(cancelling_pairs(), st.integers(-2, 2))
def test_no_operation_stores_a_zero_coefficient(pair, value):
    a, b = pair
    _, q, t = ring(2)
    zero = Polynomial.zero(2)
    # Each of these cancels to 0 term by term.
    assert a * b - b * a == zero
    assert a + (-a) == zero
    assert ((t - 1) * a).substitute("t", 1) == zero
    assert ((q + 1) * b).substitute("q", -1) == zero
    results = [
        a + b, b - a, a * b - b * a, (a + b) * (a - b), a * (b - b) + a,
        (t - 1) * a + b, ((t - 1) * a + b).substitute("t", 1),
        (a * b).substitute("q", value), (a - q * b).substitute("t", value),
    ]
    for r in results:
        assert 0 not in [c for _, c in r.terms()]


def test_invalid_construction():
    with pytest.raises(ValueError):
        Polynomial(2, {(1, 0): 1})  # wrong width
    with pytest.raises(ValueError):
        Polynomial(1, {(-1, 0, 0): 1})
    with pytest.raises(TypeError):
        Polynomial(1, {(1, 0, 0): 1.5})


@pytest.mark.parametrize("build", [
    Polynomial.zero,
    Polynomial.one,
    lambda n: constant(3, n),
    lambda n: parameter("q", n),
    generators,
], ids=["zero", "one", "constant", "parameter", "generators"])
def test_constructors_reject_negative_n_vars(build):
    with pytest.raises(ValueError, match="n_vars must be nonnegative"):
        build(-1)


# ----------------------------------------------------------------------
# permutations

def test_permuted_transposition():
    xs, _, _ = ring(2)
    assert permuted(xs[0] ** 2 * xs[1], (1, 0)) == xs[1] ** 2 * xs[0]


def test_permuted_identity():
    xs, q, t = ring(3)
    p = xs[0] * xs[2] - q * t * xs[1]
    assert permuted(p, (0, 1, 2)) == p


def test_permuted_cycle():
    xs, q, _ = ring(3)
    # the cycle sending x1 -> x2 -> x3 -> x1
    assert permuted(xs[0] - q * xs[2], (1, 2, 0)) == xs[1] - q * xs[0]


def test_permuted_rejects_non_bijection():
    with pytest.raises(ValueError, match="bijection"):
        permuted(variable(0, 2), (0, 0))


@settings(max_examples=40)
@given(polynomials(3), polynomials(3), st.permutations(list(range(3))))
def test_permuted_is_ring_homomorphism(a, b, sigma):
    assert permuted(a * b, sigma) == permuted(a, sigma) * permuted(b, sigma)
    assert permuted(a + b, sigma) == permuted(a, sigma) + permuted(b, sigma)


def test_permutation_sign():
    assert permutation_sign((0, 1, 2)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert permutation_sign((1, 2, 0)) == 1


# ----------------------------------------------------------------------
# exact division by a variable difference

def test_divide_difference_of_squares():
    xs, _, _ = ring(2)
    assert (xs[0] ** 2 - xs[1] ** 2).divide_by_diff(0, 1) == xs[0] + xs[1]


def test_divide_common_factor():
    xs, _, _ = ring(2)
    p = xs[0] ** 2 * xs[1] - xs[0] * xs[1] ** 2
    assert p.divide_by_diff(0, 1) == xs[0] * xs[1]


def test_divide_nonexact_is_fatal():
    xs, _, _ = ring(2)
    with pytest.raises(ArithmeticError, match="antisymmetry"):
        (xs[0] + 1).divide_by_diff(0, 1)


def test_divide_nonexact_when_only_degree_zero_survives():
    # the x_i^2 and x_i^1 layers carry down and cancel the -x_j^2 term,
    # so the remainder is the lone x_k of x_i-degree 0
    xs, _, _ = ring(3)
    with pytest.raises(ArithmeticError, match="antisymmetry"):
        (xs[0] ** 2 - xs[1] ** 2 + xs[2]).divide_by_diff(0, 1)
    with pytest.raises(ArithmeticError, match="antisymmetry"):
        (xs[2] ** 2 - xs[0] ** 2 + xs[1]).divide_by_diff(2, 0)


def test_perturbed_alternant_is_not_divisible():
    num = literal_numerator((2, 1, 0))
    assert divide_vandermonde(num) == hall_littlewood((2, 1, 0))
    for mono, _ in num.terms():
        bumped = num + monomial(1, mono[:3], mono[3], mono[4])
        with pytest.raises(ArithmeticError, match="antisymmetry"):
            divide_vandermonde(bumped)


def test_divide_invalid_pair():
    with pytest.raises(ValueError):
        variable(0, 2).divide_by_diff(0, 0)


@settings(max_examples=120)
@given(polynomials(3), st.sampled_from([(i, j) for i in range(3) for j in range(3) if i != j]))
def test_multiply_then_divide_round_trip(p, pair):
    xs, _, _ = ring(3)
    i, j = pair
    assert (p * (xs[i] - xs[j])).divide_by_diff(i, j) == p


# ----------------------------------------------------------------------
# parameter substitution

def test_substitute_examples():
    _, q, t = ring(0)
    one = constant(1, 0)
    assert ((one - q) * (one + t)).substitute("t", 0) == one - q
    assert ((one - q) * (one - t)).substitute("t", -1) == 2 * (one - q)
    assert (-q - q * t).substitute("q", -1) == one + t


def test_substitute_rejects_unknown_parameter():
    with pytest.raises(ValueError):
        constant(1, 0).substitute("x", 0)


@settings(max_examples=40)
@given(polynomials(2), polynomials(2), st.sampled_from(["q", "t"]), st.integers(-2, 2))
def test_substitute_commutes_with_ring_ops(a, b, param, value):
    assert (a + b).substitute(param, value) == a.substitute(param, value) + b.substitute(param, value)
    assert (a * b).substitute(param, value) == a.substitute(param, value) * b.substitute(param, value)


# ----------------------------------------------------------------------
# rendering and JSON

def test_str_rendering():
    xs, q, t = ring(2)
    assert str(xs[0] + xs[1]) == "x1 + x2"
    assert str(xs[0] - q * xs[1]) == "x1 - q*x2"
    assert str((1 + t) * xs[0] * xs[1]) == "x1*x2 + t*x1*x2"
    assert str(Polynomial.zero(2)) == "0"
    assert str(constant(-3, 0)) == "-3"
    assert str(xs[0] ** 2 * t ** 2) == "t^2*x1^2"


def test_terms_canonical_order_is_graded_lex_descending():
    xs, q, t = ring(2)
    p = xs[0] + t * xs[0] * xs[1] + q ** 3
    monos = [m for m, _ in p.terms()]
    keyed = [(sum(m), m) for m in monos]
    assert keyed == sorted(keyed, reverse=True)


@settings(max_examples=40)
@given(polynomials(3))
def test_json_round_trip(p):
    assert Polynomial.from_json(p.to_json()) == p


def test_json_preserves_big_coefficients():
    p = monomial(10 ** 40, (1, 2), 3, 4) - monomial(10 ** 38, (0, 0), 0, 0)
    back = Polynomial.from_json(p.to_json())
    assert back == p
    assert '"c": "' in p.to_json()


def test_json_output_is_stable():
    xs, q, _ = ring(2)
    p = xs[0] - q * xs[1]
    text = p.to_json()
    assert Polynomial.from_json(text).to_json() == text


def test_json_golden_bytes():
    xs, q, t = ring(2)
    mixed = 3 * xs[0] ** 2 * q - xs[1] * t ** 2 + 7 * xs[0] * xs[1] - 2 * q + 5
    assert Polynomial.zero(0).to_json() == '{"n_vars": 0, "terms": []}'
    assert Polynomial.zero(3).to_json() == '{"n_vars": 3, "terms": []}'
    assert Polynomial.one(0).to_json() == (
        '{"n_vars": 0, "terms": [{"c": "1", "x": [], "q": 0, "t": 0}]}'
    )
    assert monomial(-10 ** 22 - 4567, (2, 0, 1), 1, 3).to_json() == (
        '{"n_vars": 3, "terms": [{"c": "-10000000000000000004567", "x": [2, 0, 1], "q": 1, "t": 3}]}'
    )
    assert mixed.to_json() == (
        '{"n_vars": 2, "terms": [{"c": "3", "x": [2, 0], "q": 1, "t": 0}, '
        '{"c": "-1", "x": [0, 1], "q": 0, "t": 2}, {"c": "7", "x": [1, 1], "q": 0, "t": 0}, '
        '{"c": "-2", "x": [0, 0], "q": 1, "t": 0}, {"c": "5", "x": [0, 0], "q": 0, "t": 0}]}'
    )


@settings(max_examples=80)
@given(st.one_of(crowded_polynomials(), polynomials(3, max_terms=12)))
def test_json_matches_per_term_dict_encoding(p):
    assert p.to_json() == reference_json(p)
    assert p.to_dict() == json.loads(reference_json(p))


@settings(max_examples=80)
@given(crowded_polynomials())
def test_terms_match_single_key_sort(p):
    assert p.terms() == canonical_terms(p)

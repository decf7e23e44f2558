import pytest

from hlgt import formulas, oracle, patterns
from hlgt.polyring import Polynomial, constant, generators, monomial, parameter
from hlgt.patterns import GtPattern, add_staircase, next_rows, weakly_decreasing_tuples
from hlgt.formulas import (
    elementary_raise,
    hl_pattern_expansion,
    hl_row_recursion,
    pattern_row_weights,
    raising_closure,
    row_weight_sum,
    stanley_filtered_sum,
    stanley_sum,
    tokuyama_row_recursion,
    tokuyama_sum,
    transition_det,
)

from helpers import (
    filtered_pair_weight,
    laplace_det,
    pattern_sum_reference,
    stanley_pair_weight,
    strict_tuples,
    tokuyama_pair_weight,
    tridiagonal_matrix,
)

ONE = constant(1, 0)
Q = parameter("q", 0)
T = parameter("t", 0)


# ----------------------------------------------------------------------
# raising operators

def test_elementary_raise():
    assert elementary_raise((6, 4, 3, 1), 0) == (5, 5, 3, 1)
    assert elementary_raise((6, 4, 3, 1), 2) == (6, 4, 2, 2)
    with pytest.raises(ValueError):
        elementary_raise((6, 4), 1)


def test_elementary_raises_compose():
    assert elementary_raise(elementary_raise((3, 1, 0), 0), 1) == (2, 1, 1)


def test_raising_closure_golden():
    ops = raising_closure((6, 4, 3, 1))
    lengths = {op.result: op.length for op in ops}
    assert lengths == {
        (6, 4, 3, 1): 0,
        (5, 5, 3, 1): 1,
        (6, 4, 2, 2): 1,
        (5, 4, 4, 1): 2,
        (6, 3, 3, 2): 2,
        (5, 5, 2, 2): 2,
    }
    assert ops[0].result == (6, 4, 3, 1) and ops[0].length == 0


def test_raising_closure_no_gap():
    ops = raising_closure((1, 0))
    assert [op.result for op in ops] == [(1, 0)]


def test_raising_closure_single_gap():
    ops = raising_closure((2, 0))
    assert {op.result: op.length for op in ops} == {(2, 0): 0, (1, 1): 1}


def test_raising_closure_trivial_for_constant_partitions():
    for lam in [(0,), (2, 2), (1, 1, 1), (3, 3, 3, 3)]:
        ops = raising_closure(add_staircase(lam))
        assert len(ops) == 1 and ops[0].length == 0


def test_raising_closure_requires_strict():
    with pytest.raises(ValueError):
        raising_closure((2, 2))


# ----------------------------------------------------------------------
# transition determinant

def test_transition_det_goldens():
    assert transition_det((3, 1, 0), (2, 0)) == ONE - Q + T - Q * T + Q * T ** 2
    assert transition_det((3, 1, 0), (1, 1)) == -Q * T
    assert transition_det((5,), ()) == ONE


def test_transition_det_outside_interleaving_is_zero():
    assert transition_det((3, 1, 0), (4, 0)) == Polynomial.zero(0)
    assert transition_det((3, 1, 0), (2,)) == Polynomial.zero(0)
    assert transition_det((3, 1, 0), (2, 2)) == Polynomial.zero(0)


def test_transition_det_requires_strict():
    with pytest.raises(ValueError):
        transition_det((2, 2), (2,))


def test_transition_det_matches_laplace_expansion():
    for length in range(2, 5):
        for alpha in strict_tuples(length, 5):
            for mu in next_rows(alpha):
                expected = laplace_det(tridiagonal_matrix(alpha, mu))
                assert transition_det(alpha, mu) == expected


# ----------------------------------------------------------------------
# row weight sums

def test_row_weight_sum_worked_example():
    assert row_weight_sum((3, 1, 0), (2, 0)) == (ONE - Q) * (ONE + T)
    assert row_weight_sum((2, 0), (1,)) == ONE - Q


def test_pattern_row_weights():
    pattern = GtPattern([(3, 1, 0), (2, 0), (1,)])
    weights = pattern_row_weights(pattern)
    assert weights == [(ONE - Q) * (ONE + T), ONE - Q]
    product = weights[0] * weights[1]
    assert product == (ONE - Q) ** 2 * (ONE + T)


def test_pattern_row_weights_needs_strict():
    with pytest.raises(ValueError, match="strict"):
        pattern_row_weights(GtPattern([(3, 1, 0), (1, 1), (1,)]))


# ----------------------------------------------------------------------
# pattern expansion and row recursion

def test_hl_pattern_expansion_base_cases():
    assert hl_pattern_expansion((0,)) == Polynomial.one(1)
    assert hl_pattern_expansion((3,)) == monomial(1, (3,))


def test_hl_pattern_expansion_two_vars():
    xs, q, t = generators(2)
    assert hl_pattern_expansion((0, 0)) == (1 + t) * (xs[0] - q * xs[1])


def test_hl_pattern_expansion_matches_oracle():
    for lam in [(1,), (0, 0), (2, 1), (2, 0), (1, 0, 0), (2, 1, 0), (2, 2, 1)]:
        product = oracle.weyl_denominator(len(lam), "q") * oracle.hall_littlewood(lam)
        assert hl_pattern_expansion(lam) == product


def test_hl_row_recursion_base_cases():
    assert hl_row_recursion((0,)) == Polynomial.one(1)
    assert hl_row_recursion((4,)) == monomial(1, (4,))


def test_hl_row_recursion_two_vars():
    xs, q, t = generators(2)
    assert hl_row_recursion((0, 0)) == (1 + t) * (xs[0] - q * xs[1])


def test_hl_row_recursion_matches_oracle():
    for lam in [(2,), (1, 1), (2, 0), (1, 0, 0), (2, 1, 0), (3, 1, 1),
                (1, 1, 0, 0, 0), (2, 1, 0, 0, 0)]:
        product = oracle.weyl_denominator(len(lam), "q") * oracle.hall_littlewood(lam)
        assert hl_row_recursion(lam) == product


def test_row_recursion_visits_non_strict_rows():
    # (2, 1, 0) has the non-strict next row (1, 1), whose shifted parts (1, 1)
    # minus the staircase give the ascending tuple (0, 1)
    assert (1, 1) in next_rows((2, 1, 0))


# ----------------------------------------------------------------------
# Tokuyama sums

def test_tokuyama_sum_small():
    xs, q, _ = generators(2)
    assert tokuyama_sum((0, 0)) == xs[0] - q * xs[1]
    assert tokuyama_sum((0,)) == Polynomial.one(1)


def test_tokuyama_sum_is_t_zero_specialization():
    for lam in [(1, 0), (2, 1), (1, 0, 0), (2, 1, 0)]:
        assert hl_pattern_expansion(lam).substitute("t", 0) == tokuyama_sum(lam)


def test_tokuyama_row_recursion():
    xs, q, _ = generators(2)
    assert tokuyama_row_recursion((0, 0)) == xs[0] - q * xs[1]
    assert tokuyama_row_recursion((0,)) == Polynomial.one(1)
    for lam in [(2, 1, 0), (1, 1, 0), (3, 0), (1, 1, 0, 0, 0), (2, 1, 0, 0, 0)]:
        product = oracle.weyl_denominator(len(lam), "q") * oracle.schur(lam)
        assert tokuyama_row_recursion(lam) == product


# ----------------------------------------------------------------------
# Stanley sums

def test_stanley_sum_small():
    xs, _, _ = generators(2)
    assert stanley_sum((1, 0)) == xs[0] + xs[1]
    assert stanley_sum((2, 0)) == xs[0] ** 2 + 2 * xs[0] * xs[1] + xs[1] ** 2
    assert stanley_sum((0,)) == Polynomial.one(1)


def test_stanley_sum_requires_strict():
    with pytest.raises(ValueError):
        stanley_sum((1, 1))


def test_stanley_filtered_sum():
    xs1, _, _ = generators(1)
    assert stanley_filtered_sum((0,)) == Polynomial.one(1)
    xs2, _, _ = generators(2)
    assert stanley_filtered_sum((1, 0)) == xs2[0] * (xs2[0] + xs2[1])
    expected = monomial(1, (2, 1, 0)) * oracle.hall_littlewood((1, 0, 0)).substitute("t", -1)
    assert stanley_filtered_sum((1, 0, 0)) == expected


def test_clear_caches_runs():
    transition_det((3, 1, 0), (2, 0))
    formulas.clear_caches()
    assert transition_det((3, 1, 0), (2, 0)) == ONE - Q + T - Q * T + Q * T ** 2


# ----------------------------------------------------------------------
# row-transfer engine against the per-pattern sum

ENGINE_GRID = [
    lam for n in range(1, 5) for lam in weakly_decreasing_tuples(n, 2)
] + [(1, 1, 0, 0, 0), (2, 1, 0, 0, 0)]

# name -> (pattern sum over top row lam + staircase, its pair weight);
# stanley_sum uses its strict argument itself as the top row.
ENGINE_ROUTES = {
    "hl": (hl_pattern_expansion, row_weight_sum),
    "tokuyama": (tokuyama_sum, tokuyama_pair_weight),
    "stanley": (lambda lam: stanley_sum(add_staircase(lam)), stanley_pair_weight),
    "filtered": (stanley_filtered_sum, filtered_pair_weight),
}


@pytest.mark.parametrize("route", sorted(ENGINE_ROUTES))
@pytest.mark.parametrize("lam", ENGINE_GRID, ids=lambda lam: ",".join(map(str, lam)))
def test_pattern_sums_match_per_pattern_reference(route, lam):
    evaluate, pair_weight = ENGINE_ROUTES[route]
    assert evaluate(lam) == pattern_sum_reference(add_staircase(lam), pair_weight)


@pytest.mark.parametrize("route", sorted(ENGINE_ROUTES))
def test_pattern_sums_repeat_exactly(route):
    evaluate, _ = ENGINE_ROUTES[route]
    lam = (2, 1, 1, 0)
    first = evaluate(lam)
    assert evaluate(lam) == first
    formulas.clear_caches()
    assert evaluate(lam) == first


def test_filter_is_a_row_pair_predicate():
    assert formulas._admits_filtered((4, 2, 0), (3, 1))
    assert not formulas._admits_filtered((4, 2, 0), (4, 1))  # left-equal entry
    # 2 sits on its upper-right parent, 1 one below its upper-left parent
    assert not formulas._admits_filtered((4, 2, 0), (2, 1))


def test_clear_caches_empties_every_cache():
    hl_pattern_expansion((2, 1, 0))
    stanley_filtered_sum((2, 1, 0))
    hl_row_recursion((2, 1, 0))
    caches = [
        value
        for module in (formulas, patterns, oracle)
        for value in vars(module).values()
        if hasattr(value, "cache_info") and value.__module__ == module.__name__
    ]
    assert caches and any(cache.cache_info().currsize for cache in caches)
    assert oracle._weyl_denominator.cache_info().currsize
    formulas.clear_caches()
    assert all(cache.cache_info().currsize == 0 for cache in caches)

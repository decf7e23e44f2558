from collections import Counter
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlgt import formulas, oracle, patterns
from hlgt.polyring import Polynomial, constant, generators, monomial, parameter
from hlgt.verify import grid
from hlgt.patterns import (
    _interleavings,
    GtPattern,
    add_staircase,
    enumerate_patterns,
    staircase,
    weakly_decreasing_tuples,
)
from hlgt.formulas import (
    elementary_raise,
    hl_pattern_expansion,
    hl_row_recursion,
    pattern_row_weights,
    raising_closure,
    row_weight_sum,
    stanley_filtered_sum,
    stanley_sum,
    tokuyama_row_quotient,
    tokuyama_sum,
    transition_det,
)

from helpers import (
    count_memoized_work,
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
    # A raise never makes a part negative.
    for parts, i in [((0, 0), 0), ((1, 0, 0), 1), ((2, 0, 1), 1)]:
        with pytest.raises(ValueError, match="cannot move a unit"):
            elementary_raise(parts, i)
    assert elementary_raise((1, 0), 0) == (0, 1)


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
            for mu in _interleavings(alpha):
                expected = laplace_det(tridiagonal_matrix(alpha, mu))
                assert transition_det(alpha, mu) == expected


# ----------------------------------------------------------------------
# row weight sums

def test_row_weight_sum_worked_example():
    assert row_weight_sum((3, 1, 0), (2, 0)) == (ONE - Q) * (ONE + T)
    assert row_weight_sum((2, 0), (1,)) == ONE - Q


def test_row_weight_sum_is_zero_below_a_row_it_does_not_interleave():
    # A lower row of the wrong length, and one with an entry above its parents.
    assert row_weight_sum((5, 3, 1), (4,)) == 0
    assert row_weight_sum((3, 1, 0), (4, 0)) == 0


def test_row_weight_sum_matches_its_definition():
    # t^length times the explicit determinant, summed over the closure images
    # that interleave with the upper row: every strict edge of the strict
    # rows of length 2-4 with parts <= 5, and every strict lower row of the
    # right length with parts <= 6 that is no edge.
    edges = raised = others = 0
    for length in range(2, 5):
        for alpha in strict_tuples(length, 5):
            for mu in strict_tuples(length - 1, 6):
                images = [op for op in raising_closure(mu) if patterns.interleaves(alpha, op.result)]
                expected = sum((T ** op.length * laplace_det(tridiagonal_matrix(alpha, op.result))
                                for op in images), start=Polynomial.zero(0))
                assert row_weight_sum(alpha, mu) == expected, (alpha, mu)
                if patterns.interleaves(alpha, mu):
                    edges += 1
                    raised += len(images) > 1
                else:
                    others += 1
    assert edges == sum(patterns.is_strictly_decreasing(mu) for length in range(2, 5)
                        for alpha in strict_tuples(length, 5) for mu in _interleavings(alpha))
    assert raised and others  # closures past the identity, and rows that are no edge


def test_row_weight_sum_accepts_any_sequence_as_its_rows():
    assert row_weight_sum([3, 1, 0], [2, 0]) == row_weight_sum((3, 1, 0), (2, 0))


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

TOP_ROW_ROUTES = [
    hl_pattern_expansion, formulas.hl_pattern_quotient, tokuyama_sum,
    formulas.tokuyama_quotient, formulas.hl_row_quotient, hl_row_recursion,
    tokuyama_row_quotient, stanley_sum, stanley_filtered_sum,
]


@pytest.mark.parametrize("route", TOP_ROW_ROUTES, ids=lambda route: route.__name__)
def test_an_empty_top_row_raises_value_error(route):
    with pytest.raises(ValueError):
        route(())


@pytest.mark.parametrize("a", range(5))
@pytest.mark.parametrize("route", TOP_ROW_ROUTES, ids=lambda route: route.__name__)
def test_a_one_part_top_row_gives_x1_to_its_part(route, a):
    # The walk's last edge drops a one-part row to the empty row.
    assert route((a,)) == monomial(1, (a,))


def test_hl_pattern_expansion_two_vars():
    xs, q, t = generators(2)
    assert hl_pattern_expansion((0, 0)) == (1 + t) * (xs[0] - q * xs[1])


def test_hl_pattern_expansion_matches_oracle():
    for lam in [(1,), (0, 0), (2, 1), (2, 0), (1, 0, 0), (2, 1, 0), (2, 2, 1)]:
        product = oracle.weyl_denominator(len(lam), "q") * oracle.hall_littlewood(lam)
        assert hl_pattern_expansion(lam) == product


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
    assert (1, 1) in _interleavings((2, 1, 0))


# ----------------------------------------------------------------------
# Tokuyama sums

def test_tokuyama_sum_small():
    xs, q, _ = generators(2)
    assert tokuyama_sum((0, 0)) == xs[0] - q * xs[1]
    assert tokuyama_sum((0,)) == Polynomial.one(1)


def test_tokuyama_sum_is_t_zero_specialization():
    for lam in [(1, 0), (2, 1), (1, 0, 0), (2, 1, 0)]:
        assert hl_pattern_expansion(lam).substitute("t", 0) == tokuyama_sum(lam)


def test_tokuyama_row_quotient():
    assert tokuyama_row_quotient((0, 0)) == Polynomial.one(2)
    assert tokuyama_row_quotient((0,)) == Polynomial.one(1)
    for lam in [(2, 1, 0), (1, 1, 0), (3, 0), (1, 1, 0, 0, 0), (2, 1, 0, 0, 0)]:
        assert tokuyama_row_quotient(lam) == oracle.schur(lam)


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


# The one edge weight of each pattern sum in ENGINE_ROUTES.
ROUTE_WEIGHTS = {"hl": "_strict_row_weight_sum", "tokuyama": "_strict_tokuyama_weight",
                 "stanley": "_stanley_weight", "filtered": "_filtered_weight"}

# Each of the 209 strict rows lam + staircase with n <= 6 and parts <= 3,
# paired with each of its non-strict next rows.
NON_STRICT_EDGES = [(alpha, mu) for alpha in map(add_staircase, grid(6, 3))
                    for mu in _interleavings(alpha) if not patterns.is_strictly_decreasing(mu)]


@pytest.mark.parametrize("weight", sorted(ROUTE_WEIGHTS.values()))
def test_each_strict_route_weight_is_zero_on_non_strict_rows(weight):
    # The walk in _row_sums keeps every edge whose weight is nonzero, so
    # each strict pattern sum relies on its own weight to drop these rows.
    assert len(NON_STRICT_EDGES) == 5202
    assert not any(getattr(formulas, weight)(alpha, mu) for alpha, mu in NON_STRICT_EDGES)


def test_the_row_recursion_weight_keeps_non_strict_rows():
    # Rows of one or two parts have no non-strict next row.
    assert len({alpha for alpha, _ in NON_STRICT_EDGES}) == 209 - 4 - 10
    assert sum(bool(formulas._det_weight(alpha, mu)) for alpha, mu in NON_STRICT_EDGES) == 4464


@pytest.mark.parametrize("route", sorted(ROUTE_WEIGHTS))
def test_the_walk_weighs_each_edge_once(route, monkeypatch):
    # A row reached from several parents is walked once, not once per parent.
    calls = Counter()
    weight = getattr(formulas, ROUTE_WEIGHTS[route])

    def spy(alpha, mu):
        calls[alpha, mu] += 1
        return weight(alpha, mu)

    monkeypatch.setattr(formulas, ROUTE_WEIGHTS[route], spy)
    evaluate, pair_weight = ENGINE_ROUTES[route]
    lam = (3, 2, 1, 0)  # strict, so the filtered sum is nonzero
    assert evaluate(lam) == pattern_sum_reference(add_staircase(lam), pair_weight)
    assert {len(alpha) for alpha, _ in calls} == {4, 3, 2, 1}
    assert set(calls.values()) == {1}


def test_filter_is_a_row_pair_predicate():
    def admits(upper, lower):
        return formulas._admits_filtered(patterns._row_labels(upper, lower))

    assert admits((4, 2, 0), (3, 1))
    assert not admits((4, 2, 0), (4, 1))  # left-equal entry
    # 2 sits on its upper-right parent, 1 one below its upper-left parent
    assert not admits((4, 2, 0), (2, 1))


# ----------------------------------------------------------------------
# Gelfand's parametrization: GT patterns with top row lam index the
# monomials of s_lam, and Tokuyama's sum at q = 0 is x^staircase times it

GELFAND_GRID = [lam for n in range(1, 5) for lam in weakly_decreasing_tuples(n, 3)]  # 69


@pytest.mark.parametrize("lam", GELFAND_GRID, ids=lambda lam: ",".join(map(str, lam)))
def test_gelfand_parametrization(lam):
    gelfand = Polynomial.zero(len(lam))
    for pattern in enumerate_patterns(lam):
        gelfand = gelfand + monomial(1, pattern.weight())
    assert gelfand == oracle.schur(lam)
    assert tokuyama_sum(lam).substitute("q", 0) == monomial(1, staircase(len(lam))) * gelfand


def test_clear_caches_empties_every_cache():
    hl_pattern_expansion((2, 1, 0))
    stanley_filtered_sum((2, 1, 0))
    hl_row_recursion((2, 1, 0))
    tokuyama_sum((2, 1, 0))
    caches = [
        value
        for module in (formulas, patterns, oracle)
        for value in vars(module).values()
        if hasattr(value, "cache_info") and value.__module__ == module.__name__
    ]
    assert caches and any(cache.cache_info().currsize for cache in caches)
    assert oracle._weyl_denominator.cache_info().currsize
    assert oracle._signs.cache_info().currsize
    assert oracle._shifts.cache_info().currsize
    assert formulas._tokuyama_factor.cache_info().currsize
    # The tables one verify run shares between its suites.
    formulas.hl_pattern_quotient((2, 1, 0))
    shared = (formulas._row_quotient, oracle._schur_coefficients)
    assert all(table.cache_info().currsize for table in shared)
    formulas.clear_caches()
    assert all(cache.cache_info().currsize == 0 for cache in caches)


# ----------------------------------------------------------------------
# packed q,t coefficients: pack -> multiply-add -> unpack

def qt_polynomials(max_exp=4, bound=10 ** 6, n_vars=0):
    mono = st.tuples(*([st.integers(0, max_exp)] * (n_vars + 2)))
    return st.dictionaries(mono, st.integers(-bound, bound), max_size=6).map(
        lambda terms: Polynomial(n_vars, terms))


def packed(layout, terms):
    # A {(q, t): c} map, a weight or a q,t Polynomial's terms, as one packed int.
    return layout.pack(terms).get((), 0)


@settings(max_examples=80)
@given(qt_polynomials(), qt_polynomials(), qt_polynomials())
def test_packed_multiply_add_matches_polynomial_arithmetic(a, b, c):
    (aq, at, al), (bq, bt, bl), (cq, ct, cl) = (formulas._bounds(p._terms) for p in (a, b, c))
    layout = formulas._Layout.proven(max(aq + bq, cq), max(at + bt, ct), al * bl + cl)
    value = packed(layout, a._terms) * packed(layout, b._terms) + packed(layout, c._terms)
    assert layout.unpack(0, {(): value}) == a * b + c


@settings(max_examples=40)
@given(qt_polynomials(n_vars=2))
def test_pack_groups_terms_by_x_monomial(p):
    layout = formulas._Layout.proven(*formulas._bounds(p._terms))
    assert all(len(xs) == 2 for xs in layout.pack(p._terms))
    assert layout.unpack(2, layout.pack(p._terms)) == p


@settings(max_examples=60)
@given(st.sampled_from([8, 16, 32, 64]),
       st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.sampled_from([-1, 1]),
                       min_size=1, max_size=16))
def test_extreme_field_values_round_trip(width, signs):
    # Coefficients of exactly +-(2**(width-1) - 1), the largest a field
    # of each byte-aligned width holds.
    top = 2 ** (width - 1) - 1
    layout = formulas._Layout.proven(3, 3, top)
    assert layout.width == width
    units = Polynomial(0, signs)
    poly = units * top
    assert layout.unpack(0, layout.pack(poly._terms)) == poly
    # the same extremes reached by a product
    value = packed(layout, units._terms) * packed(layout, constant(top, 0)._terms)
    assert layout.unpack(0, {(): value}) == poly


@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_proven_picks_the_next_field_size_at_each_boundary(width):
    # An L1 bound of 2**(w-1) - 1 needs w bits with the sign; 2**(w-1) needs w + 1.
    assert formulas._Layout.proven(0, 0, 2 ** (width - 1) - 1).width == width
    if width < 64:
        assert formulas._Layout.proven(0, 0, 2 ** (width - 1)).width == 2 * width
    else:
        with pytest.raises(formulas.PatternSizeError, match="need 65-bit fields"):
            formulas._Layout.proven(0, 0, 2 ** 63)


@pytest.mark.parametrize("lam", GELFAND_GRID, ids=lambda lam: ",".join(map(str, lam)))
def test_proven_bounds_cover_the_result(lam, monkeypatch):
    # The drop-grouped bound pass must cover the q-degree, the t-degree and
    # the largest per-x-monomial L1 norm that each pattern sum really has.
    proven = []
    top_bounds = formulas._top_bounds

    def spy(*args):
        proven.append(top_bounds(*args))
        return proven[-1]

    monkeypatch.setattr(formulas, "_top_bounds", spy)
    for total in (hl_pattern_expansion, tokuyama_sum, stanley_filtered_sum):
        proven.clear()
        result = total(lam)
        [bound] = proven
        assert all(b >= r for b, r in zip(bound, formulas._bounds(result._terms))), (total, bound)


@settings(max_examples=60)
@given(qt_polynomials(max_exp=2, bound=100), st.integers(1, 4), st.integers(0, 2),
       st.sampled_from([-100, -1, 1, 100]))
def test_unpack_rejects_a_digit_beyond_the_proven_q_degree(p, beyond, t, c):
    # p's at most six coefficients and the stray one are each at most 100.
    layout = formulas._Layout.proven(2, 2, 100 * 7)
    stray = Polynomial(0, {(2 + beyond, t): c})
    # Both exits of a packed sum decode through the same range check.
    for exit_ in (layout.unpack, layout.to_json):
        with pytest.raises(ArithmeticError, match="beyond q-degree 2"):
            exit_(0, {(): packed(layout, (p + stray)._terms)})


@pytest.mark.parametrize("record, fields", [
    (formulas.RaisingOperator((1, 1), 1), ("result", "length")),
    (formulas._Layout(8, 1, 0), ("width", "q_deg", "t_deg")),
], ids=["RaisingOperator", "_Layout"])
def test_record_types_are_immutable_values(record, fields):
    kind = type(record)
    assert kind._fields == fields
    twin = kind(*(getattr(record, name) for name in fields))
    assert twin == record and hash(twin) == hash(record) and len({twin, record}) == 1
    assert record != record._replace(**{fields[-1]: 5})
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


@st.composite
def packed_sums(draw):
    """(layout, n_vars, packed): any field width, q,t coefficients of any sign up
    to the width's largest, x-parts of unrelated degrees, empty ones too."""
    width = draw(st.sampled_from([8, 16, 32, 64]))
    layout = formulas._Layout(width, draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    top = 2 ** (width - 1) - 1
    coeff = st.one_of(st.sampled_from([-top, -1, 1, top]), st.integers(-top, top))
    qt = st.dictionaries(st.tuples(st.integers(0, layout.q_deg), st.integers(0, layout.t_deg)),
                         coeff, max_size=6)
    n_vars = draw(st.integers(0, 3))
    parts = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n_vars), qt, max_size=8))
    return layout, n_vars, {xs: packed(layout, c) for xs, c in parts.items()}


@settings(max_examples=200)
@given(packed_sums())
@example((formulas._Layout(8, 0, 0), 2, {}))
@example((formulas._Layout(16, 1, 1), 2, {(1, 0): 0, (0, 1): -1 << 16}))
@example((formulas._Layout(64, 1, 0), 1, {(2,): 2 ** 63 - 1, (0,): -1 << 64}))
# One nonzero term: the only separator cut is the last term's own.
@example((formulas._Layout(8, 1, 1), 2, {(1, 0): 5 << 8}))
# Every value decodes to zero: no term at all.
@example((formulas._Layout(16, 1, 1), 1, {(0,): 0, (2,): 0}))
# Two x-parts of degree 2, one coefficient in all four slots of each:
# cached heads are reused and each bucket interleaves the two x-parts.
@example((formulas._Layout(8, 1, 1), 2, dict.fromkeys([(2, 0), (1, 1)], 3 * 0x01010101)))
def test_the_packed_json_writer_matches_the_polynomial_writer(case):
    layout, n_vars, packed = case
    assert layout.to_json(n_vars, packed) == layout.unpack(n_vars, packed).to_json()


def test_the_packed_json_writer_keeps_nothing_between_calls():
    # Alternate layouts of other widths, t-degrees and variable counts,
    # sharing coefficients, so a head or tail kept from the call before
    # would show in the text.
    small = formulas._Layout(8, 1, 0)
    wide = formulas._Layout(32, 2, 2)
    cases = [
        (small, 1, {(1,): small.pack({(0, 0): 7, (1, 0): -2})[()]}),
        (wide, 3, {(1, 0, 2): wide.pack({(0, 0): 7, (1, 2): -2, (2, 1): 7})[()],
                   (0, 0, 0): wide.pack({(2, 2): 1})[()]}),
    ]
    for layout, n_vars, packed in cases * 2:
        assert layout.to_json(n_vars, packed) == layout.unpack(n_vars, packed).to_json()


# ----------------------------------------------------------------------
# the pattern sums in the quotient: exact packed division by x_i - q x_j

QUOTIENT_GRID = [
    lam for n in range(1, 6) for lam in weakly_decreasing_tuples(n, 3)
] + list(weakly_decreasing_tuples(6, 1))  # 132

# name -> (quotient route, the oracle polynomial it must equal)
QUOTIENT_ROUTES = {
    "closed": (formulas.hl_pattern_quotient, oracle.hall_littlewood),
    "tokuyama": (formulas.tokuyama_quotient, oracle.schur),
    "hl_row": (formulas.hl_row_quotient, oracle.hall_littlewood),
    "tokuyama_row": (formulas.tokuyama_row_quotient, oracle.schur),
}


@pytest.mark.parametrize("route", sorted(QUOTIENT_ROUTES))
@pytest.mark.parametrize("lam", QUOTIENT_GRID, ids=lambda lam: ",".join(map(str, lam)))
def test_quotients_equal_the_oracle(route, lam):
    quotient, expected = QUOTIENT_ROUTES[route]
    assert quotient(lam) == expected(lam)


def pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def proven_packing(poly):
    layout = formulas._Layout.proven(*formulas._bounds(poly._terms))
    return layout, layout.pack(poly._terms)


CLOSED_2110 = hl_pattern_expansion((2, 1, 1, 0))


def test_packed_division_of_a_closed_sum_gives_hl():
    layout, dividend = proven_packing(CLOSED_2110)
    hl = oracle.hall_littlewood((2, 1, 1, 0))
    assert layout.quotient(4, dividend, pairs(4)) == (hl, formulas._bounds(hl._terms))


@settings(max_examples=40)
@given(st.data())
def test_a_field_changed_by_one_raises(data):
    layout, dividend = proven_packing(CLOSED_2110)
    xs = data.draw(st.sampled_from(sorted(dividend)))
    field = data.draw(st.integers(0, (layout.q_deg + 1) * (layout.t_deg + 1) - 1))
    dividend[xs] += data.draw(st.sampled_from([-1, 1])) << layout.width * field
    with pytest.raises(ArithmeticError, match="does not divide"):
        layout.quotient(4, dividend, pairs(4))


@pytest.mark.parametrize("route", sorted(QUOTIENT_ROUTES))
def test_a_perturbed_engine_result_raises(route, monkeypatch):
    # The engine's own packed result, one q,t coefficient off by one.
    row_sums = formulas._row_sums

    def perturbed(*args):
        packed, layout = row_sums(*args)
        packed[min(packed)] += 1 << layout.width
        return packed, layout

    monkeypatch.setattr(formulas, "_row_sums", perturbed)
    quotient, _ = QUOTIENT_ROUTES[route]
    with pytest.raises(formulas.QuotientError):
        quotient((2, 1, 0))


def test_a_failed_proof_is_never_memoized(monkeypatch):
    # Only the top row's step is off by one; the rows below it are proven
    # and memoized on the first call, and the top is stepped on every call
    # until its proof holds.
    calls = count_memoized_work(monkeypatch)
    row_sums = formulas._row_sums

    def perturbed(top, *args):
        packed, layout = row_sums(top, *args)
        if len(top) == 3:
            packed[min(packed)] += 1
        return packed, layout

    monkeypatch.setattr(formulas, "_row_sums", perturbed)
    for _ in range(2):
        with pytest.raises(formulas.QuotientError):
            formulas.hl_pattern_quotient((2, 1, 0))
    steps = Counter(calls["closed_rows"])
    assert steps[(4, 2, 0)] == 2 and set(steps.values()) == {1, 2}
    monkeypatch.setattr(formulas, "_row_sums", row_sums)
    for _ in range(2):
        assert formulas.hl_pattern_quotient((2, 1, 0)) == oracle.hall_littlewood((2, 1, 0))
    steps = Counter(calls["closed_rows"])
    assert steps[(4, 2, 0)] == 3 and set(steps.values()) == {1, 3}


def test_each_proven_row_is_bounded_once(monkeypatch):
    # A cold quotient bounds one x-polynomial per row step: the H(row) that
    # step proves.  The step above reads those bounds from H's memo entry.
    calls = count_memoized_work(monkeypatch)
    bounds, bounded = formulas._bounds, []

    def spy(terms):
        if any(len(key) > 2 for key in terms):  # not a {(q, t): c} weight
            bounded.append(terms)
        return bounds(terms)

    monkeypatch.setattr(formulas, "_bounds", spy)
    formulas.hl_pattern_quotient((2, 2, 1, 0, 0))
    assert len(bounded) == len(calls["closed_rows"]) == 83
    # Every memo entry keeps the bounds of its own H.
    misses = formulas._row_quotient.cache_info().misses
    for row in calls["closed_rows"]:
        h, proven = formulas._row_quotient(row, formulas._strict_row_weight_sum)
        assert proven == bounds(h._terms), row
    assert formulas._row_quotient.cache_info().misses == misses


def test_a_perturbed_inner_edge_weight_raises_until_it_is_removed(monkeypatch):
    # One more edge weight on the length-2 rows only: the step that first
    # sums them fails its proof, and nothing above it is memoized.
    row_weight_sum = formulas._row_weight_sum

    def perturbed(upper, lower):
        weight = row_weight_sum(upper, lower)
        if len(upper) != 2:
            return weight
        weight = {**weight, (0, 0): weight.get((0, 0), 0) + 1}
        return {key: c for key, c in weight.items() if c}

    monkeypatch.setattr(formulas, "_row_weight_sum", perturbed)
    with pytest.raises(formulas.QuotientError, match=r"x1 - q\*x2 does not divide"):
        formulas.hl_pattern_quotient((1, 0, 0))
    monkeypatch.setattr(formulas, "_row_weight_sum", row_weight_sum)
    assert formulas.hl_pattern_quotient((1, 0, 0)) == oracle.hall_littlewood((1, 0, 0))


def test_both_quotient_routes_share_one_process_without_sharing_rows():
    # The row memo is keyed by the edge weight too, so calling both routes on
    # two grids with no clear_caches between them mixes no HL and Tokuyama rows.
    for lam in [*grid(5, 3), *grid(6, 2)]:
        assert formulas.hl_pattern_quotient(lam) == oracle.hall_littlewood(lam), lam
        assert formulas.tokuyama_quotient(lam) == oracle.schur(lam), lam


def test_a_quotient_holding_q_raises():
    x1 = monomial(1, (1, 0))
    layout, dividend = proven_packing(oracle.weyl_denominator(2, "q") * parameter("q", 2) * x1)
    with pytest.raises(formulas.QuotientError, match="holds q"):
        layout.quotient(2, dividend, pairs(2))


def test_more_factors_than_the_proven_q_degree_raise():
    layout, dividend = proven_packing(monomial(1, (2, 0)))
    with pytest.raises(formulas.QuotientError, match="exceed the proven q-degree 0"):
        layout.quotient(2, dividend, pairs(2))


@settings(max_examples=200)
@given(st.data())
def test_the_quotient_accepts_exactly_the_products_that_fit(data):
    # H is q-free with coefficients within 8-bit fields, so the quotient
    # decodes it; the product F * H fits the fields exactly when
    # N * prod (x_i + x_j) does, N being H's per-x-monomial L1 norms.
    n = data.draw(st.integers(2, 3))
    mono = st.tuples(*[st.integers(0, 2)] * n, st.just(0), st.integers(0, 1))
    h = Polynomial(n, data.draw(st.dictionaries(mono, st.integers(-127, 127), max_size=5)))
    factors = data.draw(st.lists(st.sampled_from(pairs(n)), max_size=4))
    xs, q, _ = generators(n)
    norms = {}
    for m, c in h._terms.items():
        norms[m[:n] + (0, 0)] = norms.get(m[:n] + (0, 0), 0) + abs(c)
    one = constant(1, n)
    product_norms = Polynomial(n, norms) * prod((xs[i] + xs[j] for i, j in factors), start=one)
    layout = formulas._Layout(8, len(factors), 1)
    dividend = layout.pack((prod((xs[i] - q * xs[j] for i, j in factors), start=one) * h)._terms)
    if max(product_norms._terms.values(), default=0) < 128:
        assert layout.quotient(n, dividend, factors) == (h, formulas._bounds(h._terms))
    else:
        with pytest.raises(formulas.QuotientError, match="overflow 8-bit fields"):
            layout.quotient(n, dividend, factors)


def test_a_failed_cheap_bound_falls_back_to_the_convolution():
    # H = 127 (x1^2 + x2^2): 2 * max L1(H) = 254 does not fit 8-bit fields,
    # but (x1 - q x2) * H has L1 norm 127 at each of its x-monomials.
    h = monomial(127, (2, 0)) + monomial(127, (0, 2))
    layout = formulas._Layout(8, 1, 0)
    dividend = layout.pack((oracle.weyl_denominator(2, "q") * h)._terms)
    assert layout.quotient(2, dividend, [(0, 1)]) == (h, (0, 0, 127))


def test_a_product_beyond_the_fields_raises():
    # H = 127 (x1 + x2): (x1 - q x2) * H has L1 norm 254 at x1 x2.
    h = monomial(127, (1, 0)) + monomial(127, (0, 1))
    layout = formulas._Layout(8, 1, 0)
    dividend = layout.pack((oracle.weyl_denominator(2, "q") * h)._terms)
    with pytest.raises(formulas.QuotientError, match="overflow 8-bit fields"):
        layout.quotient(2, dividend, [(0, 1)])

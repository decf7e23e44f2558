"""Shared test utilities: independent determinant, pattern-sum, alternant, Vandermonde-division and JSON oracles, variable permutations, tuple grids and a memo spy."""

import json
from itertools import combinations, permutations

from hlgt import (
    Polynomial,
    constant,
    entry_labels,
    enumerate_patterns,
    formulas,
    monomial,
    oracle,
    parameter,
    permutation_sign,
    staircase,
    weyl_denominator,
)
from hlgt.patterns import ALMOST_LEFT, LEFT, RIGHT


def permuted(p, sigma):
    """p under the variable permutation x_i -> x_{sigma[i]} (0-based images).

    ``sigma`` must be a bijection on range(p.n_vars); q and t exponents are
    untouched.
    """
    n = p.n_vars
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError("sigma is not a bijection on the variable indices")
    out = {}
    for mono, coeff in p.terms():
        xs = [0] * n
        for k, slot in enumerate(sigma):
            xs[slot] = mono[k]
        out[tuple(xs) + mono[n:]] = coeff
    return Polynomial(n, out)


def x_coefficient(p, x_exps):
    """The q,t polynomial (n_vars = 0) multiplying the x-monomial x^x_exps in p."""
    n = p.n_vars
    return Polynomial(0, {mono[n:]: c for mono, c in p.terms() if mono[:n] == tuple(x_exps)})


def orbit_sum(reps, n, weights):
    """sum over sigma in S_n of weights[sigma] * sigma(term), over the terms of reps.

    ``weights`` holds one weight per permutation, in the order of
    ``itertools.permutations(range(n))``.
    """
    # permutations(xs) yields (xs[p[0]], ..., xs[p[n-1]]): the image of the
    # term under the inverse of p, whose sign is p's.
    return Polynomial._collect(n, (
        (image + mono[n:], weight * coeff)
        for mono, coeff in reps.items()
        for image, weight in zip(permutations(mono[:n]), weights)))


def divide_vandermonde(p):
    """p divided exactly by prod_{i<j} (x_i - x_j), one factor at a time.

    The factors go in (i, j) lexicographic order; a nonzero remainder at
    any step raises ArithmeticError.
    """
    n = p.n_vars
    for i in range(n):
        for j in range(i + 1, n):
            p = p.divide_by_diff(i, j)
    return p


def orbit_alternant(terms, n):
    """sum over sigma in S_n of sign(sigma) * sigma(terms), through the oracle's alternant pass.

    The pass gives the coefficient of each a_(mu + rho); its representative
    x^(mu + rho) is expanded over S_n with the signs.
    """
    rho = staircase(n)
    reps = {tuple(m + r for m, r in zip(mu, rho)) + qt: c
            for mu, coeff in oracle._alternant(terms, (0,) * n).items()
            for qt, c in coeff.items()}
    return orbit_sum(reps, n, oracle._signs(n).values())


def product_schur_coefficients(kappa):
    """oracle.schur_coefficients(kappa) through the full product x^kappa * v_n(x;t).

    Each term with distinct x-exponents is sorted into decreasing order,
    and its coefficient, times ``permutation_sign`` of the sort, is
    collected on mu = sorted exponents - staircase.
    """
    n = len(kappa)
    grouped = {}
    for mono, coeff in (monomial(1, kappa) * weyl_denominator(n, "t")).terms():
        xs = mono[:n]
        if len(set(xs)) < n:
            continue
        order = sorted(range(n), key=xs.__getitem__, reverse=True)
        mu = tuple(xs[k] - (n - 1 - i) for i, k in enumerate(order))
        qt = grouped.setdefault(mu, {})
        qt[mono[n:]] = qt.get(mono[n:], 0) + permutation_sign(order) * coeff
    coefficients = {mu: Polynomial(0, qt) for mu, qt in grouped.items()}
    return {mu: coefficients[mu] for mu in sorted(grouped, reverse=True) if coefficients[mu]}


def literal_alternant(p):
    """sum over sigma in S_n of sign(sigma) * sigma(p), copy by copy."""
    n = p.n_vars
    total = Polynomial.zero(n)
    for sigma in permutations(range(n)):
        image = permuted(p, sigma)
        total = total + (image if permutation_sign(sigma) == 1 else -image)
    return total


def literal_numerator(kappa):
    """sum over sigma in S_n of sign(sigma) * sigma(x^kappa * prod_{i<j}(x_i - t x_j)), copy by copy."""
    return literal_alternant(monomial(1, kappa) * weyl_denominator(len(kappa), "t"))


def laplace_det(matrix):
    """Cofactor expansion along the first row; independent of the recurrence."""
    n = len(matrix)
    if n == 0:
        return constant(1, 0)
    if n == 1:
        return matrix[0][0]
    total = Polynomial.zero(0)
    for col, entry in enumerate(matrix[0]):
        if not entry:
            continue
        minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
        term = entry * laplace_det(minor)
        total = total + (term if col % 2 == 0 else -term)
    return total


def tridiagonal_matrix(alpha, mu):
    """Explicit tridiagonal matrix whose determinant weights (alpha, mu).

    Its entries are the label-pair weights of ``entry_labels``; the
    determinant recurrence is never called.
    """
    m = len(mu)
    labels = [entry_labels(alpha, mu, k) for k in range(m)]
    rows = [[Polynomial.zero(0)] * m for _ in range(m)]
    for a in range(m):
        rows[a][a] = formulas._diagonal_weight(*labels[a])
        if a + 1 < m:
            rows[a][a + 1] = constant(1, 0)
            rows[a + 1][a] = formulas._subdiagonal_weight(labels[a], labels[a + 1])
    return rows


def strict_tuples(length, max_part):
    """All strictly decreasing tuples of the given length with parts <= max_part."""
    return [
        tuple(sorted(combo, reverse=True))
        for combo in combinations(range(max_part + 1), length)
    ]


def coeff_sum(poly):
    """Value of an x-only polynomial at x_1 = ... = x_n = 1."""
    return sum(c for _, c in poly.terms())


def pattern_sum_reference(top, pair_weight):
    """Sum over strict patterns with top row ``top``, one pattern at a time.

    Each pattern contributes the product of ``pair_weight(upper, lower)``
    (a q,t polynomial) over its consecutive row pairs, times x^weight.
    """
    acc = {}
    for pattern in enumerate_patterns(top, strict=True):
        coeff = constant(1, 0)
        for upper, lower in zip(pattern.rows, pattern.rows[1:]):
            coeff = coeff * pair_weight(upper, lower)
        for mono, c in coeff.terms():
            key = pattern.weight() + mono
            acc[key] = acc.get(key, 0) + c
    return Polynomial(len(top), acc)


def _left_special(upper, lower):
    labels = [entry_labels(upper, lower, k) for k in range(len(lower))]
    left = sum(lbl.left == LEFT for lbl in labels)
    special = sum(lbl.left != LEFT and lbl.right != RIGHT for lbl in labels)
    return left, special


def tokuyama_pair_weight(upper, lower):
    """(-q)^left * (1-q)^special of one row pair."""
    q = parameter("q", 0)
    left, special = _left_special(upper, lower)
    return (-q) ** left * (1 - q) ** special


def stanley_pair_weight(upper, lower):
    """2^special of one row pair."""
    return constant(2 ** _left_special(upper, lower)[1], 0)


def filtered_pair_weight(upper, lower):
    """Diagonal-weight product at q = 0, t = -1, or 0 when the pair is filtered out."""
    labels = [entry_labels(upper, lower, k) for k in range(len(lower))]
    if any(lbl.left == LEFT for lbl in labels):
        return Polynomial.zero(0)
    if any(a.right == RIGHT and b.left == ALMOST_LEFT for a, b in zip(labels, labels[1:])):
        return Polynomial.zero(0)
    coeff = constant(1, 0)
    for lbl in labels:
        coeff = coeff * formulas._diagonal_weight(*lbl)
    return coeff.substitute("q", 0).substitute("t", -1)


def canonical_terms(poly):
    """Terms sorted by one Python key: graded-lex descending on (x.., q, t)."""
    return sorted(poly._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)


def reference_json(poly):
    """The canonical JSON text through one dict per term and ``json.dumps``."""
    n = poly.n_vars
    return json.dumps({
        "n_vars": n,
        "terms": [
            {"c": str(c), "x": list(m[:n]), "q": m[n], "t": m[n + 1]}
            for m, c in canonical_terms(poly)
        ],
    })


def count_memoized_work(monkeypatch):
    """Record the rows the closed quotient steps, and count the misses of the Schur-coefficient memo.

    The quotient step and the alternant pass sit below their memo tables,
    so each recorded row and each count is a cache miss.
    """
    counts = {"closed_rows": [], "schur_coefficients": 0}
    one_step, alternant = formulas._one_step, oracle._alternant

    def spy_one_step(alpha, weight, inner):
        if weight is formulas._strict_row_weight_sum:
            counts["closed_rows"].append(alpha)
        return one_step(alpha, weight, inner)

    def spy_alternant(terms, kappa):
        counts["schur_coefficients"] += 1
        return alternant(terms, kappa)

    monkeypatch.setattr(formulas, "_one_step", spy_one_step)
    monkeypatch.setattr(oracle, "_alternant", spy_alternant)
    return counts

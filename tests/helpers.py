"""Shared test utilities: independent determinant, pattern-sum, alternant and JSON oracles, variable permutations, tuple grids and a memo spy."""

import json
from itertools import combinations, permutations

from hlgt import (
    Polynomial,
    constant,
    diagonal_weight,
    entry_labels,
    enumerate_patterns,
    formulas,
    monomial,
    oracle,
    parameter,
    permutation_sign,
    subdiagonal_weight,
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


def orbit_alternant(terms, n):
    """sum over sigma in S_n of sign(sigma) * sigma(terms), through the oracle's orbit representatives."""
    return oracle._orbit_sum(oracle._signed_reps(terms, n), n, oracle._signs(n))


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
    """Explicit tridiagonal matrix whose determinant weights (alpha, mu)."""
    m = len(mu)
    rows = [[Polynomial.zero(0)] * m for _ in range(m)]
    for a in range(m):
        rows[a][a] = diagonal_weight(alpha, mu, a)
        if a + 1 < m:
            rows[a][a + 1] = constant(1, 0)
            rows[a + 1][a] = subdiagonal_weight(alpha, mu, a + 1)
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
    for k in range(len(lower)):
        coeff = coeff * diagonal_weight(upper, lower, k)
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
    """Count the runs of the divided closed transfer and of the Schur-coefficient pass.

    Both sit below their memo tables, so the counts are cache misses.
    """
    counts = {"closed_quotient": 0, "schur_coefficients": 0}
    transfer, signed_reps = formulas._transfer, oracle._signed_reps

    def spy_transfer(top, edge_weight, divide=False):
        if divide and edge_weight is formulas._row_weight_sum:
            counts["closed_quotient"] += 1
        return transfer(top, edge_weight, divide)

    def spy_signed_reps(terms, n):
        counts["schur_coefficients"] += 1
        return signed_reps(terms, n)

    monkeypatch.setattr(formulas, "_transfer", spy_transfer)
    monkeypatch.setattr(oracle, "_signed_reps", spy_signed_reps)
    return counts

"""Pattern-by-pattern expansion of the deformed denominator times HL_(1,0,0).

Walks the strict patterns with top row (3, 1, 0), shows each pattern's
per-row weight sums (raising-operator closure summed against the
transition determinant), and confirms the total equals the brute-force
product.
"""

from hlgt import (
    Polynomial,
    enumerate_patterns,
    hall_littlewood,
    hl_pattern_expansion,
    pattern_row_weights,
    raising_closure,
    transition_det,
    weyl_denominator,
)

lam = (1, 0, 0)
top = (3, 1, 0)

print("== raising closure of the middle row (2, 0) ==")
for op in raising_closure((2, 0)):
    det = transition_det(top, op.result)
    print(f"  image {op.result}  raises {op.length}  det = {det}")

print()
print("== every strict pattern and its coefficient ==")
total_terms = 0
for pattern in enumerate_patterns(top, strict=True):
    weights = pattern_row_weights(pattern)
    coeff = weights[0]
    for w in weights[1:]:
        coeff = coeff * w
    print(f"  rows {pattern.rows}  m = {pattern.weight()}")
    print(f"    row weights: {[str(w) for w in weights]}")
    print(f"    coefficient: {coeff}")
    total_terms += 1

print()
expansion = hl_pattern_expansion(lam)
product = weyl_denominator(3, "q") * hall_littlewood(lam)
print(f"{total_terms} patterns, expansion equals oracle product: {expansion == product}")
x_coeff = {mono[3:]: c for mono, c in product.terms() if mono[:3] == (2, 1, 1)}
print("coefficient of x1^2 x2 x3:", Polynomial(0, x_coeff))

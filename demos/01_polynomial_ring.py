"""Tour of the exact polynomial ring Z[x_1..x_n, q, t].

Everything is integer-exact and immutable; equality is structural, so two
routes to the same polynomial compare equal bit for bit.
"""

from hlgt import Polynomial, generators

xs, q, t = generators(3)
x1, x2, x3 = xs

print("== arithmetic ==")
p = (x1 - t * x2) * (x1 - x2)
print("(x1 - t*x2)(x1 - x2) =", p)
print("plus its negative    =", p + (-p))

print()
print("== exact division by a variable difference ==")
h = x1 ** 3 - x3 ** 3
print("x1^3 - x3^3          =", h)
print("divided by (x1 - x3) =", h.divide_by_diff(0, 2))

print()
print("== parameter specialization ==")
w = (1 - q) * (1 - t)
print("(1-q)(1-t)        =", w)
print("at t = -1         =", w.substitute("t", -1))
print("at t = 0          =", w.substitute("t", 0))

print()
print("== canonical JSON round trip ==")
big = Polynomial(2, {(1, 0, 2, 0): 10 ** 30, (0, 1, 0, 1): -1})
text = big.to_json()
print(text)
print("round trips:", Polynomial.from_json(text) == big)

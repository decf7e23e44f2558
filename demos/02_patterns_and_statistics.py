"""Gelfand-Tsetlin patterns and the entry statistics that weight them.

Shows pattern enumeration for a top row, the classic leaning counts, the
refined per-entry labels, and the diagonal/subdiagonal weights built from
them.
"""

from hlgt import (
    diagonal_weight,
    entry_labels,
    enumerate_patterns,
    subdiagonal_weight,
)

print("== rows that fit under (3, 1, 0) ==")
# the second rows of all patterns under (3, 1, 0), each once, in pattern order
for mu in dict.fromkeys(p.rows[1] for p in enumerate_patterns((3, 1, 0))):
    print(" ", mu)

print()
print("== strict patterns with top row (2, 0) ==")
for pattern in enumerate_patterns((2, 0), strict=True):
    for line in pattern.triangle_lines():
        print("   " + line)
    left, right, special = pattern.leaning_counts()
    print(f"   m = {pattern.weight()}  left={left} right={right} special={special}")
    print()

print("== refined labels for the rows (5, 3, 1) over (4, 3) ==")
upper, lower = (5, 3, 1), (4, 3)
for i, entry in enumerate(lower):
    labels = entry_labels(upper, lower, i)
    print(f"  entry {entry}: left={labels.left!r} right={labels.right!r}"
          f"  diagonal weight = {diagonal_weight(upper, lower, i)}")
print(f"  subdiagonal weight at position 1 = {subdiagonal_weight(upper, lower, 1)}")

"""Timing the O(n!) oracle against the GT-pattern route to HL_lam(x;t).

The oracle collects the alternant over all n! permutations in one pass
and solves a_rho * HL = alternant in one triangular solve, with no
division; the pattern route walks strict GT patterns row by row and
divides each row step exactly by its factors of v_n(x;q), with a proof,
so it never forms the whole sum.  This runs ``hlgt bench``, which times both routes on every
partition, checks that they give the identical HL_lam before it writes a
row, and prints a table followed by the same rows as CSV.
"""

import sys

from hlgt import cli

sys.exit(cli.main(["bench", "--n", "3,4", "--max-part", "2"]))

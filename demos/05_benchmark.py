"""Timing the O(n!) oracle against the GT-pattern evaluation.

The oracle antisymmetrizes over all n! permutations and divides exactly;
the pattern expansion sums over strict GT patterns, row by row.  This runs
``hlgt bench``, which times both routes on every partition, checks that
they give the identical polynomial before it writes a row, and prints a
table followed by the same rows as CSV.
"""

import sys

from hlgt import cli

sys.exit(cli.main(["bench", "--n", "3,4", "--max-part", "2"]))

"""Write perfbench/reference.json: digests of the outputs the gate accepts.

Each digest comes from the route the workload does *not* time:

* pattern_n5 (closed and tokuyama modes) against the n! oracle:
  v_n(x;q) * HL_lam and v_n(x;q) * s_lam;
* oracle_n5 (oracle mode, which prints HL_lam) against the GT-pattern
  route: the closed pattern expansion of v_n(x;q) * HL_lam divided
  exactly by every factor (x_i - q x_j) of v_n(x;q).

Run from the root of the repository (takes a few minutes):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hlgt import formulas, oracle  # noqa: E402
from hlgt.polyring import Polynomial  # noqa: E402

import hlgt_bench  # noqa: E402


def divide_by_q_diff(poly: Polynomial, i: int, j: int) -> Polynomial:
    """Exact quotient of poly by (x_i - q x_j), by synthetic division in x_i.

    Raises ArithmeticError when the remainder is not zero.
    """
    n = poly.n_vars
    by_deg: dict[int, dict[tuple, int]] = {}
    for mono, coeff in poly.terms():
        by_deg.setdefault(mono[i], {})[mono[:i] + (0,) + mono[i + 1:]] = coeff

    def plus_q_xj_times(layer: dict, carry: dict) -> dict:
        out = dict(layer)
        for m, c in carry.items():
            key = m[:j] + (m[j] + 1,) + m[j + 1:n] + (m[n] + 1, m[n + 1])
            total = out.get(key, 0) + c
            if total:
                out[key] = total
            else:
                out.pop(key, None)
        return out

    quotient: dict[tuple, int] = {}
    carry: dict[tuple, int] = {}
    for k in range(max(by_deg, default=0), 0, -1):
        carry = plus_q_xj_times(by_deg.get(k, {}), carry)
        for m, c in carry.items():
            quotient[m[:i] + (k - 1,) + m[i + 1:]] = c
    if plus_q_xj_times(by_deg.get(0, {}), carry):
        raise ArithmeticError(f"x{i + 1} - q*x{j + 1} does not divide exactly")
    return Polynomial(n, quotient)


def pattern_route_hl(lam: tuple[int, ...]) -> Polynomial:
    """HL_lam from the closed GT-pattern expansion alone."""
    n = len(lam)
    product = formulas.hl_pattern_expansion(lam)
    hl = product
    for i in range(n):
        for j in range(i + 1, n):
            hl = divide_by_q_diff(hl, i, j)
    if hl * oracle.weyl_denominator(n, "q") != product:
        raise ArithmeticError(f"division check failed for {lam}")
    return hl


def main() -> int:
    digest = hlgt_bench.poly_digest
    reference: dict[str, dict[str, dict[str, str]]] = {
        "pattern_n5": {"closed": {}, "tokuyama": {}},
        "oracle_n5": {"oracle": {}},
    }
    for lam in hlgt_bench.PATTERN_PARTITIONS:
        key = hlgt_bench.lam_text(lam)
        vq = oracle.weyl_denominator(len(lam), "q")
        reference["pattern_n5"]["closed"][key] = digest(vq * oracle.hall_littlewood(lam))
        reference["pattern_n5"]["tokuyama"][key] = digest(vq * oracle.schur(lam))
    for lam in hlgt_bench.ORACLE_PARTITIONS:
        key = hlgt_bench.lam_text(lam)
        formulas.clear_caches()
        reference["oracle_n5"]["oracle"][key] = digest(pattern_route_hl(lam))
        print(f"oracle_n5 {key}", file=sys.stderr, flush=True)
    with open(hlgt_bench.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

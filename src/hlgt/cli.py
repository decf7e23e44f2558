"""Command-line surface: compute, patterns, verify, bench.

Exit codes: 0 success (all identities pass), 1 verification failure,
2 usage or validation error.

``main`` builds its argparse parser once per process, on its first call,
and reuses it; ``build_parser()`` returns a fresh parser on every call.
The modules ``json`` and ``csv`` are imported by the commands that write
them (``patterns`` and ``verify`` in JSON, ``bench``), not at start-up:
``compute`` writes its JSON by hand and needs neither.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import time
from functools import cache
from math import prod
from typing import Sequence

from . import formulas, oracle, verify
from .patterns import check_partition, enumerate_patterns, weakly_decreasing_tuples
from .polyring import Polynomial

MODES = ("oracle", "closed", "recursive", "tokuyama", "stanley")


def _int_list(text: str) -> tuple[int, ...]:
    """An argparse type for comma-separated integers, e.g. ``2,1,0``.

    It checks the syntax only; the code that uses the values checks their range.
    """
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}"
        ) from None


# Characters of an --out text encoded per write.
_OUT_SLICE = 1 << 20


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        # A write encodes its whole string at once, so write fixed slices:
        # the file then costs one slice beside the text, not a second copy.
        with open(out_path, "w", encoding="utf-8") as handle:
            for start in range(0, len(text), _OUT_SLICE):
                handle.write(text[start:start + _OUT_SLICE])
            if not text.endswith("\n"):
                handle.write("\n")
    else:
        # One write: a caller that captures stdout in memory (a test, an
        # in-process benchmark) gets the text in one piece.
        print(text)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_compute(args: argparse.Namespace) -> int:
    # The oracle takes exponent tuples with ascents, so only its partition is checked here.
    lam = check_partition(args.lam) if args.mode == "oracle" else args.lam
    evaluator = {
        "oracle": oracle.hall_littlewood,
        "closed": formulas.hl_pattern_expansion,
        "recursive": formulas.hl_row_recursion,
        "tokuyama": formulas.tokuyama_sum,
        "stanley": formulas.stanley_sum,
    }[args.mode]
    poly = evaluator(lam)
    _emit(poly.to_json() if args.format == "json" else str(poly), args.out)
    return 0


def _pattern_stats(pattern) -> tuple[list[Polynomial], Polynomial]:
    """The row weights of a strict pattern and their product, its coefficient."""
    weights = formulas.pattern_row_weights(pattern)
    return weights, prod(weights, start=Polynomial.one(0))


def _pattern_record(pattern, with_stats: bool) -> dict:
    left, right, special = pattern.leaning_counts()
    record = {
        "rows": [list(r) for r in pattern.rows],
        "m": list(pattern.weight()),
        "left": left,
        "right": right,
        "special": special,
    }
    if with_stats:
        weights, coeff = _pattern_stats(pattern)
        record["row_weights"] = [w.to_dict() for w in weights]
        record["coefficient"] = coeff.to_dict()
    return record


def cmd_patterns(args: argparse.Namespace) -> int:
    if args.stats and not args.strict:
        return _usage_error("--stats requires --strict (row weights need strict rows)")
    found = enumerate_patterns(args.top, strict=args.strict)
    if args.format == "json":
        import json
        records = [_pattern_record(p, args.stats) for p in found]
        _emit(json.dumps(records), args.out)
        return 0
    lines: list[str] = [f"{len(found)} pattern(s) with top row {args.top}"]
    for idx, pattern in enumerate(found, start=1):
        left, right, special = pattern.leaning_counts()
        lines.append(f"pattern {idx}:")
        lines.extend("  " + ln for ln in pattern.triangle_lines())
        lines.append(f"  m = {pattern.weight()}")
        lines.append(f"  leaning: left={left} right={right} special={special}")
        if args.stats:
            weights, coeff = _pattern_stats(pattern)
            lines.extend(f"  row {i} weight: {w}" for i, w in enumerate(weights, start=1))
            lines.append(f"  coefficient: {coeff}")
    _emit("\n".join(lines), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify.run_suite(args.suite, args.n_max, args.part_max)
    if args.format == "json":
        import json
        _emit(json.dumps(report.to_dict()), args.out)
    else:
        lines = []
        for case in report.cases:
            status = "ok" if case.ok else "FAIL"
            lines.append(f"{status:4s} lambda={case.lam} {case.identity}")
        lines.append(
            f"suite={report.suite} total={report.total} passed={report.passed} "
            f"failed={report.failed} wall={report.wall_time:.3f}s"
        )
        _emit("\n".join(lines), args.out)
    return 0 if report.failed == 0 else 1


def _timed(route, lam: tuple[int, ...], repeats: int) -> tuple[float, Polynomial | None]:
    # Best time of repeats calls of route(lam), each from caches cleared off the clock.
    times = []
    for _ in range(repeats):
        formulas.clear_caches()
        start = time.perf_counter()
        value = route(lam)
        times.append(time.perf_counter() - start)
    return min(times), value


def cmd_bench(args: argparse.Namespace) -> int:
    import csv
    if any(n < 1 for n in args.n_list):
        return _usage_error("--n sizes must be at least 1")
    if args.part_max < 0:
        return _usage_error("--max-part must be nonnegative")
    if args.repeats < 1:
        return _usage_error("--repeats must be at least 1")
    oracle._check_cap(max(args.n_list))
    # Both routes give HL_lam; an unproven quotient is None and differs from
    # HL.  Built per call, so that the current module attributes are timed.
    routes = (("oracle", oracle.hall_littlewood),
              ("closed", lambda lam: verify._proven(formulas.hl_pattern_quotient, lam)))
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["n", "lambda", "mode", "terms", "seconds"])
    table = ["n    lambda        mode     terms  seconds"]
    for n in args.n_list:
        for lam in weakly_decreasing_tuples(n, args.part_max):
            timings = [(mode, *_timed(route, lam, args.repeats)) for mode, route in routes]
            hl = timings[0][2]  # the oracle's HL_lam
            if any(value != hl for _, _, value in timings):
                print(f"error: closed and oracle routes differ for lambda={lam}",
                      file=sys.stderr)
                return 1
            lam_text = ",".join(map(str, lam))
            for mode, seconds, _ in timings:
                writer.writerow([n, "-".join(map(str, lam)), mode, len(hl), f"{seconds:.9f}"])
                table.append(f"{n:<4d} {lam_text:<13s} {mode:<8s} {len(hl):<6d} {seconds:.6f}")
    print("\n".join(table))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(buffer.getvalue())
    else:
        print(buffer.getvalue().rstrip("\n"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlgt",
        description="Exact Hall-Littlewood polynomials from GT-pattern statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate one polynomial")
    p_compute.add_argument("--lambda", dest="lam", type=_int_list, required=True,
                           help="partition as comma-separated parts, e.g. 2,1,0")
    p_compute.add_argument("--mode", choices=MODES, required=True)
    p_compute.add_argument("--format", choices=("text", "json"), default="text")
    p_compute.add_argument("--out", default=None, help="write output to a file")
    p_compute.set_defaults(func=cmd_compute)

    p_patterns = sub.add_parser("patterns", help="list GT patterns for a top row")
    p_patterns.add_argument("--top", type=_int_list, required=True)
    p_patterns.add_argument("--strict", action="store_true",
                            help="only patterns with strictly decreasing rows")
    p_patterns.add_argument("--stats", action="store_true",
                            help="include per-row weight sums (needs --strict)")
    p_patterns.add_argument("--format", choices=("text", "json"), default="text")
    p_patterns.add_argument("--out", default=None)
    p_patterns.set_defaults(func=cmd_patterns)

    p_verify = sub.add_parser("verify", help="check identities over a grid")
    p_verify.add_argument("--n", dest="n_max", type=int, required=True,
                          help="maximum partition length")
    p_verify.add_argument("--max-part", dest="part_max", type=int, default=2)
    p_verify.add_argument("--suite", choices=verify.SUITE_NAMES, default="all")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="time the oracle and pattern routes to HL")
    p_bench.add_argument("--n", dest="n_list", type=_int_list,
                         required=True, help="comma-separated list of lengths, e.g. 3,4")
    p_bench.add_argument("--max-part", dest="part_max", type=int, default=2)
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--out", default=None, help="write the CSV to a file")
    p_bench.set_defaults(func=cmd_bench)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # In-process callers run main many times; a parser costs about a millisecond to build.
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # The library raises ValueError only for an argument it refuses.
        return _usage_error(str(exc))
    except formulas.QuotientError as exc:
        # A pattern sum not proven to be its factors times the quotient.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader left: send the interpreter's final flush to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        # An --out path that cannot be written.
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())

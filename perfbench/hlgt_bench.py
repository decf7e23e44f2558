"""Workloads, correctness gate and metrics of the hlgt benchmark.

See NOTES.md for what each workload and metric is for.  One process and
one thread drive each workload as a closed loop with a single client: the
next operation starts only after the last one has finished.  Operations go
through the program's public entry points, ``hlgt.cli.main`` with stdout
captured and ``hlgt.verify.check_case``, and each one is checked, outside
its timed window, against the route it does not time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import hlgt
from hlgt import cli, formulas, verify
from hlgt.patterns import weakly_decreasing_tuples
from hlgt.polyring import Polynomial

import hlgt_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_RUNS = 15
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import hlgt.cli; hlgt.cli.build_parser()"
TAIL_BEYOND = 10  # samples a tail percentile must leave above it
ORDER_WINDOW = 2  # order statistics on each side averaged into a quantile
MAX_TRACEBACKS = 3

PATTERN_PARTITIONS = tuple(weakly_decreasing_tuples(5, 2))
ORACLE_PARTITIONS = tuple(weakly_decreasing_tuples(5, 3))
VERIFY_SUITES = tuple(s for s in verify.SUITE_NAMES if s != "all")


def lam_text(lam: tuple[int, ...]) -> str:
    """A partition as the CLI takes it, e.g. ``2,1,0``."""
    return ",".join(str(p) for p in lam)


@dataclass(frozen=True)
class Op:
    """One operation: a compute mode or a verify suite, on one partition."""

    mode: str
    lam: tuple[int, ...]

    @property
    def lam_text(self) -> str:
        return lam_text(self.lam)


class Mismatch(Exception):
    """An operation's output differs from its reference."""


def poly_digest(poly: Polynomial) -> str:
    """SHA-256 of the canonical term list; equal digests mean equal polynomials."""
    h = hashlib.sha256(str(poly.n_vars).encode())
    for mono, coeff in poly.terms():
        h.update(f";{','.join(map(str, mono))}:{coeff}".encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# workloads

def draw_pattern_n5(rng: random.Random) -> list[Op]:
    # Partitions that differ by a constant shift have the same patterns up
    # to a shift of every entry, so they cost the same: one partition drawn
    # from each of the 15 shift classes gives every seed equal work.
    classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for lam in PATTERN_PARTITIONS:
        classes.setdefault(tuple(a - b for a, b in zip(lam, lam[1:])), []).append(lam)
    drawn = [rng.choice(members) for _, members in sorted(classes.items())]
    return [Op(mode, lam) for lam in drawn for mode in ("closed", "tokuyama")]


def draw_oracle_n5(rng: random.Random) -> list[Op]:
    return [Op("oracle", lam) for lam in ORACLE_PARTITIONS]


def draw_verify_n4(rng: random.Random) -> list[Op]:
    return [Op(suite, lam) for lam in verify.grid(4, 3) for suite in VERIFY_SUITES]


def run_compute(op: Op) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["compute", "--lambda", op.lam_text, "--mode", op.mode, "--format", "json"])
    if code != 0:
        raise Mismatch(f"hlgt compute exited with {code}")
    return buffer.getvalue()


def check_compute(op: Op, output: str, reference: dict) -> str:
    digest = poly_digest(Polynomial.from_json(output))
    if digest != reference[op.mode][op.lam_text]:
        raise Mismatch(f"{op.mode} output for {op.lam_text} differs from the reference")
    return digest


def run_check_case(op: Op) -> list:
    return verify.check_case(op.mode, op.lam)


def check_verdict(op: Op, results: list, reference: dict) -> str:
    failing = [r.identity for r in results if not r.ok]
    if failing:
        raise Mismatch(f"suite {op.mode} fails for {op.lam_text}: {failing}")
    return repr([(r.identity, r.ok) for r in results])


@dataclass(frozen=True)
class Workload:
    draw: Callable[[random.Random], list[Op]]
    run: Callable[[Op], object]
    check: Callable[[Op, object, dict], str]
    # Each operation stands for its own `hlgt compute` process: clear the
    # program's caches and collect garbage before it, so that neither the
    # caches nor the collector's state depend on the operations before it.
    fresh_process: bool


WORKLOADS = {
    "pattern_n5": Workload(draw_pattern_n5, run_compute, check_compute, True),
    "oracle_n5": Workload(draw_oracle_n5, run_compute, check_compute, False),
    # Caches stay warm across the grid, as inside one `hlgt verify`.
    "verify_n4": Workload(draw_verify_n4, run_check_case, check_verdict, False),
}


def load_reference(name: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle).get(name, {})


# ----------------------------------------------------------------------
# running

@dataclass
class Pass:
    order: list[Op]
    samples: list[float] = field(default_factory=list)
    digests: list[str | None] = field(default_factory=list)
    failed: int = 0

    @property
    def wall(self) -> float:
        return sum(self.samples)


def run_pass(workload: Workload, order: list[Op], reference: dict,
             tracer: hlgt_trace.Tracer | None = None) -> Pass:
    """Run the operations one after another; time each, then check it."""
    result = Pass(order)
    for op_id, op in enumerate(order):
        if op_id == 0 or workload.fresh_process:
            formulas.clear_caches()
            gc.collect()
        if tracer:
            tracer.begin_op(op_id)
        start = time.perf_counter()
        try:
            output = workload.run(op)
        except (Exception, SystemExit):
            output = None
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end_op(len(output) if isinstance(output, str) else 0)
        result.samples.append(elapsed)
        digest = None
        if output is not None:
            try:
                digest = workload.check(op, output, reference)
            except Exception:
                error = traceback.format_exc()
        if digest is None:
            result.failed += 1
            if result.failed <= MAX_TRACEBACKS:
                print(f"FAILED {op.mode} {op.lam_text}\n{error}", file=sys.stderr, end="")
        result.digests.append(digest)
    return result


def _around(ordered: list[float], lo: int, hi: int) -> float:
    # Mean of the order statistics from ORDER_WINDOW below rank lo to
    # ORDER_WINDOW above rank hi, so that the noise of the one operation at
    # a rank moves the estimate less.
    return statistics.fmean(ordered[max(lo - ORDER_WINDOW, 0):hi + ORDER_WINDOW + 1])


def median(samples: list[float]) -> float:
    """The median, averaged over the order statistics around the middle."""
    ordered = sorted(samples)
    n = len(ordered)
    return _around(ordered, (n - 1) // 2, n // 2)


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples above it.

    The value is averaged over the order statistics around that rank.
    With too few samples, it is the maximum (percentile 100).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    rank = n - TAIL_BEYOND - 1
    return 100.0 * (n - TAIL_BEYOND) / n, _around(ordered, rank, rank)


def measure_setup(runs: int = SETUP_RUNS) -> float:
    """Median wall time for a fresh interpreter to import hlgt and build the CLI parser."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-E", "-s", "-c", SETUP_CODE, str(SRC)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class RunResult:
    workload: str
    seed: int
    inputs: list[Op]
    passes: list[Pass]
    metrics: dict[str, tuple[float, str]]
    failed: int
    tail_percentile: float = 100.0

    @property
    def attempted(self) -> int:
        return sum(len(p.order) for p in self.passes)

    def line(self) -> str:
        """The result object the benchmark prints as its last line."""
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })

    def record(self) -> dict:
        """Seed, inputs and per-operation samples, in run order."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "inputs": [[op.mode, op.lam_text] for op in self.inputs],
            "passes": [
                {"order": [[op.mode, op.lam_text] for op in p.order], "samples_s": p.samples}
                for p in self.passes
            ],
            "tail_percentile": self.tail_percentile,
            "failed": self.failed,
            "metrics": {k: v for k, (v, _) in self.metrics.items()},
        }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 limit: int | None = None, spans_path: Path | None = None) -> RunResult:
    """Run one workload; ``limit`` cuts every pass to its first operations.

    Untraced, passes repeat (each in a fresh seeded order) until ``seconds``
    have gone by.  Traced, one untraced pass and one traced pass run the
    same order, and their outputs must agree.
    """
    workload = WORKLOADS[name]
    reference = load_reference(name)
    rng = random.Random(seed)
    inputs = workload.draw(rng)

    def next_order() -> list[Op]:
        return rng.sample(inputs, len(inputs))[:limit]

    if trace:
        order = next_order()
        plain = run_pass(workload, order, reference)
        with hlgt_trace.Tracer() as tracer:
            origin = time.perf_counter()
            traced = run_pass(workload, order, reference, tracer)
        differ = sum(a != b for a, b in zip(plain.digests, traced.digests))
        if differ:
            print(f"FAILED {differ} traced output(s) differ from the untraced run", file=sys.stderr)
        if tracer.missing:
            print(f"not traced (absent from the program): {', '.join(tracer.missing)}", file=sys.stderr)
        if spans_path:
            tracer.write_spans(spans_path, origin)
        return RunResult(name, seed, inputs, [plain, traced],
                         tracer.metrics(traced.wall - plain.wall),
                         plain.failed + traced.failed + differ)

    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, next_order(), reference))
    metrics = {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "op_p50_s": (median([s for p in passes for s in p.samples]), "s"),
        "op_tail_s": (statistics.median(tail(p.samples)[1] for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return RunResult(name, seed, inputs, passes, metrics, sum(p.failed for p in passes),
                     tail(passes[0].samples)[0])


# ----------------------------------------------------------------------
# command line

def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(hlgt.__file__).resolve().parent != SRC / "hlgt":
        print(f"error: imported hlgt from {hlgt.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          spans_path=OUT_DIR / f"{stem}-spans.jsonl" if args.trace else None)
    if setup_s is not None:
        result.metrics["setup_s"] = (setup_s, "s")

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(result.record(), handle)
    per_pass = len(result.passes[0].order)
    print(f"workload={args.workload} seed={args.seed} passes={len(result.passes)} "
          f"ops_per_pass={per_pass} attempted={result.attempted} ops_failed={result.failed}")
    print("inputs: " + " ".join(f"{op.mode}:{op.lam_text}" for op in result.inputs))
    if not args.trace:
        print(f"op_tail_s is p{result.tail_percentile:.1f} of the {per_pass} operations "
              f"of each pass, median over {len(result.passes)} pass(es)")
    for key, (value, unit) in result.metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(f"record: {OUT_DIR / (stem + '.json')}")
    print(result.line())
    return 0 if result.failed == 0 else 1

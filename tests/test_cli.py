import csv
import hashlib
import json
import re
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

from hlgt import cli, formulas, oracle
from hlgt.cli import main
from hlgt.patterns import add_staircase, is_strictly_decreasing, weakly_decreasing_tuples
from hlgt.polyring import Polynomial
from hlgt.verify import grid

from helpers import count_memoized_work


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# compute

def test_compute_oracle_text(capsys):
    code, out, _ = run(capsys, "compute", "--lambda", "1,0", "--mode", "oracle")
    assert code == 0
    assert out.strip() == "x1 + x2"


def test_compute_oracle_with_parameter(capsys):
    code, out, _ = run(capsys, "compute", "--lambda", "1,1", "--mode", "oracle")
    assert code == 0
    assert out.strip() == "x1*x2 + t*x1*x2"


def test_compute_closed_matches_library(capsys):
    code, out, _ = run(capsys, "compute", "--lambda", "0,0", "--mode", "closed")
    assert code == 0
    assert out.strip() == str(formulas.hl_pattern_expansion((0, 0)))


def test_compute_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "compute", "--lambda", "2,1,0", "--mode", "recursive", "--format", "json"
    )
    assert code == 0
    assert Polynomial.from_json(out) == formulas.hl_row_recursion((2, 1, 0))


def test_compute_rejects_non_monotone(capsys):
    code, _, err = run(capsys, "compute", "--lambda", "1,2", "--mode", "oracle")
    assert code == 2
    assert "weakly decreasing" in err


@pytest.mark.parametrize("mode", ["oracle", "closed", "recursive", "tokuyama", "stanley"])
def test_compute_rejects_an_ascent_in_every_mode(capsys, mode):
    code, out, err = run(capsys, "compute", "--lambda", "1,2", "--mode", mode)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    kind = "strictly" if mode == "stanley" else "weakly"
    assert f"{kind} decreasing" in err


def test_compute_stanley_needs_strict(capsys):
    code, _, err = run(capsys, "compute", "--lambda", "1,1", "--mode", "stanley")
    assert code == 2
    assert "strictly decreasing" in err


def test_compute_rejects_negative_parts(capsys):
    # The library's partition check refuses a negative part, in the oracle
    # mode's own check and in the pattern route's.
    for mode in ("oracle", "closed"):
        code, out, err = run(capsys, "compute", "--lambda", "1,-1", "--mode", mode)
        assert code == 2
        assert out == ""
        assert err == "error: parts must be nonnegative integers: (1, -1)\n"


def test_compute_beyond_oracle_cap_is_a_usage_error(capsys):
    code, out, err = run(capsys, "compute", "--lambda", "1,1,1,1,1,1,1", "--mode", "oracle")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "safety cap" in err


def test_compute_recursive_beyond_oracle_cap_fails_fast(capsys, monkeypatch):
    # The recursion's oracle factor has n - 1 variables, but the cap applies to n,
    # and it refuses before any row step or v_n(x;q) product.
    def no_work(*args):
        raise AssertionError("worked before the cap check")

    monkeypatch.setattr(oracle, "weyl_denominator", no_work)
    monkeypatch.setattr(formulas, "_row_sums", no_work)
    monkeypatch.setenv("GT_ORACLE_NMAX", "3")
    code, out, err = run(capsys, "compute", "--lambda", "1,1,1,1", "--mode", "recursive")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "safety cap (3)" in err
    monkeypatch.delenv("GT_ORACLE_NMAX")
    code, out, err = run(capsys, "compute", "--lambda", "1,1,1,1,1,1,1", "--mode", "recursive")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "safety cap" in err


@pytest.mark.parametrize("mode", ["closed", "tokuyama", "recursive"])
def test_compute_beyond_64_bit_fields_is_a_usage_error(capsys, monkeypatch, mode):
    # A proven L1 bound of 2**64 needs 66-bit fields: refused before any packing.
    monkeypatch.setattr(formulas, "_top_bounds", lambda *args: (1, 1, 2 ** 64))

    def no_packing(*args):
        raise AssertionError("packed before the size check")

    monkeypatch.setattr(formulas._Layout, "pack", no_packing)
    code, out, err = run(capsys, "compute", "--lambda", "2,1,0", "--mode", mode)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "66-bit fields" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_compute_recursive_unproven_quotient_is_a_verification_failure(capsys, monkeypatch):
    # The row step, one q,t coefficient off by one: no proof, so no output.
    row_sums = formulas._row_sums

    def perturbed(*args):
        packed, layout = row_sums(*args)
        packed[min(packed)] += 1 << layout.width
        return packed, layout

    monkeypatch.setattr(formulas, "_row_sums", perturbed)
    code, out, err = run(capsys, "compute", "--lambda", "2,1,0", "--mode", "recursive")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "does not divide" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_compute_out_file(tmp_path, capsys):
    target = tmp_path / "poly.txt"
    code, out, _ = run(
        capsys, "compute", "--lambda", "1,0", "--mode", "oracle", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().strip() == "x1 + x2"


def test_compute_out_file_equals_stdout_on_the_packed_json_path(tmp_path, capsys):
    target = tmp_path / "poly.json"
    argv = ("compute", "--lambda", "2,1,0", "--mode", "closed", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.endswith("}\n")
    code, to_file, _ = run(capsys, *argv, "--out", str(target))
    assert code == 0 and to_file == ""
    assert target.read_bytes() == out.encode()
    # A text that already ends in a newline gets no second one.
    for text in ("x1\n", "x1"):
        cli._emit(text, str(target))
        assert target.read_bytes() == b"x1\n"


def test_out_file_holds_no_second_copy_of_the_text(tmp_path):
    # 20 MiB: encoded in one write, the file would cost a second 20 MB copy.
    text = "0123456789abcdef" * (20 << 16)
    target = tmp_path / "big.txt"
    tracemalloc.start()
    try:
        cli._emit(text, str(target))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    assert target.read_text(encoding="utf-8") == text + "\n"


# ----------------------------------------------------------------------
# patterns

def test_patterns_strict_pair(capsys):
    code, out, _ = run(capsys, "patterns", "--top", "1,0", "--strict")
    assert code == 0
    assert out.startswith("2 pattern(s)")


def test_patterns_forced(capsys):
    code, out, _ = run(capsys, "patterns", "--top", "0,0,0")
    assert code == 0
    assert out.startswith("1 pattern(s)")


def test_patterns_stats_shows_worked_coefficient(capsys):
    code, out, _ = run(capsys, "patterns", "--top", "3,1,0", "--strict", "--stats")
    assert code == 0
    # the pattern with rows (3,1,0)/(2,0)/(1) carries (1-q)^2 (1+t)
    assert "coefficient: 1 - 2*q + t + q^2 - 2*q*t + q^2*t" in out


def test_patterns_stats_requires_strict(capsys):
    code, _, err = run(capsys, "patterns", "--top", "3,1,0", "--stats")
    assert code == 2
    assert "--strict" in err


def test_patterns_json(capsys):
    code, out, _ = run(
        capsys, "patterns", "--top", "1,0", "--strict", "--stats", "--format", "json"
    )
    assert code == 0
    records = json.loads(out)
    assert [r["rows"] for r in records] == [[[1, 0], [1]], [[1, 0], [0]]]
    assert all({"m", "left", "right", "special", "coefficient"} <= set(r) for r in records)
    code, out, _ = run(
        capsys, "patterns", "--top", "3,1,0", "--strict", "--stats", "--format", "json"
    )
    assert code == 0
    for record in records + json.loads(out):
        product = Polynomial.one(0)
        for weight in record["row_weights"]:
            product = product * Polynomial.from_dict(weight)
        assert Polynomial.from_dict(record["coefficient"]) == product


@pytest.mark.parametrize("argv, digest", [
    (("compute", "--lambda", "2,1,0", "--mode", "closed", "--format", "json"),
     "4b815634f2e630a125d65e30603ea9e400b57f5c136ce1bfa6aabda441f4818d"),
    (("patterns", "--top", "4,2,0", "--strict", "--stats", "--format", "json"),
     "09e526c75ae5a432321b1c12c83f4177172c4483a3bd0611aa480f73524c6da8"),
    (("compute", "--lambda", "1,1,1,0,0,0", "--mode", "closed", "--format", "json"),
     "853d159280493d35feb7cfe9c39c8e3e19a38803ba117648ba652cb685341ab5"),
    # Tokuyama weights have negative coefficients.
    (("compute", "--lambda", "2,1,0,0,0", "--mode", "tokuyama", "--format", "json"),
     "7a0794d79fe66cfb42d0cd7e36fccfb37548124f9f2e32174829c52ab02c32c1"),
    # The n! oracle: a repeated part, a one-part shape and an n = 6 case.
    (("compute", "--lambda", "3,3,3,0,0", "--mode", "oracle", "--format", "json"),
     "7dad1f957384a2f75711c6d6a93f6c13878ff2366fce3a31ed4495bbb335bd89"),
    (("compute", "--lambda", "2,1,0,0,0", "--mode", "oracle", "--format", "json"),
     "7d384a90c49e26f84354c41e73e93f545056e612cbd4be29ddf3bafb67fe4136"),
    (("compute", "--lambda", "2,2,1,0,0,0", "--mode", "oracle", "--format", "json"),
     "3ff553bc0d22cc706753acf22a02747d9de51da4b43d14c1fe3ea97eecff4eab"),
    # v_n(x;q) times the proven one-row quotient (1 168 531 bytes at n = 5).
    (("compute", "--lambda", "2,1,1,0", "--mode", "recursive", "--format", "json"),
     "c553de7ea64f8450777dd08a417922befaaeb48be187b2415408b970912d2085"),
    (("compute", "--lambda", "2,2,1,0,0", "--mode", "recursive", "--format", "json"),
     "53dc342d4f9730834f5817045ed28344ae1ac2752ca8f37742a8f67fd2d8f501"),
    # Stanley's sum (3 225 bytes) and the closed sum as text (1 032 bytes).
    (("compute", "--lambda", "4,2,1,0", "--mode", "stanley", "--format", "json"),
     "ca7846a121658843cd2400d05121ece75712c10dd2b63e6684affa3c5b3c43dd"),
    (("compute", "--lambda", "2,1,0", "--mode", "closed"),
     "6b5d1779830bcbb5e128e243a8842ece534c0cfd59ea925613faa2269685a509"),
])
def test_json_output_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


PATTERN_ROUTES = {"closed": formulas.hl_pattern_expansion, "tokuyama": formulas.tokuyama_sum,
                  "stanley": formulas.stanley_sum}


def test_pattern_json_is_the_reference_writers_text_and_never_unpacks(capsys, monkeypatch):
    # The packed writer against Polynomial.to_json on the decoded terms:
    # every partition of grid(4, 3) and the 21 with n = 5, parts <= 2.
    unpacked = []
    unpack = formulas._Layout.unpack

    def spy(self, *args):
        unpacked.append(args)
        return unpack(self, *args)

    monkeypatch.setattr(formulas._Layout, "unpack", spy)
    checked = Counter()
    for lam in [*grid(4, 3), *weakly_decreasing_tuples(5, 2)]:
        for mode, evaluator in PATTERN_ROUTES.items():
            if mode == "stanley" and not is_strictly_decreasing(lam):
                continue
            code, out, _ = run(capsys, "compute", "--lambda", ",".join(map(str, lam)),
                               "--mode", mode, "--format", "json")
            assert code == 0 and not unpacked, (mode, lam)
            assert out == Polynomial.to_json(evaluator(lam)) + "\n", (mode, lam)
            assert unpacked
            unpacked.clear()
            checked[mode] += 1
    assert checked == {"closed": 90, "tokuyama": 90, "stanley": 15}
    code, out, _ = run(capsys, "compute", "--lambda", "2,1,0", "--mode", "closed")
    assert code == 0 and out.startswith("x1^4*x2^2 + ") and unpacked


def test_patterns_rejects_bad_top(capsys):
    code, _, err = run(capsys, "patterns", "--top", "1,2")
    assert code == 2
    assert "weakly decreasing" in err
    code, _, err = run(capsys, "patterns", "--top", "2,2", "--strict")
    assert code == 2
    assert "strictly decreasing" in err


# ----------------------------------------------------------------------
# verify

def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--max-part", "2", "--suite", "all")
    assert code == 0
    assert "failed=0" in out


def test_verify_single_trivial_case(capsys):
    code, out, _ = run(capsys, "verify", "--n", "1", "--max-part", "0", "--suite", "main")
    assert code == 0
    assert "total=1 passed=1" in out


def test_verify_raising_suite(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--max-part", "2", "--suite", "raising")
    assert code == 0
    assert "raise[1,2]=t*hl" in out


def test_verify_json_report(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "2", "--max-part", "1", "--suite", "main",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["failed"] == 0
    assert report["total"] == len(report["cases"])


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(capsys, "verify", "--n", "2", "--suite", "nope")
    assert excinfo.value.code == 2


def test_verify_rejects_n_beyond_cap(capsys):
    code, _, err = run(capsys, "verify", "--n", "9", "--suite", "main")
    assert code == 2
    assert "cap" in err


def test_verify_rejects_negative_max_part(capsys):
    code, out, err = run(capsys, "verify", "--n", "2", "--max-part", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: suite 'all' records no identity on the grid n <= 2, parts <= -1\n"


@pytest.mark.parametrize("argv", [("--n", "1"), ("--n", "3", "--max-part", "0"), ("--n", "0")],
                         ids=["one-part", "zero-parts", "empty-grid"])
def test_verify_refuses_a_run_that_checks_nothing(capsys, argv):
    code, out, err = run(capsys, "verify", "--suite", "raising", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: suite 'raising' records no identity on the grid")
    assert err.count("\n") == 1


def test_verify_rejects_garbage_oracle_cap(capsys, monkeypatch):
    monkeypatch.setenv("GT_ORACLE_NMAX", "lots")
    code, out, err = run(capsys, "verify", "--n", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "GT_ORACLE_NMAX must be an integer" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    # The tokuyama suite checks Tokuyama's sum through its quotient by v_n(x;q).
    monkeypatch.setattr(
        formulas, "tokuyama_quotient", lambda lam: Polynomial.zero(len(lam))
    )
    code, out, _ = run(
        capsys, "verify", "--n", "1", "--max-part", "0", "--suite", "tokuyama"
    )
    assert code == 1
    assert "FAIL" in out


# ----------------------------------------------------------------------
# bench

def test_bench_writes_csv(tmp_path, capsys):
    target = tmp_path / "bench.csv"
    code, out, _ = run(
        capsys, "bench", "--n", "2,3", "--max-part", "1", "--repeats", "2",
        "--out", str(target),
    )
    assert code == 0
    with open(target, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows and set(rows[0]) == {"n", "lambda", "mode", "terms", "seconds"}
    by_lam = {}
    for row in rows:
        assert float(row["seconds"]) > 0
        by_lam.setdefault((row["n"], row["lambda"]), {})[row["mode"]] = row["terms"]
    for modes in by_lam.values():
        assert modes["oracle"] == modes["closed"]
    # Every column but seconds, in the order the rows are written.
    assert "; ".join(",".join(list(row.values())[:4]) for row in rows) == (
        "2,1-1,oracle,2; 2,1-1,closed,2; 2,1-0,oracle,2; 2,1-0,closed,2; "
        "2,0-0,oracle,2; 2,0-0,closed,2; 3,1-1-1,oracle,4; 3,1-1-1,closed,4; "
        "3,1-1-0,oracle,6; 3,1-1-0,closed,6; 3,1-0-0,oracle,6; 3,1-0-0,closed,6; "
        "3,0-0-0,oracle,4; 3,0-0-0,closed,4"
    )


def test_bench_rejects_bad_sizes(capsys):
    code, _, err = run(capsys, "bench", "--n", "9", "--repeats", "1")
    assert code == 2
    assert "cap" in err
    code, _, err = run(capsys, "bench", "--n", "2", "--repeats", "0")
    assert code == 2


def test_bench_rejects_negative_max_part(capsys):
    code, out, err = run(capsys, "bench", "--n", "2", "--max-part", "-1")
    assert code == 2
    assert out == ""
    assert "--max-part must be nonnegative" in err


@pytest.mark.parametrize("argv, message", [
    (("--max-part", "-1"), "--max-part must be nonnegative"),
    (("--repeats", "0"), "--repeats must be at least 1"),
])
def test_bench_checks_its_own_flags_before_the_cap(capsys, argv, message):
    # --n 9 is beyond the default cap, but the flag's own error comes first.
    code, out, err = run(capsys, "bench", "--n", "9", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_bench_rejects_garbage_oracle_cap(capsys, monkeypatch):
    monkeypatch.setenv("GT_ORACLE_NMAX", "lots")
    code, out, err = run(capsys, "bench", "--n", "2", "--repeats", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "GT_ORACLE_NMAX must be an integer" in err


def test_bench_times_no_cache_hit(capsys, monkeypatch):
    # Four partitions, three timed calls of each route: every call misses,
    # so each round of four closed calls steps the same 34 rows.
    calls = count_memoized_work(monkeypatch)
    code, _, _ = run(capsys, "bench", "--n", "3", "--max-part", "1", "--repeats", "3")
    assert code == 0
    rows = calls["closed_rows"]
    tops = [add_staircase(lam) for lam in weakly_decreasing_tuples(3, 1)]
    assert Counter(row for row in rows if len(row) == 3) == dict.fromkeys(tops, 3)
    assert len(rows) == 3 * 34 and calls["schur_coefficients"] == 12


def _bench_with_quotient(tmp_path, capsys, monkeypatch, quotient):
    # bench compares the oracle's HL with the closed route's proven quotient.
    monkeypatch.setattr(formulas, "hl_pattern_quotient", quotient)
    target = tmp_path / "bench.csv"
    code, out, err = run(
        capsys, "bench", "--n", "2", "--max-part", "1", "--repeats", "1",
        "--out", str(target),
    )
    assert code == 1
    assert "differ" in err
    assert out == ""
    assert not target.exists()


def test_bench_fails_when_routes_differ(tmp_path, capsys, monkeypatch):
    _bench_with_quotient(tmp_path, capsys, monkeypatch,
                         lambda lam: Polynomial.zero(len(lam)))


def test_bench_fails_when_the_quotient_is_unproven(tmp_path, capsys, monkeypatch):
    def unproven(lam):
        raise formulas.QuotientError("forced")

    _bench_with_quotient(tmp_path, capsys, monkeypatch, unproven)


@pytest.mark.parametrize("argv, message", [
    (("compute", "--lambda", "1,x", "--mode", "oracle"), "comma-separated list of integers"),
    (("patterns", "--top", "2;1"), "comma-separated list of integers"),
    (("bench", "--n", "2,,3"), "comma-separated list of integers"),
])
def test_list_arguments_keep_their_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_patterns_rejects_negative_parts(capsys):
    code, out, err = run(capsys, "patterns", "--top", "2,-1")
    assert code == 2
    assert out == ""
    assert err == "error: parts must be nonnegative integers: (2, -1)\n"


def test_bench_size_below_one_is_its_own_usage_error(capsys):
    # --n parses negative sizes; bench itself then rejects them
    code, _, err = run(capsys, "bench", "--n", "-1", "--repeats", "1")
    assert code == 2
    assert "--n sizes must be at least 1" in err


@pytest.mark.parametrize("argv", [
    ("compute", "--lambda", "1", "--mode", "oracle"),
    ("bench", "--n", "2", "--max-part", "0", "--repeats", "1"),
])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "out"))
    assert code == 2
    assert err.startswith("error: ") and err.count("error:") == 1
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# one parser per process

def _without_wall_time(argv, out):
    # verify reports its own wall time, which changes from run to run.
    if argv[0] != "verify":
        return out
    if "json" in argv:
        report = json.loads(out)
        del report["wall_time"]
        return report
    return re.sub(r"wall=[0-9.]+s", "wall=", out)


def _observe(capsys, argv, out_path):
    # Exit code, stdout, stderr and --out file of one main call.
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    written = out_path.read_text() if out_path.exists() else None
    if written is not None:
        out_path.unlink()
    return code, _without_wall_time(argv, captured.out), captured.err, written


def test_main_builds_one_parser_and_leaks_nothing_between_calls(tmp_path, capsys, monkeypatch):
    target = tmp_path / "hl.txt"
    compute = ("compute", "--lambda", "2,1,0", "--mode", "oracle")
    verify_grid = ("verify", "--n", "2", "--max-part", "1", "--suite", "main")
    calls = [
        (*compute, "--out", str(target)), compute,
        (*compute, "--format", "json"), compute,
        (*verify_grid, "--format", "json"), verify_grid,
        ("compute", "--lambda", "1,x", "--mode", "oracle"), compute,
    ]
    cached, fresh = cli._parser, cli.build_parser
    # What each call gives through a parser built for it alone.
    monkeypatch.setattr(cli, "_parser", fresh)
    expected = [_observe(capsys, argv, target) for argv in calls]
    monkeypatch.setattr(cli, "_parser", cached)

    built = []

    def spy():
        built.append(1)
        return fresh()

    cached.cache_clear()
    monkeypatch.setattr(cli, "build_parser", spy)
    observed = [_observe(capsys, argv, target) for argv in calls]
    assert len(built) == 1
    assert observed == expected
    assert expected[0][1] == "" and expected[0][3] == expected[1][1]
    assert expected[6][0] == ("SystemExit", 2)


# ----------------------------------------------------------------------
# module entry point

def test_closed_pipe_exits_without_traceback():
    # The output is far larger than a pipe buffer, so the writer meets the
    # closed pipe while it is still printing.
    proc = subprocess.Popen(
        [sys.executable, "-m", "hlgt", "compute", "--lambda", "2,2,1,0,0", "--mode", "closed"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert stderr == b""


def test_module_invocation():
    result = subprocess.run(
        [sys.executable, "-m", "hlgt", "compute", "--lambda", "1,0", "--mode", "oracle"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "x1 + x2"

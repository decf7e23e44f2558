import csv
import json
import subprocess
import sys

import pytest

from hlgt import formulas
from hlgt.cli import main
from hlgt.polyring import Polynomial


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


def test_compute_stanley_needs_strict(capsys):
    code, _, err = run(capsys, "compute", "--lambda", "1,1", "--mode", "stanley")
    assert code == 2
    assert "strictly decreasing" in err


def test_compute_rejects_negative_parts(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(capsys, "compute", "--lambda", "1,-1", "--mode", "oracle")
    assert excinfo.value.code == 2


def test_compute_beyond_oracle_cap_is_a_usage_error(capsys):
    code, out, err = run(capsys, "compute", "--lambda", "1,1,1,1,1,1,1", "--mode", "oracle")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "safety cap" in err


def test_compute_recursive_beyond_oracle_cap_fails_fast(capsys, monkeypatch):
    # The recursion's oracle factor has n - 1 variables, but the cap applies to n.
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


def test_compute_out_file(tmp_path, capsys):
    target = tmp_path / "poly.txt"
    code, out, _ = run(
        capsys, "compute", "--lambda", "1,0", "--mode", "oracle", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().strip() == "x1 + x2"


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
    assert "--max-part must be nonnegative" in err


def test_verify_rejects_garbage_oracle_cap(capsys, monkeypatch):
    monkeypatch.setenv("GT_ORACLE_NMAX", "lots")
    code, out, err = run(capsys, "verify", "--n", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "GT_ORACLE_NMAX must be an integer" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        formulas, "tokuyama_sum", lambda lam: Polynomial.zero(len(lam))
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


def test_bench_rejects_garbage_oracle_cap(capsys, monkeypatch):
    monkeypatch.setenv("GT_ORACLE_NMAX", "lots")
    code, out, err = run(capsys, "bench", "--n", "2", "--repeats", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "GT_ORACLE_NMAX must be an integer" in err


def test_bench_fails_when_routes_differ(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        formulas, "hl_pattern_expansion", lambda lam: Polynomial.zero(len(lam))
    )
    target = tmp_path / "bench.csv"
    code, out, err = run(
        capsys, "bench", "--n", "2", "--max-part", "1", "--repeats", "1",
        "--out", str(target),
    )
    assert code == 1
    assert "differ" in err
    assert out == ""
    assert not target.exists()


@pytest.mark.parametrize("argv, message", [
    (("compute", "--lambda", "1,x", "--mode", "oracle"), "comma-separated list of integers"),
    (("patterns", "--top", "2,-1"), "parts must be nonnegative"),
    (("bench", "--n", "2,,3"), "comma-separated list of integers"),
])
def test_list_arguments_keep_their_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_bench_size_below_one_is_its_own_usage_error(capsys):
    # --n parses negative sizes; bench itself then rejects them
    code, _, err = run(capsys, "bench", "--n", "-1", "--repeats", "1")
    assert code == 2
    assert "--n sizes must be at least 1" in err


# ----------------------------------------------------------------------
# module entry point

def test_module_invocation():
    result = subprocess.run(
        [sys.executable, "-m", "hlgt", "compute", "--lambda", "1,0", "--mode", "oracle"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "x1 + x2"

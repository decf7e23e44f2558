"""Tests of the benchmark itself: tiny runs of every workload, the gate, seeding."""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hlgt_bench  # noqa: E402
import hlgt_trace  # noqa: E402
import make_reference  # noqa: E402
from hlgt import constant, formulas, oracle  # noqa: E402

END_TO_END = {"wall_s", "op_p50_s", "op_tail_s", "peak_rss_mb"}


def _counts(metrics):
    return {k: v for k, (v, unit) in metrics.items() if unit != "s"}


@pytest.mark.parametrize("workload", sorted(hlgt_bench.WORKLOADS))
def test_tiny_run_of_every_workload(workload):
    plain = hlgt_bench.run_workload(workload, seed=1, seconds=0, trace=False, limit=2)
    assert (plain.attempted, plain.failed) == (2, 0)
    assert set(plain.metrics) == END_TO_END
    assert all(value > 0 for value, _ in plain.metrics.values())
    line = json.loads(plain.line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"} and line["correct"]

    traced = hlgt_bench.run_workload(workload, seed=1, seconds=0, trace=True, limit=2)
    assert (traced.attempted, traced.failed) == (4, 0)
    assert list(traced.metrics) == hlgt_trace.per_layer_names()


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END | {"setup_s"}
    assert [m["name"] for m in spec["per_layer"]] == hlgt_trace.per_layer_names()
    assert {w["name"] for w in spec["workloads"]} == set(hlgt_bench.WORKLOADS)


def _plus_one(fn):
    def perturbed(lam):
        poly = fn(lam)
        return poly + constant(1, poly.n_vars)
    return perturbed


@pytest.mark.parametrize("workload, module, names", [
    ("pattern_n5", formulas, ("hl_pattern_expansion", "tokuyama_sum")),
    ("oracle_n5", oracle, ("hall_littlewood",)),
])
def test_perturbed_polynomial_counts_as_failed(monkeypatch, workload, module, names):
    for name in names:
        monkeypatch.setattr(module, name, _plus_one(getattr(module, name)))
    result = hlgt_bench.run_workload(workload, seed=2, seconds=0, trace=False, limit=2)
    assert result.failed == result.attempted == 2
    assert json.loads(result.line())["correct"] is False


def test_same_seed_reproduces_inputs_and_counts():
    first = hlgt_bench.run_workload("verify_n4", seed=7, seconds=0, trace=True, limit=12)
    again = hlgt_bench.run_workload("verify_n4", seed=7, seconds=0, trace=True, limit=12)
    other = hlgt_bench.run_workload("verify_n4", seed=8, seconds=0, trace=True, limit=12)
    assert first.record()["passes"][0]["order"] == again.record()["passes"][0]["order"]
    assert first.record()["passes"][0]["order"] != other.record()["passes"][0]["order"]
    assert _counts(first.metrics) == _counts(again.metrics)
    assert [op.lam for op in hlgt_bench.draw_pattern_n5(random.Random(3))] == \
        [op.lam for op in hlgt_bench.draw_pattern_n5(random.Random(3))]


def test_pattern_draw_takes_one_partition_per_shift_class():
    lams = {op.lam for op in hlgt_bench.draw_pattern_n5(random.Random(5))}
    shapes = {tuple(p - lam[-1] for p in lam) for lam in lams}
    assert len(lams) == len(shapes) == 15


def test_quantiles_average_the_order_statistics_around_their_rank():
    samples = [float(i) for i in range(30)]
    samples[19] = 19.5  # the order statistic with exactly ten samples above it
    assert hlgt_bench.tail(samples) == (pytest.approx(200 / 3), pytest.approx(19.1))
    assert hlgt_bench.tail([3.0, 1.0]) == (100.0, 3.0)
    assert hlgt_bench.median(samples) == pytest.approx(14.5)
    assert hlgt_bench.median([5.0, 1.0, 3.0]) == 3.0


def test_reference_comes_from_the_other_route():
    reference = json.loads(hlgt_bench.REFERENCE_PATH.read_text())
    lam = (1, 1, 0, 0, 0)
    vq = oracle.weyl_denominator(5, "q")
    assert reference["pattern_n5"]["closed"]["1,1,0,0,0"] == \
        hlgt_bench.poly_digest(vq * oracle.hall_littlewood(lam))
    assert make_reference.pattern_route_hl((2, 1, 0)) == oracle.hall_littlewood((2, 1, 0))
    assert len(reference["oracle_n5"]["oracle"]) == len(hlgt_bench.ORACLE_PARTITIONS)

"""Tests of the benchmark itself: generators, gate, metrics and the runner.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH / "ref"))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def _verify_inputs(seed):
    def rng(part):
        return inputs.rng_for("verify", seed, part)

    return (
        [inputs.continuous_params(rng(f"continuous{s}"), s)
         for s in range(len(inputs.CONTINUOUS_STRATA))],
        inputs.pastro_params(rng("pastro")),
        [inputs.measure_params(rng(k), k)
         for k in ("NR", "SB", "Sigma", "Sigma2", "Sigma2-integral", "finite")],
        next(inputs.discrete_candidates(rng("discrete"))),
        inputs.kernel_draw(rng("kernel")),
        inputs.derived_seed(seed),
    )


def test_generators_are_deterministic_in_the_seed():
    assert inputs.classify_points(3) == inputs.classify_points(3)
    assert inputs.classify_points(3) != inputs.classify_points(4)
    assert _verify_inputs(3) == _verify_inputs(3)
    assert _verify_inputs(3) != _verify_inputs(4)


def test_classify_unbalanced_share_is_fixed():
    points = inputs.classify_points(7)
    unbalanced = [vec for vec, balanced in points if not balanced]
    assert len(points) == inputs.CLASSIFY_POINTS
    assert len(unbalanced) == inputs.CLASSIFY_UNBALANCED
    for vec, balanced in points:
        assert (sum(vec[:6]) == 1) == balanced
        assert {x.denominator for x in vec} <= set(inputs.CLASSIFY_DENOMS)


def test_verify_inputs_are_admissible():
    for seed in range(20):
        for s in range(len(inputs.CONTINUOUS_STRATA)):
            t, u, q, p = inputs.continuous_params(inputs.rng_for("verify", seed, "c"), s)
            assert all(abs(x) < 1 for x in t + u)
            assert abs(math.prod(t + u) - p * q) < 1e-12 * abs(p * q)
        A, B, q = inputs.pastro_params(inputs.rng_for("verify", seed, "p"))
        assert abs(A) < abs(q) ** 0.5 and abs(B) < abs(q) ** 0.5
        _, t6, q = inputs.measure_params(inputs.rng_for("verify", seed, "m"), "SB")
        assert abs(math.prod(t6) - q) < 1e-12


def test_tail_percentile_keeps_ten_ops_beyond():
    assert stats.tail_percentile(1) == 50
    assert stats.tail_percentile(120) == 90
    assert stats.tail_percentile(200) == 95
    assert stats.tail_percentile(1000) == 99
    assert stats.nearest_rank([1, 2, 3, 4], 50) == 2


def test_times_are_scaled_by_the_reference_copy():
    def rnd(lat_a, lat_b, ok_b=True):
        return {"duration": lat_a + lat_b, "ref_latencies": [2 * lat_a, 2 * lat_b],
                "ops": [["a", lat_a, True, 1.0, None], ["b", lat_b, ok_b, 2.0, None]]}

    figures = stats.REFERENCE_FIGURES["verify"]
    values, details = stats.end_to_end("verify", [rnd(1.0, 4.0), rnd(3.0, 2.0, ok_b=False)],
                                       (0.3, 0.1), [20.0])
    # the library ran twice as fast as the copy, and started 3x slower
    assert math.isclose(values["wall_s"], figures["wall_s"] / 2)
    assert math.isclose(values["op_p50_ms"], figures["op_p50_ms"] / 2)
    assert math.isclose(values["setup_s"], stats.REFERENCE_SETUP_S * 3)
    assert math.isclose(values["ops_per_s"], 1.5 / values["wall_s"])  # 3 of 4 ops passed
    assert values["ok_frac"] == 0.75
    assert details["as_run"]["wall_s"] == (5.0, 10.0)


def test_reference_copy_is_unchanged():
    assert run.tree_sha256(run.REF_PACKAGE) == run.REFERENCE_SHA256


def _round(make, *args, traced=False, keep=None, **kwargs):
    """One round of the library, each op next to the reference copy's."""
    (ops, stat_fn), (ref_ops, _) = (make(*args, package=package, **kwargs)
                                    for package in (workloads.LIBRARY, workloads.REFERENCE))
    if keep is not None:
        ops = [op for op in ops if op.kind in keep]
        ref_ops = [op for op in ref_ops if op.kind in keep]
    tracer = spans.Tracer() if traced else None
    ref = (ref_ops, spans.make_api(package=workloads.REFERENCE))
    record = workloads.run_round(ops, spans.make_api(tracer), tracer, stat_fn, ref=ref)
    record.update(index=0, traced=traced)
    return record, tracer


def _failures(record):
    return [op for op in record["ops"] if not op[2]]


def test_classify_smoke_and_layer_metrics():
    record, tracer = _round(workloads.classify_ops, 0, size=12, unbalanced=2, traced=True)
    assert len(record["ops"]) == 12 and not _failures(record)
    rows = [[0, *row] for row in tracer.spans]
    layer = stats.per_layer([record], rows)
    assert layer["polytope.calls"] >= 10 * 4 + 2
    assert layer["polytope.fail"] == 2  # the two unbalanced vectors
    assert layer["qkernel.calls"] == 0 and layer["biortho.busy_s"] == 0
    assert 0 < layer["polytope.face_of.hit_ratio"] < 1
    assert layer["polytope.reduce_to_P.word_len"] > 0
    assert 0.9 < layer["trace.span_coverage"] <= 1.0


# the continuous ops alone take seconds; everything else runs here
LIGHT_VERIFY = {"pastro", "measure_integral", "discrete", "discrete_matrix", "ladder",
                "measure_series", "kernel", "cli"}


def test_verify_smoke_and_layer_metrics():
    record, tracer = _round(workloads.verify_ops, 0, traced=True, keep=LIGHT_VERIFY)
    assert not _failures(record)
    rows = [[0, *row] for row in tracer.spans]
    layer = stats.per_layer([record], rows)
    for name in ("qkernel.elliptic_gamma.us", "biortho.rtilde.us",
                 "limits.numeric_limit.ms", "limits.apply_series.ms", "cli.busy_s"):
        assert layer[name] > 0, name
    assert layer["polytope.calls"] == 0
    assert 0.9 < layer["trace.span_coverage"] <= 1.0
    values, details = stats.end_to_end("verify", [record], (0.1, 0.1), [20.0])
    assert values["ok_frac"] == 1.0
    assert 0 < values["margin_digits"] < 1  # the 1111pp ladder sets it


def test_continuous_smoke():
    ops, _ = workloads.verify_ops(0)
    ops = [op for op in ops if op.kind == "continuous"][:1]  # the cheaper stratum
    record = workloads.run_round(ops, spans.make_api())
    assert not _failures(record)


def test_over_tolerance_residual_fails(monkeypatch):
    monkeypatch.setattr(workloads, "TOL_DISCRETE", 1e-20)
    record, _ = _round(workloads.verify_ops, 0, keep={"discrete"})
    assert len(_failures(record)) == len(record["ops"]) > 0
    values, _ = stats.end_to_end("verify", [record], (0.1, 0.1), [20.0])
    assert values["ok_frac"] == 0.0
    assert values["margin_digits"] < 0


def test_wrong_error_type_fails():
    op = workloads.Op("unbalanced", 0, lambda api: 1, expect=ZeroDivisionError)
    record = workloads.run_round([op], spans.make_api())
    assert _failures(record)[0][4] == "expected ZeroDivisionError, got no error"


def test_scheme_smoke_and_planted_digest():
    record, tracer = _round(workloads.scheme_ops, 0, traced=True)
    assert not _failures(record)
    assert record["ops"][0][3] == 15.0  # exact checks only
    layer = stats.per_layer([record], [[0, *row] for row in tracer.spans])
    assert layer["scheme.build_scheme.cold_s"] > 0 and layer["scheme.emit.s"] > 0
    planted = dict(workloads.SCHEME_DIGESTS, emit_tsv="0" * 64)
    record, _ = _round(partial(workloads.scheme_ops, digests=planted), 0)
    assert len(_failures(record)) == 1


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(stats.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(stats.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_runner_prints_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "classify", "--seed", "5",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in stats.END_TO_END]


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

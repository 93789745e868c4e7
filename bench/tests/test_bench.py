"""Tests of the benchmark itself: seeded inputs, the output checks, the
metric names it prints, and its refusal to run without sources."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import calibration
import gcoda
import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(name):
    a, b, c = (workloads.make_inputs(name, s) for s in (3, 3, 4))
    assert a.keys() == b.keys() == c.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), key
    assert any(not np.array_equal(a[key], c[key]) for key in a)


def _failed_ops(g, tmp_path):
    inputs = workloads.make_inputs("lib-newton", 1)
    state = workloads.setup(g, "lib-newton", 1)
    runner = run.Runner(workloads.make_ops(g, "lib-newton", inputs, state, tmp_path))
    _, results = runner.job(spans.NoTrace())
    return runner, {op.name for op, (_, _, rec) in zip(runner.ops, results) if rec.get("failed")}


def test_checker_passes_gcoda(tmp_path):
    runner, failed = _failed_ops(gcoda, tmp_path)
    assert runner.attempted == len(runner.ops) and runner.failed == 0 and not failed
    assert runner.zero_components > 0  # closure at spread 300 underflows; counted, not filtered


def test_checker_flags_a_stubbed_wrong_closure(tmp_path):
    # Uniform closure (x / sum) is wrong for general weights.
    stub = types.SimpleNamespace(**{k: getattr(gcoda, k) for k in dir(gcoda) if not k.startswith("__")})
    stub.closure = lambda ctx, x: np.asarray(x) / np.asarray(x).sum(axis=-1, keepdims=True)
    runner, failed = _failed_ops(stub, tmp_path)
    assert failed == {"closure.general", "closure.single"}
    assert runner.failed == 6 + workloads.NEWTON_SINGLE


def test_checker_flags_representable_parts_flushed_to_zero(tmp_path):
    # One-hot rows at the argmax sum to 1 and agree on their one nonzero part;
    # their zeros are not underflow at any spread.
    def one_hot(ctx, x):
        lam = np.atleast_2d(gcoda.closure(ctx, x))
        out = (lam == lam.max(axis=1, keepdims=True)).astype(float)
        return out if np.ndim(x) == 2 else out[0]

    stub = types.SimpleNamespace(**{k: getattr(gcoda, k) for k in dir(gcoda) if not k.startswith("__")})
    stub.closure = one_hot
    runner, failed = _failed_ops(stub, tmp_path)
    assert failed == {"closure.general", "closure.single"}
    assert runner.failed == 6 + workloads.NEWTON_SINGLE


def test_closed_along_accepts_only_underflowed_zeros():
    a = (1.0, 2.0)
    # The exact second part is about e^-800, below the smallest subnormal.
    logx = np.array([[0.0, -800.0]])
    assert workloads.closed_along(logx, np.array([[1.0, 0.0]]), a)
    # Here it is about e^-20, so a zero there is wrong.
    logx = np.array([[0.0, -20.0]])
    assert workloads.closed_along(logx, gcoda.closure(gcoda.make_context(a), np.exp(logx)), a)
    assert not workloads.closed_along(logx, np.array([[1.0, 0.0]]), a)


def test_stable_check_flags_changed_bytes():
    check = workloads.Stable(lambda out: True)
    result = workloads.CliResult(b"0.5,0.5\n", 0.1, 1, 0, "")
    assert check(result) and check(result)
    assert not check(workloads.CliResult(b"0.5,0.50000001\n", 0.1, 1, 0, ""))


def test_cli_check_flags_a_wrong_value():
    ref = np.array([0.1, 0.2, 0.7])
    ok = workloads.CliResult(b"0.1,0.2,0.7\n", 0.1, 1, 0, "")
    wrong = workloads.CliResult(b"0.1,0.2,0.700000001\n", 0.1, 1, 0, "")
    assert workloads._cli_rows_ok(ref, ok)
    assert not workloads._cli_rows_ok(ref, wrong)
    assert not workloads._cli_rows_ok(ref, workloads.CliResult(b"0.1,0.2,0.7\n", 0.1, 1, 1, ""))


def test_self_time_subtracts_children():
    t = spans.Tracer()
    with t.span("cli", "mean"):
        with t.span("stats", "frechet_mean", stage="compute"):
            pass
    own = spans.self_times(t.spans)
    outer, inner = t.spans
    assert own[inner["id"]] == pytest.approx(inner["end"] - inner["start"])
    assert own[outer["id"]] == pytest.approx((outer["end"] - outer["start"]) - own[inner["id"]])


def test_calibration_scale_maps_a_slower_host_to_reference_seconds():
    ref = calibration.REF_UNIT_S
    assert calibration.Clock.scale(ref, ref) == pytest.approx(1.0)
    # Kernel 1.5x slower around a section: its wall time shrinks by 1.5.
    assert 0.3 * calibration.Clock.scale(1.5 * ref, 1.5 * ref) == pytest.approx(0.2)
    clock = calibration.Clock(section_s=2.0)
    assert clock.units == round(calibration.SHARE * 2.0 / ref)
    assert calibration.Clock(section_s=0.0).units == calibration.MIN_UNITS


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_pct(12) == 90
    assert run.tail_pct(200) == 95
    assert run.tail_pct(10_000) == 99


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_printed_metrics_match_benchmark_json(name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", "1", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lib-newton", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""

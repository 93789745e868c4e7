"""The gain rule and the bound verdict of scripts/bench_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# parent quartiles 10.25 and 10.75: an IQR of 0.5 around a median of 10.5
PARENT = [10.0, 10.25, 10.5, 10.75, 11.0, 10.0, 10.25, 10.5, 10.75, 11.0]


def test_nine_of_ten_wins_with_gap_above_iqr_holds():
    change = [9.0] * 9 + [12.0]
    assert bench_pairs.wins(PARENT, change, "lower") == 9
    assert bench_pairs.gain_holds(PARENT, change, "lower")
    # the same numbers read as a throughput are nine losses
    assert not bench_pairs.gain_holds(PARENT, change, "higher")


def test_eight_of_ten_wins_fails():
    change = [9.0] * 8 + [12.0, 12.0]
    assert bench_pairs.wins(PARENT, change, "lower") == 8
    assert not bench_pairs.gain_holds(PARENT, change, "lower")


def test_gap_within_iqr_fails():
    # ten wins, but the median moves by 0.4, less than the parent's IQR
    change = [p - 0.4 for p in PARENT]
    assert bench_pairs.wins(PARENT, change, "lower") == 10
    assert bench_pairs.quartiles(PARENT) == (10.25, 10.75)
    assert not bench_pairs.gain_holds(PARENT, change, "lower")


def test_ties_count_for_neither():
    change = [9.0] * 8 + PARENT[8:]
    assert bench_pairs.wins(PARENT, change, "lower") == 8
    assert bench_pairs.wins(change, PARENT, "lower") == 0
    assert not bench_pairs.gain_holds(PARENT, change, "lower")
    assert bench_pairs.gain_holds(PARENT, [9.0] * 9 + PARENT[9:], "lower")


def test_bound_verdict_worse_beyond_the_bound():
    # parent median 10.5; a 25% bound allows medians up to 13.125 for a time
    assert bench_pairs.bound_verdict(PARENT, [13.0] * 10, "lower", 0.25) == "within"
    assert bench_pairs.bound_verdict(PARENT, [13.2] * 10, "lower", 0.25) == "worse"
    # and down to 7.875 for a throughput
    assert bench_pairs.bound_verdict(PARENT, [8.0] * 10, "higher", 0.25) == "within"
    assert bench_pairs.bound_verdict(PARENT, [7.8] * 10, "higher", 0.25) == "worse"
    # better by far is never worse
    assert bench_pairs.bound_verdict(PARENT, [1.0] * 10, "lower", 0.01) != "worse"


def test_bound_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # the parent's IQR of 0.5 is 4.8% of its median
    assert bench_pairs.bound_verdict(PARENT, PARENT, "lower", 0.05) == "within"
    assert bench_pairs.bound_verdict(PARENT, PARENT, "lower", 0.04) == "unresolved"
    # worse beyond the bound stays worse, however wide the spread
    assert bench_pairs.bound_verdict(PARENT, [11.0] * 10, "lower", 0.04) == "worse"
    # unless every run of the change reads better than every run of the parent
    assert bench_pairs.bound_verdict(PARENT, [9.9] * 10, "lower", 0.04) == "within"
    assert bench_pairs.bound_verdict(PARENT, [9.9] * 9 + [10.0], "lower", 0.04) == "unresolved"
    assert bench_pairs.bound_verdict(PARENT, [11.1] * 10, "higher", 0.04) == "within"


def test_report_prints_the_bound_verdict():
    spec = [{"name": "job_s_p50", "better": "lower", "bound": 0.25},
            {"name": "peak_mem_mb", "better": "lower", "bound": 0.1}]

    def runs(job, mem):
        return [{"metrics": {"job_s_p50": {"value": j}, "peak_mem_mb": {"value": m}}, "failed": 0}
                for j, m in zip(job, mem)]

    text = bench_pairs.report(spec, runs(PARENT, PARENT), runs(PARENT, [12.0] * 10))
    job, mem = text.splitlines()[1:3]
    assert job.endswith("no     within (25%)")
    assert mem.endswith("no     worse (10%)")

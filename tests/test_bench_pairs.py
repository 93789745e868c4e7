"""The gain rule of scripts/bench_pairs.py on fixed numbers."""

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

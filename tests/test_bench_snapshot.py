"""The per-workload summary of scripts/bench_snapshot.py on fixed numbers."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import bench_snapshot  # noqa: E402


def _run(job_s: float, rows_per_s: float, attempted: int, failed: int, warnings: int) -> tuple[dict, dict]:
    info = {"fail_frac": failed / attempted, "runtime_warnings": warnings}
    result = {
        "metrics": {"job_s_p50": {"value": job_s, "unit": "s"},
                    "rows_per_s": {"value": rows_per_s, "unit": "rows/s"}},
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
    }
    return info, result


def test_summarize_takes_medians_and_totals():
    runs = [_run(0.3, 100.0, 40, 0, 0), _run(0.1, 300.0, 50, 2, 1), _run(0.2, 200.0, 10, 0, 3)]
    assert bench_snapshot.summarize(runs) == {
        "metrics": {"job_s_p50": {"median": 0.2, "unit": "s", "runs": [0.3, 0.1, 0.2]},
                    "rows_per_s": {"median": 200.0, "unit": "rows/s", "runs": [100.0, 300.0, 200.0]}},
        "correct": False,
        "attempted": 100,
        "failed": 2,
        "fail_frac": 0.04,
        "runtime_warnings": 4,
    }

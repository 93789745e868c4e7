"""scripts/output_digest.py prints the same digests on every run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import output_digest  # noqa: E402

KERNELS = ["make_context", "solve_t", "closure", "log_map", "exp_map", "power", "perturb", "coords",
           "from_coords", "frechet_mean", "sample_covariance", "pca", "pairwise_distance", "distance", "norm",
           "inner", "gaussian_density", "gaussian_sample", "as_tangent", "validation", "rows_csv", "read_rows",
           "json"]


def test_two_runs_print_the_same_digests(monkeypatch, capsys):
    # a small grid: widths 3 and 5, up to 7 rows, 200 tangent rows
    monkeypatch.setattr(output_digest, "WIDTHS", (3, 5))
    monkeypatch.setattr(output_digest, "MAX_ROWS", 7)
    monkeypatch.setattr(output_digest, "TANGENT_ROWS", 200)
    monkeypatch.setattr(sys, "path", list(sys.path))
    runs = []
    for _ in range(2):
        assert output_digest.main([]) == 0
        runs.append(capsys.readouterr().out)
    assert [line.split()[0] for line in runs[0].splitlines()] == KERNELS
    assert runs[0] == runs[1]

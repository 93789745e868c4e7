import json
import re
import subprocess
import sys

import numpy as np
import pytest

import gcoda as g
from gcoda.cli import main, ternary_svg


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# param


def test_param_text(capsys):
    code, out, err = run_cli(capsys, "param", "--param", "1,1,2")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "a = 1,1,2"
    assert "e_a = 0.414213562373,0.414213562373,0.171572875254" in out
    assert out.splitlines()[2].startswith("s = 1.17157287525")


def test_param_json(capsys):
    code, out, _ = run_cli(capsys, "param", "--param", "2,2,2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] == [2.0, 2.0, 2.0]
    np.testing.assert_allclose(payload["e_a"], np.ones(3) / 3, atol=1e-12)


def test_param_file(tmp_path, capsys):
    path = write(tmp_path, "a.txt", "1,1,2\n")
    code, out, _ = run_cli(capsys, "param", "--param-file", path)
    assert code == 0 and out.splitlines()[0] == "a = 1,1,2"


def test_param_requires_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "param")
    assert code == 1 and "exactly one" in err


def test_param_validation_exit_codes(capsys):
    assert run_cli(capsys, "param", "--param", "1,0,1")[0] == 1
    assert run_cli(capsys, "param", "--param", "1,-1,1")[0] == 1
    assert run_cli(capsys, "param", "--param", "1,x,1")[0] == 1


def test_param_weight_ratio_rejected(capsys):
    code, out, err = run_cli(capsys, "param", "--param", "1e-150,1,1e150")
    assert code == 1 and out == ""
    assert err.startswith("gcoda: weight ratio") and err.count("\n") == 1


def test_param_weight_magnitude_rejected(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "1e-300,1e300,1\n")
    for argv in (("param", "--param", "1e-320,2e-320"),
                 ("param", "--param", "1e308,1.5e308"),
                 ("closure", "--param", "1e-306,2e-306,3e-306", "--input", path)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("gcoda: weight magnitudes") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# data commands


def test_closure_command(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "2,3,5\n1,1,8\n")
    code, out, _ = run_cli(capsys, "closure", "--param", "1,1,1", "--input", path)
    assert code == 0
    assert out == "0.2,0.3,0.5\n0.1,0.1,0.8\n"


def test_log_exp_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "c.csv", "0.2,0.3,0.5\n0.25,0.25,0.5\n")
    code, out, _ = run_cli(capsys, "log", "--param", "1,1,2", "--input", path)
    assert code == 0
    logs = write(tmp_path, "logs.csv", out)
    code, out2, _ = run_cli(capsys, "exp", "--param", "1,1,2", "--input", logs)
    assert code == 0
    back = np.array([[float(v) for v in line.split(",")] for line in out2.splitlines()])
    np.testing.assert_allclose(back, [[0.2, 0.3, 0.5], [0.25, 0.25, 0.5]], atol=1e-10)


def test_perturb_command(tmp_path, capsys):
    path = write(tmp_path, "c.csv", "0.2,0.3,0.5\n")
    code, out, _ = run_cli(capsys, "perturb", "--param", "1,1,1", "--input", path, "--by", "0.5,0.3,0.2")
    assert code == 0
    vals = [float(v) for v in out.strip().split(",")]
    np.testing.assert_allclose(vals, [10 / 29, 9 / 29, 10 / 29], atol=1e-12)


def test_power_command(tmp_path, capsys):
    path = write(tmp_path, "c.csv", "0.2,0.3,0.5\n")
    code, out, _ = run_cli(capsys, "power", "--param", "1,1,1", "--input", path, "--c", "2")
    assert code == 0
    vals = [float(v) for v in out.strip().split(",")]
    np.testing.assert_allclose(vals, np.array([0.04, 0.09, 0.25]) / 0.38, atol=1e-12)


def test_dist_single_row(tmp_path, capsys):
    path = write(tmp_path, "c.csv", "0.2,0.3,0.5\n")
    code, out, _ = run_cli(capsys, "dist", "--param", "1,1,1", "--input", path)
    assert code == 0 and out == "0\n"


def test_dist_matrix(tmp_path, capsys):
    path = write(tmp_path, "c.csv", "0.2,0.3,0.5\n0.3,0.3,0.4\n0.25,0.5,0.25\n")
    code, out, _ = run_cli(capsys, "dist", "--param", "1,1,2", "--input", path)
    assert code == 0
    M = np.array([[float(v) for v in line.split(",")] for line in out.splitlines()])
    assert M.shape == (3, 3)
    assert np.abs(M - M.T).max() == 0.0
    ctx = g.make_context([1, 1, 2])
    assert M[0, 1] == pytest.approx(g.distance(ctx, [0.2, 0.3, 0.5], [0.3, 0.3, 0.4]), abs=1e-12)


def test_mean_command(tmp_path, capsys):
    path = write(tmp_path, "c.csv", "0.2,0.3,0.5\n0.5,0.3,0.2\n")
    code, out, _ = run_cli(capsys, "mean", "--param", "1,1,1", "--input", path)
    assert code == 0
    vals = [float(v) for v in out.strip().split(",")]
    np.testing.assert_allclose(vals, [0.33913441998370525, 0.32173116003258956, 0.33913441998370525], atol=1e-12)


def test_pca_command(tmp_path, capsys):
    rng = np.random.default_rng(70)
    rows = rng.uniform(0.05, 1, size=(20, 3))
    rows /= rows.sum(axis=1, keepdims=True)
    path = write(tmp_path, "c.csv", "\n".join(",".join(f"{v:.17g}" for v in r) for r in rows) + "\n")
    code, out, _ = run_cli(capsys, "pca", "--param", "1,1,2", "--input", path, "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"param", "mean", "variances", "directions", "scores"}
    assert len(payload["variances"]) == 2
    assert payload["variances"][0] >= payload["variances"][1] >= 0
    assert np.array(payload["scores"]).shape == (20, 2)


def test_pca_rejects_csv_format(tmp_path, capsys):
    path = write(tmp_path, "c.csv", "0.2,0.3,0.5\n0.5,0.3,0.2\n")
    code, _, err = run_cli(capsys, "pca", "--param", "1,1,1", "--input", path, "--format", "csv")
    assert code == 1 and "json" in err


def test_sub_command(tmp_path, capsys):
    path = write(tmp_path, "c.csv", "0.2,0.3,0.5\n")
    code, out, _ = run_cli(capsys, "sub", "--param", "1,1,1", "--input", path, "--indices", "1,2")
    assert code == 0
    np.testing.assert_allclose([float(v) for v in out.strip().split(",")], [0.4, 0.6], atol=1e-12)
    code, out, _ = run_cli(capsys, "sub", "--param", "1,1,2", "--input", path, "--indices", "3,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["param"] == [2.0, 1.0]


def test_sub_bad_indices(tmp_path, capsys):
    path = write(tmp_path, "c.csv", "0.2,0.3,0.5\n")
    code, out, err = run_cli(capsys, "sub", "--param", "1,1,1", "--input", path, "--indices", "1,x")
    assert code == 1 and out == ""
    assert err == "gcoda: could not parse --indices: '1,x'\n"


# ---------------------------------------------------------------------------
# ingestion errors


def test_ingest_non_numeric(tmp_path, capsys):
    path = write(tmp_path, "bad.csv", "0.2,0.3,0.5\n0.2,zebra,0.5\n")
    code, _, err = run_cli(capsys, "log", "--param", "1,1,1", "--input", path)
    assert code == 1 and "non-numeric" in err
    # the message names the physical line, blank lines included
    path = write(tmp_path, "blank.csv", "a,b,c\n0.2,0.3,0.5\n\n\n0.2,x,0.5\n")
    code, _, err = run_cli(capsys, "log", "--param", "1,1,1", "--input", path)
    assert code == 1 and err == f"gcoda: {path}:5: non-numeric cell\n"


def test_ingest_negative(tmp_path, capsys):
    path = write(tmp_path, "bad.csv", "0.2,-0.3,1.1\n")
    code, _, err = run_cli(capsys, "log", "--param", "1,1,1", "--input", path)
    assert code == 1 and "positive" in err


def test_ingest_ragged(tmp_path, capsys):
    path = write(tmp_path, "bad.csv", "0.2,0.3,0.5\n0.2,0.8\n")
    code, _, err = run_cli(capsys, "log", "--param", "1,1,1", "--input", path)
    assert code == 1 and "ragged" in err


def test_ingest_non_simplex_needs_close(tmp_path, capsys):
    path = write(tmp_path, "raw.csv", "2,3,5\n")
    code, _, err = run_cli(capsys, "log", "--param", "1,1,1", "--input", path)
    assert code == 1 and "--close" in err
    code, out, _ = run_cli(capsys, "log", "--param", "1,1,1", "--input", path, "--close")
    assert code == 0
    vals = [float(v) for v in out.strip().split(",")]
    assert abs(sum(vals)) < 1e-12


def test_ingest_missing_file(capsys):
    code, _, err = run_cli(capsys, "log", "--param", "1,1,1", "--input", "/nonexistent/x.csv")
    assert code == 1 and "not found" in err


def test_ingest_byte_order_mark(tmp_path, capsys):
    path = write(tmp_path, "bom.csv", "\ufeff0.2,0.3,0.5\n0.25,0.25,0.5\n")
    code, out, _ = run_cli(capsys, "log", "--param", "1,1,1", "--input", path)
    assert code == 0 and len(out.splitlines()) == 2
    path = write(tmp_path, "bomh.csv", "\ufeffsand,silt,clay\n0.2,0.3,0.5\n")
    code, out, _ = run_cli(capsys, "plot", "--param", "1,1,1", "--input", path)
    assert code == 0 and ">sand</text>" in out


def test_ingest_header_row(tmp_path, capsys):
    path = write(tmp_path, "h.csv", "sand,silt,clay\n0.2,0.3,0.5\n")
    code, out, _ = run_cli(capsys, "plot", "--param", "1,1,1", "--input", path)
    assert code == 0
    assert ">sand</text>" in out and ">clay</text>" in out


# ---------------------------------------------------------------------------
# sampling, density, plot


def test_sample_deterministic(tmp_path, capsys):
    args = ("sample", "--param", "1,1,2", "--n", "25", "--seed", "42")
    code, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code == code2 == 0
    assert out1 == out2
    rows = np.array([[float(v) for v in line.split(",")] for line in out1.splitlines()])
    assert rows.shape == (25, 3)
    assert np.abs(rows.sum(axis=1) - 1).max() < 1e-11


def test_sample_different_seeds_differ(capsys):
    _, out1, _ = run_cli(capsys, "sample", "--param", "1,1,1", "--n", "5", "--seed", "1")
    _, out2, _ = run_cli(capsys, "sample", "--param", "1,1,1", "--n", "5", "--seed", "2")
    assert out1 != out2


def test_sample_with_mu_sigma(tmp_path, capsys):
    sigma = write(tmp_path, "sigma.csv", "0.5,0.1\n0.1,0.3\n")
    code, out, _ = run_cli(
        capsys, "sample", "--param", "1,1,1", "--n", "10", "--seed", "3", "--mu", "0.5,-0.2", "--sigma", sigma
    )
    assert code == 0
    assert len(out.splitlines()) == 10


def test_sample_rejects_bad_sigma(tmp_path, capsys):
    sigma = write(tmp_path, "sigma.csv", "1,1\n1,1\n")
    code, _, err = run_cli(
        capsys, "sample", "--param", "1,1,1", "--n", "4", "--sigma", sigma
    )
    assert code == 2 and "positive definite" in err


def test_density_command(tmp_path, capsys):
    ctx = g.make_context([1, 1, 2])
    path = write(tmp_path, "c.csv", ",".join(f"{v:.17g}" for v in ctx.e_a) + "\n")
    code, out, _ = run_cli(capsys, "density", "--param", "1,1,2", "--input", path)
    assert code == 0
    assert float(out.strip()) == pytest.approx(1 / (2 * np.pi), rel=1e-10)


def test_plot_svg_structure(tmp_path, capsys):
    path = write(tmp_path, "c.csv", "0.98,0.01,0.01\n0.01,0.98,0.01\n0.01,0.01,0.98\n")
    code, out, _ = run_cli(capsys, "plot", "--param", "1,1,1", "--input", path)
    assert code == 0
    assert out.startswith("<?xml")
    assert 'width="600" height="520"' in out
    assert out.count('r="2"') == 3
    # first point: p1*V1 + p2*V2 + p3*V3
    verts = np.array([[50.0, 470.0], [550.0, 470.0], [300.0, 470.0 - 250 * np.sqrt(3)]])
    expected = np.array([0.98, 0.01, 0.01]) @ verts
    m = re.search(r'<circle cx="([0-9.]+)" cy="([0-9.]+)"', out)
    assert float(m.group(1)) == pytest.approx(expected[0], abs=0.01)
    assert float(m.group(2)) == pytest.approx(expected[1], abs=0.01)


def test_plot_rejects_non_ternary(tmp_path, capsys):
    path = write(tmp_path, "c.csv", "0.2,0.2,0.3,0.3\n")
    code, _, err = run_cli(capsys, "plot", "--param", "1,1,1,1", "--input", path)
    assert code == 1 and "3-part" in err


def test_ternary_svg_unit():
    svg = ternary_svg(np.array([[1 / 3, 1 / 3, 1 / 3]]), ("a", "b", "c"))
    assert svg.count("<circle") == 1
    assert 'cx="300.00"' in svg


def test_output_file_and_subprocess(tmp_path):
    out_file = tmp_path / "samples.csv"
    cmd = [
        sys.executable, "-m", "gcoda", "sample",
        "--param", "1,1,1", "--n", "8", "--seed", "11", "--output", str(out_file),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rows = np.array([[float(v) for v in line.split(",")] for line in out_file.read_text().splitlines()])
    assert rows.shape == (8, 3)

    proc2 = subprocess.run(
        [sys.executable, "-m", "gcoda", "plot", "--param", "1,1,1",
         "--input", str(out_file), "--output", str(tmp_path / "samples.svg")],
        capture_output=True, text=True,
    )
    assert proc2.returncode == 0, proc2.stderr
    svg = (tmp_path / "samples.svg").read_text()
    assert svg.count("<circle") == 8

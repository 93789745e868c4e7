import json
import re
import subprocess
import sys
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest

import gcoda as g
from gcoda.cli import main, ternary_svg


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_any(capsys, *argv):
    """Like run_cli, but a usage error's SystemExit gives its exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
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


@pytest.mark.parametrize("text", ["1\n1\n2\n", "1,1,2", "1,1,2\n\n", "\n1, 1\n  \n2\r\n", "1,1\f,2\n"])
def test_param_file_layouts(tmp_path, capsys, text):
    # one weight per line, blank lines and a trailing newline all parse;
    # lines end at newlines only, so a form feed stays inside its cell
    path = write(tmp_path, "a.txt", text)
    code, out, _ = run_cli(capsys, "param", "--param-file", path)
    assert code == 0 and out.splitlines()[0] == "a = 1,1,2"


@pytest.mark.parametrize("flag,value", [("--param", "1,,2"), ("--param", "1,1,2,"), ("--param", ",1,1,2"),
                                        ("--param", "1, ,2"), ("--by", "0.5,,0.2"), ("--by", "0.5,0.3,0.2,"),
                                        ("--mu", "0.5,,0.1"), ("--mu", "0.5,0.1,")])
def test_empty_vector_cell_rejected(tmp_path, capsys, flag, value):
    # an empty cell used to be skipped, which built a shorter vector
    path = write(tmp_path, "c.csv", "0.2,0.3,0.5\n")
    argv = {"--param": ("param", "--param", value),
            "--by": ("perturb", "--param", "1,1,1", "--input", path, "--by", value),
            "--mu": ("sample", "--param", "1,1,1", "--n", "2", "--mu", value)}[flag]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"gcoda: could not parse {flag}: {value!r}\n"


# ---------------------------------------------------------------------------
# options a command does not read are usage errors

_BASE = {
    "param": ("param", "--param", "1,1,2"),
    "closure": ("closure", "--param", "1,1,2", "--input", "{pos}"),
    "log": ("log", "--param", "1,1,2", "--input", "{comp}"),
    "exp": ("exp", "--param", "1,1,2", "--input", "{tan}"),
    "perturb": ("perturb", "--param", "1,1,2", "--input", "{comp}", "--by", "2,1,1"),
    "power": ("power", "--param", "1,1,2", "--input", "{comp}", "--c", "0.5"),
    "dist": ("dist", "--param", "1,1,2", "--input", "{comp}"),
    "mean": ("mean", "--param", "1,1,2", "--input", "{comp}"),
    "pca": ("pca", "--param", "1,1,2", "--input", "{comp}"),
    "sub": ("sub", "--param", "1,1,2", "--input", "{comp}", "--indices", "3,1"),
    "sample": ("sample", "--param", "1,1,2", "--n", "3"),
    "density": ("density", "--param", "1,1,2", "--input", "{comp}"),
    "plot": ("plot", "--param", "1,1,2", "--input", "{comp}"),
}
_UNREAD = ([(c, ("--seed", "5")) for c in _BASE if c != "sample"]
           + [(c, ("--close",)) for c in ("param", "closure", "exp", "sample")]
           + [(c, ("--input", "{comp}")) for c in ("param", "sample")]
           + [("plot", ("--format", "json"))])


def _fill(tmp_path, argv):
    files = {"pos": write(tmp_path, "pos.csv", "2,3,5\n1,1,8\n"),
             "comp": write(tmp_path, "comp.csv", "0.2,0.3,0.5\n0.3,0.3,0.4\n"),
             "tan": write(tmp_path, "tan.csv", "0.1,-0.1,0\n")}
    return [a.format(**files) for a in argv]


def test_base_invocations_succeed(tmp_path, capsys):
    assert len(_UNREAD) == 19
    for command, argv in _BASE.items():
        code, out, err = run_any(capsys, *_fill(tmp_path, argv))
        assert code == 0 and out and err == "", command


@pytest.mark.parametrize("command,flag", _UNREAD, ids=[f"{c}{f[0]}" for c, f in _UNREAD])
def test_unread_option_is_a_usage_error(tmp_path, capsys, command, flag):
    code, out, err = run_any(capsys, *_fill(tmp_path, (*_BASE[command], *flag)))
    assert code == 1 and out == ""
    assert err == f"gcoda: error: unrecognized arguments: {' '.join(_fill(tmp_path, flag))}\n"


@pytest.mark.parametrize("command", [c for c in _BASE if "--input" in _BASE[c]])
def test_data_command_requires_input(tmp_path, capsys, command):
    argv = list(_BASE[command])
    del argv[argv.index("--input"):argv.index("--input") + 2]
    code, out, err = run_any(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"gcoda {command}: error: the following arguments are required: --input")
    assert err.count("\n") == 1


def test_sub_requires_indices(tmp_path, capsys):
    code, out, err = run_any(capsys, *_fill(tmp_path, _BASE["sub"][:-2]))
    assert code == 1 and out == ""
    assert err == "gcoda sub: error: the following arguments are required: --indices\n"


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


def test_power_overflow_is_one_line(tmp_path, capsys):
    # c * log(lam) is finite, but t * a in the closure solve would overflow
    path = write(tmp_path, "c.csv", "0.2,0.3,0.5\n")
    code, out, err = run_cli(capsys, "power", "--param", "1,2,3", "--input", path, "--c=-1e308")
    assert code == 2 and out == ""
    assert err.startswith("gcoda: numerical failure: ") and "too large" in err and err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_power_non_finite_c_is_a_validation_error(tmp_path, capsys, value):
    path = write(tmp_path, "c.csv", "0.2,0.3,0.5\n")
    code, out, err = run_cli(capsys, "power", "--param", "1,1,1", "--input", path, f"--c={value}")
    assert code == 1 and out == ""
    assert err == f"gcoda: --c must be finite, got {value}\n"


@pytest.mark.parametrize("by, message", [
    ("1e300,1e-300,1", "row 1 closes to a composition with a zero part"),
    ("0,1,1", "components must be strictly positive"),
])
def test_perturb_by_error_names_the_flag(tmp_path, capsys, by, message):
    path = write(tmp_path, "c.csv", "0.2,0.3,0.5\n")
    code, out, err = run_cli(capsys, "perturb", "--param", "1,1,1", "--input", path, "--by", by)
    assert code == 1 and out == ""
    assert err == f"gcoda: --by: {message}\n"


@pytest.mark.parametrize("argv", [("exp", "--input", "{tan}"), ("sample", "--n", "3"), ("mean", "--input", "{comp}")])
def test_neutral_element_zero_part_is_one_line(tmp_path, capsys, argv):
    # weights (1e-4, 1, 1e4) give e_a = (0.99928, 7.2e-4, 0.0): exp_map cannot lift
    files = {"{tan}": write(tmp_path, "t.csv", "0.1,-0.1,0\n"), "{comp}": write(tmp_path, "c.csv", "0.2,0.3,0.5\n")}
    argv = [files.get(v, v) for v in argv]
    code, out, err = run_cli(capsys, argv[0], "--param", "1e-4,1,1e4", *argv[1:])
    assert code == 1 and out == ""
    assert err == "gcoda: part 3 of the neutral element is zero at float64 precision; exp_map cannot lift through it\n"


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


def test_a_bad_first_row_is_not_taken_for_a_header(tmp_path, capsys):
    # a first line with a number in it is data, so its bad cell is reported
    # rather than the row dropped as a header
    path = write(tmp_path, "first.csv", "0.3,0.7x\n0.5,0.5\n0.4,0.6\n")
    code, out, err = run_cli(capsys, "mean", "--param", "1,1", "--input", path)
    assert (code, out, err) == (1, "", f"gcoda: {path}:1: non-numeric cell\n")


def test_ingest_negative(tmp_path, capsys):
    path = write(tmp_path, "bad.csv", "0.2,-0.3,1.1\n")
    code, _, err = run_cli(capsys, "log", "--param", "1,1,1", "--input", path)
    assert code == 1 and "positive" in err


@pytest.mark.parametrize("cell", ["inf", "nan", "-inf"])
@pytest.mark.parametrize("argv", [["closure"], ["log"], ["log", "--close"], ["exp"]],
                         ids=["closure", "log", "log-close", "exp"])
def test_ingest_non_finite_cell_is_one_line(tmp_path, capsys, argv, cell):
    path = write(tmp_path, "bad.csv", f"0.2,0.3,0.5\n0.2,{cell},0.5\n")
    code, out, err = run_cli(capsys, argv[0], "--param", "1,1,2", "--input", path, *argv[1:])
    assert code == 1 and out == ""
    assert err == f"gcoda: {path}: components must be finite\n"


def test_exp_row_off_the_tangent_space_names_the_file(tmp_path, capsys):
    path = write(tmp_path, "bad.csv", "0.1,-0.2,0.1\n0.2,0.3,0.5\n")
    code, out, err = run_cli(capsys, "exp", "--param", "1,1,2", "--input", path)
    assert code == 1 and out == ""
    assert err == f"gcoda: {path}: components must sum to 0 (within 1e-10)\n"


def test_ingest_row_sum_overflow_is_off_the_simplex(tmp_path, capsys):
    # the sum overflows to inf, which misses 1, without a RuntimeWarning
    path = write(tmp_path, "huge.csv", "0.2,0.3,0.5\n1e308,1e308,1\n")
    code, out, err = run_cli(capsys, "log", "--param", "1,1,2", "--input", path)
    assert code == 1 and out == ""
    assert err == f"gcoda: {path}: data row 2 does not sum to 1 (pass --close to project)\n"


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


def test_close_projects_only_rows_off_the_simplex(tmp_path, capsys):
    # 0.2000000004,0.3,0.5 sums to 1 within tolerance: it is divided by its sum
    # whatever rows follow it, not closed with the row that does not.
    argv = ("log", "--param", "0.5,1,1.5", "--close", "--input")
    alone = write(tmp_path, "alone.csv", "0.2000000004,0.3,0.5\n")
    mixed = write(tmp_path, "mixed.csv", "0.2000000004,0.3,0.5\n0.4,0.4,0.4\n")
    code, out_alone, _ = run_cli(capsys, *argv, alone)
    assert code == 0 and out_alone == "-0.423706878408,0.134871234425,0.288835643983\n"
    code, out_mixed, _ = run_cli(capsys, *argv, mixed)
    assert code == 0 and out_mixed.splitlines()[0] == out_alone.strip()


def test_close_row_that_closes_to_a_zero_part_names_the_row(tmp_path, capsys):
    # the sum overflows, so the row is closed; its last part underflows to 0
    path = write(tmp_path, "huge.csv", "0.2,0.3,0.5\n1e308,1e308,1\n")
    code, out, err = run_cli(capsys, "log", "--param", "1,1,2", "--close", "--input", path)
    assert code == 1 and out == ""
    assert err == f"gcoda: {path}: data row 2 closes to a composition with a zero part\n"


def test_exp_huge_tangent_row_is_one_line(tmp_path, capsys):
    # sum |x| exceeds float64; the tangent check must not warn before exit 2
    path = write(tmp_path, "huge.csv", "1e308,-1e308,0\n")
    code, out, err = run_cli(capsys, "exp", "--param", "1,1,1", "--input", path)
    assert code == 2 and out == ""
    assert err.startswith("gcoda: numerical failure: max|xi / e_a| = ") and err.count("\n") == 1


@pytest.mark.parametrize("command, rows, extra, verb", [
    ("exp", "0.1,-0.2,0.1\n1000,-500,-500", (), "gives"),
    ("closure", "1,2,3\n1e300,1e-300,1", (), "closes to"),
    ("power", "0.3,0.3,0.4\n0.5,0.25,0.25", ("--c", "2000"), "gives"),
    ("perturb", "0.3,0.3,0.4\n0.5,1e-200,0.5", ("--by", "1,1e-200,1"), "gives"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_row_with_a_zero_part_names_the_row(tmp_path, capsys, command, rows, extra, verb, fmt):
    # the closure rounds the small parts of row 2 to 0: not a composition
    path = write(tmp_path, "rows.csv", rows + "\n")
    code, out, err = run_cli(capsys, command, "--param", "1,1,1", *extra, "--format", fmt, "--input", path)
    assert code == 1 and out == ""
    assert err == f"gcoda: {path}: data row 2 {verb} a composition with a zero part\n"


def test_quadratic_power_names_the_first_zero_part_row(tmp_path, capsys):
    # every row closes on its own: row 1 is reported, with no warning from
    # the rows after it
    path = write(tmp_path, "rows.csv", "0.3,0.3,0.4\n0.001,0.001,0.998\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "power", "--param", "1,1,2", "--c", "1000", "--input", path)
    assert caught == [] and code == 1 and out == ""
    assert err == f"gcoda: {path}: data row 1 gives a composition with a zero part\n"


def test_sample_with_a_zero_part_names_the_sample_row(capsys):
    code, out, err = run_cli(capsys, "sample", "--param", "1,1,1", "--mu", "1e300,0", "--n", "2")
    assert code == 1 and out == ""
    assert err == "gcoda: sample row 1 is a composition with a zero part\n"


def test_sample_too_large_to_allocate_is_one_line(monkeypatch, capsys):
    # numpy refuses an array of 10**15 rows with a MemoryError subclass; the
    # draw raises it here, so that no size is ever allocated
    def refuse(self, n):
        raise MemoryError("Unable to allocate 7.11 PiB for an array with shape (500000000000000, 2) and data type float64")

    monkeypatch.setattr(g.RandomSource, "normals", refuse)
    code, out, err = run_cli(capsys, "sample", "--param", "1,1,2", "--n", str(10**15))
    assert code == 2 and out == ""
    assert err == "gcoda: out of memory: Unable to allocate 7.11 PiB for an array with shape (500000000000000, 2) and data type float64\n"


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


def test_param_file_byte_order_mark(tmp_path, capsys):
    # a --param-file reads a byte order mark as --input and --sigma do
    path = write(tmp_path, "a.txt", "\ufeff1,1,2\n")
    code, out, err = run_cli(capsys, "param", "--param-file", path)
    assert code == 0 and err == "" and out.splitlines()[0] == "a = 1,1,2"


@pytest.mark.parametrize("flag", ["--input", "--param-file", "--sigma"])
def test_non_utf8_file_is_a_validation_error(tmp_path, capsys, flag):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"0.2,0.3,0.5\n0.2,0.3,0.5\xff\n")
    data = write(tmp_path, "ok.csv", "0.2,0.3,0.5\n")
    argv = {"--input": ("log", "--param", "1,1,1", "--input", str(bad)),
            "--param-file": ("log", "--param-file", str(bad), "--input", data),
            "--sigma": ("density", "--param", "1,1,1", "--input", data, "--sigma", str(bad))}[flag]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"gcoda: {bad}: not UTF-8 text\n"


@pytest.mark.parametrize("flag", ["--input", "--param-file", "--sigma"])
def test_missing_file_is_a_validation_error(tmp_path, capsys, flag):
    missing = str(tmp_path / "missing.csv")
    data = write(tmp_path, "ok.csv", "0.2,0.3,0.5\n")
    argv = {"--input": ("log", "--param", "1,1,1", "--input", missing),
            "--param-file": ("log", "--param-file", missing, "--input", data),
            "--sigma": ("density", "--param", "1,1,1", "--input", data, "--sigma", missing)}[flag]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"gcoda: input file not found: {missing}\n"


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


def test_negative_option_value_needs_the_equals_form(capsys):
    # argparse reads a value that starts with "-" and is not a plain
    # number as an option; --mu=-1,0 passes it as the value
    code, out, err = run_any(capsys, "sample", "--param", "1,1,1", "--n", "3", "--mu", "-1,0")
    assert code == 1 and out == "" and "expected one argument" in err
    code, out, err = run_cli(capsys, "sample", "--param", "1,1,1", "--n", "3", "--mu=-1,0")
    _, shifted, _ = run_cli(capsys, "sample", "--param", "1,1,1", "--n", "3", "--mu=1,0")
    assert code == 0 and err == "" and len(out.splitlines()) == 3 and out != shifted


@pytest.mark.parametrize("flag,argv", [
    ("--mu", ("sample", "--param", "1,1,1", "--n", "3", "--mu", "-1,0")),
    ("--c", ("power", "--param", "1,1,1", "--input", "x.csv", "--c", "-1e-3")),
    ("--param", ("closure", "--param", "-1,-1,-2", "--input", "x.csv")),
], ids=["mu", "c", "param"])
def test_negative_option_value_error_names_the_equals_form(capsys, flag, argv):
    code, out, err = run_any(capsys, *argv)
    assert code == 1 and out == ""
    assert err == (f"gcoda {argv[0]}: error: argument {flag}: expected one argument"
                   f" (write a value that starts with '-' as {flag}=VALUE)\n")


def test_sample_rejects_bad_sigma(tmp_path, capsys):
    sigma = write(tmp_path, "sigma.csv", "1,1\n1,1\n")
    code, _, err = run_cli(
        capsys, "sample", "--param", "1,1,1", "--n", "4", "--sigma", sigma
    )
    assert code == 2 and "positive definite" in err


def test_density_rejects_a_small_asymmetric_sigma(tmp_path, capsys):
    # at the law's mean, where a density accepted from the lower triangle
    # alone would print
    sigma = write(tmp_path, "sigma.csv", "1e-14,5e-15\n9e-15,1e-14\n")
    mean = g.make_context([1, 1, 2]).e_a
    data = write(tmp_path, "comp.csv", ",".join(f"{v:.17g}" for v in mean) + "\n")
    code, out, err = run_cli(capsys, "density", "--param", "1,1,2", "--input", data, "--sigma", sigma)
    assert code == 2 and out == ""
    assert err == "gcoda: numerical failure: covariance must be symmetric\n"


@pytest.mark.parametrize("law", [
    ["--mu", "nan,0"],
    ["--mu", "0,inf"],
    ["--sigma", "{sigma}"],
], ids=["mu-nan", "mu-inf", "sigma-inf"])
@pytest.mark.parametrize("command", ["density", "sample"])
def test_non_finite_law_is_one_line(tmp_path, capsys, command, law):
    sigma = write(tmp_path, "sigma.csv", "1,0\n0,inf\n")
    data = write(tmp_path, "comp.csv", "0.2,0.3,0.5\n")
    extra = ["--input", data] if command == "density" else ["--n", "3"]
    law = [v.format(sigma=sigma) for v in law]
    code, out, err = run_cli(capsys, command, "--param", "1,1,2", *extra, *law, "--format", "json")
    assert code == 1 and out == ""
    assert err == "gcoda: mean and covariance must be finite\n"


def test_density_command(tmp_path, capsys):
    ctx = g.make_context([1, 1, 2])
    path = write(tmp_path, "c.csv", ",".join(f"{v:.17g}" for v in ctx.e_a) + "\n")
    code, out, _ = run_cli(capsys, "density", "--param", "1,1,2", "--input", path)
    assert code == 0
    assert float(out.strip()) == pytest.approx(1 / (2 * np.pi), rel=1e-10)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_density_underflow_names_the_row(tmp_path, capsys, fmt):
    # far from --mu 40,40 the density is below the smallest float64, at the
    # law's mean it is not; the first row that underflows is named
    at_mean = g.from_coords(g.make_context([1, 1, 1]), g.helmert_basis(3), [40.0, 40.0])
    text = "x,y,z\n" + ",".join(f"{v:.17g}" for v in at_mean) + "\n0.2,0.3,0.5\n0.6,0.3,0.1\n"
    path = write(tmp_path, "c.csv", text)
    code, out, err = run_cli(capsys, "density", "--param", "1,1,1", "--mu", "40,40", "--input", path,
                             "--format", fmt)
    assert code == 1 and out == ""
    assert err == f"gcoda: {path}: density of data row 2 underflows to 0\n"


@pytest.mark.parametrize("law", [
    ["--mu=1e308,1e308"],
    ["--sigma", "{tiny}"],
    ["--sigma", "{sigma}", "--mu=1e308,1e308"],
], ids=["huge-mu", "tiny-sigma", "sigma-file-huge-mu"])
def test_density_overflow_is_one_line(tmp_path, capsys, law):
    # the whitened deviation overflows in its square, or already in the
    # whitening product; the density underflows to 0 without a warning
    tiny = write(tmp_path, "tiny.csv", "1e-310,0\n0,1e-310\n")
    sigma = write(tmp_path, "sigma.csv", "0.5,0.1\n0.1,0.3\n")
    path = write(tmp_path, "c.csv", "0.2,0.3,0.5\n")
    law = [v.format(tiny=tiny, sigma=sigma) for v in law]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "density", "--param", "1,1,1", "--input", path, *law)
    assert code == 1 and out == ""
    assert err == f"gcoda: {path}: density of data row 1 underflows to 0\n"


SAMPLE_OVERFLOW = "gcoda: numerical failure: the draws overflow float64: --mu (max |mu| = {}) or --sigma is too large\n"


def test_sample_overflow_is_one_line(capsys):
    # a mean near float64's limit overflows the draws' tangent vectors (the
    # basis product) without a warning, and the lift rejects them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_cli(capsys, "sample", "--param", "1,1,1", "--n", "3", "--mu=1.7e308,1.7e308")
    assert got == (2, "", SAMPLE_OVERFLOW.format("1.7e+308"))


def test_sample_lift_overflow_is_the_same_failure(capsys):
    # finite tangent vectors whose lift is too large to close fail as the
    # overflowing ones above do, with the same line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_cli(capsys, "sample", "--param", "1,1.5,2", "--n", "3", "--mu=1e308,-1e308")
    assert got == (2, "", SAMPLE_OVERFLOW.format("1e+308"))


def test_density_tiny_but_representable(tmp_path, capsys):
    path = write(tmp_path, "c.csv", "0.2,0.3,0.5\n")
    code, out, _ = run_cli(capsys, "density", "--param", "1,1,1", "--mu", "20,20", "--input", path)
    assert code == 0 and out == "9.05525446207e-178\n"


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


def test_plot_escapes_header_labels(tmp_path, capsys):
    path = write(tmp_path, "h.csv", "a<b,c&d,e>f\n0.2,0.3,0.5\n")
    code, out, _ = run_cli(capsys, "plot", "--param", "1,1,1", "--input", path)
    assert code == 0
    root = ElementTree.fromstring(out.encode("utf-8"))
    labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert labels == ["a<b", "c&d", "e>f"]


@pytest.mark.parametrize("char", ["\x01", "\x1f", "\ufffe"])
def test_plot_rejects_label_xml_forbids(tmp_path, capsys, char):
    path = write(tmp_path, "h.csv", f"a{char}b,c,d\n0.2,0.3,0.5\n")
    code, out, err = run_cli(capsys, "plot", "--param", "1,1,1", "--input", path)
    assert code == 1 and out == ""
    assert err == f"gcoda: label {'a' + char + 'b'!r} holds a character XML 1.0 forbids\n"


def test_plot_keeps_tab_and_non_ascii_labels(tmp_path, capsys):
    path = write(tmp_path, "h.csv", "a\tb,s\u00e4nd,\u7c98\u571f \U0001d465\n0.2,0.3,0.5\n")
    code, out, _ = run_cli(capsys, "plot", "--param", "1,1,1", "--input", path)
    assert code == 0
    root = ElementTree.fromstring(out.encode("utf-8"))
    labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert labels == ["a\tb", "s\u00e4nd", "\u7c98\u571f \U0001d465"]


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

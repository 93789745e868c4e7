"""Golden CLI outputs: every command under uniform, quadratic and general weights.

The expected outputs live in ``tests/golden/*.out``; the inputs they were made
from live in ``tests/golden/fixtures``.  Outputs that depend on neither the
general-weight closure solve nor the eigensolver must stay byte-identical.
Outputs under general weights and every ``pca`` report are compared number by
number, within 1e-10 of the largest magnitude in the expected file, with the
text around the numbers unchanged.

Regenerate the expected files (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import decimal
import io
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import gcoda as g
from gcoda.cli import main

from _oracles import decimal_closure

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = GOLDEN / "fixtures"
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

WEIGHTS = {
    "uniform": ("1,1,1,1,1", "1,1,1"),
    "quadratic": ("1,1,1,1,2", "1,1,2"),
    "general": ("0.5,1,1.5,2,3", "0.5,1,1.5"),
}

# name -> argv after the command's --param; "{F}" is the fixtures directory.
COMMANDS = {
    "param": ["param"],
    "param-json": ["param", "--format", "json"],
    "closure": ["closure", "--input", "{F}/pos5.csv"],
    "log": ["log", "--input", "{F}/comp5.csv"],
    "log-close": ["log", "--input", "{F}/pos5.csv", "--close"],
    "exp": ["exp", "--input", "{F}/tan5.csv"],
    "perturb": ["perturb", "--input", "{F}/comp5.csv", "--by", "2,1,1,3,1"],
    "power": ["power", "--input", "{F}/comp5.csv", "--c", "0.5"],
    "dist": ["dist", "--input", "{F}/comp5.csv"],
    "dist-json": ["dist", "--input", "{F}/comp5.csv", "--format", "json"],
    "mean": ["mean", "--input", "{F}/comp5.csv"],
    "pca": ["pca", "--input", "{F}/comp5.csv", "--k", "2"],
    "sub": ["sub", "--input", "{F}/comp5.csv", "--indices", "4,2,5"],
    "sub-json": ["sub", "--input", "{F}/comp5.csv", "--indices", "1,3", "--format", "json"],
    "sample": ["sample", "--n", "20", "--seed", "7"],
    "sample-law-json": ["sample", "--n", "10", "--seed", "3", "--mu", "0.1,-0.2,0.3,0",
                        "--sigma", "{F}/sigma4.csv", "--format", "json"],
    "density": ["density", "--input", "{F}/comp5.csv"],
    "density-law": ["density", "--input", "{F}/comp5.csv", "--mu", "0.1,-0.2,0.3,0",
                    "--sigma", "{F}/sigma4.csv"],
    "plot": ["plot", "--input", "{F}/comp3.csv"],
}

CASES = [(w, c) for w in WEIGHTS for c in COMMANDS]


def _argv(weights: str, command: str) -> list[str]:
    five, three = WEIGHTS[weights]
    args = [a.replace("{F}", str(FIXTURES)) for a in COMMANDS[command]]
    return [args[0], "--param", three if command == "plot" else five, *args[1:]]


def _run(weights: str, command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(_argv(weights, command))
    assert code == 0
    return out.getvalue()


def _numeric(weights: str, command: str) -> bool:
    return weights == "general" or command == "pca"


@pytest.mark.parametrize("weights,command", CASES, ids=[f"{w}-{c}" for w, c in CASES])
def test_cli_golden(weights, command):
    expected = (GOLDEN / f"{weights}-{command}.out").read_text(encoding="utf-8")
    got = _run(weights, command)
    if not _numeric(weights, command):
        assert got == expected
        return
    assert NUMBER.split(got) == NUMBER.split(expected)
    want = np.array([float(v) for v in NUMBER.findall(expected)])
    have = np.array([float(v) for v in NUMBER.findall(got)])
    assert np.abs(have - want).max(initial=0.0) <= 1e-10 * np.abs(want).max(initial=0.0)


@pytest.mark.parametrize("weights,command", CASES, ids=[f"{w}-{c}" for w, c in CASES])
def test_cli_output_file_holds_stdout_bytes(weights, command, tmp_path):
    path = tmp_path / "out"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*_argv(weights, command), "--output", str(path)])
    assert code == 0 and out.getvalue() == ""
    assert path.read_bytes() == _run(weights, command).encode("utf-8")


def _compositions(name: str) -> np.ndarray:
    """The rows of a fixture, divided by their sums twice, as ingest and then the kernel do."""
    rows = np.loadtxt(FIXTURES / name, delimiter=",", skiprows=1)
    for _ in range(2):
        rows = rows / rows.sum(axis=-1, keepdims=True)
    return rows


def _oracle_logs(command: str, ctx) -> np.ndarray:
    """The float64 logarithms whose closure ``command``'s golden holds, formed as the CLI forms them."""
    if command == "closure":
        return np.log(np.loadtxt(FIXTURES / "pos5.csv", delimiter=","))
    if command == "power":
        return 0.5 * np.log(_compositions("comp5.csv"))
    if command == "perturb":
        by = g.closure(ctx, [2.0, 1.0, 1.0, 3.0, 1.0])
        return np.log(_compositions("comp5.csv")) + np.log(by / by.sum())
    return np.loadtxt(FIXTURES / "tan5.csv", delimiter=",") / ctx.e_a  # exp: the lift xi / e_a


@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("command", ["closure", "power", "perturb", "exp"])
def test_golden_cells_are_the_true_closure_rounded(weights, command):
    # each cell is the 50-digit closure of the same float64 logarithms,
    # rounded to 12 significant digits
    ctx = g.make_context([float(v) for v in WEIGHTS[weights][0].split(",")])
    twelve = decimal.Context(prec=12)
    want = [[twelve.plus(v) for v in decimal_closure(ctx.a, row, log=True)] for row in _oracle_logs(command, ctx)]
    text = (GOLDEN / f"{weights}-{command}.out").read_text(encoding="utf-8")
    assert [[decimal.Decimal(c) for c in line.split(",")] for line in text.splitlines()] == want


if __name__ == "__main__":
    for w, c in CASES:
        (GOLDEN / f"{w}-{c}.out").write_text(_run(w, c), encoding="utf-8")
    print(f"wrote {len(CASES)} golden files to {GOLDEN}", file=sys.stderr)

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
import io
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from gcoda.cli import main

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


if __name__ == "__main__":
    for w, c in CASES:
        (GOLDEN / f"{w}-{c}.out").write_text(_run(w, c), encoding="utf-8")
    print(f"wrote {len(CASES)} golden files to {GOLDEN}", file=sys.stderr)

"""What a CLI call loads, and the usage messages of its parser.

A command of the geometry alone loads neither the statistics layers
(``gcoda.stats``, ``gcoda.basis``, ``gcoda.compose``) nor ``json``: each
test runs one command in a fresh interpreter and reads its ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gcoda as g
from gcoda.cli import main

SRC = str(Path(g.__file__).resolve().parents[1])
LAZY = ("gcoda.stats", "gcoda.basis", "gcoda.compose", "json")
PROBE = (
    "import sys\n"
    "from gcoda.cli import main\n"
    "code = main(sys.argv[1:])\n"
    f"print(code, *(m for m in {LAZY!r} if m in sys.modules))\n"
)

COMMANDS = {
    "param": "print the canonical weights, neutral element and normalizer",
    "closure": "project positive rows onto the simplex",
    "log": "log-map rows to zero-sum tangent vectors",
    "exp": "exp-map zero-sum rows to compositions",
    "perturb": "group-translate every row by a fixed vector",
    "power": "scalar-multiply every row",
    "dist": "full pairwise distance matrix",
    "mean": "intrinsic (group) sample mean",
    "pca": "principal component analysis (JSON)",
    "sub": "subcomposition under the restricted weights",
    "sample": "draw from a normal law on the simplex",
    "density": "normal density at each input row",
    "plot": "ternary scatter SVG of 3-part rows",
}

GEOMETRY_ONLY = {
    "param": [],
    "closure": ["--input", "positive.csv"],
    "log": ["--input", "comps.csv"],
    "exp": ["--input", "tangent.csv"],
    "perturb": ["--input", "comps.csv", "--by", "1,2,3"],
    "power": ["--input", "comps.csv", "--c", "2"],
    "dist": ["--input", "comps.csv"],
    "plot": ["--input", "comps.csv"],
}


def loaded(tmp_path, *argv) -> list[str]:
    """The exit code of ``main(argv)`` in a fresh interpreter, then which of ``LAZY`` it loaded."""
    (tmp_path / "positive.csv").write_text("1,2,3\n", encoding="utf-8")
    (tmp_path / "comps.csv").write_text("0.2,0.3,0.5\n0.6,0.3,0.1\n", encoding="utf-8")
    (tmp_path / "tangent.csv").write_text("0.1,-0.05,-0.05\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv, "--output", "out.txt"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("command", GEOMETRY_ONLY)
def test_geometry_commands_skip_the_statistics_and_json(tmp_path, command):
    assert loaded(tmp_path, command, "--param", "1,1,2", *GEOMETRY_ONLY[command]) == ["0"]


def test_json_output_loads_json(tmp_path):
    # the probe above can see a module that a command loads
    assert loaded(tmp_path, "param", "--param", "1,1,2", "--format", "json") == ["0", "json"]


def run_usage(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_help_lists_every_command_with_its_summary(capsys):
    code, out, _ = run_usage(capsys, "-h")
    assert code == 0 and out.startswith("usage: gcoda [-h]")
    text = " ".join(out.split())
    assert "{" + ",".join(COMMANDS) + "}" in text
    for name, summary in COMMANDS.items():
        assert f" {name} {summary} " in text


def test_unknown_command_lists_every_choice(capsys):
    code, out, err = run_usage(capsys, "nosuch")
    assert code == 1 and out == ""
    message, = err.splitlines()
    assert message.startswith("gcoda: error: argument command: invalid choice: 'nosuch' (choose from ")
    assert [c.strip("' ") for c in message.split("(choose from ")[1].rstrip(")").split(",")] == list(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_exits_0(capsys, command):
    code, out, err = run_usage(capsys, command, "-h")
    assert code == 0 and err == ""
    assert out.startswith(f"usage: gcoda {command} [-h]")

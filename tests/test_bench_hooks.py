"""The CLI surface the benchmark relies on.

``bench/cli_replay.py`` swaps private ``gcoda.cli`` functions for timing
wrappers by name; a renamed one would fail only inside the traced benchmark.
The ``cli-*`` workloads run fixed argument lists; an option the CLI stopped
accepting would fail only inside the benchmark run.
"""

import inspect
import sys
from pathlib import Path

import pytest

import gcoda as g
import gcoda.cli as cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import cli_replay  # noqa: E402
import workloads  # noqa: E402

NAMES = (*cli_replay.PARSE, *cli_replay.INGEST, "_read_rows", "_emit", "build_parser", "main")


@pytest.mark.parametrize("name", NAMES)
def test_replay_hook_is_a_cli_function(name):
    assert inspect.isfunction(getattr(cli, name, None))


def test_replay_field_hooks_match_signatures():
    # the replay records bytes_in from _read_rows(path), bytes_out from _emit(text, output)
    assert list(inspect.signature(cli._read_rows).parameters) == ["path"]
    assert list(inspect.signature(cli._emit).parameters) == ["text", "output"]


@pytest.mark.parametrize("name", ("cli-read", "cli-write"))
def test_workload_argv_parses(name, tmp_path):
    ops = workloads.make_ops(g, name, workloads.make_inputs(name, 0), workloads.setup(g, name, 0), tmp_path)
    assert ops and all(op.argv for op in ops)
    for op in ops:
        assert cli.build_parser().parse_args(list(op.argv)).command == op.name

"""The CLI names the benchmark's traced replay wraps exist in ``gcoda.cli``.

``bench/cli_replay.py`` swaps private ``gcoda.cli`` functions for timing
wrappers by name; a renamed one would fail only inside the traced benchmark.
"""

import inspect
import sys
from pathlib import Path

import pytest

import gcoda.cli as cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import cli_replay  # noqa: E402

NAMES = (*cli_replay.PARSE, *cli_replay.INGEST, "_read_rows", "_emit", "build_parser", "main")


@pytest.mark.parametrize("name", NAMES)
def test_replay_hook_is_a_cli_function(name):
    assert inspect.isfunction(getattr(cli, name, None))


def test_replay_field_hooks_match_signatures():
    # the replay records bytes_in from _read_rows(path), bytes_out from _emit(text, output)
    assert list(inspect.signature(cli._read_rows).parameters) == ["path"]
    assert list(inspect.signature(cli._emit).parameters) == ["text", "output"]

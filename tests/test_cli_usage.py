"""scripts/cli_usage.py: one line per child run and the medians, from a small parent."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cli_usage.py"


def launch(tmp_path, *args):
    rows = tmp_path / "one.csv"
    rows.write_text("0.2,0.3,0.5\n")
    cmd = [sys.executable, str(SCRIPT), "--runs", "2", "--", "closure", "--input", str(rows), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def test_a_one_row_closure_reports_every_run_and_the_medians(tmp_path):
    proc = launch(tmp_path, "--param", "1,1,1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["run 1", "run 2", "median"]
    for line in lines:
        fields = line.split(":", 1)[1].split()
        values = dict(zip(fields[::2], map(float, fields[1::2])))
        assert list(values) == ["wall_s", "maxrss_mb", "minflt"]
        assert all(v > 0 for v in values.values())


def test_a_failing_child_fails_the_launcher(tmp_path):
    proc = launch(tmp_path, "--param", "1,1")  # two weights for three columns: exit 1
    assert proc.returncode == 1
    assert proc.stdout == "" and proc.stderr.splitlines()[-1] == "run 1: exit 1"

"""Wall time, peak RSS and minor page faults of ``python -m gcoda`` calls.

Runs ``python -m gcoda ARGS`` RUNS times, one after another, each as a child
of this stdlib-only process, and reads each child's own resource usage from
``os.wait4``: its peak resident set (``ru_maxrss``) and its minor page faults
(``ru_minflt``).  A child's ``ru_maxrss`` also counts its parent's resident
set before the exec, so this parent imports neither numpy nor gcoda and stays
small.  The children inherit the environment, with SRC put first on
PYTHONPATH, and their stdout is discarded: give the command ``--output FILE``
to keep its output.  Prints one line per run, then the medians; exits 1 if a
child fails.

Usage: python3 scripts/cli_usage.py [--runs N] [--src SRC] -- dist --param 1,1,1,1,2 --input rows.csv --output d.csv
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(cmd: list[str], env: dict[str, str]) -> tuple[int, float, int, int]:
    """Exit code, wall seconds, peak RSS in KiB and minor faults of one child run of ``cmd``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(proc.pid, 0)  # returns the moment the child exits, with its own usage
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss, usage.ru_minflt


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="calls to make (default 5)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to run (default: the src/ beside this script)")
    parser.add_argument("args", nargs=argparse.REMAINDER, help="arguments to python -m gcoda, after --")
    opts = parser.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    if opts.runs < 1 or not args:
        parser.error("need --runs >= 1 and the arguments of a gcoda command")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(opts.src.resolve()), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "gcoda", *args]
    walls, rss, faults = [], [], []
    for i in range(opts.runs):
        code, wall, maxrss, minflt = run_once(cmd, env)
        if code != 0:
            print(f"run {i + 1}: exit {code}", file=sys.stderr)
            return 1
        walls.append(wall)
        rss.append(maxrss)
        faults.append(minflt)
        print(f"run {i + 1}: wall_s {wall:.4f}  maxrss_mb {maxrss / 1024:.2f}  minflt {minflt}")
    print(f"median: wall_s {statistics.median(walls):.4f}  maxrss_mb {statistics.median(rss) / 1024:.2f}  "
          f"minflt {statistics.median(faults):g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Set-up probe, run in a fresh interpreter: import gcoda and gcoda.cli, then
build one workload's contexts, bases and Gaussian laws.

    python3 bench/setup_probe.py <workload> <seed>

``run.py`` times whole runs of this script; ``setup_s`` is the median of
the runs in one benchmark run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gcoda  # noqa: E402
import gcoda.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.setup(gcoda, sys.argv[1], int(sys.argv[2]))

"""Host-speed calibration: a fixed kernel, independent of gcoda, timed around
every timed section so that end-to-end times can be put on a common scale.

The host this benchmark runs on is shared: its speed drifts by up to half
again within minutes, the same for gcoda and for any other code.  So each
timed section (a job or a set-up probe) is bracketed by calibration samples,
and its wall time is reported in *reference seconds*:

    wall time * REF_UNIT_S / (mean calibration unit time before and after it)

On a host running the kernel in ``REF_UNIT_S`` (the reference host, quiet),
reference seconds are wall seconds.  The kernel touches nothing of the
program, so a change to gcoda moves reference seconds exactly as it moves
wall seconds; a change in host speed moves both the section and the kernel,
and cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of one unit on the reference host (2 vCPU Intel Xeon VM,
# Python 3.11.7, numpy 2.4.6), quiet.
REF_UNIT_S = 5.0e-3
SHARE = 0.1  # calibration time per timed section, as a share of a warm-up job
MIN_UNITS = 4

_FLOATS = np.linspace(0.1, 2.0, 7000).tolist()


def unit() -> None:
    """One unit of the kernel: an interpreter loop, then float formatting.

    Of the kernels tried (these two, large and small numpy array passes),
    this pair tracked this host's slow spells best on both ``lib-*`` jobs.
    """
    s = 0.0
    for i in range(40_000):
        s += i * 0.5
    ",".join(f"{v:.12g}" for v in _FLOATS)


class Clock:
    """Calibration samples sized to a share of one timed section."""

    def __init__(self, section_s: float):
        self.units = max(MIN_UNITS, round(SHARE * section_s / REF_UNIT_S))
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time per unit of ``self.units`` units, in seconds."""
        t0 = time.perf_counter()
        for _ in range(self.units):
            unit()
        per_unit = (time.perf_counter() - t0) / self.units
        self.samples.append(per_unit)
        return per_unit

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from wall seconds to reference seconds for a section between two samples."""
        return REF_UNIT_S / (0.5 * (before + after))

    def median_unit_s(self) -> float:
        return statistics.median(self.samples)

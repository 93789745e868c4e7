"""In-memory spans around the benchmark's own calls into gcoda, and the
per-layer metrics computed from them.

A span records its layer, name, start, end, parent span and job id, plus the
rows it handled and any counts the caller attaches.  Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NoTrace:
    """Stand-in for :class:`Tracer` that records nothing."""

    caught = None

    def span(self, layer, name, **fields):
        return nullcontext({})


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.job = 0
        self.caught: list | None = None  # warnings recorded during the running job

    def _runtime_warnings(self) -> int:
        return sum(issubclass(w.category, RuntimeWarning) for w in self.caught) if self.caught is not None else 0

    @contextmanager
    def span(self, layer: str, name: str, rows: int = 0, call: bool = True, **fields):
        """Record one span; ``call=False`` marks a stage inside a call, not a call."""
        rec = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None, "job": self.job,
               "layer": layer, "name": name, "rows": rows, "call": call, "failed": 0, **fields}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        warned = self._runtime_warnings()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        except Exception:
            rec["failed"] = 1
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            rec["warnings"] = self._runtime_warnings() - warned


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[dict], names) -> dict[str, float]:
    """The per-layer metrics ``names``: per-job sums over spans, then medians over traced jobs.

    Busy time counts every span of a layer by its self time.  Only call spans
    (not CLI stage spans or the job span) count as calls, rows and failures.
    ``cli.startup_s`` and ``trace.overhead_s`` are not span metrics; the
    caller fills them in.
    """
    own = self_times(spans)
    jobs = sorted({s["job"] for s in spans})
    per_job: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    per_call: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        layer, key, j, dur = s["layer"], f"{s['layer']}.{s['name']}", s["job"], s["end"] - s["start"]
        per_job[key + "_s"][j] += own[s["id"]]
        per_job[key + ".rows"][j] += s["rows"]
        per_job[f"{layer}.busy_s"][j] += own[s["id"]]
        per_call[key].append(dur)
        for field in ("bytes_in", "bytes_out", "values"):
            per_job[f"cli.{field}"][j] += s.get(field, 0)
        if s.get("stage") == "compute":
            per_job["cli.compute_s"][j] += dur
        if layer == "geometry":
            per_job["geometry.runtime_warnings"][j] += s["warnings"]
            per_job["geometry.zero_components"][j] += s.get("zeros", 0)
        if s["call"]:
            per_job[f"{layer}.calls"][j] += 1
            per_job[f"{layer}.rows"][j] += s["rows"]
            per_job[f"{layer}.failed"][j] += s["failed"]

    def med(key: str) -> float:
        return _median([per_job[key].get(j, 0.0) for j in jobs])

    out = {name: med(name) for name in names}
    out["geometry.closure.single_us"] = _median(per_call["geometry.closure.single"]) * 1e6
    out["geometry.make_context_us"] = _median(per_call["geometry.make_context"]) * 1e6
    out["cli.ingest_mb_per_s"] = _rate(out["cli.bytes_in"] / 1e6, out["cli.ingest_s"])
    out["cli.format_values_per_s"] = _rate(med("cli.values"), out["cli.format_s"])
    out["geometry.closure.general_rows_per_s"] = _rate(med("geometry.closure.general.rows"),
                                                       out["geometry.closure.general_s"])
    rows = med("geometry.pairwise_distance.rows")
    out["geometry.pairwise_distance_cells_per_s"] = _rate(rows * rows, out["geometry.pairwise_distance_s"])
    return out

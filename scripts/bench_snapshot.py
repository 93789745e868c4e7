"""Benchmark snapshot: each end-to-end metric's median per workload over fixed seeds.

Copies the working tree's files that git does not ignore to a temporary
directory outside the repository, as ``scripts/bench_pairs.py`` does for its
change side, and there runs ``python3 bench/run.py --workload W --seed S
--seconds <run_seconds> --trace 0`` for every workload declared in
BENCHMARK.json on seeds 1, 2 and 3, one run at a time.  Writes one JSON
file.  For each workload it holds every metric's median with its unit and
the three run values, and the operation counts; the environment comes from
the benchmark's info line; the copy has no git metadata, so its ``commit`` is
null and ``source_sha256`` names the ``src/gcoda`` that ran.  Committed snapshots (``BENCH_<n>.json``) form the
project's performance trajectory: diff two of them to see what a change
moved.  Takes about five minutes on 2 vCPUs.

Usage: python3 scripts/bench_snapshot.py BENCH_<n>.json
"""

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, copy_worktree, run

SEEDS = (1, 2, 3)


def summarize(runs: list[tuple[dict, dict]]) -> dict:
    results = [r for _, r in runs]
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"median": statistics.median(values), "unit": first["unit"], "runs": values}
    return {
        "metrics": metrics,
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "fail_frac": max(info["fail_frac"] for info, _ in runs),
        "runtime_warnings": sum(info["runtime_warnings"] for info, _ in runs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="JSON file to write, e.g. BENCH_<n>.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    env = None
    workloads = {}
    with tempfile.TemporaryDirectory(prefix="bench-snapshot-") as tmp:
        tree = Path(tmp)
        copy_worktree(tree)
        for workload in (w["name"] for w in spec["workloads"]):
            runs = []
            for seed in SEEDS:
                print(f"bench_snapshot: {workload} seed {seed}", file=sys.stderr)
                runs.append(run(tree, workload, seed, seconds))
            workloads[workload] = summarize(runs)
            if env is None:
                env = {k: v for k, v in runs[0][0]["env"].items() if k != "seed"}
    snapshot = {
        "command": f"python3 bench/run.py --trace 0 --seconds {seconds:g}",
        "seeds": list(SEEDS),
        "env": env,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

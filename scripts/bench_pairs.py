"""Paired benchmark runs: a git revision against the working tree.

Exports REV with ``git archive``, and copies the working tree's files that
git does not ignore, to two temporary directories outside the repository.
Runs ``bench/run.py --workload W --seed S+i --trace 0 --seconds
<run_seconds>`` in each for pair i = 0 .. N-1, alternating which side runs
first.  Both sides run from fresh copies so that they differ only in their
files: the cli-* workloads start their children in the tree, and on
identical code cli-write read 3% slower run from the repository itself than
from a fresh export.  For every end-to-end metric in BENCHMARK.json it
prints both sides' medians and quartiles and the change's wins out of all
pairs (a tie counts for neither side), and whether the gain rule holds: the
change wins at least nine tenths of the pairs and its median is better than
REV's by more than REV's interquartile range.  Its bound verdict reads
``worse`` when the change's median is worse than REV's by more than the
metric's ``bound`` (a fraction of REV's median), else ``unresolved`` when
REV's interquartile range exceeds that bound and some run of the change
reads no better than some run of REV, else ``within``.  Stdlib only.

Usage: python3 scripts/bench_pairs.py HEAD --workload lib-newton --pairs 10 --seed 5101
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile, interpolated linearly between samples."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change is strictly better; a tie is no win."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change, strict=True))


def gain_holds(parent: list[float], change: list[float], better: str) -> bool:
    """At least 9/10 wins, and a median gap in the change's favour above the parent's IQR."""
    sign = 1.0 if better == "higher" else -1.0
    q1, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - statistics.median(parent))
    return 10 * wins(parent, change, better) >= 9 * len(parent) and gap > q3 - q1


def bound_verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``worse``, ``unresolved`` or ``within``: the change against REV and the metric's bound."""
    sign = 1.0 if better == "higher" else -1.0
    pm = statistics.median(parent)
    limit = bound * abs(pm)
    if sign * (statistics.median(change) - pm) < -limit:
        return "worse"
    q1, q3 = quartiles(parent)
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if q3 - q1 > limit and not every_run_better:
        return "unresolved"
    return "within"


def run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The info line and the result line of one end-to-end benchmark run in ``tree``."""
    cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    lines = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout.splitlines()
    return json.loads(lines[-2])["bench"], json.loads(lines[-1])


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_worktree(dest: Path) -> None:
    """The working tree's tracked and untracked files, except those git ignores."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, check=True, capture_output=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():  # a deleted but still tracked file is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def report(spec: list[dict], parent: list[dict], change: list[dict]) -> str:
    n = len(parent)
    lines = [f"{'metric':<14} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'change %':>9} {'wins':>6}  {'gain':<5}  bound"]
    for m in spec:
        name, better = m["name"], m["better"]
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pm, cm = statistics.median(p), statistics.median(c)
        rel = f"{100.0 * (cm - pm) / pm:+.1f}" if pm else "n/a"
        cols = [f"{med:.4g} [{lo:.4g}, {hi:.4g}]" for med, (lo, hi) in ((pm, quartiles(p)), (cm, quartiles(c)))]
        gain = "holds" if gain_holds(p, c, better) else "no"
        verdict = f"{bound_verdict(p, c, better, m['bound'])} ({100.0 * m['bound']:g}%)"
        lines.append(f"{name:<14} {cols[0]:>34} {cols[1]:>34} {rel:>9} {wins(p, c, better):>3}/{n:<2}  {gain:<5}  {verdict}")
    failed = [sum(r["failed"] for r in side) for side in (parent, change)]
    lines.append(f"failed operations: parent {failed[0]}, change {failed[1]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    parent, change = [], []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base, head = Path(tmp) / "parent", Path(tmp) / "change"
        export(args.rev, base)
        copy_worktree(head)
        for i in range(args.pairs):
            seed = args.seed + i
            sides = [("parent", base, parent), ("change", head, change)]
            for label, tree, results in sides if i % 2 == 0 else sides[::-1]:
                print(f"bench_pairs: pair {i + 1}/{args.pairs} seed {seed} {label}", file=sys.stderr)
                results.append(run(tree, args.workload, seed, seconds)[1])
    print(f"{args.workload}: {args.rev} (parent) vs working tree (change), {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}")
    print(report(bench["end_to_end"], parent, change))
    return 0


if __name__ == "__main__":
    sys.exit(main())

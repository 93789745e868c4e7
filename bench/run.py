"""gcoda benchmark: one workload, one closed-loop client, BLAS pinned to one thread.

    python3 bench/run.py --workload lib-newton --seed 1 --seconds 16 --trace 0

Run from anywhere; it benchmarks the ``src/gcoda`` next to this directory and
writes only under ``.bench_out/`` there.  With ``--trace 0`` it measures the
end-to-end metrics, with ``--trace 1`` the per-layer metrics from spans.
Every op's output is checked.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment and sample counts.  See bench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads, here and in every child process.
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PIN_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import warnings  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import cli_replay  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 6


def percentile(values, pct: float) -> float:
    """Percentile, interpolated linearly between the two nearest samples."""
    return float(np.percentile(values, pct))


def tail_pct(n: int) -> int:
    """The highest whole percentile with at least ten of ``n`` samples beyond it, and at least p90."""
    return max(90, min(99, 100 * (n - 10) // n))


def time_setup(name: str, seed: int) -> float:
    """Wall time of one fresh interpreter running the set-up probe."""
    cmd = [sys.executable, str(ROOT / "bench" / "setup_probe.py"), name, str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    workloads.wait_child(proc)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return wall


def environment(seed: int, cpus: set[int]) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict form of the build config
        blas_version = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gcoda").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_version,
        "nproc": len(cpus), "pinned_cpu": max(cpus), "cpu": cpu, "commit": commit,
        "source_sha256": digest.hexdigest(), "seed": seed,
        "blas_threads": {v: os.environ[v] for v in PIN_VARS},
    }


class Runner:
    """Runs jobs (one pass over an op list) and checks every output."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.runtime_warnings = 0
        self.zero_components = 0
        self.rss_kb = 0  # peak over CLI children

    def job(self, tracer, ops=None) -> tuple[float, list]:
        ops = self.ops if ops is None else ops
        results = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tracer.caught = caught
            t0 = time.perf_counter()
            with tracer.span("bench", "job", call=False):
                for op in ops:
                    results.append(self._call(op, tracer))
            job_s = time.perf_counter() - t0
        tracer.caught = None
        self.runtime_warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
        self._check(ops, results)
        return job_s, results

    @staticmethod
    def _call(op, tracer):
        with tracer.span(op.layer, op.name, rows=op.rows) as rec:
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # an op that raises is a failed op, not a failed run
                out = exc
            return out, time.perf_counter() - t0, rec

    def _check(self, ops, results) -> None:
        for op, (out, _, rec) in zip(ops, results):
            self.attempted += 1
            try:
                ok = not isinstance(out, Exception) and bool(op.check(out))
            except Exception:
                ok = False
            if op.compositions and isinstance(out, np.ndarray):
                rec["zeros"] = int(np.count_nonzero(out == 0))
                self.zero_components += rec["zeros"]
            if isinstance(out, workloads.CliResult):
                self.rss_kb = max(self.rss_kb, out.maxrss_kb)
                self.runtime_warnings += out.stderr.count("RuntimeWarning")
            if not ok:
                self.failed += 1
                rec["failed"] = 1

    def call_samples(self, results) -> list[float]:
        """Latencies of the single-vector calls, in us: library calls, or CLI invocations."""
        return [(out.wall_s if isinstance(out, workloads.CliResult) else dt) * 1e6
                for op, (out, dt, _) in zip(self.ops, results) if op.single and not isinstance(out, Exception)]


def work_peak_mb(ops) -> float:
    """The most memory one call allocates above what was live before it, in MB.

    One untimed pass over the ops under ``tracemalloc``, which sees numpy's
    buffers as well as Python objects; unlike the process's peak RSS, it
    leaves out the interpreter, numpy and the benchmark's own inputs and
    references.
    """
    peak = 0
    tracemalloc.start()
    # Failures and warnings are counted by the checked jobs, not here.
    try:
        with warnings.catch_warnings(record=True):
            for op in ops:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                try:
                    out = op.call()
                except Exception:
                    out = None
                peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
                del out
    finally:
        tracemalloc.stop()
    return peak / 2**20


def end_to_end(runner: Runner, name: str, seed: int, seconds: float, notrace) -> tuple[dict, dict]:
    """Timed jobs, with the set-up probes spread evenly through them.

    Every job and probe lies between two calibration samples, and its time is
    reported in reference seconds (see ``calibration``).  ``--seconds`` counts
    the jobs' wall time.
    """
    wall, job_s, call_means, setup = [], [], [], []
    time_setup(name, seed)  # warm-up: byte-compiles the sources
    warm_s, _ = runner.job(notrace)  # warm-up: lazy set-up and caches, checked but not timed
    clock = calibration.Clock(warm_s)
    before = clock.sample()
    while sum(wall) < seconds or len(setup) < SETUP_PROBES:
        probe = len(setup) < SETUP_PROBES and sum(wall) >= len(setup) * seconds / SETUP_PROBES
        if probe:
            t = time_setup(name, seed)
        else:
            t, results = runner.job(notrace)
        after = clock.sample()
        scale = clock.scale(before, after)
        before = after
        if probe:
            setup.append(t * scale)
            continue
        wall.append(t)
        job_s.append(t * scale)
        # Each job's mean over its fixed set of single-vector calls, so the
        # figures do not hinge on which few inputs solve fastest or slowest.
        samples = runner.call_samples(results)
        if samples:
            call_means.append(statistics.fmean(samples) * scale)
    mem_mb = runner.rss_kb / 1024.0 if name.startswith("cli-") else work_peak_mb(runner.ops)
    pct = tail_pct(len(job_s))
    metrics = {
        "setup_s": statistics.median(setup),
        "rows_per_s": sum(op.rows for op in runner.ops) * len(job_s) / sum(job_s),
        "job_s_p50": statistics.median(job_s),
        "job_s_tail": percentile(job_s, pct),
        "call_us_p50": statistics.median(call_means),
        "call_us_tail": percentile(call_means, pct),
        "peak_mem_mb": mem_mb,
    }
    counts = {"jobs": len(job_s), "tail_pct": pct, "setup_probes": len(setup),
              "calibration": {"ref_unit_s": calibration.REF_UNIT_S, "units_per_sample": clock.units,
                              "unit_s_p50": clock.median_unit_s()},
              "wall": {"job_s_p50": statistics.median(wall), "job_s_max": max(wall),
                       "rows_per_s": sum(op.rows for op in runner.ops) * len(wall) / sum(wall)}}
    return metrics, counts


def _with_overhead(metrics: dict, traced: list[float], untraced: list[float]) -> dict:
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics


def traced_lib(runner: Runner, seconds: float, tracer, notrace, names) -> tuple[dict, dict]:
    """Alternate untraced and traced jobs; per-layer metrics come from the traced ones."""
    untraced, traced = [], []
    runner.job(notrace)
    while sum(untraced) + sum(traced) < seconds:
        untraced.append(runner.job(notrace)[0])
        tracer.job += 1
        traced.append(runner.job(tracer)[0])
    return _with_overhead(spans.layer_metrics(tracer.spans, names), traced, untraced), {"jobs": len(traced)}


def _replays_subprocess(stable, path: Path) -> bool:
    """The replay wrote exactly the bytes of the verified subprocess output."""
    return stable.digest is not None and hashlib.sha256(path.read_bytes()).hexdigest() == stable.digest


def traced_cli(runner: Runner, seconds: float, tracer, notrace, cli, workdir: Path, names) -> tuple[dict, dict]:
    """Per job: the CLI subprocesses, then an untraced and a traced in-process replay.

    ``cli.startup_s`` is what a subprocess costs beyond its in-process
    replay: interpreter start, imports and exit.  Tracing overhead compares
    the traced and untraced replays.
    """
    def replays(tr):
        return [workloads.Op("cli", op.name, partial(cli_replay.replay, cli, op.argv, tr, workdir / f"replay{i}.out"),
                             partial(_replays_subprocess, op.check), op.rows) for i, op in enumerate(runner.ops)]

    plain_ops, traced_ops = replays(notrace), replays(tracer)
    untraced, traced, startup = [], [], []
    runner.job(notrace)
    spent = 0.0
    while spent < seconds:
        t_sub, results = runner.job(notrace)
        t_plain, plain = runner.job(notrace, plain_ops)
        tracer.job += 1
        t_traced, _ = runner.job(tracer, traced_ops)
        untraced.append(t_plain)
        traced.append(t_traced)
        startup.append(sum(out.wall_s - dt for (out, _, _), (_, dt, _) in zip(results, plain)
                           if isinstance(out, workloads.CliResult)))
        spent += t_sub + t_plain + t_traced
    metrics = _with_overhead(spans.layer_metrics(tracer.spans, names), traced, untraced)
    metrics["cli.startup_s"] = statistics.median(startup)
    return metrics, {"jobs": len(traced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed job time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gcoda" / "__init__.py").is_file():
        print(f"bench: no gcoda sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for the benchmark, its calibration and every child, so that a
    # job and the calibration samples around it run on the same CPU.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import gcoda as g
        import gcoda.cli as cli

        inputs = workloads.make_inputs(args.workload, args.seed)
        state = workloads.setup(g, args.workload, args.seed)
        runner = Runner(workloads.make_ops(g, args.workload, inputs, state, workdir))
        tracer = spans.Tracer() if args.trace else None
        if not args.trace:
            metrics, counts = end_to_end(runner, args.workload, args.seed, args.seconds, spans.NoTrace())
        elif args.workload.startswith("cli-"):
            metrics, counts = traced_cli(runner, args.seconds, tracer, spans.NoTrace(), cli, workdir, declared)
        else:
            metrics, counts = traced_lib(runner, args.seconds, tracer, spans.NoTrace(), declared)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": args.workload, "trace": args.trace, "env": environment(args.seed, cpus), **counts,
        "fail_frac": runner.failed / max(runner.attempted, 1),
        "runtime_warnings": runner.runtime_warnings, "zero_components": runner.zero_components,
    }
    result = {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in declared.items()},
    }
    report = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"info": info, "result": result, "spans": tracer.spans if tracer else []}))
    print(json.dumps({"bench": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: seeded inputs, set-up, the fixed op list of one
job, and the numpy references every output is checked against.

Nothing here times anything; ``run.py`` does.  Inputs depend only on the
workload name and the seed, and the program under test receives only those
generated inputs (arrays for ``lib-*``, CSV files for ``cli-*``).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

WORKLOADS = ("lib-newton", "lib-stats", "cli-read", "cli-write")

GENERAL_WEIGHTS = ((0.5, 1.0, 1.5, 2.0, 3.0), (1.0, 2.0, 3.0))
QUADRATIC_WEIGHTS = (1.0, 1.0, 1.0, 1.0, 2.0)
SPREADS = (5, 50, 300)  # half-width of log-magnitudes: typical, wide, full float64 range
POWER_C = 1.7
WIDE_PARTS = 51
SUB_SELECTION = tuple(range(1, WIDE_PARTS + 1, 2))

# Row counts, scaled so a job is short enough that a run holds dozens of them
# while each workload's dominant layer stays dominant.
NEWTON_ROWS = 4000
NEWTON_SINGLE = 200
STATS_ROWS = 5000
STATS_PAIRWISE_ROWS = 500
STATS_SINGLE = 200
# PCA's Jacobi solve takes 8 sweeps on most samples and 9 on about one in
# four, which moves a lib-stats job by a tenth.  So pca turns through this
# many samples, one per job, and a run's figures do not hinge on one draw.
# The count is odd so that the alternating untraced and traced jobs of a
# traced run both go through every sample.
PCA_SAMPLES = 7
CLI_READ_ROWS = 60_000
CLI_DIST_ROWS = 1000
CLI_SAMPLE_ROWS = 50_000

CLI_TIMEOUT_S = 120.0


@dataclass
class Op:
    """One call into the program: a library function or one CLI invocation."""

    layer: str  # gcoda module the call goes into
    name: str  # metric stem, e.g. "closure.general"
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    rows: int = 1
    single: bool = False  # single-vector call: its latency is a call_us sample
    compositions: bool = False  # output rows are compositions: count exact-zero parts
    argv: tuple[str, ...] = ()  # CLI arguments, for cli-* ops


def _rng(name: str, seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(name), stream])


# ---------------------------------------------------------------------------
# Independent numpy references


def softmax_rows(w: np.ndarray) -> np.ndarray:
    w = np.atleast_2d(w)
    e = np.exp(w - w.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def helmert(dim: int) -> np.ndarray:
    h = np.zeros((dim - 1, dim))
    for k in range(1, dim):
        h[k - 1, :k] = 1.0
        h[k - 1, k] = -float(k)
        h[k - 1] /= np.sqrt(k * (k + 1.0))
    return h


class RefGeometry:
    """Neutral element, normalizer and log map of one weight vector, by bisection."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        d = self.a.size
        # sum(exp(a*t)) = 1 has its root between -log(d)/min(a) and -log(d)/max(a).
        lo, hi = -np.log(d) / self.a.min(), -np.log(d) / self.a.max()
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if np.exp(self.a * mid).sum() > 1.0 else (mid, hi)
        e = np.exp(self.a * hi)
        self.e = e / e.sum()
        self.s = float(self.a @ self.e)
        self.h = helmert(d)

    def log_map(self, lam) -> np.ndarray:
        L = np.log(np.atleast_2d(lam))
        return self.e * L - np.outer((L @ self.e) / self.s, self.a * self.e)

    def coords(self, lam) -> np.ndarray:
        return self.log_map(lam) @ self.h.T


# Natural log of the smallest subnormal double: a part whose exact value lies
# below this cannot be represented and rounds to zero.
LOG_TINY = float(np.log(np.nextafter(0.0, 1.0)))
UNDERFLOW_SLACK = 1.0  # log units above LOG_TINY where rounding may still give zero


def closed_along(logx, lam, a, rtol: float = 1e-9) -> bool:
    """Whether ``lam`` lies on the simplex and ``log lam - logx`` is parallel to ``a``.

    The exponent ``t`` of each row is taken from its largest part.  Each
    part's log is trusted to two ulps of that part (two roundings), so
    subnormal parts get the slack their precision needs.  A part may be
    exactly zero only where its exact value ``logx + a*t`` underflows.
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    logx = np.atleast_2d(logx)
    a = np.asarray(a, dtype=float)
    if lam.shape != logx.shape or not np.isfinite(lam).all() or (lam < 0).any():
        return False
    if np.abs(lam.sum(axis=1) - 1.0).max() > 1e-12:
        return False
    nz = lam > 0
    safe = np.where(nz, lam, 1.0)
    t = (np.log(safe) - logx) / a
    ref = t[np.arange(len(t)), lam.argmax(axis=1)]
    underflows = logx + a * ref[:, None] < LOG_TINY + UNDERFLOW_SLACK
    scale = 1.0 + np.abs(logx).max(axis=1) / a.min()
    allow = rtol * scale[:, None] + np.spacing(safe) / safe * (2.0 / a)
    return bool(np.all(np.where(nz, np.abs(t - ref[:, None]) <= allow, underflows)))


def _close(out, ref, rtol: float, atol_scale: float = 0.0) -> bool:
    out = np.asarray(out, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if out.shape != ref.shape or not np.isfinite(out).all():
        return False
    atol = atol_scale * (np.abs(ref).max() if ref.size else 0.0)
    return bool(np.all(np.abs(out - ref) <= rtol * np.abs(ref) + atol))


def _same(ref, out) -> bool:
    return isinstance(out, np.ndarray) and np.array_equal(out, ref)


def _mvn_density(z, mean, cov) -> np.ndarray:
    chol = np.linalg.cholesky(cov)
    y = np.linalg.solve(chol, (np.atleast_2d(z) - mean).T)
    quad = np.sum(y * y, axis=0)
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    return np.exp(-0.5 * (quad + len(mean) * np.log(2.0 * np.pi) + log_det))


def _spd(rng: np.random.Generator, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    cov = q @ np.diag(np.geomspace(0.05, 2.0, n)) @ q.T
    return 0.5 * (cov + cov.T)


def _compositions(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    x = np.exp(rng.normal(size=(m, d)))
    return x / x.sum(axis=1, keepdims=True)


class Stable:
    """Check for an output that must be identical on every job.

    The first output is checked in full by ``verify``; later outputs must
    match its digest byte for byte.
    """

    def __init__(self, verify: Callable[[Any], bool]):
        self.verify = verify
        self.digest: str | None = None

    def __call__(self, out) -> bool:
        blob = out.data if isinstance(out, CliResult) else np.ascontiguousarray(out).tobytes()
        digest = hashlib.sha256(blob).hexdigest()
        if self.digest is not None:
            return digest == self.digest
        if not self.verify(out):
            return False
        self.digest = digest
        return True


# ---------------------------------------------------------------------------
# Inputs and set-up


def _law_params(name: str, seed: int) -> dict[str, np.ndarray]:
    rng = _rng(name, seed, stream=1)
    n = WIDE_PARTS - 1
    return {"mu51": rng.normal(0.0, 0.3, n), "cov51": _spd(rng, n),
            "mu5": rng.normal(0.0, 0.3, 4), "cov5": _spd(rng, 4)}


def make_inputs(name: str, seed: int) -> dict[str, Any]:
    """Generated inputs of one workload; the same (name, seed) gives the same inputs."""
    rng = _rng(name, seed)
    inp: dict[str, Any] = {}
    if name == "lib-newton":
        for a in GENERAL_WEIGHTS:
            for spread in SPREADS:
                inp[f"x{len(a)}_{spread}"] = np.exp(rng.uniform(-spread, spread, (NEWTON_ROWS, len(a))))
        inp["lam"] = _compositions(rng, NEWTON_ROWS, 5)
        inp["mu"] = _compositions(rng, NEWTON_ROWS, 5)
    elif name == "lib-stats":
        law = _law_params(name, seed)
        n = WIDE_PARTS - 1
        chol, h = np.linalg.cholesky(law["cov51"]), helmert(WIDE_PARTS)

        def draw():
            y = law["mu51"] + rng.normal(size=(STATS_ROWS, n)) @ chol.T
            return softmax_rows(WIDE_PARTS * (y @ h))

        inp["lam51"] = draw()
        inp["pca51"] = [draw() for _ in range(PCA_SAMPLES)]
        inp["z51"] = rng.normal(size=(STATS_ROWS, n))
        inp["x51"] = np.exp(rng.uniform(-5, 5, (STATS_ROWS, WIDE_PARTS)))
        inp["x5"] = np.exp(rng.uniform(-5, 5, (STATS_ROWS, 5)))
        inp["sample_seed"] = int(rng.integers(2**62))
    elif name == "cli-read":
        inp["lam"] = _compositions(rng, CLI_READ_ROWS, 5)
        inp["one"] = np.exp(rng.normal(size=(1, 5)))
    elif name == "cli-write":
        inp["lam"] = _compositions(rng, CLI_DIST_ROWS, 5)
        inp["one"] = np.exp(rng.normal(size=(1, 5)))
        inp["sample_seed"] = int(rng.integers(2**31))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return inp


def setup(g, name: str, seed: int) -> dict[str, Any]:
    """Contexts, bases and Gaussian laws of one workload (what ``setup_s`` times)."""
    if name == "lib-newton":
        return {"ctx": [g.make_context(a) for a in GENERAL_WEIGHTS]}
    if name == "lib-stats":
        law = _law_params(name, seed)
        u, q = g.make_context(np.ones(WIDE_PARTS)), g.make_context(QUADRATIC_WEIGHTS)
        b51, b5 = g.helmert_basis(WIDE_PARTS), g.helmert_basis(5)
        return {"u": u, "q": q, "b51": b51,
                "law51": g.make_gaussian(u, b51, law["mu51"], law["cov51"]),
                "law5": g.make_gaussian(q, b5, law["mu5"], law["cov5"])}
    weights = GENERAL_WEIGHTS[0] if name == "cli-read" else QUADRATIC_WEIGHTS
    ctx, basis = g.make_context(weights), g.helmert_basis(5)
    # The CLI's default law: zero mean, identity covariance in the Helmert chart.
    return {"ctx": ctx, "basis": basis, "law": g.make_gaussian(ctx, basis, np.zeros(4), np.eye(4))}


def make_ops(g, name: str, inp: dict[str, Any], st: dict[str, Any], workdir: Path) -> list[Op]:
    """The fixed op list of one job, each op with the check its output must pass."""
    if name == "lib-newton":
        return _newton_ops(g, inp, st)
    if name == "lib-stats":
        return _stats_ops(g, inp, st)
    return _cli_ops(g, name, inp, st, workdir)


# ---------------------------------------------------------------------------
# lib-newton: general weights, so every closure goes through the Newton solve


def _newton_ops(g, inp, st) -> list[Op]:
    ops: list[Op] = []
    for a, ctx in zip(GENERAL_WEIGHTS, st["ctx"]):
        for spread in SPREADS:
            x = inp[f"x{len(a)}_{spread}"]
            ops.append(Op("ambient", "as_positive", partial(g.ambient.as_positive, x), partial(_same, x), len(x)))
            ops.append(Op("geometry", "closure.general", partial(g.closure, ctx, x),
                          partial(closed_along, np.log(x), a=a), len(x), compositions=True))
    ctx, a = st["ctx"][0], np.asarray(GENERAL_WEIGHTS[0])
    ref = RefGeometry(a)
    lam, mu = inp["lam"], inp["mu"]
    n = len(lam)
    xi = ref.log_map(lam)
    log_lam, log_mu = np.log(lam), np.log(mu)
    ops += [
        Op("geometry", "log_map", partial(g.log_map, ctx, lam), partial(_close_abs, xi), n),
        Op("geometry", "exp_map", partial(g.exp_map, ctx, xi), partial(_close, ref=lam, rtol=1e-10), n,
           compositions=True),
        Op("geometry", "perturb", partial(g.perturb, ctx, lam, mu),
           partial(closed_along, log_lam + log_mu, a=a), n, compositions=True),
        Op("geometry", "power", partial(g.power, ctx, POWER_C, lam),
           partial(closed_along, POWER_C * log_lam, a=a), n, compositions=True),
    ]
    for w in GENERAL_WEIGHTS:
        r = RefGeometry(w)
        ops.append(Op("geometry", "make_context", partial(g.make_context, w), partial(_context_ok, r)))
    x = inp["x5_5"]
    d_ref = np.linalg.norm(xi - ref.log_map(mu), axis=1)
    # Only the closures are call_us samples: a mix of two call types would put
    # the low percentile in one type and the tail in the other.
    for i in range(NEWTON_SINGLE):
        ops.append(Op("geometry", "closure.single", partial(g.closure, ctx, x[i]),
                      partial(closed_along, np.log(x[i]), a=a), single=True, compositions=True))
        ops.append(Op("geometry", "distance.single", partial(g.distance, ctx, lam[i], mu[i]),
                      partial(_close, ref=d_ref[i], rtol=1e-10)))
    return ops


def _close_abs(ref, out) -> bool:
    """Agreement to 1e-12 of the reference's largest magnitude (for values near zero)."""
    return _close(out, ref, rtol=0.0, atol_scale=1e-12)


def _context_ok(ref: RefGeometry, ctx) -> bool:
    return (_close(ctx.a, ref.a, 0.0) and _close(ctx.e_a, ref.e, 1e-12)
            and abs(ctx.s - ref.s) <= 1e-12 * ref.s)


# ---------------------------------------------------------------------------
# lib-stats: uniform 51 parts plus (1,1,1,1,2) at 5 parts, every closure closed-form


def _stats_ops(g, inp, st) -> list[Op]:
    u, q, b51 = st["u"], st["q"], st["b51"]
    law51, law5 = st["law51"], st["law5"]
    d = WIDE_PARTS
    ref, ref_q = RefGeometry(np.ones(d)), RefGeometry(QUADRATIC_WEIGHTS)
    lam, z51, x51, x5 = inp["lam51"], inp["z51"], inp["x51"], inp["x5"]
    n = len(lam)
    seed = inp["sample_seed"]

    # Sampler references push the program's own normal stream through the
    # reference chart; the stream itself is checked for moments and repeatability.
    z = g.RandomSource(seed).normals(n * (d - 1)).reshape(n, d - 1)
    sample51 = softmax_rows(d * ((law51.mean_coords + z @ np.linalg.cholesky(law51.covariance).T) @ ref.h))
    z5 = g.RandomSource(seed + 1).normals(n * 4).reshape(n, 4)
    xi5 = (law5.mean_coords + z5 @ np.linalg.cholesky(law5.covariance).T) @ ref_q.h

    c = ref.coords(lam)
    cov = np.cov(c.T)
    dens = _mvn_density(c, law51.mean_coords, law51.covariance)
    mean = softmax_rows(d * ref.log_map(lam).mean(axis=0))[0]
    m = STATS_PAIRWISE_ROWS
    pair = np.array([np.linalg.norm(c[:m] - c[i], axis=1) for i in range(m)])
    sel = [i - 1 for i in SUB_SELECTION]
    sub = lam[:, sel] / lam[:, sel].sum(axis=1, keepdims=True)

    ops = [
        Op("stats", "random_normals", partial(_normals, g, seed, n * (d - 1)), Stable(_normals_ok), n),
        Op("stats", "gaussian_sample", partial(_sample, g, law51, seed, n),
           partial(_close, ref=sample51, rtol=1e-10), n),
        Op("stats", "gaussian_sample", partial(_sample, g, law5, seed + 1, n),
           partial(closed_along, xi5 / ref_q.e, a=QUADRATIC_WEIGHTS), n),
        Op("basis", "coords", partial(g.coords, u, b51, lam), partial(_close_abs, c), n),
        Op("basis", "from_coords", partial(g.from_coords, u, b51, z51),
           partial(_close, ref=softmax_rows(d * (z51 @ ref.h)), rtol=1e-10), n),
        Op("geometry", "closure.uniform", partial(g.closure, u, x51),
           partial(_close, ref=x51 / x51.sum(axis=1, keepdims=True), rtol=1e-12), n, compositions=True),
        Op("geometry", "closure.quadratic", partial(g.closure, q, x5),
           partial(closed_along, np.log(x5), a=QUADRATIC_WEIGHTS), n, compositions=True),
        Op("geometry", "log_map", partial(g.log_map, u, lam),
           partial(_close_abs, (np.log(lam) - np.log(lam).mean(axis=1, keepdims=True)) / d), n),
        Op("stats", "gaussian_density", partial(g.gaussian_density, law51, lam), partial(_close, ref=dens, rtol=1e-9), n),
        Op("stats", "frechet_mean", partial(g.frechet_mean, u, lam), partial(_close, ref=mean, rtol=1e-10), n),
        Op("stats", "sample_covariance", partial(g.sample_covariance, u, b51, lam),
           partial(_close, ref=cov, rtol=0.0, atol_scale=1e-10), n),
        _pca_op(g, u, b51, inp["pca51"], ref),
        Op("geometry", "pairwise_distance", partial(g.pairwise_distance, u, lam[:m]),
           partial(_close, ref=pair, rtol=0.0, atol_scale=1e-12), m),
        Op("compose", "subcompose", partial(g.subcompose, u, SUB_SELECTION, lam), partial(_sub_ok, sub), n),
    ]
    # Only the densities are call_us samples, as on lib-newton.
    for i in range(STATS_SINGLE):
        ops.append(Op("stats", "gaussian_density.single", partial(g.gaussian_density, law51, lam[i]),
                      partial(_close, ref=dens[i], rtol=1e-9), single=True))
        ops.append(Op("geometry", "distance.single", partial(g.distance, u, lam[i], lam[i + 1]),
                      partial(_close, ref=np.linalg.norm(c[i] - c[i + 1]), rtol=1e-10)))
    return ops


class Rotating:
    """Call and check of an op that uses the next of several inputs on each call."""

    def __init__(self, calls, checks):
        self.calls, self.checks, self.last = calls, checks, -1

    def call(self):
        self.last = (self.last + 1) % len(self.calls)
        return self.calls[self.last]()

    def check(self, out) -> bool:
        return self.checks[self.last](out)


def _pca_op(g, u, b51, samples, ref: RefGeometry) -> Op:
    calls, checks = [], []
    for lam in samples:
        c = ref.coords(lam)
        mean = softmax_rows(WIDE_PARTS * ref.log_map(lam).mean(axis=0))[0]
        calls.append(partial(g.pca, u, b51, lam, WIDE_PARTS - 1))
        checks.append(partial(_pca_ok, np.cov(c.T), c, mean, ref.h))
    rot = Rotating(calls, checks)
    return Op("stats", "pca", rot.call, rot.check, STATS_ROWS)


def _normals(g, seed: int, n: int) -> np.ndarray:
    return g.RandomSource(seed).normals(n)


def _sample(g, law, seed: int, n: int) -> np.ndarray:
    return g.gaussian_sample(law, g.RandomSource(seed), n)


def _normals_ok(z) -> bool:
    # Loose moment bounds: a broken stream (constant, shifted, scaled) fails them.
    z = np.asarray(z)
    n = z.size
    return bool(np.isfinite(z).all() and abs(z.mean()) < 6.0 / np.sqrt(n) and abs(z.var() - 1.0) < 12.0 / np.sqrt(n))


def _pca_ok(cov, c, mean, h, pc) -> bool:
    vals = np.linalg.eigvalsh(cov)[::-1]
    k = len(pc.variances)
    v = pc.directions @ h.T  # directions in chart coordinates, one per row
    scale = vals[0]
    return (
        _close(pc.variances, np.maximum(vals[:k], 0.0), 0.0, 1e-9)
        and _close(v @ v.T, np.eye(k), 0.0, 1e-9)
        and np.abs(cov @ v.T - v.T * pc.variances).max() <= 1e-8 * scale
        and _close(pc.mean, mean, 1e-10)
        and _close(pc.scores, (c - c.mean(axis=0)) @ v.T, 0.0, 1e-9)
    )


def _sub_ok(ref, out) -> bool:
    sub_ctx, rows = out
    return _close(sub_ctx.a, np.ones(len(SUB_SELECTION)), 0.0) and _close(rows, ref, 1e-12)


# ---------------------------------------------------------------------------
# cli-*: one `python -m gcoda` subprocess per op, one at a time


@dataclass
class CliResult:
    data: bytes  # what the command wrote: stdout, or its --output file
    wall_s: float
    maxrss_kb: int
    returncode: int
    stderr: str


def cli_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def wait_child(proc: subprocess.Popen):
    """Block until ``proc`` exits (killing it after CLI_TIMEOUT_S); returns its rusage.

    A blocking ``wait4`` returns the moment the child exits, where
    ``Popen.wait(timeout)`` polls with sleeps of up to 50 ms and would round
    every measured time up to its polling steps.
    """
    timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_cli(argv, env, cwd: Path, output: Path | None, scratch: Path) -> CliResult:
    """Run one CLI invocation to completion and collect its own resource usage."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "gcoda", *argv], stdout=out, stderr=err, env=env, cwd=cwd)
        usage = wait_child(proc)
        wall = time.perf_counter() - t0
    data = (output if output is not None else out_path).read_bytes()
    return CliResult(data, wall, usage.ru_maxrss, proc.returncode, err_path.read_text(errors="replace"))


def _write_csv(path: Path, rows: np.ndarray, header: bool) -> None:
    lines = [",".join(f"p{i + 1}" for i in range(rows.shape[1]))] if header else []
    lines += [",".join(repr(v) for v in row) for row in rows.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_numbers(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.replace("\n", ",").split(",") if v], dtype=float)


def match12(out, ref) -> bool:
    """Agreement to 12 significant digits, the CLI's output precision."""
    return _close(out, ref, rtol=1e-11, atol_scale=1e-11)


def _cli_rows_ok(ref, res: CliResult) -> bool:
    if res.returncode != 0:
        return False
    return match12(_parse_numbers(res.data.decode()), np.asarray(ref).ravel())


def _cli_pca_ok(ref, res: CliResult) -> bool:
    if res.returncode != 0:
        return False
    got = json.loads(res.data)
    return all(match12(np.asarray(got[k], dtype=float), ref[k]) for k in ref)


def _cli_ops(g, name, inp, st, workdir: Path) -> list[Op]:
    root = Path(__file__).resolve().parent.parent
    env = cli_env(root)
    ctx = st["ctx"]
    lam = inp["lam"]
    # The CLI divides rows by their sums; so does the in-process reference.
    rows = lam / lam.sum(axis=1)[:, None]
    param = ",".join(f"{w:g}" for w in ctx.a)
    data, one = workdir / "input.csv", workdir / "one.csv"
    _write_csv(data, lam, header=(name == "cli-read"))
    _write_csv(one, inp["one"], header=False)
    scratch = workdir / "proc"
    scratch.mkdir(exist_ok=True)

    def op(command, argv, rows_n, check, output=None, source=data, single=False):
        argv = (command, "--param", param, *(("--input", str(source)) if source else ()), *argv)
        call = partial(run_cli, argv, env, root, output, scratch)
        return Op("cli", command, call, Stable(check), rows_n, single=single, argv=argv)

    # A single-vector request through the CLI, first and last in every job: its
    # latency is the call_us sample of the cli-* workloads.
    single = op("closure", (), 1, partial(_cli_rows_ok, g.closure(ctx, inp["one"])), source=one, single=True)
    if name == "cli-read":
        pc = g.pca(ctx, st["basis"], rows, 1)
        pca_ref = {"param": ctx.a, "mean": pc.mean, "variances": pc.variances,
                   "directions": pc.directions, "scores": pc.scores}
        n = len(rows)
        return [
            single,
            op("mean", (), n, partial(_cli_rows_ok, g.frechet_mean(ctx, rows))),
            op("density", (), n, partial(_cli_rows_ok, g.gaussian_density(st["law"], rows))),
            op("pca", ("--k", "1"), n, partial(_cli_pca_ok, pca_ref)),
            single,
        ]
    seed = inp["sample_seed"]
    dist_out, sample_out = workdir / "dist.csv", workdir / "sample.csv"
    dist_ref = g.pairwise_distance(ctx, rows)
    sample_ref = g.gaussian_sample(st["law"], g.RandomSource(seed), CLI_SAMPLE_ROWS)
    return [
        single,
        op("dist", ("--output", str(dist_out)), len(rows), partial(_cli_rows_ok, dist_ref), dist_out),
        op("sample", ("--n", str(CLI_SAMPLE_ROWS), "--seed", str(seed), "--output", str(sample_out)),
           CLI_SAMPLE_ROWS, partial(_cli_rows_ok, sample_ref), sample_out, source=None),
        single,
    ]

"""Batch command line: CSV in, analyses out, plus ternary scatter SVG.

Every invocation fixes one geometry through --param (or --param-file),
ingests CSV rows where a command needs data, and writes results to stdout or
--output.  Outputs are deterministic: fixed 12-significant-digit formatting
and a seeded sampler make identical configurations byte-identical.

Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from itertools import compress, count, islice, repeat
from pathlib import Path

import numpy as np

from .basis import helmert_basis
from .compose import SubSelection, select, subcompose
from .errors import (
    GcodaError,
    IngestError,
    NonConvergence,
    NonPositiveValue,
    NotPositiveDefinite,
    NumericalOverflow,
)
from .geometry import (
    _COMPOSITION_SUM_TOL,
    GeometryContext,
    closure,
    exp_map,
    log_map,
    make_context,
    pairwise_distance,
    perturb,
    power,
)
from .stats import (
    RandomSource,
    frechet_mean,
    gaussian_density,
    gaussian_sample,
    make_gaussian,
    pca,
)


@dataclass(frozen=True)
class Dataset:
    """Ingested rows plus any column names found in the CSV header."""

    rows: np.ndarray
    columns: tuple[str, ...] | None = None


@dataclass(frozen=True)
class RunConfig:
    """Validated per-invocation configuration shared by all commands."""

    ctx: GeometryContext
    input: str | None
    output: str | None
    seed: int
    format: str
    close: bool


# ---------------------------------------------------------------------------
# Formatting

# Cells parsed or formatted per block.  Blocks are sized by cells, not rows,
# so that the per-block lists of Python strings and floats stay small for
# wide tables (a 1000-column distance matrix) as well as narrow ones.
_BLOCK_CELLS = 1 << 14


def _rows_csv(arr: np.ndarray) -> str:
    """Rows of ``arr`` as comma-separated ``%.12g`` text, one line each.

    Each block of rows is formatted by a single ``%`` on a template repeated
    once per row; ``"%.12g" % v`` is the same text as ``format(v, ".12g")``.
    """
    arr = np.atleast_2d(arr)
    width = arr.shape[1]
    row = ",".join(["%.12g"] * width)
    step = max(1, _BLOCK_CELLS // max(1, width))
    blocks = (arr[i:i + step] for i in range(0, len(arr), step))
    return "\n".join("\n".join([row] * len(b)) % tuple(b.ravel().tolist()) for b in blocks) + "\n"


def _jsonify(obj):
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        # Round every value to 12 significant digits in bulk: format, parse back.
        text = _rows_csv(obj.reshape(-1, 1))
        return np.array(text.split(), dtype=float).reshape(obj.shape).tolist()
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (float, np.floating)):
        return float("%.12g" % obj)
    return obj


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _emit_rows(cfg: "RunConfig", arr: np.ndarray) -> None:
    if cfg.format == "json":
        _emit(json.dumps(_jsonify(np.atleast_2d(arr))) + "\n", cfg.output)
    else:
        _emit(_rows_csv(arr), cfg.output)


# ---------------------------------------------------------------------------
# Ingestion

def _parse_line(line: str) -> list[float] | None:
    try:
        return [float(c) for c in line.split(",")]
    except ValueError:
        return None


def _read_rows(path: str) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Parse a CSV table of floats, with an optional header row.

    Blank lines are skipped; cells are read with Python's ``float()`` grammar.
    Data rows are parsed in blocks of about ``_BLOCK_CELLS`` cells, each by
    one numpy cast of its split cells.  Error messages name the file and,
    for a non-numeric cell, the physical line it sits on.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise IngestError(f"input file not found: {path}") from None
    lines = list(map(str.strip, text.splitlines()))
    rows = list(filter(None, lines))
    if not rows:
        raise IngestError(f"no data rows in {path}")

    columns: tuple[str, ...] | None = None
    start = 0
    if _parse_line(rows[0]) is None:
        columns = tuple(c.strip() for c in rows[0].split(","))
        start = 1
        if len(rows) == 1:
            raise IngestError(f"no data rows in {path}")
    width = rows[start].count(",") + 1
    out = np.empty((len(rows) - start, width))
    step = max(1, _BLOCK_CELLS // width)
    ragged = False
    for i in range(start, len(rows), step):
        block = rows[i:i + step]
        try:
            vals = np.array(",".join(block).split(","), dtype=float)
        except ValueError:
            bad = i + next(j for j, ln in enumerate(block) if _parse_line(ln) is None)
            # the physical line number of non-blank line `bad`
            lineno = next(islice(compress(count(1), lines), bad, None))
            raise IngestError(f"{path}:{lineno}: non-numeric cell") from None
        # A ragged row is reported only once every row has parsed, so that a
        # non-numeric cell further down is reported first.
        ragged = ragged or set(map(str.count, block, repeat(","))) != {width - 1}
        if not ragged:
            out[i - start:i - start + len(block)] = vals.reshape(-1, width)
    if ragged:
        raise IngestError(f"{path}: ragged rows (expected {width} columns)")
    if columns is not None and len(columns) != width:
        raise IngestError(f"{path}: header width does not match data width")
    return out, columns


def _ingest_positive(path: str) -> Dataset:
    arr, columns = _read_rows(path)
    if not (arr > 0).all():
        raise NonPositiveValue(f"{path}: all values must be strictly positive")
    return Dataset(rows=arr, columns=columns)


def _ingest_compositions(cfg: RunConfig) -> Dataset:
    if cfg.input is None:
        raise IngestError("this command requires --input")
    ds = _ingest_positive(cfg.input)
    sums = ds.rows.sum(axis=1)
    off = np.abs(sums - 1.0) > _COMPOSITION_SUM_TOL
    if off.any():
        if not cfg.close:
            bad = int(np.flatnonzero(off)[0]) + 1
            raise IngestError(f"{cfg.input}: data row {bad} does not sum to 1 (pass --close to project)")
        rows = closure(cfg.ctx, ds.rows)
    else:
        rows = ds.rows / sums[:, None]
    return Dataset(rows=rows, columns=ds.columns)


def _ingest_free(path: str | None) -> Dataset:
    if path is None:
        raise IngestError("this command requires --input")
    arr, columns = _read_rows(path)
    return Dataset(rows=arr, columns=columns)


def _parse_vector(text: str, what: str) -> np.ndarray:
    try:
        return np.array([float(c) for c in text.split(",") if c.strip() != ""], dtype=float)
    except ValueError:
        raise IngestError(f"could not parse {what}: {text!r}") from None


# ---------------------------------------------------------------------------
# Ternary SVG

_SVG_W, _SVG_H = 600, 520
_VERTS = np.array([
    [50.0, 470.0],
    [550.0, 470.0],
    [300.0, 470.0 - 500.0 * np.sqrt(3.0) / 2.0],
])


def ternary_svg(rows: np.ndarray, labels: tuple[str, str, str]) -> str:
    """Standalone SVG scatter of 3-part compositions in barycentric coordinates."""
    pts = np.atleast_2d(rows) @ _VERTS
    tri = " ".join(f"{v[0]:.2f},{v[1]:.2f}" for v in _VERTS)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<polygon points="{tri}" fill="none" stroke="#333333" stroke-width="1"/>',
        f'<text x="46" y="492" font-family="sans-serif" font-size="14" text-anchor="middle">{labels[0]}</text>',
        f'<text x="554" y="492" font-family="sans-serif" font-size="14" text-anchor="middle">{labels[1]}</text>',
        f'<text x="300" y="28" font-family="sans-serif" font-size="14" text-anchor="middle">{labels[2]}</text>',
    ]
    for p in pts:
        out.append(f'<circle cx="{p[0]:.2f}" cy="{p[1]:.2f}" r="2" fill="#1f77b4" fill-opacity="0.6"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Commands

def _law_from_args(cfg: RunConfig, args):
    n = cfg.ctx.dim - 1
    mu = _parse_vector(args.mu, "--mu") if args.mu else np.zeros(n)
    if args.sigma:
        sigma, _ = _read_rows(args.sigma)
    else:
        sigma = np.eye(n)
    basis = helmert_basis(cfg.ctx.dim)
    return make_gaussian(cfg.ctx, basis, mu, sigma)


def _cmd_param(cfg: RunConfig, args) -> None:
    ctx = cfg.ctx
    if cfg.format == "json":
        _emit(json.dumps(_jsonify({"a": ctx.a, "e_a": ctx.e_a, "s": ctx.s})) + "\n", cfg.output)
    else:
        text = f"a = {_rows_csv(ctx.a)}e_a = {_rows_csv(ctx.e_a)}s = {ctx.s:.12g}\n"
        _emit(text, cfg.output)


def _cmd_closure(cfg: RunConfig, args) -> None:
    if cfg.input is None:
        raise IngestError("this command requires --input")
    ds = _ingest_positive(cfg.input)
    _emit_rows(cfg, closure(cfg.ctx, ds.rows))


def _cmd_log(cfg: RunConfig, args) -> None:
    ds = _ingest_compositions(cfg)
    _emit_rows(cfg, log_map(cfg.ctx, ds.rows))


def _cmd_exp(cfg: RunConfig, args) -> None:
    ds = _ingest_free(cfg.input)
    _emit_rows(cfg, exp_map(cfg.ctx, ds.rows))


def _cmd_perturb(cfg: RunConfig, args) -> None:
    ds = _ingest_compositions(cfg)
    by = closure(cfg.ctx, _parse_vector(args.by, "--by"))
    _emit_rows(cfg, perturb(cfg.ctx, ds.rows, by))


def _cmd_power(cfg: RunConfig, args) -> None:
    ds = _ingest_compositions(cfg)
    _emit_rows(cfg, power(cfg.ctx, args.c, ds.rows))


def _cmd_dist(cfg: RunConfig, args) -> None:
    ds = _ingest_compositions(cfg)
    _emit_rows(cfg, pairwise_distance(cfg.ctx, ds.rows))


def _cmd_mean(cfg: RunConfig, args) -> None:
    ds = _ingest_compositions(cfg)
    _emit_rows(cfg, frechet_mean(cfg.ctx, ds.rows))


def _cmd_pca(cfg: RunConfig, args) -> None:
    if cfg.format == "csv":
        raise IngestError("pca output is structured; use --format json")
    ds = _ingest_compositions(cfg)
    k = args.k if args.k is not None else cfg.ctx.dim - 1
    basis = helmert_basis(cfg.ctx.dim)
    pc = pca(cfg.ctx, basis, ds.rows, k)
    payload = {
        "param": cfg.ctx.a,
        "mean": pc.mean,
        "variances": pc.variances,
        "directions": pc.directions,
        "scores": pc.scores,
    }
    _emit(json.dumps(_jsonify(payload)) + "\n", cfg.output)


def _cmd_sub(cfg: RunConfig, args) -> None:
    if not args.indices:
        raise IngestError("sub requires --indices")
    try:
        indices = tuple(int(i) for i in args.indices.split(","))
    except ValueError:
        raise IngestError(f"could not parse --indices: {args.indices!r}") from None
    ds = _ingest_compositions(cfg)
    sel = SubSelection(indices)
    sub_ctx, sub_rows = subcompose(cfg.ctx, sel, ds.rows)
    if cfg.format == "json":
        _emit(json.dumps(_jsonify({"param": sub_ctx.a, "rows": np.atleast_2d(sub_rows)})) + "\n", cfg.output)
    else:
        _emit(_rows_csv(sub_rows), cfg.output)


def _cmd_sample(cfg: RunConfig, args) -> None:
    law = _law_from_args(cfg, args)
    rows = gaussian_sample(law, RandomSource(cfg.seed), args.n)
    _emit_rows(cfg, rows)


def _cmd_density(cfg: RunConfig, args) -> None:
    law = _law_from_args(cfg, args)
    ds = _ingest_compositions(cfg)
    dens = np.atleast_1d(gaussian_density(law, ds.rows))
    if cfg.format == "json":
        _emit(json.dumps(_jsonify(dens)) + "\n", cfg.output)
    else:
        _emit(_rows_csv(dens[:, None]), cfg.output)


def _cmd_plot(cfg: RunConfig, args) -> None:
    ds = _ingest_compositions(cfg)
    if ds.rows.shape[1] != 3:
        raise IngestError("plot needs 3-part compositions; subcompose or project first")
    labels = ds.columns if ds.columns is not None else ("x1", "x2", "x3")
    _emit(ternary_svg(ds.rows, tuple(labels)), cfg.output)


_COMMANDS = {
    "param": _cmd_param,
    "closure": _cmd_closure,
    "log": _cmd_log,
    "exp": _cmd_exp,
    "perturb": _cmd_perturb,
    "power": _cmd_power,
    "dist": _cmd_dist,
    "mean": _cmd_mean,
    "pca": _cmd_pca,
    "sub": _cmd_sub,
    "sample": _cmd_sample,
    "density": _cmd_density,
    "plot": _cmd_plot,
}


# ---------------------------------------------------------------------------
# Parser / entry point

class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors: exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--param", help="comma-separated weight vector, e.g. 1,1,2")
    common.add_argument("--param-file", help="file holding the weight vector")
    common.add_argument("--input", help="input CSV path")
    common.add_argument("--output", help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default=None, help="output format")
    common.add_argument("--close", action="store_true", help="project non-unit-sum rows instead of rejecting")
    common.add_argument("--seed", type=int, default=0, help="sampler seed")

    parser = _Parser(prog="gcoda", description="weighted simplex geometry, statistics and simulation")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("param", parents=[common], help="print the canonical weights, neutral element and normalizer")
    sub.add_parser("closure", parents=[common], help="project positive rows onto the simplex")
    sub.add_parser("log", parents=[common], help="log-map rows to zero-sum tangent vectors")
    sub.add_parser("exp", parents=[common], help="exp-map zero-sum rows to compositions")
    p = sub.add_parser("perturb", parents=[common], help="group-translate every row by a fixed vector")
    p.add_argument("--by", required=True, help="comma-separated positive vector (closed before use)")
    p = sub.add_parser("power", parents=[common], help="scalar-multiply every row")
    p.add_argument("--c", type=float, required=True, help="scalar")
    sub.add_parser("dist", parents=[common], help="full pairwise distance matrix")
    sub.add_parser("mean", parents=[common], help="intrinsic (group) sample mean")
    p = sub.add_parser("pca", parents=[common], help="principal component analysis (JSON)")
    p.add_argument("--k", type=int, default=None, help="number of components (default: all)")
    p = sub.add_parser("sub", parents=[common], help="subcomposition under the restricted weights")
    p.add_argument("--indices", help="comma-separated 1-based part positions")
    p = sub.add_parser("sample", parents=[common], help="draw from a normal law on the simplex")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--mu", help="comma-separated mean coordinates (default: zeros)")
    p.add_argument("--sigma", help="CSV path of the coordinate covariance (default: identity)")
    p = sub.add_parser("density", parents=[common], help="normal density at each input row")
    p.add_argument("--mu", help="comma-separated mean coordinates (default: zeros)")
    p.add_argument("--sigma", help="CSV path of the coordinate covariance (default: identity)")
    sub.add_parser("plot", parents=[common], help="ternary scatter SVG of 3-part rows")
    return parser


def _build_config(args) -> RunConfig:
    if bool(args.param) == bool(args.param_file):
        raise IngestError("exactly one of --param or --param-file is required")
    if args.param:
        vec = _parse_vector(args.param, "--param")
    else:
        vec = _parse_vector(Path(args.param_file).read_text(encoding="utf-8").replace("\n", ","), "--param-file")
    ctx = make_context(vec)
    fmt = args.format
    if fmt is None:
        fmt = "json" if args.command == "pca" else "csv"
    return RunConfig(
        ctx=ctx,
        input=args.input,
        output=args.output,
        seed=args.seed,
        format=fmt,
        close=args.close,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        _COMMANDS[args.command](cfg, args)
        return 0
    except (NonConvergence, NumericalOverflow, NotPositiveDefinite) as exc:
        print(f"gcoda: numerical failure: {exc}", file=sys.stderr)
        return 2
    except GcodaError as exc:
        print(f"gcoda: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"gcoda: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

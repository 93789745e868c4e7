"""Batch command line: CSV in, analyses out, plus ternary scatter SVG.

Every invocation fixes one geometry through --param (or --param-file),
ingests CSV rows where a command needs data, and writes results to stdout or
--output.  Outputs are deterministic: fixed 12-significant-digit formatting
and a seeded sampler make identical configurations byte-identical.

Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import html
import itertools
import json
import math
import re
import sys
import warnings
from functools import cache
from pathlib import Path

import numpy as np

from .ambient import as_positive
from .basis import helmert_basis
from .compose import SubSelection, subcompose
from .errors import (
    GcodaError,
    IngestError,
    NonConvergence,
    NonPositiveValue,
    NotPositiveDefinite,
    NumericalOverflow,
)
from .geometry import (
    GeometryContext,
    _on_simplex,
    _row_blocks,
    as_tangent,
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


# ---------------------------------------------------------------------------
# Formatting

# The %.12g kernel writes each cell as five 8-byte words, NUL bytes padding
# what the cell does not use:
#   word 0     "-" for a negative cell, then "0." and up to three zeros for
#              fixed notation below 1;
#   words 1-3  the 12 mantissa digits, four per word, each followed by a slot
#              that holds the decimal point or a NUL;
#   word 4     scientific notation's "e", exponent sign and 2 or 3 exponent
#              digits, then the separator: "," or, after a row's last cell, "\n".
# Deleting the NULs leaves the text of format(v, ".12g").  Every word is read
# from a table indexed by the cell's digits, exponent and sign.

_EXP = 305  # the tables cover exponents -_EXP ... _EXP


def _packed(texts, width: int = 8) -> np.ndarray:
    """Byte strings, each NUL-padded to ``width`` bytes, as rows of 8-byte words."""
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), np.uint64).reshape(-1, width // 8)


@cache
def _g12_tables() -> tuple[np.ndarray, ...]:
    """The kernel's tables, built on first use rather than at import.

    ``groups[g]``: the 4 digits of ``g``, each before an empty slot;
    ``trailing[g]``: the trailing zeros of ``g``; ``keep[k]``: a mask of the
    first ``k`` digits of words 1-3; ``point[j]``: a decimal point after
    digit ``j``, none for 12; ``head[6 * sign + p]``: "-" if ``sign``, then
    the first ``p`` bytes of "0.000"; ``tail[1 + _EXP + e]``: "e%+03d" % e,
    none at 0; ``pow10[_EXP + k]``: 10**k, within one ulp (tested).
    """
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T
    groups = np.zeros((10000, 8), np.uint8)
    groups[:, ::2] = digits + ord("0")
    z = (digits == 0).astype(np.uint8)
    trailing = z[:, 3] * (1 + z[:, 2] * (1 + z[:, 1] * (1 + z[:, 0])))
    keep = _packed((b"\xff\0" * k for k in range(13)), 24)
    point = _packed([b"\0\0" * j + b"\0." for j in range(12)] + [b""], 24)
    head = _packed(("-" * sign + "0.000"[:p]).encode() for sign in (0, 1) for p in range(6))
    tail = _packed([b""] + [b"e%+03d" % e for e in range(-_EXP, _EXP + 1)])
    pow10 = 10.0 ** np.arange(-_EXP, _EXP + 1)
    return groups.view(np.uint64), trailing, keep, point, head, tail, pow10


def _g12_text(x: np.ndarray, sep: np.ndarray) -> str:
    """The text of the float64 cells ``x``, rows of ``len(sep)`` cells ended by the words ``sep``.

    A cell ``v`` with ``|v|`` in [1e-290, 1e290] takes its mantissa from
    ``m = |v| * 10**(11 - floor(log10|v|))``, within 3.4e-4 of the exact
    product.  ``rint(m)`` is then ``%.12g``'s rounding unless ``m`` lies
    within 1e-3 of a tie, or outside [1e11, 1e12) because ``log10`` was off
    by one.  Those cells, and the non-finite ones, are written by
    ``format``; zeros are written as "0" and "-0".
    """
    groups, trailing, keep, point, head, tail, pow10 = _g12_tables()
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= 1e-290) & (a <= 1e290)
    a = np.where(fast, a, 1.0)  # zeros and cells for format compute on 1
    exp = np.floor(np.log10(a)).astype(np.intp)
    m = a * pow10[_EXP + 11 - exp]
    slow = ~(fast | zero) | (np.abs(m - np.floor(m) - 0.5) < 1e-3) | (m < 1e11) | (m >= 1e12)
    m = np.rint(m)
    carry = m >= 1e12  # 999999999999.5 and up round to 1e12: one more exponent
    exp += carry
    m[carry] = 1e11
    m[zero] = 0.0
    # The three 4-digit groups of m, exactly: m is an integer below 2**53.
    g = np.empty((x.size, 3))
    g[:, 0] = np.floor(m / 1e8)
    m -= 1e8 * g[:, 0]
    g[:, 1] = np.floor(m / 1e4)
    g[:, 2] = m - 1e4 * g[:, 1]
    g = g.astype(np.intp)
    t = trailing[g]
    zeros = t[:, 2] + (g[:, 2] == 0) * (t[:, 1] + (g[:, 1] == 0) * t[:, 0])
    sci = (exp < -4) | (exp >= 12)
    # Digits kept: trailing zeros go, except the integer digits of fixed notation.
    kept = np.where(sci, 12 - zeros, np.maximum(exp + 1, 12 - zeros))
    after = np.where(sci, 0, exp)  # the digit the decimal point follows, if any digit follows it
    after = np.where((kept > after + 1) & (after >= 0), after, 12)
    buf = bytearray(40 * x.size)  # the words' bytes: deleting the NULs takes no copy of them
    words = np.frombuffer(buf, np.uint64).reshape(-1, 5)
    words[:, :1] = head[6 * np.signbit(x) + np.where(sci | (exp >= 0), 0, 1 - exp)]
    words[:, 1:4] = groups[g, 0] & keep[kept] | point[after]
    words[:, 4:] = tail[np.where(sci & ~slow, 1 + _EXP + exp, 0)]
    for i, v in zip(np.flatnonzero(slow).tolist(), x[slow].tolist()):
        buf[40 * i:40 * i + 32] = format(v, ".12g").encode().ljust(32, b"\0")  # words 0-3
    words.reshape(-1, len(sep), 5)[:, :, 4:] |= sep
    return buf.translate(None, b"\0").decode("ascii")


def _rows_csv(arr: np.ndarray) -> str:
    """Rows of ``arr`` as comma-separated ``%.12g`` text, one line each.

    The text is byte for byte that of ``format(v, ".12g")`` per cell.  Each
    block of rows (``_row_blocks``) is written by one pass of the numpy
    kernel above, which reads every cell's digits, decimal point, exponent
    and separator from lookup tables and then deletes its padding bytes.
    The few cells it cannot round with certainty (within 1e-3 of a rounding
    tie), non-finite cells and those with ``|v|`` outside [1e-290, 1e290],
    zeros aside, are written by ``format`` itself.
    """
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    sep = _packed([b"\0" * 5 + b","] * (arr.shape[1] - 1) + [b"\0" * 5 + b"\n"])
    return "".join([_g12_text(arr[s].ravel(), sep) for s in _row_blocks(*arr.shape)]) or "\n"


def _jsonify(obj):
    """``obj`` for ``json.dumps``: each float, and each array value as a float64, rounded to 12 digits."""
    if isinstance(obj, np.ndarray):
        # Round every value to 12 significant digits in bulk: format, parse back.
        text = _rows_csv(obj.reshape(-1, 1))
        return np.array(text.split(), dtype=float).reshape(obj.shape).tolist()
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (float, np.floating)):
        return float("%.12g" % obj)
    return obj


def _json_plain(x: np.ndarray) -> np.ndarray:
    """Cells whose 12-digit rounding ``v`` ``json.dumps`` writes as ``%.12g`` does.

    It does for finite, normal ``v`` with ``|v| >= 1e16`` (both write
    scientific notation) or with ``|v| < 1e12`` and not an integer (both write
    fixed notation).  ``json.dumps`` writes an integer with ".0", ``[1e12,
    1e16)`` in fixed notation, nan and the infinities by other names, and a
    subnormal with fewer digits.  The test reads ``x``, not ``v``, and errs
    toward False: a cell within ``1e-11 * |x|`` of an integer may round to one.
    """
    a = np.abs(x)
    with np.errstate(invalid="ignore"):  # inf - inf
        big = (a >= 1e16) & (a < np.inf)
        fraction = (a >= 1e-307) & (np.abs(x - np.rint(x)) > 1e-11 * a)
    return big | fraction


def _json_text(obj) -> str:
    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, np.ndarray) and obj.dtype == float and obj.ndim in (1, 2) and obj.size and _json_plain(obj).all():
        if obj.ndim == 1:
            return "[" + _rows_csv(obj.reshape(-1, 1))[:-1].replace("\n", ", ") + "]"
        return "[[" + _rows_csv(obj)[:-1].replace(",", ", ").replace("\n", "], [") + "]]"
    return json.dumps(_jsonify(obj))


def _json(obj) -> str:
    """``json.dumps(_jsonify(obj))`` and a newline: JSON of values rounded to 12 digits.

    Every array value is written as a float64, an int or bool array's too.
    A dict with string keys is written value by value.  A float array of 1 or
    2 dimensions whose cells pass ``_json_plain`` is written from its
    ``_rows_csv`` text, cells joined by ", " and rows by "], [", skipping the
    nested lists ``json.dumps`` would walk.  Any other array or value goes
    through ``json.dumps``.
    """
    return _json_text(obj) + "\n"


def _table(args, arr: np.ndarray) -> str:
    """``arr`` as CSV rows, or under ``--format json`` as a list of rows."""
    return _json(np.atleast_2d(arr)) if args.format == "json" else _rows_csv(arr)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Ingestion

def _parse_line(line: str) -> list[float] | None:
    try:
        return [float(c) for c in line.split(",")]
    except ValueError:
        return None


_Table = tuple[np.ndarray, tuple[str, ...] | None]  # rows, and the header's column names if any


def _header(line: str) -> tuple[str, ...] | None:
    """The column names of ``line``, the first non-blank one, if it is a header: not all numbers."""
    return None if _parse_line(line) is not None else tuple(c.strip() for c in line.split(","))


def _read_text(path: str) -> str:
    """The UTF-8 text of ``path``, a byte order mark dropped."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise IngestError(f"input file not found: {path}") from None
    except UnicodeDecodeError:
        raise IngestError(f"{path}: not UTF-8 text") from None


# Whitespace to str.strip() and to np.loadtxt, but not to float(): "0.5\x1c"
# is a number to np.loadtxt only.
_UNIT_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _read_rows(path: str) -> _Table:
    """Parse a CSV table of floats, with an optional header row.

    Lines end at newlines only (CRLF and CR read as newlines), so a cell may
    end in other whitespace such as a form feed.  Blank lines are skipped;
    cells are read with Python's ``float()`` grammar.  The header is the
    first non-blank line, if it is not all numbers.  Errors name the file,
    and a non-numeric cell its physical line: a non-numeric cell is reported
    before a ragged row, and a ragged row before a header of the wrong width.

    Two parsers give the same array bit for bit.  numpy's C reader reads the
    file from its path (a copy of the text in a ``StringIO`` takes 4 bytes a
    character).  It parses a cell as ``float()`` does, save for the
    ``_UNIT_SEPARATORS`` it strips, and rejects the rest of ``float()``'s
    grammar (``1_0``, non-ASCII digits).  A file that holds a unit separator,
    or that the C reader rejects, warns about or finds empty, goes to
    ``np.loadtxt`` over its stripped non-blank lines, with ``float`` as every
    cell's converter.  If that refuses them too, one more pass finds the
    first line that ``float()`` does not read.
    """
    text = _read_text(path)
    first = re.search(r"\S.*", text)  # the first non-blank line, from its first non-space
    columns = _header(first.group().strip()) if first else None
    rows = None
    if not any(c in text for c in _UNIT_SEPARATORS):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # such as "input contained no data"
                rows = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, encoding="utf-8-sig",
                                  skiprows=text.count("\n", 0, first.end()) + 1 if columns else 0)
        except (ValueError, Warning):
            pass
    if rows is None:
        data = [ln for ln in map(str.strip, text.split("\n")) if ln][columns is not None:]
        if not data:
            raise IngestError(f"no data rows in {path}")
        try:
            rows = np.loadtxt(data, delimiter=",", comments=None, ndmin=2, converters=float)
        except ValueError:
            pass  # reported below, once the traceback that keeps loadtxt's frames alive is gone
        if rows is None:
            # the first data line that float() does not read, else the rows are ragged
            bad = next((k for k, ln in enumerate(data, columns is not None) if _parse_line(ln) is None), None)
            if bad is None:
                raise IngestError(f"{path}: ragged rows (expected {data[0].count(',') + 1} columns)")
            del data
            numbers = (i for i, ln in enumerate(text.split("\n"), 1) if ln.strip())  # of the non-blank lines
            raise IngestError(f"{path}:{next(itertools.islice(numbers, bad, None))}: non-numeric cell")
    if columns is not None and len(columns) != rows.shape[1]:
        raise IngestError(f"{path}: header width does not match data width")
    return rows, columns


def _ingest_free(path: str) -> _Table:  # its own name, for the benchmark replay to wrap and time
    return _read_rows(path)


def _ingest_checked(path: str, check) -> _Table:
    """``_ingest_free(path)``, its rows validated by ``check``, whose error then names ``path``."""
    rows, columns = _ingest_free(path)
    try:
        return check(rows), columns
    except GcodaError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _ingest_positive(path: str) -> _Table:
    return _ingest_checked(path, as_positive)


def _ingest_compositions(ctx: GeometryContext, args) -> _Table:
    rows, columns = _ingest_positive(args.input)
    # A row whose sum overflows is off the simplex, and is reported as such.
    with np.errstate(over="ignore"):
        out, off = _on_simplex(rows)
    if off.any():
        if not args.close:
            bad = int(np.flatnonzero(off)[0]) + 1
            raise IngestError(f"{args.input}: data row {bad} does not sum to 1 (pass --close to project)")
        out[off] = _no_zero_part(closure(ctx, rows[off]), f"{args.input}: data row", "closes to", np.flatnonzero(off))
    return out, columns


def _no_zero_part(out: np.ndarray, where: str, verb: str = "gives", rows: np.ndarray | None = None) -> np.ndarray:
    """``out``, unless one of its rows has a part that underflowed to 0.

    Such a row is not a composition: a closure of data far from the simplex
    rounds its small parts to 0.  The first one is reported as ``where``,
    its 1-based row number (that of ``rows[i]`` when ``rows`` gives the data
    row of each of ``out``'s rows), then ``verb``.
    """
    zero = np.flatnonzero((out == 0.0).any(axis=-1))
    if zero.size:
        i = int(zero[0] if rows is None else rows[zero[0]])
        raise IngestError(f"{where} {i + 1} {verb} a composition with a zero part")
    return out


def _parse_vector(text: str, what: str) -> np.ndarray:
    vec = _parse_line(text)
    if vec is None:
        raise IngestError(f"could not parse {what}: {text!r}")
    return np.array(vec)


# ---------------------------------------------------------------------------
# Ternary SVG

_SVG_W, _SVG_H = 600, 520
# Characters outside XML 1.0's Char production, which escaping cannot fix.
# Compiled on first use (by re's cache), so commands other than plot skip it.
_NOT_XML_CHAR = r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"
_VERTS = np.array([
    [50.0, 470.0],
    [550.0, 470.0],
    [300.0, 470.0 - 500.0 * np.sqrt(3.0) / 2.0],
])


def ternary_svg(rows: np.ndarray, labels: tuple[str, str, str]) -> str:
    """Standalone SVG scatter of 3-part compositions in barycentric coordinates."""
    pts = np.atleast_2d(rows) @ _VERTS
    for label in labels:
        if re.search(_NOT_XML_CHAR, label):
            raise IngestError(f"label {label!r} holds a character XML 1.0 forbids")
    labels = [html.escape(label, quote=False) for label in labels]
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
# Commands: each returns the text the CLI writes.

def _law_from_args(ctx: GeometryContext, args):
    n = ctx.dim - 1
    mu = _parse_vector(args.mu, "--mu") if args.mu else np.zeros(n)
    if args.sigma:
        sigma, _ = _read_rows(args.sigma)
    else:
        sigma = np.eye(n)
    return make_gaussian(ctx, helmert_basis(ctx.dim), mu, sigma)


def _cmd_param(ctx: GeometryContext, args) -> str:
    if args.format == "json":
        return _json({"a": ctx.a, "e_a": ctx.e_a, "s": ctx.s})
    return f"a = {_rows_csv(ctx.a)}e_a = {_rows_csv(ctx.e_a)}s = {ctx.s:.12g}\n"


def _cmd_closure(ctx: GeometryContext, args) -> str:
    rows, _ = _ingest_positive(args.input)
    return _table(args, _no_zero_part(closure(ctx, rows), f"{args.input}: data row", "closes to"))


def _cmd_log(ctx: GeometryContext, args) -> str:
    rows, _ = _ingest_compositions(ctx, args)
    return _table(args, log_map(ctx, rows))


def _cmd_exp(ctx: GeometryContext, args) -> str:
    rows, _ = _ingest_checked(args.input, as_tangent)
    return _table(args, _no_zero_part(exp_map(ctx, rows), f"{args.input}: data row"))


def _cmd_perturb(ctx: GeometryContext, args) -> str:
    rows, _ = _ingest_compositions(ctx, args)
    by = _parse_vector(args.by, "--by")
    try:
        by = _no_zero_part(closure(ctx, by), "row", "closes to")
    except GcodaError as exc:
        raise type(exc)(f"--by: {exc}") from None
    return _table(args, _no_zero_part(perturb(ctx, rows, by), f"{args.input}: data row"))


def _cmd_power(ctx: GeometryContext, args) -> str:
    if not math.isfinite(args.c):
        raise IngestError(f"--c must be finite, got {args.c}")
    rows, _ = _ingest_compositions(ctx, args)
    return _table(args, _no_zero_part(power(ctx, args.c, rows), f"{args.input}: data row"))


def _cmd_dist(ctx: GeometryContext, args) -> str:
    rows, _ = _ingest_compositions(ctx, args)
    return _table(args, pairwise_distance(ctx, rows))


def _cmd_mean(ctx: GeometryContext, args) -> str:
    rows, _ = _ingest_compositions(ctx, args)
    return _table(args, _no_zero_part(frechet_mean(ctx, rows), f"{args.input}: mean row", "is"))


def _cmd_pca(ctx: GeometryContext, args) -> str:
    if args.format == "csv":
        raise IngestError("pca output is structured; use --format json")
    rows, _ = _ingest_compositions(ctx, args)
    k = args.k if args.k is not None else ctx.dim - 1
    pc = pca(ctx, helmert_basis(ctx.dim), rows, k)
    payload = {
        "param": ctx.a,
        "mean": pc.mean,
        "variances": pc.variances,
        "directions": pc.directions,
        "scores": pc.scores,
    }
    return _json(payload)


def _cmd_sub(ctx: GeometryContext, args) -> str:
    try:
        indices = tuple(int(i) for i in args.indices.split(","))
    except ValueError:
        raise IngestError(f"could not parse --indices: {args.indices!r}") from None
    rows, _ = _ingest_compositions(ctx, args)
    sub_ctx, sub_rows = subcompose(ctx, SubSelection(indices), rows)
    _no_zero_part(sub_rows, f"{args.input}: data row")
    if args.format == "json":
        return _json({"param": sub_ctx.a, "rows": sub_rows})
    return _rows_csv(sub_rows)


def _cmd_sample(ctx: GeometryContext, args) -> str:
    law = _law_from_args(ctx, args)
    # A mean near float64's limit overflows the draws' tangent vectors (not
    # finite) or their lift (too large to close): one numerical failure.
    try:
        with np.errstate(over="ignore"):
            draws = gaussian_sample(law, RandomSource(args.seed), args.n)
    except (NonPositiveValue, NumericalOverflow):
        mu = float(np.abs(law.mean_coords).max())
        raise NumericalOverflow(f"the draws overflow float64: --mu (max |mu| = {mu:.3g}) or --sigma is too large") from None
    return _table(args, _no_zero_part(draws, "sample row", "is"))


def _cmd_density(ctx: GeometryContext, args) -> str:
    law = _law_from_args(ctx, args)
    rows, _ = _ingest_compositions(ctx, args)
    # A row far beyond the law overflows its whitened deviation or its
    # square; its density is then 0, which is reported below.
    with np.errstate(over="ignore"):
        dens = gaussian_density(law, rows)
    zero = np.flatnonzero(dens == 0.0)
    if zero.size:
        raise IngestError(f"{args.input}: density of data row {zero[0] + 1} underflows to 0")
    return _json(dens) if args.format == "json" else _rows_csv(dens[:, None])


def _cmd_plot(ctx: GeometryContext, args) -> str:
    rows, columns = _ingest_compositions(ctx, args)
    if rows.shape[1] != 3:
        raise IngestError("plot needs 3-part compositions; subcompose or project first")
    return ternary_svg(rows, columns or ("x1", "x2", "x3"))


# ---------------------------------------------------------------------------
# Parser / entry point

class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors: exit 1, not argparse's default 2
    def error(self, message):
        # argparse reads a value that starts with "-", such as --mu -1,0, as an option
        message = re.sub(r"^argument (--[\w-]+): expected one argument$",
                         r"\g<0> (write a value that starts with '-' as \1=VALUE)", message)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser.  Each command accepts only the options it reads."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--param", help="comma-separated weight vector, e.g. 1,1,2")
    common.add_argument("--param-file", help="file holding the weight vector")
    common.add_argument("--output", help="output path (default: stdout)")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--input", required=True, help="input CSV path")
    comps = argparse.ArgumentParser(add_help=False, parents=[data])
    comps.add_argument("--close", action="store_true", help="project non-unit-sum rows instead of rejecting")
    law = argparse.ArgumentParser(add_help=False)
    law.add_argument("--mu", help="comma-separated mean coordinates (default: zeros)")
    law.add_argument("--sigma", help="CSV path of the coordinate covariance (default: identity)")

    parser = _Parser(prog="gcoda", description="weighted simplex geometry, statistics and simulation")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, run, summary, *parents):
        p = sub.add_parser(name, parents=[common, *parents], help=summary)
        p.set_defaults(run=run)
        return p

    command("param", _cmd_param, "print the canonical weights, neutral element and normalizer", table)
    command("closure", _cmd_closure, "project positive rows onto the simplex", data, table)
    command("log", _cmd_log, "log-map rows to zero-sum tangent vectors", comps, table)
    command("exp", _cmd_exp, "exp-map zero-sum rows to compositions", data, table)
    p = command("perturb", _cmd_perturb, "group-translate every row by a fixed vector", comps, table)
    p.add_argument("--by", required=True, help="comma-separated positive vector (closed before use)")
    p = command("power", _cmd_power, "scalar-multiply every row", comps, table)
    p.add_argument("--c", type=float, required=True, help="scalar")
    command("dist", _cmd_dist, "full pairwise distance matrix", comps, table)
    command("mean", _cmd_mean, "intrinsic (group) sample mean", comps, table)
    p = command("pca", _cmd_pca, "principal component analysis (JSON)", comps)
    p.add_argument("--format", choices=("csv", "json"), default="json", help="output format (json only)")
    p.add_argument("--k", type=int, default=None, help="number of components (default: all)")
    p = command("sub", _cmd_sub, "subcomposition under the restricted weights", comps, table)
    p.add_argument("--indices", required=True, help="comma-separated 1-based part positions")
    p = command("sample", _cmd_sample, "draw from a normal law on the simplex", law, table)
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=int, default=0, help="sampler seed")
    command("density", _cmd_density, "normal density at each input row", comps, law, table)
    command("plot", _cmd_plot, "ternary scatter SVG of 3-part rows", comps)
    return parser


def _build_config(args) -> GeometryContext:
    """The geometry of --param or --param-file."""
    if bool(args.param) == bool(args.param_file):
        raise IngestError("exactly one of --param or --param-file is required")
    if args.param:
        vec = _parse_vector(args.param, "--param")
    else:
        lines = map(str.strip, _read_text(args.param_file).split("\n"))
        vec = _parse_vector(",".join(filter(None, lines)), "--param-file")
    return make_context(vec)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args.run(_build_config(args), args), args.output)
        return 0
    except (NonConvergence, NumericalOverflow, NotPositiveDefinite) as exc:
        print(f"gcoda: numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"gcoda: out of memory: {exc}", file=sys.stderr)
        return 2
    except (GcodaError, OSError) as exc:
        print(f"gcoda: {exc}", file=sys.stderr)
        return 1

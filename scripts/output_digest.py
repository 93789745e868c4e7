"""One sha256 per public gcoda kernel over a fixed grid of inputs.

Two source trees whose kernels give the same output bits print the same
lines, so running this script on both sides of a change shows whether any
bit moved.  The grid:

- widths 3, 5 and 51;
- uniform, quadratic and two general weight vectors;
- row counts from 1 to 5000 across the edges of 2^14-cell row blocks and
  of the column folds (63, 64 and 65 rows), and single vectors;
- closure input at log spreads 5 and 350 (at 350, the quadratic form's
  x_last**2 overflows float64 in the linear domain);
- under general weights, single vectors and one-row batches whose row
  maxima in the Newton solve tie (``ties``): all-ones input, where every
  log x is 0; a part of 1 beside parts of 1e-300, where the start t = 0 is
  the root; the neutral element, where t = 0 exactly; log x proportional
  to the weights; two largest parts equal; and zero tangents, with signed
  zeros too;
- 20 000 ``as_tangent`` verdicts on rows with parts up to 1.8e308;
- single vectors of 2 to 8 and of 51 parts with one or two parts set to
  NaN, ±inf, ±0, -1, the smallest subnormal or 1.7e308, through every
  public entry point that validates a vector (``validation``);
- the CLI's CSV text (``rows_csv``) of values over 1e-300 ... 1e300 on the
  same widths and row counts, of arrays whose cells are mostly ``format``'s
  (signed zeros, and mantissas that round up to the next power of ten), and
  of ``format_edges()``; also at width 1
  (the column that JSON output rounds through) and 1000 (``dist``'s 16-row
  blocks), in batches of at most ``MAX_ROWS`` rows of the widest of the
  widths above, and of one symmetric 1000x1000 distance matrix with a zero
  diagonal;
- the CLI's CSV ingest (``read_rows``) of files on the same widths and row
  counts: plain ones (numpy's reader takes them), ones with a byte order
  mark, CRLF and blank lines, and ones it leaves to the fallback, which
  reads every cell with ``float()`` (a cell only ``float()`` reads, a
  non-numeric cell, a ragged row), plus small files at the edges of the
  grammar;
- the CLI's JSON text (``json``) of arrays and payloads on the same widths
  and row counts, written directly or through ``json.dumps``.

A call that raises is hashed by its exception's type and message in place of
an output, and a RuntimeWarning counts as raised.  Stdlib and numpy only;
every input comes from a fixed seed.

Usage: python3 scripts/output_digest.py [SRC]   (default: the src/ beside this script)
"""

import hashlib
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

WIDTHS = (3, 5, 51)
BLOCK_CELLS = 1 << 14
MAX_ROWS = 5000
MAX_DISTANCE_ROWS = 700  # pairwise_distance loops over rows in Python
TANGENT_ROWS = 20000


def row_counts(width: int) -> list[int]:
    """Row counts at the block edges of ``width``-part rows and the column-fold edge, up to ``MAX_ROWS``.

    A batch of at least 64 rows and fewer than 8 parts is reduced one column
    at a time; 63, 64 and 65 rows sit on both sides of that edge.
    """
    b = BLOCK_CELLS // width
    fold = b + (b + 1) // 2  # the fewest rows that split into two blocks
    edges = {1, 2, 7, 63, 64, 65, b - 1, b, b + 1, fold - 1, fold, 2 * b + 1, MAX_ROWS}
    return sorted(n for n in edges if 1 <= n <= MAX_ROWS)


def weight_vectors(width: int) -> dict[str, np.ndarray]:
    return {
        "uniform": np.ones(width),
        "quadratic": np.r_[np.ones(width - 1), 2.0],
        "linspace": np.linspace(0.5, 3.0, width),
        "geomspace": np.geomspace(0.1, 10.0, width),
    }


def softmax(w: np.ndarray) -> np.ndarray:
    e = np.exp(w - w.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class Digests:
    """One running sha256 per kernel name, fed with (case, result) pairs."""

    def __init__(self):
        self.hashes = {}

    def add(self, name: str, case: str, call) -> None:
        h = self.hashes.setdefault(name, hashlib.sha256())
        h.update(case.encode())
        try:
            self._feed(h, call())
        except Exception as exc:  # the failure is part of the digest
            h.update(f"!{type(exc).__name__}: {exc}".encode())

    def _feed(self, h, value) -> None:
        if isinstance(value, (np.ndarray, np.generic)):
            arr = np.asarray(value)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
        elif isinstance(value, (tuple, list)):
            for v in value:
                self._feed(h, v)
        elif hasattr(value, "__dataclass_fields__"):
            for key in value.__dataclass_fields__:
                self._feed(h, getattr(value, key))
        elif isinstance(value, float):
            h.update(value.hex().encode())
        else:
            h.update(repr(value).encode())

    def lines(self) -> list[str]:
        return [f"{name} {h.hexdigest()}" for name, h in self.hashes.items()]


def kernel_cases(g, d: Digests, width: int) -> None:
    basis = g.helmert_basis(width)
    for label, a in weight_vectors(width).items():
        d.add("make_context", f"{width}/{label}", lambda: g.make_context(a))
        ctx = g.make_context(a)
        law = g.make_gaussian(ctx, basis, np.linspace(-0.3, 0.3, width - 1), 0.2 * np.eye(width - 1))
        for n in row_counts(width):
            rng = np.random.default_rng([width, n])
            x5 = np.exp(rng.uniform(-5, 5, (n, width)))
            x350 = np.exp(rng.uniform(-350, 350, (n, width)))
            lam = softmax(rng.uniform(-5, 5, (n, width)))
            mu = softmax(rng.uniform(-50, 50, (n, width)))
            xi = 3.0 * rng.normal(size=(n, width))
            xi -= xi.mean(axis=1, keepdims=True)
            z = rng.normal(size=(n, width - 1))
            cases = [(f"{width}/{label}/{n}", lambda v: v)]
            if n == 1:  # the row as a single vector too
                cases.append((f"{width}/{label}/vector", lambda v: v[0]))
            for case, one in cases:
                for spread, x in (("5", x5), ("350", x350)):
                    d.add("solve_t", f"{case}/{spread}", lambda: g.solve_t(ctx, one(x)))
                    d.add("closure", f"{case}/{spread}", lambda: g.closure(ctx, one(x)))
                d.add("log_map", case, lambda: g.log_map(ctx, one(lam)))
                d.add("exp_map", case, lambda: g.exp_map(ctx, one(xi)))
                for c in (1.7, -2.3):
                    d.add("power", f"{case}/{c}", lambda: g.power(ctx, c, one(lam)))
                d.add("perturb", case, lambda: g.perturb(ctx, one(lam), one(mu)))
                d.add("perturb", f"{case}/by-vector", lambda: g.perturb(ctx, one(lam), mu[0]))
                d.add("coords", case, lambda: g.coords(ctx, basis, one(lam)))
                d.add("from_coords", case, lambda: g.from_coords(ctx, basis, one(z)))
                d.add("frechet_mean", case, lambda: g.frechet_mean(ctx, one(lam)))
                d.add("sample_covariance", case, lambda: g.sample_covariance(ctx, basis, one(lam)))
                d.add("pca", case, lambda: g.pca(ctx, basis, one(mu), width - 1))
                if n <= MAX_DISTANCE_ROWS:
                    d.add("pairwise_distance", case, lambda: g.pairwise_distance(ctx, one(mu)))
                d.add("distance", case, lambda: g.distance(ctx, one(lam), one(mu)))
                d.add("distance", f"{case}/by-vector", lambda: g.distance(ctx, one(lam), mu[0]))
                d.add("norm", case, lambda: g.norm(ctx, one(mu)))
                d.add("inner", case, lambda: g.inner(ctx, one(lam), one(mu)))
                d.add("gaussian_density", case, lambda: g.gaussian_density(law, one(lam)))
            d.add("gaussian_sample", f"{width}/{label}/{n}", lambda: g.gaussian_sample(law, g.RandomSource(n), n))


def tie_cases(g, d: Digests, width: int) -> None:
    """``closure``, ``solve_t`` and ``exp_map`` on vectors whose maxima in the Newton solve tie.

    Ties in a max differ at most in the sign of zero, which no output bit may
    show, whichever of the tied parts a max returns.
    """
    for label, a in weight_vectors(width).items():
        ctx = g.make_context(a)
        if ctx.fast_path != "general":
            continue
        top = np.full(width, 0.1)
        top[[0, -1]] = 0.6
        # "unit-top": u = -0.0 as for "ones", and t = 0 is already the root
        xs = {"ones": np.ones(width), "unit-top": np.r_[1.0, np.full(width - 1, 1e-300)], "neutral": ctx.e_a,
              "along-a": np.exp(-0.7 * ctx.a), "along-a-above-1": np.exp(0.3 * ctx.a), "tied-top": top,
              "tied-top-above-1": 3.0 * top}
        signed = np.r_[np.zeros(width - 1), -0.0]  # the first and the last of the tied parts differ in sign
        xis = {"zero": np.zeros(width), "signed-zero": signed, "negated-signed-zero": -signed}
        for name, v in xs.items():
            for shape, one in (("vector", v), ("row", v[None])):
                case = f"ties/{width}/{label}/{name}/{shape}"
                d.add("solve_t", case, lambda: g.solve_t(ctx, one))
                d.add("closure", case, lambda: g.closure(ctx, one))
        for name, v in xis.items():
            for shape, one in (("vector", v), ("row", v[None])):
                d.add("exp_map", f"ties/{width}/{label}/{name}/{shape}", lambda: g.exp_map(ctx, one))


def format_edges() -> np.ndarray:
    """Values at the edges of ``%.12g`` text, with both signs.

    Zero, the smallest subnormal and the largest float64; 10**k and its two
    neighbours for k in -308 ... 308; exact rounding ties; the carries of
    999999999999.5 and 9.9999999999995e-5 to the next power of ten; and both
    sides of the switches to scientific notation at 1e-4 and 1e12.
    """
    tens = np.array([float(f"1e{k}") for k in range(-308, 309)])
    ties = [123456789012.5, 1234567890125.0, 100000000000.5, 0.5, 2.5]
    carries = [999999999999.5, 9.9999999999995e-5, 9.99999999999949e-5, 999999999999.4]
    switches = [1e-4, 9.99999999999e-5, 0.000100000000001, 1e12, 999999999999.0, 1.00000000001e12]
    edges = np.concatenate([[0.0, 5e-324, np.finfo(float).max], tens, np.nextafter(tens, 0.0),
                            np.nextafter(tens, np.inf), ties, carries, switches])
    return np.concatenate([edges, -edges])


def csv_cases(cli, d: Digests, width: int) -> None:
    """``_rows_csv`` text of ``width`` columns: random magnitudes at the block edges, and the edge values."""
    for n in (n for n in row_counts(width) if n * width <= MAX_ROWS * WIDTHS[-1]):
        rng = np.random.default_rng([width, n, 12])
        wide = rng.choice([-1.0, 1.0], (n, width)) * 10.0 ** rng.uniform(-300, 300, (n, width))
        near = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-6, 14, (n, width))
        # four cells in five are zeros or round up to the next power of ten: format writes them
        carry = 999999999999.7 * 10.0 ** rng.integers(-300, 297, (n, width))
        pick = rng.integers(0, 5, (n, width))
        written = rng.choice([-1.0, 1.0], (n, width)) * np.choose(pick, [0.0, 0.0, carry, carry, np.abs(wide)])
        d.add("rows_csv", f"{width}/{n}/wide", lambda: cli._rows_csv(wide))
        d.add("rows_csv", f"{width}/{n}/near", lambda: cli._rows_csv(near))
        d.add("rows_csv", f"{width}/{n}/format", lambda: cli._rows_csv(written))
    edges = format_edges()
    edges = np.resize(edges, (-(-edges.size // width), width))
    d.add("rows_csv", f"{width}/edges", lambda: cli._rows_csv(edges))


def distance_matrix_case(cli, d: Digests) -> None:
    """``_rows_csv`` text of a symmetric 1000x1000 matrix of Euclidean distances, as ``dist`` writes."""
    points = np.random.default_rng(15).normal(size=(1000, 4))
    dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))
    d.add("rows_csv", "distance-matrix", lambda: cli._rows_csv(dist))


# Cells only float() reads, or that no reader takes: each sends a file to the CLI's fallback reader.
FALLBACK_CELLS = ["1_0", "\u0661\u0662", "0.5\x1c", " 1e5\x85", "x", "", "1 2", "0x10", "0.5\0"]
SMALL_FILES = ["", " \n\t\n", "a,b\n", "a,b", "\ufeff\n a , b \r\n\r\n0.5,-2e-3\r\n", "a,b,c\n0.2,0.8\n",
               "0.2,0.8\n \n0.5,0.5\n", "0.2,0.8\n\f\n0.5,0.5\n", "0.2,0.8\n0.5\x1c,0.5\n", "\x1c0.2,0.8\x1d\n",
               "\xa00.2 ,\t0.8\f\n0.5\x85,\u20280.5\n", "nan,-inf\n1e400,-1e-400\n", "0.2,0.8\n0.5\n", "1,2\r3,4",
               # the error order: a non-numeric cell before a ragged row, a ragged row before the header's width
               "0.2,0.8\n0.5\n0.5,x\n", "a,b,c\n0.2,0.8\n0.5\n", "a\n0.2,0.8\n", "a\x1c,b\n0.2,0.8\n"]


def read_cases(cli, d: Digests, width: int, root: Path) -> None:
    """``_read_rows`` on files of ``width`` columns, written under ``root``, at the block edges."""
    def read(path: Path):
        try:
            return cli._read_rows(str(path))
        except cli.IngestError as exc:  # the message names the file: drop its directory
            raise cli.IngestError(str(exc).replace(str(root), "")) from None

    def add(case: str, text: str) -> None:
        path = root / "in.csv"
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        d.add("read_rows", case, lambda: read(path))

    for n in row_counts(width):
        rng = np.random.default_rng([width, n, 13])
        values = rng.choice([-1.0, 1.0], (n, width)) * 10.0 ** rng.uniform(-300, 300, (n, width))
        rows = [",".join(map(repr, row)) for row in values.tolist()]
        header = ",".join(f"p{i}" for i in range(width))
        add(f"{width}/{n}/plain", "\n".join([header] + rows) + "\n")
        spaced = [row if i % 100 else "\r\n" + row for i, row in enumerate(rows)]
        add(f"{width}/{n}/bom-crlf-blank", "\ufeff" + "\r\n".join(spaced))
        i, j = int(rng.integers(n)), int(rng.integers(width))
        for cell in FALLBACK_CELLS:
            cells = rows[i].split(",")
            cells[j] = cell
            add(f"{width}/{n}/{cell!r}", "\n".join(rows[:i] + [",".join(cells)] + rows[i + 1:]) + "\n")
        add(f"{width}/{n}/ragged", "\n".join(rows[:i] + [rows[i] + ",0.5"] + rows[i + 1:]) + "\n")
    if width == WIDTHS[0]:
        for k, text in enumerate(SMALL_FILES):
            add(f"small/{k}", text)


def json_cases(cli, d: Digests, width: int) -> None:
    """``_json`` of ``width``-column arrays, their rows and columns, and payloads, at the block edges."""
    for n in row_counts(width):
        rng = np.random.default_rng([width, n, 14])
        wide = rng.choice([-1.0, 1.0], (n, width)) * 10.0 ** rng.uniform(-300, 300, (n, width))
        near = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-6, 14, (n, width))
        plain = rng.uniform(-1.0, 1.0, (n, width))
        tiny = plain * 10.0 ** rng.integers(-320, -300, (n, width))  # subnormals among them
        cases = (("wide", wide), ("near", near), ("plain", plain), ("tiny", tiny), ("whole", np.rint(1e3 * plain)),
                 ("big", 1e15 * plain))
        for label, arr in cases:
            d.add("json", f"{width}/{n}/{label}", lambda: cli._json(arr))
            d.add("json", f"{width}/{n}/{label}/row", lambda: cli._json(arr[0]))
            d.add("json", f"{width}/{n}/{label}/column", lambda: cli._json(arr[:, 0]))
        payload = {"param": np.arange(1.0, width + 1), "mean": plain[0], "scores": plain, "k": 2, "s": wide[0, 0]}
        d.add("json", f"{width}/{n}/payload", lambda: cli._json(payload))
    edges = format_edges()
    d.add("json", f"{width}/edges", lambda: cli._json(np.resize(edges, (-(-edges.size // width), width))))
    for k, obj in enumerate([np.empty((0, width)), np.array(0.25), np.linspace(0.1, 0.9, 8 * width).reshape(2, 4, -1),
                             np.float64(0.1 * width), {1: np.full(width, 0.5)}]):
        d.add("json", f"{width}/other/{k}", lambda: cli._json(obj))


def tangent_verdicts(g, d: Digests) -> None:
    """``as_tangent`` on rows of 2 to 5 parts with magnitudes from 1e-320 to 1.8e308."""
    rng = np.random.default_rng(2024)
    for i in range(TANGENT_ROWS):
        width = 2 + i % 4
        row = rng.choice([-1.0, 1.0], width) * 10.0 ** rng.uniform(-320, 308.25, width)
        if i % 2:
            # near the tangent space: the last part cancels the others' sum,
            # up to relative and absolute errors on both sides of the tolerance
            with np.errstate(over="ignore"):
                last = -row[:-1].sum()
            if np.isfinite(last):
                row[-1] = last * (1.0 + 10.0 ** rng.uniform(-17, -9)) + rng.uniform(-3e-10, 3e-10)
        d.add("as_tangent", f"{i}", lambda: g.as_tangent(row) is not None and "accepted")


EDGE_VALUES = (np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, 5e-324, 1.7e308)


def validation_verdicts(g, d: Digests) -> None:
    """Single vectors with one part, or two, set to each of ``EDGE_VALUES``, through every validating entry point.

    Below 8 parts the checks accept in Python floats, from 8 on in numpy; two
    parts of 1.7e308 make a composition's sum overflow.
    """
    for width in (2, 3, 4, 5, 6, 7, 8, 51):
        ctx = g.make_context(np.linspace(0.5, 3.0, width))
        lam, xi = np.full(width, 1.0 / width), np.linspace(-1.0, 1.0, width)
        spots = [((i,), (b,)) for i in sorted({0, 1, width - 1}) for b in EDGE_VALUES]
        spots += [((0, width - 1), (b, c)) for b in EDGE_VALUES for c in EDGE_VALUES]
        for where, values in spots:
            def put(v: np.ndarray) -> np.ndarray:
                v = v.copy()
                v[list(where)] = values
                return v

            bad_lam, bad_xi, case = put(lam), put(xi), f"{width}/{where}/{values}"
            calls = {
                "as_free": lambda: g.ambient.as_free(bad_xi),
                "as_positive": lambda: g.ambient.as_positive(bad_lam),
                "as_composition": lambda: g.as_composition(bad_lam),
                "as_tangent": lambda: g.as_tangent(bad_xi),
                "solve_t": lambda: g.solve_t(ctx, bad_lam),
                "closure": lambda: g.closure(ctx, bad_lam),
                "log_map": lambda: g.log_map(ctx, bad_lam),
                "exp_map": lambda: g.exp_map(ctx, bad_xi),
                "power": lambda: g.power(ctx, 1.7, bad_lam),
                "perturb": lambda: g.perturb(ctx, lam, bad_lam),
                "distance": lambda: g.distance(ctx, bad_lam, lam),
                "distance/second": lambda: g.distance(ctx, lam, bad_lam),
                "norm": lambda: g.norm(ctx, bad_lam),
                "inner": lambda: g.inner(ctx, lam, bad_lam),
            }
            for name, call in calls.items():
                d.add("validation", f"{case}/{name}", call)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import gcoda
    from gcoda import cli

    warnings.simplefilter("error", RuntimeWarning)
    d = Digests()
    for width in WIDTHS:
        kernel_cases(gcoda, d, width)
        tie_cases(gcoda, d, width)
    tangent_verdicts(gcoda, d)
    validation_verdicts(gcoda, d)
    for width in (1, *WIDTHS, 1000):
        csv_cases(cli, d, width)
    distance_matrix_case(cli, d)
    with tempfile.TemporaryDirectory() as root:
        for width in WIDTHS:
            read_cases(cli, d, width, Path(root))
    for width in WIDTHS:
        json_cases(cli, d, width)
    print("\n".join(d.lines()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

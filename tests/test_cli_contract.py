"""A contract sweep over all 13 CLI commands: one outcome per input.

For every invocation argparse accepts, ``main`` returns 0, 1 or 2, lets no
exception escape and raises no warning, and it writes nothing to stderr on
success and one ``gcoda: `` line otherwise.  Option values are written in
the ``--opt=VALUE`` form, so a negative value is a value, not an option.
Weights, cells, ``--mu``, ``--sigma`` scales and ``--c`` span the accepted
domain and step past its edges; the data files mix numbers with ``float()``-
only grammar, whitespace-only lines, non-numeric cells, ragged rows and
headers.  ``--n`` stays small: a draw too large to allocate has its own test.
"""

import contextlib
import io
import math
import re
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from gcoda.cli import main

DATA = {"closure", "log", "exp", "perturb", "power", "dist", "mean", "pca", "sub", "density", "plot"}
CLOSE = DATA - {"closure", "exp"}
TABLE = (DATA | {"param", "sample"}) - {"pca", "plot"}
LAW = {"sample", "density"}
COMMANDS = sorted(DATA | {"param", "sample"})

EDGES = [0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e-150, 1e-8, 1e-3, 0.5, 1.0, 2.0, 1e3, 1e8, 1e150, 1e300, 1.7e308,
         math.inf, math.nan]
# float()'s grammar beyond numpy's C reader, and cells no reader takes
ODD_CELLS = ["1_0", "\u0661", " nan ", "inf", "-inf", "1e400", "-1e-400", "-0", "+.5e-3", "x", "", "0x10",
             "0.5\x1c", "1 2", "\x1f0.5"]
BLANK_LINES = ["", " ", "\t", "\f", "\x85", "\u2028", "\x1c"]

reals = st.one_of(st.sampled_from(EDGES), st.sampled_from(EDGES).map(lambda v: -v), st.floats())
ARABIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def mostly(draw, usual, other):
    """A draw from ``usual``, or now and then from ``other``."""
    return draw(usual if draw(st.sampled_from([True, True, True, True, False])) else other)


def text(values) -> str:
    return ",".join(map(repr, values))


@st.composite
def weights(draw) -> list[float]:
    n = draw(st.sampled_from([3, 5, 2, 4, 6, 1]))
    kind = draw(st.sampled_from(["uniform", "quadratic", "general", "general", "edge"]))
    if kind == "uniform":
        return [draw(st.sampled_from([1.0, 2.0, 1e-8, 1e8]))] * n
    if kind == "quadratic":
        return [1.0] * (n - 1) + [2.0]
    if kind == "general":
        return draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    return draw(st.lists(st.one_of(st.sampled_from([1e-150, 1e-8, 1.0, 1e8, 1e150]), reals), min_size=n, max_size=n))


def cell_text(draw, v: float) -> str:
    """``v`` as text, now and then in ``float()``-only grammar or padded with whitespace."""
    t = repr(v)
    how = draw(st.sampled_from(["plain"] * 6 + ["arabic", "underscore", "padded"]))
    if how == "arabic":
        return t.translate(ARABIC)
    if how == "underscore":
        return re.sub(r"(\d)(\d)", r"\1_\2", t, count=1)
    return draw(st.sampled_from([" ", "\t", "\f"])) + t + " " if how == "padded" else t


@st.composite
def table(draw, width: int, kind: str) -> str:
    """CSV text of ``kind`` rows of ``width`` parts, with odd lines, cells and a header mixed in."""
    m = mostly(draw, st.integers(1, 5), st.integers(0, 2))
    spread = draw(st.sampled_from([0.1, 1.0, 10.0, 100.0, 700.0]))
    z = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m * width, max_size=m * width))).reshape(m, width)
    with np.errstate(all="ignore"):
        rows = np.exp(spread * z)
        if kind == "composition":
            rows /= rows.sum(axis=1, keepdims=True)
        elif kind == "tangent":
            rows = spread * (z - z.mean(axis=1, keepdims=True))
    lines = [",".join(cell_text(draw, v) for v in r) for r in rows.tolist()]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):
        i = draw(st.integers(0, len(lines)))
        change = draw(st.sampled_from(["blank", "blank", "cell", "ragged", "real"]))
        if change == "blank" or not lines:
            lines.insert(i, draw(st.sampled_from(BLANK_LINES)))
            continue
        i = min(i, len(lines) - 1)
        cells = lines[i].split(",")
        if change == "ragged":
            cells = cells[:-1] if len(cells) > 1 and draw(st.booleans()) else cells + ["0.5"]
        else:
            j = draw(st.integers(0, len(cells) - 1))
            cells[j] = draw(st.sampled_from(ODD_CELLS)) if change == "cell" else repr(draw(reals))
        lines[i] = ",".join(cells)
    if draw(st.integers(0, 3)) == 0:
        columns = width + mostly(draw, st.just(0), st.sampled_from([1, -1]))
        lines.insert(0, ",".join(draw(st.sampled_from(["a", " b ", "x y", "<&>", "\x01", "nan?"]))
                                 for _ in range(max(columns, 1))))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return draw(st.sampled_from(["", "\ufeff"])) + newline.join(lines) + draw(st.sampled_from([newline, ""]))


@st.composite
def invocations(draw) -> tuple[list[str], dict[str, str]]:
    """An argv whose paths are file names in a directory, and the text of each file."""
    command = draw(st.sampled_from(COMMANDS))
    a = draw(weights())
    n = len(a)
    files = {}
    argv = [command]
    if draw(st.sampled_from([True, True, True, True, False])):
        argv.append(f"--param={text(a)}")
    else:
        files["param.txt"] = "\n".join(map(repr, a)) + "\n"
        argv.append("--param-file=param.txt")
    if command in DATA:
        kind = {"closure": "positive", "exp": "tangent"}.get(command, "composition")
        kind = mostly(draw, st.just(kind), st.sampled_from(["positive", "composition", "tangent"]))
        width = n + mostly(draw, st.just(0), st.sampled_from([1, -1]))
        files["in.csv"] = draw(table(3 if command == "plot" and draw(st.booleans()) else width, kind))
        argv.append("--input=in.csv")
    if command in CLOSE and draw(st.booleans()):
        argv.append("--close")
    if command in TABLE and draw(st.booleans()):
        argv.append(f"--format={draw(st.sampled_from(['csv', 'json']))}")
    if command == "pca":
        argv.append(f"--format={mostly(draw, st.just('json'), st.just('csv'))}")
        if draw(st.booleans()):
            argv.append(f"--k={mostly(draw, st.integers(1, max(n - 1, 1)), st.integers(-1, n + 1))}")
    if command == "perturb":
        by = mostly(draw, st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n),
                    st.lists(st.one_of(st.floats(1e-3, 1e3), reals), min_size=n - 1, max_size=n + 1))
        argv.append(f"--by={text(by)}")
    if command == "power":
        argv.append(f"--c={mostly(draw, st.floats(-10.0, 10.0), reals)!r}")
    if command == "sub":
        indices = mostly(draw, st.permutations(range(1, n + 1)).map(lambda p: p[:max(2, len(p) - 1)]),
                         st.lists(st.integers(-1, n + 1), min_size=1, max_size=n + 1))
        argv.append("--indices=" + ",".join(map(str, indices)))
    if command == "sample":
        argv.append(f"--n={mostly(draw, st.integers(1, 30), st.integers(-1, 0))}")
        if draw(st.booleans()):
            argv.append(f"--seed={draw(st.integers(-2**70, 2**70))}")
    if command in LAW:
        k = n - 1 + mostly(draw, st.just(0), st.sampled_from([1, -1]))
        if draw(st.booleans()):
            mu = mostly(draw, st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k),
                        st.lists(st.one_of(st.floats(-3.0, 3.0), reals), min_size=k, max_size=k))
            argv.append(f"--mu={text(mu)}")
        if draw(st.booleans()):
            scale = mostly(draw, st.sampled_from([1e-3, 0.1, 1.0, 10.0]), st.sampled_from(EDGES[1:-2] + [-1.0]))
            b = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k * k, max_size=k * k))).reshape(k, k)
            with np.errstate(all="ignore"):
                cov = scale * (b @ b.T + mostly(draw, st.just(1.0), st.sampled_from([0.0, 0.1])) * np.eye(k))
                if draw(st.integers(0, 9)) == 0:
                    cov += scale * b  # asymmetric
            files["sigma.csv"] = "\n".join(text(r) for r in cov.tolist()) + "\n"
            argv.append("--sigma=sigma.csv")
    if draw(st.integers(0, 3)) == 0:
        argv.append(f"--output={mostly(draw, st.just('out.txt'), st.sampled_from(['.', 'missing/out.txt']))}")
    return argv, files


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(invocations())
def test_every_invocation_has_one_outcome(tmp_path, monkeypatch, invocation):
    argv, files = invocation
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).write_text(content, encoding="utf-8", newline="")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2)
    message = err.getvalue()
    if code == 0:
        assert message == ""
    else:
        assert message.startswith("gcoda: ") and message.endswith("\n") and message.count("\n") == 1, message

"""Block-wise CSV ingest and ``%.12g`` formatting against per-cell loops.

The references parse every stripped cell with ``float()`` and format every
value with ``format(v, ".12g")``.  The CLI's block-wise code must give the
same arrays bit for bit, the same error messages, and the same text.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gcoda import IngestError
from gcoda import cli, geometry

STEP = geometry._BLOCK_CELLS // 5  # rows per ingest block of a 5-column file


def ref_read_rows(path):
    text = Path(path).read_text(encoding="utf-8-sig")
    lines = [(i, ln.strip()) for i, ln in enumerate(text.split("\n"), start=1)]
    lines = [(i, ln) for i, ln in lines if ln]
    if not lines:
        raise IngestError(f"no data rows in {path}")

    def parse(line):
        try:
            return [float(c) for c in line.split(",")]
        except ValueError:
            return None

    columns = None
    if not any(parse(c) for c in lines[0][1].split(",")):
        columns = tuple(c.strip() for c in lines[0][1].split(","))
        lines = lines[1:]
        if not lines:
            raise IngestError(f"no data rows in {path}")
    rows = []
    for i, ln in lines:
        vals = parse(ln)
        if vals is None:
            raise IngestError(f"{path}:{i}: non-numeric cell")
        rows.append(vals)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise IngestError(f"{path}: ragged rows (expected {width} columns)")
    if columns is not None and len(columns) != width:
        raise IngestError(f"{path}: header width does not match data width")
    return np.array(rows, dtype=float), columns


def ref_rows_csv(arr):
    return "\n".join(",".join(format(float(v), ".12g") for v in row) for row in np.atleast_2d(arr)) + "\n"


def ref_jsonify(obj):
    if isinstance(obj, np.ndarray):
        return ref_jsonify(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [ref_jsonify(v) for v in obj]
    if isinstance(obj, dict):
        return {k: ref_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (float, np.floating)):
        return float(format(float(obj), ".12g"))
    return obj


def read_both(path):
    """Result or error message of the block-wise reader and of the reference."""
    out = []
    for read in (cli._read_rows, ref_read_rows):
        try:
            arr, columns = read(str(path))
            out.append((arr.shape, arr.tobytes(), columns))
        except IngestError as exc:
            out.append(str(exc))
    return out


EXOTIC = ["1_0", " nan ", "-inf", "1e400", "-1e-400", "١٢", "  0.5\t", "+.5e-3",
          "Infinity", "-0", "5.", "1E+5", "-NaN", "0x10"]


def _table(rng, n, width=5):
    """n rows of mixed plain and exotic cells, with blank and padded lines."""
    plain = rng.uniform(1e-3, 1.0, size=(n, width)).tolist()
    lines = []
    for row in plain:
        cells = [repr(v) if rng.random() < 0.9 else str(rng.choice(EXOTIC[:-1])) for v in row]
        lines.append(",".join(cells))
        if rng.random() < 0.01:
            lines.append(" \t")
        if rng.random() < 0.01:
            lines.append("")
    return lines


@pytest.mark.parametrize("bom", ["", "\ufeff"])
@pytest.mark.parametrize("header", [None, "a, b ,c,d,e"])
@pytest.mark.parametrize("n", [1, STEP - 1, STEP, 2 * STEP + 7])
def test_ingest_matches_per_cell_reference(tmp_path, bom, header, n):
    rng = np.random.default_rng(n)
    lines = ([header] if header else []) + _table(rng, n)
    path = tmp_path / "t.csv"
    path.write_text(bom + "\n\n".join(lines[:2]) + "\n" + "\n".join(lines[2:]) + "\n", encoding="utf-8")
    got, want = read_both(path)
    assert isinstance(got, tuple) and got == want


def test_ingest_single_column_and_crlf(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "col.csv"
    vals = [repr(v) for v in rng.uniform(size=geometry._BLOCK_CELLS + 3).tolist()]
    path.write_text("x\r\n" + "\r\n".join(vals) + "\r\n", encoding="utf-8")
    got, want = read_both(path)
    assert isinstance(got, tuple) and got == want and got[0] == (len(vals), 1)


def _multi_block(tmp_path, edit):
    """A 5-column file of three blocks, with a blank line every 100 rows."""
    rng = np.random.default_rng(11)
    rows = [",".join(repr(v) for v in r) for r in rng.uniform(size=(3 * STEP, 5)).tolist()]
    edit(rows)
    lines = ["p1,p2,p3,p4,p5"]
    for i, row in enumerate(rows):
        if i % 100 == 0:
            lines.append("")
        lines.append(row)
    path = tmp_path / "m.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, lines


def test_ingest_errors_in_a_later_block(tmp_path):
    def bad_cell(rows):
        rows[STEP + 5] = rows[STEP + 5].replace(",", ",x", 1)

    path, lines = _multi_block(tmp_path, bad_cell)
    lineno = next(i for i, ln in enumerate(lines, start=1) if ",x" in ln)
    got, want = read_both(path)
    assert got == want == f"{path}:{lineno}: non-numeric cell"

    def ragged(rows):
        # one cell too many and one too few: the block's cell count is right
        rows[STEP + 9] += ",0.5"
        rows[STEP + 20] = rows[STEP + 20].rsplit(",", 1)[0]

    path, _ = _multi_block(tmp_path, ragged)
    got, want = read_both(path)
    assert got == want == f"{path}: ragged rows (expected 5 columns)"

    # a non-numeric cell is reported before a ragged row in an earlier block
    def both(rows):
        ragged(rows)
        rows[2 * STEP + 1] = "0.1,0.2,0.3,0.4,nope"

    path, lines = _multi_block(tmp_path, both)
    lineno = lines.index("0.1,0.2,0.3,0.4,nope") + 1
    got, want = read_both(path)
    assert got == want == f"{path}:{lineno}: non-numeric cell"


@pytest.mark.parametrize("text", ["", "\n \n", "a,b\n", "a,b\n\n", "0.1,0.2\n0.3\n", "a,b,c\n0.1,0.2\n",
                                  "0.1,0.2\n0.3,\n", "0x10,1\n2,3\n", "1,2\nfoo,bar\n"])
def test_ingest_small_files_match_reference(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_text(text, encoding="utf-8")
    got, want = read_both(path)
    assert got == want


@pytest.mark.parametrize("ws", ["\f", "\v", "\x85", "\u2028", "\u2029"])
def test_ingest_breaks_lines_at_newline_only(tmp_path, ws):
    # whitespace that str.splitlines() also breaks at stays inside its cell
    path = tmp_path / "w.csv"
    path.write_text(f"0.2,0.3,0.5\n0.1,0.1{ws},0.8\n0.1,x,0.8\n", encoding="utf-8")
    got, want = read_both(path)
    assert got == want == f"{path}:3: non-numeric cell"
    path.write_text(f"0.2,0.3,0.5\n0.1,0.1{ws},0.8\n", encoding="utf-8")
    got, want = read_both(path)
    assert got == want and got[0] == (2, 3)
    assert cli.main(["log", "--param", "1,1,1", "--input", str(path)]) == 0


def _values():
    """2e5 floats over 1e-300..1e300 of either sign, and the special values."""
    rng = np.random.default_rng(20)
    v = rng.choice([-1.0, 1.0], size=200_000) * 10.0 ** rng.uniform(-300, 300, size=200_000)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, np.finfo(float).max,
               -np.finfo(float).max, np.nan, np.inf, -np.inf, 1e16, 123456789012.5, 0.1, 1.0]
    v[: len(special)] = special
    return rng.permutation(v)


@pytest.mark.parametrize("width", [1, 5, 1000])
def test_csv_matches_per_value_reference(width):
    arr = _values().reshape(-1, width)
    assert cli._rows_csv(arr) == ref_rows_csv(arr)


def test_json_matches_per_value_reference():
    arr = _values().reshape(-1, 5)
    assert json.dumps(cli._jsonify(arr)) == json.dumps(ref_jsonify(arr))


def test_json_writes_int_and_bool_arrays_as_rounded_floats():
    assert cli._json(np.array([3, 2**53 + 1])) == "[3.0, 9007199254740000.0]\n"
    assert cli._json(np.array([[True, False]])) == "[[1.0, 0.0]]\n"


def test_jsonify_nested_payload_matches_reference():
    v = _values()
    payload = {"param": v[:5], "s": v[5], "scores": v[:3000].reshape(1000, 3), "k": 2,
               "variances": v[6:6], "cube": v[:24].reshape(2, 3, 4), "scalar": np.float64(v[7]),
               "zero_d": np.array(v[8])}
    assert json.dumps(cli._jsonify(payload)) == json.dumps(ref_jsonify(payload))


@pytest.mark.parametrize("width", [1, 5])
def test_ingest_and_csv_at_the_block_fold_edges(tmp_path, width):
    # the most rows whose rest folds into one block, and the fewest that split
    b = geometry._BLOCK_CELLS // width
    fold = b + (b + 1) // 2
    rng = np.random.default_rng(width)
    for n in (fold - 1, fold):
        arr = rng.uniform(-1, 1, (n, width))
        lines = [",".join(repr(v) for v in row) for row in arr.tolist()]
        path = tmp_path / f"{n}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got, want = read_both(path)
        assert got == want and got[0] == (n, width)
        assert cli._rows_csv(arr) == ref_rows_csv(arr)
        # a non-numeric cell in the last row is found on its line
        path.write_text("\n".join(lines[:-1] + ["x" + lines[-1]]) + "\n", encoding="utf-8")
        got, want = read_both(path)
        assert got == want == f"{path}:{n}: non-numeric cell"


# ---------------------------------------------------------------------------
# The %.12g kernel of _rows_csv, against format(v, ".12g")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from output_digest import format_edges  # noqa: E402


def assert_formats_like_format(arr):
    """``_rows_csv(arr)`` is the reference text as a whole and cell by cell."""
    text = cli._rows_csv(arr)
    assert text == ref_rows_csv(arr)
    assert text.replace("\n", ",").split(",")[:-1] == [format(v, ".12g") for v in arr.ravel().tolist()]


def from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 2**64 - 1).map(lambda b: from_bits(b).item()), st.floats()),
                min_size=1, max_size=60), st.integers(1, 6))
@example([from_bits(b).item() for b in (0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001,
                                         0x7FF0000000000000, 0xFFF0000000000000, 1, 0x800FFFFFFFFFFFFF)], 3)
def test_any_bit_pattern_formats_like_format(values, width):
    # nan payloads and signs, subnormals and infinities included
    x = np.array(values + [0.0] * (-len(values) % width))
    assert_formats_like_format(x.reshape(-1, width))


def test_format_edges_format_like_format():
    edges = format_edges()
    assert_formats_like_format(edges[:, None])
    assert_formats_like_format(np.resize(edges, (len(edges) // 7, 7)))


@pytest.mark.parametrize("cells", [geometry._BLOCK_CELLS, 64])
@pytest.mark.parametrize("width", [1, 5, 1000])
def test_csv_at_the_block_fold_edges_with_edge_values(monkeypatch, cells, width):
    # one block, a rest folded into the block before it, a rest kept
    monkeypatch.setattr(geometry, "_BLOCK_CELLS", cells)
    b = max(1, cells // width)
    fold = b + (b + 1) // 2
    edges = format_edges()
    for n in sorted({1, b - 1, b, b + 1, fold - 1, fold, 2 * b + 1} - {0}):
        assert_formats_like_format(np.resize(np.roll(edges, n), (n, width)))


def test_power_of_ten_table_is_within_one_ulp():
    # the kernel's error bound on |v| * 10**k, and so its 1e-3 tie margin, rests on it
    pow10 = cli._g12_tables()[-1]
    exact = np.array([float(f"1e{k}") for k in range(-cli._EXP, cli._EXP + 1)])
    assert (np.abs(pow10 - exact) <= np.spacing(exact)).all()

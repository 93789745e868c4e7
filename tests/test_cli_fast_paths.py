"""The CLI's C-reader ingest and its direct JSON writer against their exact fallbacks.

``_read_rows`` takes the array of ``np.loadtxt`` on the file's path when
numpy's C reader accepts the file, else that of ``np.loadtxt`` over its
stripped lines with ``float`` as the converter; ``_json`` writes every
non-empty float64 array of 1 or 2 dimensions with the ``%.12g`` kernel, which
hands the cells ``_json_plain`` refuses to ``json.dumps`` one by one, and
everything else through ``json.dumps``.  Whichever path a file, a payload or
a cell takes, the result must be that of the per-cell references in
``test_cli_bulk_io``, bit for bit and byte for byte, messages included.  A
spy on ``np.loadtxt`` shows which path a file took.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from gcoda import IngestError
from gcoda import cli, geometry
from test_cli_bulk_io import EXOTIC, _values, ref_jsonify, ref_read_rows

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from output_digest import format_edges  # noqa: E402

UNIT_SEPARATORS = "\x1c\x1d\x1e\x1f"
LOADTXT = np.loadtxt


def outcome(read, path):
    """Shape, bits and columns of ``read(path)``, or its IngestError's message."""
    try:
        arr, columns = read(str(path))
        return arr.shape, arr.tobytes(), columns
    except IngestError as exc:
        return str(exc)


def refuse_paths(source, *args, **kwargs):
    """``np.loadtxt``, save that it refuses a file path as the C reader refuses a file."""
    if isinstance(source, str):
        raise ValueError("refused")
    return LOADTXT(source, *args, **kwargs)


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """The ``np.loadtxt`` calls made during a test: what each read, and its converters."""
    calls = []

    def spy(source, *args, **kwargs):
        calls.append((source, kwargs.get("converters")))
        return LOADTXT(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


def write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


# ---------------------------------------------------------------------------
# Ingest

FLOATS = st.one_of(st.floats(allow_nan=False).map(repr), st.floats(-1, 1).map(repr))
ODD_CELLS = st.one_of(FLOATS, st.sampled_from(EXOTIC), st.sampled_from(["", "x", "1 2", "0.5\0", "1e5"]))
PADS = ["", "", " ", "\t"]
ODD_PADS = PADS * 2 + ["\f", "\x85", "\u2028", "\xa0", "\0", *UNIT_SEPARATORS]


@st.composite
def csv_texts(draw):
    """CSV text of repr floats, with an optional header, blank lines, BOM and CR/CRLF.

    Half the texts also hold odd cells and padding, ragged rows and
    whitespace-only lines.
    """
    odd = draw(st.booleans())
    cells, pad = (ODD_CELLS, st.sampled_from(ODD_PADS)) if odd else (FLOATS, st.sampled_from(PADS))
    width = draw(st.integers(1, 4))
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(f" c{i} " for i in range(draw(st.sampled_from([width, width, width + 1])))))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank"] + ["ragged", "space"] * odd))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t \f", "\x85", "\u2028", "\x1c"])))
        else:
            n = width if kind == "row" else width + draw(st.sampled_from([-1, 1] if width > 1 else [1]))
            lines.append(",".join(draw(pad) + draw(cells) + draw(pad) for _ in range(n)))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    return bom + newline.join(lines) + draw(st.sampled_from([newline, ""]))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_texts())
@example("0.2,0.8\n0.5\x1c,0.5\n")
@example("\ufeff\n a , b \r\n\r\n1.5,-2e-3\r\n0.25,nan\r\n")
@example("1,2\n \n3,4\n")
def test_ingest_matches_the_fallback_and_the_reference(tmp_path, monkeypatch, text):
    path = tmp_path / "t.csv"
    write(path, text)
    want = outcome(ref_read_rows, path)
    assert outcome(cli._read_rows, path) == want
    with monkeypatch.context() as m:  # every text through the fallback
        m.setattr(np, "loadtxt", refuse_paths)
        assert outcome(cli._read_rows, path) == want


def test_a_unit_separator_ending_a_cell_is_non_numeric(tmp_path, capsys, loadtxt_calls):
    # np.loadtxt strips "\x1c" around a cell and float() does not
    path = tmp_path / "us.csv"
    path.write_text("0.2,0.8\n0.5\x1c,0.5\n", encoding="utf-8")
    assert cli.main(["log", "--param", "1,1", "--input", str(path)]) == 1
    assert capsys.readouterr().err == f"gcoda: {path}:2: non-numeric cell\n"
    assert [converters for _, converters in loadtxt_calls] == [float]


@pytest.mark.parametrize("text,columns", [
    ("0.2,0.8\n0.5,0.5\n", None),
    ("\ufeff\n\n a , b \n\n0.2,0.8\n\n0.5,0.5", ("a", "b")),
    ("a,b\r\n0.2,0.8\r\n", ("a", "b")),
    ("a,b\r0.2,0.8\r", ("a", "b")),
    ("\xa00.2 ,\t0.8\f\n0.5\x85,\u20280.5\n", None),
    ("nan,-inf\n1e400,-1e-400\n", None),
])
def test_plain_files_take_the_c_reader(tmp_path, text, columns, loadtxt_calls):
    path = tmp_path / "p.csv"
    write(path, text)
    got = outcome(cli._read_rows, path)
    assert loadtxt_calls == [(str(path), None)]
    assert got[2] == columns and got == outcome(ref_read_rows, path)


@pytest.mark.parametrize("text", ["", " \n\t\n", "a,b\n", "a,b", "1_0,2\n", "\u0661,2\n", "0.2,0.8\n \n0.5,0.5\n",
                                  "0.2,0.8\n0.5\n", "0.2,x\n", "0.2,\n", "0.2,0.8\n0.5\x1f,0.5\n", "\n\x1c\n"])
def test_other_files_take_the_fallback(tmp_path, text, loadtxt_calls):
    # The C reader refuses these files or finds them empty, or is not tried
    # on a unit separator.  The fallback converts the stripped lines with
    # float, unless it finds no data line below the header ("a,b" is one; a
    # first line with a number in it, such as "0.2,x", is data).
    path = tmp_path / "f.csv"
    path.write_text(text, encoding="utf-8")
    want = outcome(ref_read_rows, path)
    assert outcome(cli._read_rows, path) == want
    calls = [(str(path), None)] * (not any(c in text for c in UNIT_SEPARATORS))
    if want != f"no data rows in {path}":
        calls.append(("lines", float))
    assert [(source if isinstance(source, str) else "lines", conv) for source, conv in loadtxt_calls] == calls


@pytest.mark.parametrize("text", ["a,b,c\n0.2,0.8\n", "a\n0.2,0.8\n0.5,0.5\n"])
def test_a_wrong_width_header_over_a_c_read_file_fails_at_once(tmp_path, text, loadtxt_calls):
    # the C reader's rows are numeric and even, so the header's width is the only error left
    path = tmp_path / "h.csv"
    path.write_text(text, encoding="utf-8")
    assert outcome(cli._read_rows, path) == f"{path}: header width does not match data width"
    assert loadtxt_calls == [(str(path), None)]


def test_a_multi_block_file_takes_the_c_reader(tmp_path, loadtxt_calls):
    rng = np.random.default_rng(7)
    rows = rng.uniform(-1, 1, (3 * geometry._BLOCK_CELLS // 5 + 11, 5)) * 10.0 ** rng.integers(-300, 300, (1, 5))
    path = tmp_path / "m.csv"
    path.write_text("p1,p2,p3,p4,p5\n" + "\n".join(",".join(map(repr, r)) for r in rows.tolist()) + "\n",
                    encoding="utf-8")
    got = outcome(cli._read_rows, path)
    assert loadtxt_calls == [(str(path), None)]
    assert got == outcome(ref_read_rows, path) and got[1] == rows.tobytes()


# ---------------------------------------------------------------------------
# JSON


def ref_json(obj):
    return json.dumps(ref_jsonify(obj)) + "\n"


def test_plain_values_dump_as_their_g12_text():
    # the elementwise test _json relies on, over random magnitudes, the %.12g
    # edges, near-integers at the 12th digit and subnormals
    rng = np.random.default_rng(5)
    ints = rng.integers(-10**12, 10**12, 20_000).astype(float)
    near = ints * (1.0 + rng.choice([-1.0, 1.0], ints.size) * 10.0 ** rng.uniform(-14, -10, ints.size))
    sub = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-323.5, -306, 20_000)
    v = np.concatenate([_values(), format_edges(), ints, near, sub, ints / 7.0])
    plain = cli._json_plain(v)
    assert 0.5 < plain.mean() < 0.95
    text = [format(x, ".12g") for x in v[plain].tolist()]
    assert [json.dumps(float(t)) for t in text] == text


@pytest.mark.parametrize("width", [1, 5, 1000])
def test_json_matches_the_reference(width):
    v = _values()
    arr = v.reshape(-1, width)
    assert not cli._json_plain(arr).all()  # nan, inf, zeros and subnormals: slow cells, written one by one
    assert cli._json(arr) == ref_json(arr)
    plain = v[cli._json_plain(v)]
    arr = plain[:plain.size // width * width].reshape(-1, width)
    assert cli._json(arr) == ref_json(arr)
    assert cli._json(arr[0]) == ref_json(arr[0])
    assert cli._json(arr[:, 0]) == ref_json(arr[:, 0])


# Each class of cell that _json_plain refuses, alone among plain cells.  Such a
# slow cell goes through the kernel too, which writes it on its own.
@pytest.mark.parametrize("value", [3.0, -7.0, 0.9999999999996, 999999999999.5, 0.0, -0.0, 1e12, -5.5e15,
                                   9.999e15, np.nan, np.inf, -np.inf, 5e-324, -2e-310, 1e-320])
@pytest.mark.parametrize("shape", [(7,), (7, 3)])
def test_each_fallback_class(value, shape):
    arr = np.random.default_rng(1).uniform(0.1, 1.0, shape)
    assert cli._json_plain(arr).all()
    assert cli._json(arr) == ref_json(arr)
    arr.flat[4] = value
    assert not cli._json_plain(arr).all()
    assert cli._json(arr) == ref_json(arr)


@pytest.mark.parametrize("obj", [np.empty(0), np.empty((0, 3)), np.empty((3, 0)), np.array(0.25), np.array(2.0),
                                 np.linspace(0.1, 0.9, 24).reshape(2, 3, 4), np.float64(0.1 + 0.2),
                                 np.float32(0.1), np.float64(1e15), 0.30000000000000004, 5, None, "text",
                                 np.array([0.25, 0.5], dtype=np.float32)])
def test_other_objects_match_the_reference(obj):
    assert cli._json(obj) == ref_json(obj)


def test_payloads_match_the_reference():
    v = _values()
    plain = v[cli._json_plain(v)]
    payload = {"param": np.array([0.5, 1.0, 1.5]), "mean": plain[:3], "variances": plain[3:5],
               "directions": plain[5:11].reshape(2, 3), "scores": plain[:3000].reshape(1000, 3), "k": 2,
               "s": v[5], "empty": np.empty((0, 2)), "nested": {"rows": plain[:6].reshape(3, 2), "\u00fc": [1, 2]},
               "by_number": {1: plain[:2]}, "cube": v[:24].reshape(2, 3, 4), "zero_d": np.array(v[8])}
    assert cli._json(payload) == ref_json(payload)
    assert cli._json({}) == ref_json({})


def _mixed_cells(rng, n):
    """``n`` cells, each drawn at random from one of the classes the JSON kernel tells apart."""
    sign = rng.choice([-1.0, 1.0], n)
    ints = rng.integers(1, 10**12, n).astype(float)
    classes = np.stack([
        sign * 10.0 ** rng.uniform(-300, 300, n),  # plain
        sign * 0.0,  # exact and signed zeros
        sign * ints,  # integers below 1e12
        sign * ints * (1.0 + rng.uniform(-4e-13, 4e-13, n)),  # near-integers such as 2.9999999999996
        sign * 10.0 ** rng.uniform(12, 16, n),  # [1e12, 1e16): fixed notation in JSON
        sign * 10.0 ** rng.uniform(16, 308, n),
        np.full(n, np.nan),
        sign * np.inf,
        sign * 10.0 ** rng.uniform(-323.5, -308, n),  # subnormals
        sign * rng.choice([123456789012.5, 999999999999.5], n),  # rounding ties
    ])
    return classes[rng.integers(0, len(classes), n), np.arange(n)]


@pytest.mark.parametrize("width", [1, 5, 1000])
@pytest.mark.parametrize("halves, extra, blocks", [(2, 0, 1), (2, 1, 1), (3, 0, 2)])
def test_json_of_cells_mixed_within_a_block_matches_the_reference(width, halves, extra, blocks):
    # one _row_blocks block, one block and a row (the rest joins it), and one
    # and a half blocks (the rest is a block); every class meets every other
    # inside a block, in rows, columns and 1-D arrays
    rows = geometry._BLOCK_CELLS // width * halves // 2 + extra
    assert len(list(geometry._row_blocks(rows, width))) == blocks
    arr = _mixed_cells(np.random.default_rng([width, rows]), rows * width).reshape(rows, width)
    for obj in (arr, arr.ravel(), arr[0], arr[:1], arr[:, 0], arr[:, :1]):
        assert cli._json(obj) == ref_json(obj)

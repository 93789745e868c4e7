"""The line counts of scripts/code_lines.py on a fixed snippet."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import code_lines  # noqa: E402

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


# a comment line
def f(x):
    """One-line docstring."""
    text = """a string that is
not a docstring"""
    return x, text


class C:
    """Class docstring."""

    y = 1
'''


def test_count_skips_blanks_comments_and_docstrings():
    # code lines: import, def, the two lines of the assigned string, return, class, y
    assert code_lines.count(SNIPPET) == (18, 7)


def test_main_prints_each_file_and_the_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split() for ln in lines] == [["file", "physical", "code"], ["a.py", "18", "7"],
                                            ["b.py", "2", "1"], ["total", "20", "8"]]

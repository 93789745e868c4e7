"""Physical lines and code lines of each Python file under src/gcoda.

A code line holds at least one token that is not a comment and is not part
of a docstring (the string that opens a module, class or function body).
Blank lines, comment-only lines and docstring lines are physical lines but
not code lines.  Stdlib only.

Usage: python3 scripts/code_lines.py [DIR]   (default: src/gcoda)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one Python source text."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    top = Path(argv[0]) if argv else ROOT / "src" / "gcoda"
    total = [0, 0]
    print(f"{'file':<16} {'physical':>8} {'code':>6}")
    for path in sorted(top.glob("*.py")):
        physical, code = count(path.read_text(encoding="utf-8"))
        total[0] += physical
        total[1] += code
        print(f"{path.name:<16} {physical:>8} {code:>6}")
    print(f"{'total':<16} {total[0]:>8} {total[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

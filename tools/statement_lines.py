"""Statement lines of the rctrs package, per module and in total.

A statement line is a source line that holds a token other than a
comment and is not inside a docstring, so blank lines, comments and
docstring edits do not move the count.  Modules are printed in path
order, then the total.  Run from anywhere:

    python tools/statement_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def statement_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main() -> None:
    total = 0
    for path in sorted((ROOT / "src" / "rctrs").glob("*.py")):
        lines = statement_lines(path.read_text())
        print(f"{lines:5} {path.relative_to(ROOT).as_posix()}")
        total += lines
    print(f"{total:5} statement lines")


if __name__ == "__main__":
    main()

"""tools/statement_lines.py, which counts the statement lines of src/rctrs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("statement_lines", ROOT / "tools" / "statement_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a comment after code

# a comment line
NOTE = """a string that is
not a docstring"""


class Box:
    """Class docstring."""

    size = 3

    def area(self,
             other):
        """Method
        docstring."""
        total = (self.size
                 * other)
        return total


async def wait():
    """Coroutine docstring."""
    return None
'''


def test_statement_lines_skip_docstrings_comments_and_blanks():
    # import, the two lines of NOTE, class, size, the two lines of def area,
    # the two lines of total, return total, async def, return None
    assert _tool().statement_lines(SNIPPET) == 12


def test_main_prints_each_module_and_their_sum(capsys):
    tool = _tool()
    tool.main()
    *modules, total = capsys.readouterr().out.splitlines()
    paths = sorted((ROOT / "src" / "rctrs").glob("*.py"))
    assert [line.split()[1] for line in modules] == [p.relative_to(ROOT).as_posix() for p in paths]
    counts = [int(line.split()[0]) for line in modules]
    assert counts == [tool.statement_lines(p.read_text()) for p in paths]
    assert total.split(None, 1) == [str(sum(counts)), "statement lines"]

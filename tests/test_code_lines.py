"""The code-line counter in tools/code_lines.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """Function docstring."""
    s = """a string
    over two lines"""
    return (x +
            1)


class C:
    "class docstring"
    y = 1
'''


def test_counts_the_lines_that_hold_code():
    # import, def, both lines of s, both lines of return, class, y
    assert code_lines.code_lines(SOURCE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["8", str(tmp_path / "a.py")], ["1", str(tmp_path / "b.py")],
                    ["9", "total"]]

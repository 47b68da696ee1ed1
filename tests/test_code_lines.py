import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import math  # a comment beside code

# a comment alone


def f(x):
    """A function docstring."""
    text = """a string
that is code"""
    return math.fsum([
        x,
        1.0,
    ]), text


class C:
    "one line" " in two pieces"
    value = 1
'''


def test_counts_code_lines_without_docstrings_comments_or_blanks(tmp_path, capsys):
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    # import; def; text = (2 lines); return (4 lines); class; value.
    assert code_lines.count(path) == (21, 10)
    code_lines.main([str(path), str(path)])
    assert capsys.readouterr().out.splitlines()[-1].split() == ["42", "20", "total"]

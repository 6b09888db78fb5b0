import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)


def test_code_only_lines_skip_blanks_comments_and_docstrings():
    source = '''"""A module docstring
over two lines."""

# a comment
import os  # code with a comment


class A:
    """A class docstring."""

    def f(self):
        """A function
        docstring."""
        s = """a string that
is no docstring"""
        return s
'''
    # code: import, class, def, the two lines of s, return
    assert src_lines.count(source) == (16, 6)

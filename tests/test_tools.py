"""tools/loc.py counts each line of a module as exactly one kind."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment: code


class A:
    """One line."""

    def f(self):
        """Function docstring.

        A blank line inside counts as docstring."""
        text = """a string that is no docstring
        """
        return text
'''


def test_counts_each_line_as_one_kind():
    assert loc.count(SOURCE) == {"docstring": 6, "comment": 1, "blank": 4, "code": 6,
                                 "lines": 17}

"""The code-line count that ``tests/code_lines.py`` reports for each module."""

from code_lines import code_lines, main

SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment counts

# a comment line does not


def area(r):
    """A function docstring."""
    text = """a multi-line string
that is no docstring
counts on every line"""
    return math.pi * r * r, text


class Shape:
    """A class docstring
    over two lines.
    """

    sides = 0
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, def, the three lines of the string, return, class, sides
    assert code_lines(SOURCE) == 8


def test_code_lines_of_a_source_with_no_code():
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_counts_print_each_module_and_the_total(capsys):
    assert main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split()[0] for line in lines]
    assert names[-1] == "total" and "rng.py" in names
    assert int(lines[-1].split()[1]) == sum(int(line.split()[1]) for line in lines[:-1])

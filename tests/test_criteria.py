"""The verdict lines that ``tests/criteria.py`` reads from a pytest run."""

from criteria import CRITERIA, complete, criterion_lines

OUTPUT = """....
criterion  1 PASS: brute force gives (6.0, ['00011', '11100'])
=== acceptance criteria ===
criterion  1 PASS: brute force gives (6.0, ['00011', '11100'])
criterion 10 FAIL: worst per-outcome deviation 4.20 sigma at 100000 shots (bound 4)
  criterion  2 PASS: an indented line is no verdict line
1 failed, 11 passed
"""


def test_criterion_lines_are_read_in_order_once_each():
    assert criterion_lines(OUTPUT) == [
        "criterion  1 PASS: brute force gives (6.0, ['00011', '11100'])",
        "criterion 10 FAIL: worst per-outcome deviation 4.20 sigma at 100000 shots (bound 4)"]


def test_a_run_is_complete_with_every_criterion_passing(capsys):
    passing = [f"criterion {j:2d} PASS: ok" for j in range(1, CRITERIA + 1)]
    assert complete(passing, "tree")
    assert not complete(passing[:-1], "tree")
    assert not complete(passing[:-1] + [f"criterion {CRITERIA} FAIL: no"], "tree")
    assert capsys.readouterr().out.splitlines() == ["tree: 11 of 12 criterion lines, 0 failing",
                                                    "tree: 12 of 12 criterion lines, 1 failing"]

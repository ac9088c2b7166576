"""The artifact bytes of a fixed config matrix, pinned.

``tests/golden/`` holds the counts.json, trace.csv, summary.json and
sweep.csv that each entry of ``tests/golden/matrix.json`` writes (exact,
sampled and noisy runs, every method, restarts, the paper-p5 start, p=0,
every noise preset with twirling and DD, a weighted 7-node graph).
Rerunning the matrix must write the same files, byte for byte. After a
deliberate change, rewrite them with ``tests/golden/regenerate.py`` and
name the moved files in CHANGES.md.
"""

import importlib.util
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def first_difference(expected: bytes, got: bytes) -> str:
    """The first line at which two files differ, as 'line N: expected ..., got ...'."""
    want, have = expected.splitlines(), got.splitlines()
    for no, (a, b) in enumerate(zip(want, have), start=1):
        if a != b:
            return f"line {no}: expected {a.decode()!r}, got {b.decode()!r}"
    no = min(len(want), len(have)) + 1
    return f"line {no}: expected {len(want)} lines, got {len(have)}"


def test_matrix_rewrites_the_golden_artifacts(tmp_path):
    regenerate.run_matrix(tmp_path)
    expected = regenerate.artifact_files(GOLDEN)
    assert expected, "the golden set is empty; run tests/golden/regenerate.py"
    assert regenerate.artifact_files(tmp_path) == expected
    moved = [rel for rel in expected
             if (GOLDEN / rel).read_bytes() != (tmp_path / rel).read_bytes()]
    if moved:
        first = moved[0]
        detail = first_difference((GOLDEN / first).read_bytes(), (tmp_path / first).read_bytes())
        raise AssertionError(
            f"{len(moved)} of {len(expected)} golden files differ, first {first}: {detail}; "
            f"all: {', '.join(moved)}"
        )


def test_first_difference_names_the_line():
    assert first_difference(b"a\nb\nc\n", b"a\nB\nc\n") == "line 2: expected 'b', got 'B'"
    assert first_difference(b"a\nb\n", b"a\n") == "line 2: expected 2 lines, got 1"

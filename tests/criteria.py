"""Print the 12 acceptance criterion lines, and diff them against a revision's.

``tests/test_acceptance.py`` prints one verdict line per criterion,
``criterion NN PASS: <detail>`` (or ``FAIL``). This script runs that file
under pytest, with ``src`` on the path, and prints its lines. With
``--base REV`` it also exports REV with ``git archive`` into a temporary
directory, runs the same file there, prints REV's lines and then each
line that differs.

Run from the repository root::

    python tests/criteria.py
    python tests/criteria.py --base HEAD~1

It exits with 1 when a run does not print all 12 lines or prints a
FAIL, or when a line differs from REV's, and with 0 otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CRITERIA = 12
_LINE = re.compile(r"^criterion +\d+ (PASS|FAIL): ")


def criterion_lines(output: str) -> list[str]:
    """The verdict lines of a pytest run's output, in order, each once."""
    return list(dict.fromkeys(line for line in output.splitlines() if _LINE.match(line)))


def run_criteria(root: Path) -> list[str]:
    """The criterion lines of ``tests/test_acceptance.py`` in the tree at ``root``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    result = subprocess.run(
        [sys.executable, "-B", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"],
        cwd=root, env=env, capture_output=True, text=True, encoding="utf-8")
    return criterion_lines(result.stdout)


def export(rev: str, into: Path) -> None:
    """Write the files committed at ``rev`` into ``into / "tree"``."""
    archive = into / "rev.zip"
    subprocess.run(["git", "archive", "--format=zip", "-o", str(archive), rev], cwd=ROOT,
                   check=True, capture_output=True, text=True)
    with zipfile.ZipFile(archive) as files:
        files.extractall(into / "tree")


def complete(lines: list[str], name: str) -> bool:
    """Whether ``lines`` holds every criterion, each a PASS; says what is missing if not."""
    ok = len(lines) == CRITERIA and all(" PASS: " in line for line in lines)
    if not ok:
        print(f"{name}: {len(lines)} of {CRITERIA} criterion lines, "
              f"{sum(' FAIL: ' in line for line in lines)} failing")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print the acceptance criterion lines.")
    parser.add_argument("--base", help="also run them at this git revision and diff the lines")
    args = parser.parse_args(argv)
    new = run_criteria(ROOT)
    print("\n".join(new))
    ok = complete(new, "working tree")
    if args.base is None:
        return 0 if ok else 1
    with tempfile.TemporaryDirectory() as tmp:
        try:
            export(args.base, Path(tmp))
        except subprocess.CalledProcessError as exc:
            print(f"error: {' '.join(exc.cmd)}: {exc.stderr.strip()}", file=sys.stderr)
            return 1
        old = run_criteria(Path(tmp) / "tree")
    print(f"\n{args.base}:")
    print("\n".join(old))
    ok = complete(old, args.base) and ok
    diff = list(difflib.unified_diff(old, new, args.base, "working tree", lineterm=""))
    print("\n".join(diff) if diff else f"\nno line differs from {args.base}'s")
    return 0 if ok and not diff else 1


if __name__ == "__main__":
    sys.exit(main())

"""Count the code lines of each ``src/qaoalab`` module.

A code line is a line that holds part of a token other than a comment,
and is not part of a docstring (the string that opens a module, class
or function body). Blank lines, comment lines and docstrings are not
counted; a line with code and a trailing comment is. The lines come
from ``tokenize``, the docstrings from ``ast``.

Run from the repository root::

    python tests/code_lines.py
    python tests/code_lines.py --rev HEAD~1
    python tests/code_lines.py --base HEAD~1

It prints the count of each module and then the total: of the working
tree, or with ``--rev`` of the modules committed at that revision, read
with ``git ls-tree`` and ``git show``. With ``--base`` it prints, for
each module and then the total, the count at that revision, the count
of the working tree (or of ``--rev``) and the difference, so one command
gives a change's counts against its parent's.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qaoalab"
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines |= set(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines |= set(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def sources(rev: str | None) -> dict[str, str]:
    """The text of each ``src/qaoalab/*.py`` module by name: of the working tree, or at ``rev``."""
    if rev is None:
        return {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    root = PACKAGE.parents[1]

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                              text=True, encoding="utf-8").stdout

    names = git("ls-tree", "--name-only", rev, "src/qaoalab/").splitlines()
    return {Path(name).name: git("show", f"{rev}:{name}") for name in names
            if name.endswith(".py")}


def module_counts(rev: str | None) -> dict[str, int]:
    """The code lines of each module by name, of the working tree or at ``rev``, and their total."""
    counts = {name: code_lines(text) for name, text in sorted(sources(rev).items())}
    return {**counts, "total": sum(counts.values())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of each src/qaoalab module.")
    parser.add_argument("--rev", help="count the modules committed at this git revision")
    parser.add_argument("--base", help="also count at this git revision, and print the differences")
    args = parser.parse_args(argv)
    try:
        new = module_counts(args.rev)
        old = {} if args.base is None else module_counts(args.base)
    except subprocess.CalledProcessError as exc:
        print(f"error: {' '.join(exc.cmd)}: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    for name in [*sorted((new.keys() | old.keys()) - {"total"}), "total"]:
        count = new.get(name, 0)
        if args.base is None:
            print(f"{name:16s} {count:5d}")
        else:
            print(f"{name:16s} {old.get(name, 0):5d} {count:5d} {count - old.get(name, 0):+5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

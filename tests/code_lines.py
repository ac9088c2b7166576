"""Count the code lines of each ``src/qaoalab`` module.

A code line is a line that holds part of a token other than a comment,
and is not part of a docstring (the string that opens a module, class
or function body). Blank lines, comment lines and docstrings are not
counted; a line with code and a trailing comment is. The lines come
from ``tokenize``, the docstrings from ``ast``.

Run from the repository root::

    python tests/code_lines.py
    python tests/code_lines.py --rev HEAD~1

It prints the count of each module and then the total: of the working
tree, or with ``--rev`` of the modules committed at that revision, read
with ``git ls-tree`` and ``git show``, so one command gives a change's
counts and its parent's.
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of each src/qaoalab module.")
    parser.add_argument("--rev", help="count the modules committed at this git revision")
    args = parser.parse_args(argv)
    try:
        texts = sources(args.rev)
    except subprocess.CalledProcessError as exc:
        print(f"error: {' '.join(exc.cmd)}: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    total = 0
    for name, text in sorted(texts.items()):
        count = code_lines(text)
        total += count
        print(f"{name:16s} {count:5d}")
    print(f"{'total':16s} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

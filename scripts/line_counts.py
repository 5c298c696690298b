"""Print, for each module of the package and then for each module under
tests/, its total lines and its code lines: two tables, each with the sum
of each column last.

    python3 scripts/line_counts.py

It exits 0, or 141 when its reader closes stdout early.

A code line is any line that is not blank, not a comment line (first
non-blank character '#') and not part of a docstring of a module, class or
function, as ast reads them. So a change that only trims prose lowers the
total and leaves the code column as it was.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "grassmult"
TESTS = ROOT / "tests"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    lines = source.splitlines()
    prose = docstring_lines(ast.parse(source))
    code = sum(
        1 for number, line in enumerate(lines, start=1)
        if number not in prose and line.strip() and not line.lstrip().startswith("#")
    )
    return len(lines), code


def table(directory: Path) -> None:
    """Print one row per module of directory, then the column sums."""
    rows = [
        (path.name, *counts(path.read_text(encoding="utf-8")))
        for path in sorted(directory.glob("*.py"))
    ]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'total':>5}  {'code':>5}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>5}  {code:>5}")


def main() -> int:
    try:
        table(PACKAGE)
        print()
        table(TESTS)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout, as `| head` does: the flush at shutdown
        # goes to devnull, and the exit code is 128 + SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())

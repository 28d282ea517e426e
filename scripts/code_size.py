#!/usr/bin/env python3
"""Count the code lines of each module of the package and of each script, without docstrings.

A line counts when it is not blank, not a comment and not part of a
docstring (of a module, class or function, as ast finds them).  Prints one
line per module under src/isoclinic and their total, then one line per
script under scripts/ and their total.

    python3 scripts/code_size.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FOLDERS = (("total", ROOT / "src" / "isoclinic"), ("scripts total", ROOT / "scripts"))


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers taken by the docstrings of the module and of every class and function in it."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if number not in skip and line.strip() and not line.lstrip().startswith("#")
    )


def main() -> int:
    for label, folder in FOLDERS:
        total = 0
        for path in sorted(folder.glob("*.py")):
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{path.name:<20} {count:>5}")
        print(f"{label:<20} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Docstring, comment, blank and code lines of each module in a source tree.

    python3 tools/loc.py SRC_DIR

Prints one row per `.py` file under SRC_DIR, by path relative to it, and a
total row. Every line of a file is counted as exactly one kind:
- docstring: a line of the string that opens a module, class or function body
  (found with `ast`), blank lines inside it too;
- comment: a line that holds only a comment;
- blank: a line that holds only whitespace;
- code: every other line, a line with code and a trailing comment too.

Deleting docstrings or comments does not shrink the code count, so a change
that claims fewer lines can state both counts, reproducibly.
"""

from __future__ import annotations

import ast
import os
import sys

KINDS = ("docstring", "comment", "blank", "code")


def count(source: str) -> dict[str, int]:
    """{kind: number of lines} of one module's source, over KINDS and "lines"."""
    docstring: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                docstring.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    lines = source.splitlines()
    for number, line in enumerate(lines, 1):
        text = line.strip()
        kind = ("docstring" if number in docstring else "blank" if not text
                else "comment" if text.startswith("#") else "code")
        counts[kind] += 1
    counts["lines"] = len(lines)
    return counts


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not os.path.isdir(argv[0]):
        print("usage: python3 tools/loc.py SRC_DIR", file=sys.stderr)
        return 2
    root = argv[0]
    paths = sorted(os.path.join(d, f) for d, _, files in os.walk(root)
                   for f in files if f.endswith(".py"))
    columns = ("lines",) + KINDS
    total = dict.fromkeys(columns, 0)
    width = max([len(os.path.relpath(p, root)) for p in paths] + [len("total")])
    print(f"{'module':<{width}}" + "".join(f"{c:>11}" for c in columns))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            counts = count(fh.read())
        for c in columns:
            total[c] += counts[c]
        print(f"{os.path.relpath(path, root):<{width}}" + "".join(f"{counts[c]:>11}" for c in columns))
    print(f"{'total':<{width}}" + "".join(f"{total[c]:>11}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Count code lines: the size figure every simplicity PR reports.

A line counts when it holds at least one token that is not a comment,
minus the lines of docstrings (module, class and function).  Blank
lines, comment-only lines and documentation are therefore free; code
moved into a denser expression is not.

    python3 tools/code_lines.py src/repro
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
            tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
            tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Code lines of one python file."""
    lines: set[int] = set()
    source = path.read_bytes()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if isinstance(first, ast.Expr) and \
                isinstance(first.value, ast.Constant) and \
                isinstance(first.value.value, str):
            lines.difference_update(
                range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) == 2 else None
    if root is None or not root.exists():
        print("usage: code_lines.py <file-or-directory>", file=sys.stderr)
        return 2
    files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    print(sum(code_lines(path) for path in files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

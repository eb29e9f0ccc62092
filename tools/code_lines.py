"""Print the code-line count of each module of a package and their total.

A code line is a non-blank line that is neither a comment nor part of a
module, class or function docstring: the lines that hold at least one
token other than a comment, newline, indent or dedent (``tokenize``),
minus the lines of the docstrings (``ast``).

Usage: python3 tools/code_lines.py [DIR]   (default: src/arclab)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    source = path.read_bytes()
    lines = {row for tok in tokenize.tokenize(io.BytesIO(source).readline)
             if tok.type not in _LAYOUT for row in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines -= set(range(body[0].lineno, body[0].end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/arclab")
    counts = {path.relative_to(root).as_posix(): code_lines(path)
              for path in sorted(root.rglob("*.py"))}
    width = max(map(len, counts), default=5)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

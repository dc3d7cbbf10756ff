#!/usr/bin/env python3
"""Code lines per package under ``src/``: no blank, comment or docstring lines.

A line counts when it holds a token other than a comment or layout token and
lies outside every module, class and function docstring.  Run from the repo
root: ``python scripts/code_lines.py [src]`` prints per-package counts under a
source root, ``python scripts/code_lines.py path/to/file.py`` one file's count.
"""

import ast
import sys
import tokenize
from collections import Counter
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in LAYOUT:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> None:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src")
    if root.is_file():
        print(f"{str(root):24} {code_lines(root):6}")
        return
    if not root.is_dir():
        sys.exit(f"no such file or directory: {root}")
    counts = Counter()
    for path in sorted(root.rglob("*.py")):
        package = path.relative_to(root).parent.parts[:2]
        counts[".".join(package)] += code_lines(path)
    for package, count in sorted(counts.items()):
        print(f"{package:24} {count:6}")
    print(f"{'total':24} {sum(counts.values()):6}")


if __name__ == "__main__":
    main()

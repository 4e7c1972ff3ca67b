"""Print the lines and code lines of each module of the sketchprune package.

    python3 tools/src_size.py [--src DIR]

A code line is a non-blank line that is neither a comment nor part of a
docstring (found with `ast`, as tools/unexecuted_lines.py finds them). One
line per module of DIR/sketchprune (default: this checkout's src/), then
the total: `lines code-lines name`.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _sizes(text: str) -> tuple[int, int]:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = [line.strip() for line in text.splitlines()]
    code = [k for k, line in enumerate(lines, 1)
            if line and not line.startswith("#") and k not in docstrings]
    return len(lines), len(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the sketchprune package")
    package = parser.parse_args().src.resolve() / "sketchprune"
    if not package.is_dir():
        parser.error(f"no sketchprune package under {package.parent}")
    total = [0, 0]
    for path in sorted(package.glob("*.py")):
        lines, code = _sizes(path.read_text())
        print(lines, code, path.name)
        total = [total[0] + lines, total[1] + code]
    print(*total, "total")


if __name__ == "__main__":
    main()

"""Count the lines of each module of ``src/specdamp``, and of all of them.

``lines`` counts every line of a file.  ``code`` counts the lines that are
not blank, not a ``#`` comment and not inside a docstring.  A docstring is
a statement that is a bare string, found with ``ast``: the string that
opens a module, class or function body, or one that documents an
assignment.  The counts that ROADMAP.md and CHANGES.md quote for ``src/``
use this method.

Usage:  python3 tools/src_lines.py [SRC_DIR]    (default: src/specdamp)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parents[1] / "src" / "specdamp"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers, 1-based, that lie inside a docstring of ``tree``."""
    inside: set[int] = set()
    for node in ast.walk(tree):
        value = node.value if isinstance(node, ast.Expr) else None
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            inside.update(range(node.lineno, node.end_lineno + 1))
    return inside


def count(path: Path) -> tuple[int, int]:
    """``(lines, code lines)`` of one Python file."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text, filename=str(path)))
    code = sum(
        1
        for number, line in enumerate(lines, start=1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )
    return len(lines), code


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else DEFAULT_DIR
    rows = [(path.name, *count(path)) for path in sorted(root.glob("*.py"))]
    total = ("total", sum(r[1] for r in rows), sum(r[2] for r in rows))
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for name, lines, code in rows + [total]:
        print(f"{name:<16} {lines:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

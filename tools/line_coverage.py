"""List every statement in src/ that the tier-1 test suite never runs.

    python3 tools/line_coverage.py

Runs the tier-1 suite (pytest over tests/) in this process with a
``sys.settrace`` hook on the package's frames, then prints each statement
of ``src/tetrainner`` that never produced a line event, one per line, as
``file:line source``.  The standard library and pytest are all it needs.

A statement counts as run when any line of its header ran: the whole of a
simple statement, or for a compound one (``if``, ``for``, ``def``, ...)
the lines before its body, decorators included.  Docstrings hold no
bytecode and are not statements here.  Code that runs only in a
subprocess is not seen.  The exit code is pytest's when it is nonzero,
else 1 if some statement never ran, else 0.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tetrainner"
BLOCKS = ("body", "orelse", "finalbody", "handlers")   # the statement lists a node can hold


def statement_headers(tree: ast.Module):
    """(first line, last line) of the header of every statement in tree."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        inner = [getattr(node, field)[0].lineno for field in BLOCKS if getattr(node, field, None)]
        last = min(inner) - 1 if inner else node.end_lineno
        yield first, max(first, last)


def main() -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    sys.settrace(hook)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                            str(ROOT / "tests")])
    finally:
        sys.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        hit = ran.get(str(path), set())
        for first, last in sorted(set(statement_headers(ast.parse(source)))):
            if not hit.intersection(range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first} {lines[first - 1].strip()}")
    print(f"{missed} statements in {PACKAGE.relative_to(ROOT)} never ran")
    return int(code) or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main())

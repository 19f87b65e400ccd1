"""Census of the statements in src/cuspcubes that the tier-1 suite never runs.

Runs pytest in this process under a sys.settrace line tracer restricted to
src/cuspcubes, then lists every statement of the package whose lines no
test reached, marking each `raise` and each return of an error text.  Tests
that run the CLI in a subprocess are not traced.  The file name keeps
pytest from collecting it.  Tracing makes the suite several times slower.

    PYTHONPATH=src python tests/error_branch_census.py [pytest args...]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cuspcubes"


def _trace(reached: dict):
    prefix = str(PACKAGE)

    def local(frame, event, _arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        reached.setdefault(filename, set()).add(frame.f_lineno)
        return local
    return call


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement that no statement nested in it covers:
    its decorators and header for a compound statement, all of it otherwise."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    bodies = [getattr(node, field) for field in ("body", "orelse", "finalbody", "handlers", "cases")
              if getattr(node, field, None)]
    last = min(b[0].lineno for b in bodies) - 1 if bodies else node.end_lineno
    return range(first, max(first, last) + 1)


def _statements(node: ast.AST, function: str = ""):
    """(statement, name of the function it is in) of every statement under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child, function
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _statements(child, inner)


def _kind(node: ast.stmt, function: str) -> str:
    """"raise" for a raise of an error, "error return" for a text returned
    as a problem (outside dunder methods such as __repr__), else "other"."""
    if isinstance(node, ast.Raise):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return "other" if isinstance(exc, ast.Name) and exc.id == "SystemExit" else "raise"
    if isinstance(node, ast.Return) and isinstance(node.value, (ast.JoinedStr, ast.Constant)) \
            and isinstance(getattr(node.value, "value", ""), str) and not function.startswith("__"):
        return "error return"
    return "other"


def unreached(path: Path, lines: set) -> list:
    """(line, kind, source) of each statement of path that lines misses;
    docstrings, `global` and `nonlocal` run no code and are left out."""
    source = path.read_text()
    text = source.splitlines()
    out = []
    for node, function in _statements(ast.parse(source)):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        if lines.isdisjoint(_own_lines(node)):
            out.append((node.lineno, _kind(node, function), text[node.lineno - 1].strip()))
    return sorted(out)


def main(argv: list[str]) -> int:
    import pytest
    reached: dict = {}
    sys.settrace(_trace(reached))
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
    total = errors = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = unreached(path, reached.get(str(path), set()))
        for line, kind, text in missed:
            print(f"{path.relative_to(ROOT)}:{line}: [{kind}] {text}")
        total += len(missed)
        errors += sum(kind != "other" for _line, kind, _text in missed)
    print(f"{total} unreached statements, {errors} of them a raise or an error return "
          f"(pytest exit {int(code)})")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

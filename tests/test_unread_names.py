"""`src/` holds what the command line and the benchmark reach: every public
top-level function and class of the package, and every public method, is
read somewhere in `src/` outside its own definition or in `perfbench/`.
A name that only the tests read belongs in a tests/*_oracles.py module.

A read is a name, an attribute, an imported name or, in `perfbench/`, a
string constant (the tracer rebinds functions by name).  Names are matched
without their owner, so a method counts as read when any attribute of that
name is read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# names that nothing in src/ or perfbench/ reads yet, each with its reader
ALLOWED = {
    "farey.FareyAut.act": "the JSON checker of ROADMAP item 4 replays the witness with it",
}


def _public(name):
    return not name.startswith("_")


def definitions(tree, module):
    """(qualified name, node) of every public top-level function and class
    and every public method of a public top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield f"{module}.{node.name}.{item.name}", item


def reads(tree, strings):
    """(name, line) of every read in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def unread_names(src, bench):
    """The qualified public names defined in src that nothing reads outside
    their own definition; src and bench map module names to parsed trees."""
    seen = {}                   # name -> [((folder, module), line)] of its reads
    for folder, group in (("src", src), ("bench", bench)):
        for module, tree in group.items():
            for name, line in reads(tree, strings=folder == "bench"):
                seen.setdefault(name, []).append(((folder, module), line))
    unread = set()
    for module, tree in src.items():
        for qualname, node in definitions(tree, module):
            own = range(node.lineno, node.end_lineno + 1)
            if all(where == ("src", module) and line in own
                   for where, line in seen.get(node.name, ())):
                unread.add(qualname)
    return unread


def parsed(folder):
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(folder.glob("*.py"))}


def test_every_public_name_is_read_outside_the_tests():
    unread = unread_names(parsed(ROOT / "src" / "cuspcubes"), parsed(ROOT / "perfbench"))
    assert unread - ALLOWED.keys() == set(), "read only by tests: move to tests/*_oracles.py"
    assert ALLOWED.keys() <= unread, "allowed but read in src/ or perfbench/: drop the entry"


def test_the_scan_flags_unread_names():
    src = {"m": ast.parse("def used(): pass\n\ndef lonely(): return lonely\n\n"
                          "class Box:\n    def size(self): pass\n    def _hidden(self): pass\n"
                          "    def named(self): pass\n\nx = used()\n"),
           "n": ast.parse("from m import Box\n")}
    bench = {"b": ast.parse("rebind(Box, 'named')\n")}
    assert unread_names(src, bench) == {"m.lonely", "m.Box.size"}
    assert unread_names(src, {}) == {"m.lonely", "m.Box.size", "m.Box.named"}

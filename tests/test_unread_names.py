"""`src/` holds what the command line and the benchmark reach: every public
top-level function and class of the package, every public method, every
field that a method stores on `self` and every field of a record class (a
subclass of a `namedtuple("Name", "field ...")` base) is read somewhere in
`src/` outside its own definition or in `perfbench/`.  A name that only
the tests read belongs in a tests/*_oracles.py module.

A read of a top-level name is a name, an attribute, an imported name or, in
`perfbench/`, a string constant (the tracer rebinds functions by name).  A
method or a field is read only through an attribute load (`.name`) or such
a string: a bare name, such as a parameter of the same name, does not
count.  Names are matched without their owner, so a method counts as read
when any attribute of that name is loaded.  A record field that shares
its name with a public method or property cannot be told apart from it
that way, so no load counts for the field: `Region.edges` would pass as
read by each `d.edges` of the diagram's edge list.  `src/` holds no
`@dataclass`: tests/test_startup.py keeps `dataclasses` out of every
subcommand.
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


def _stored_fields(cls):
    """(name, node) of each attribute of `self` that a method of cls stores,
    at its first store."""
    fields = {}
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            for node in ast.walk(item):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    fields.setdefault(node.attr, node)
    return fields.items()


def _record_fields(cls):
    """(name, node) of each field of cls when a base is namedtuple("Name",
    "field ..."), the node being the string of field names."""
    for base in cls.bases:
        if (isinstance(base, ast.Call) and getattr(base.func, "id", None) == "namedtuple"
                and len(base.args) == 2 and isinstance(base.args[1], ast.Constant)):
            for name in base.args[1].value.split():     # namedtuple refuses a leading _
                yield name, base.args[1]


def definitions(tree, module):
    """(qualified name, node, kind) of every public top-level function and
    class ("top", which a bare name reads), every public method of a public
    top-level class ("method"), every field that its methods store on `self`
    ("field") and every field of a record class ("record field")."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield f"{module}.{node.name}", node, "top"
        if isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield f"{module}.{node.name}.{item.name}", item, "method"
            for name, store in _stored_fields(node):
                yield f"{module}.{node.name}.{name}", store, "field"
            for name, item in _record_fields(node):
                yield f"{module}.{node.name}.{name}", item, "record field"


def reads(tree, strings):
    """(name, line, whether it is a bare name) of every read in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, False
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, True
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno, False


def unread_names(src, bench):
    """The qualified names defined in src that nothing reads outside their
    own definition; src and bench map module names to parsed trees."""
    seen = {}                   # name -> [((folder, module), line, bare)] of its reads
    for folder, group in (("src", src), ("bench", bench)):
        for module, tree in group.items():
            for name, line, bare in reads(tree, strings=folder == "bench"):
                seen.setdefault(name, []).append(((folder, module), line, bare))
    defined = [(module, *found) for module, tree in src.items() for found in definitions(tree, module)]
    methods = {qualname.rsplit(".", 1)[1] for _m, qualname, _node, kind in defined if kind == "method"}
    unread = set()
    for module, qualname, node, kind in defined:
        own = range(node.lineno, node.end_lineno + 1)
        name = qualname.rsplit(".", 1)[1]
        if kind == "record field" and name in methods or all(
                where == ("src", module) and line in own or bare and kind != "top"
                for where, line, bare in seen.get(name, ())):
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
                          "class Box:\n    def __init__(self):\n        self.kept, self.lost = 1, 2\n"
                          "    def size(self): pass\n    def _hidden(self): pass\n"
                          "    def named(self): pass\n    def shape(self): pass\n"
                          "    def edges(self): pass\n\n"
                          "class Face(namedtuple('Face', 'color spare edges')):\n    LIMIT = 4\n\n"
                          "def fill(shape, spare): return shape, spare\n\n"
                          "x = used().kept, Face('black', 0, 1).color, Box().edges\n"),
           "n": ast.parse("from m import Box, Face, fill\n")}
    bench = {"b": ast.parse("rebind(Box, 'named')\n")}
    # Face.edges is loaded only as Box's method of that name
    flagged = {"m.lonely", "m.Box.size", "m.Box.shape", "m.Box.lost", "m.Face.spare", "m.Face.edges"}
    assert unread_names(src, bench) == flagged
    assert unread_names(src, {}) == flagged | {"m.Box.named"}
    # the package with the edge set of a Region record put back
    src = parsed(ROOT / "src" / "cuspcubes")
    text = (ROOT / "src" / "cuspcubes" / "diagram.py").read_text()
    fields = 'namedtuple("Region", "index color boundary")'
    assert text.count(fields) == 1
    src["diagram"] = ast.parse(text.replace(fields, fields[:-2] + ' edges")'))
    assert unread_names(src, parsed(ROOT / "perfbench")) - ALLOWED.keys() == {"diagram.Region.edges"}

"""Mutation census of one module of src/cuspcubes.

The mutants: a comparison flipped (< and <=, > and >=, == and !=, in and
not in, is and is not), and/or swapped, an arithmetic operator swapped
(+ and -, * and //, / to *, % to //, << and >>, & and |, ^ to |, ** to *),
an integer constant plus one, a `not` dropped, and an `if`, `while` or
conditional test negated; annotations and f-strings are left alone.

Tier-1 runs once under the line tracer of error_branch_census.py, which
maps each line to the tests that reach it.  Each mutant runs in a forked
child, which imports the mutated module, against the tests that reach its
line (all that reach the module, for a statement that runs at import),
fastest first, up to the first failure; a test fails past twice its traced
time and five seconds.  Each survivor then runs against
the rest of tier-1 in a subprocess, on a copy of the repository with the
mutant in the file, so that tests which spawn the CLI see it too.  Each mutant prints
with its line, the mutation and its status: killed, equivalent (with the
argument in EQUIVALENT), or open.  pytest does not collect this file.

    PYTHONPATH=src python tests/mutation_census.py MODULE
"""

from __future__ import annotations

import argparse
import ast
import copy
import importlib.util
import os
import pickle
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from itertools import accumulate
from pathlib import Path

import hypothesis  # noqa: F401  (imported once here, not in every child)
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from error_branch_census import PACKAGE, ROOT, _trace  # noqa: E402

CHILD_MEMORY = 2 << 30              # address-space cap of each child, in bytes
TAIL_LINES = 20                     # lines of a failing test's report printed

_FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
          ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
          ast.Is: ast.IsNot, ast.IsNot: ast.Is}
_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
          ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
          ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr, ast.Pow: ast.Mult}

# (module, line, mutation) -> why the mutant cannot change what the module does
EQUIVALENT: dict[tuple[str, int, str], str] = {}


def _variants(node: ast.AST) -> list:
    """(description, mutated copy of node) for each mutation of node itself."""
    out = []
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _FLIPS:
                new = copy.deepcopy(node)
                new.ops[i] = _FLIPS[type(op)]()
                out.append(new)
    elif isinstance(node, ast.BoolOp):
        new = copy.deepcopy(node)
        new.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        out.append(new)
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
        new = copy.deepcopy(node)
        new.op = _SWAPS[type(node.op)]()
        out.append(new)
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        out.append(ast.Constant(node.value + 1))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        out.append(copy.deepcopy(node.operand))
    elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
        return [(f"negate {ast.unparse(node.test)}", node.test,
                 ast.UnaryOp(ast.Not(), copy.deepcopy(node.test)))]
    return [(f"{ast.unparse(node)} -> {ast.unparse(new)}", node, new) for new in out]


def _marked(tree: ast.Module) -> tuple:
    """(ids of the nodes inside annotations and f-strings, ids of the nodes
    that run only when a function body runs)."""
    skip, inside = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = node.body if isinstance(node.body, list) else [node.body]
            inside.update(id(n) for stmt in body for n in ast.walk(stmt))
        roots = ([getattr(node, "returns", None)] + [a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg)]
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else
                 [node.annotation] if isinstance(node, ast.AnnAssign) else
                 [node] if isinstance(node, ast.JoinedStr) else [])
        skip.update(id(n) for root in roots if root is not None for n in ast.walk(root))
    return skip, inside


def mutants(source: str) -> list:
    """(line, description, mutated source, runs at import) of each mutant,
    in source order.  The mutated node's text is replaced, in parentheses
    for an expression, so that the rest of the file keeps its text."""
    tree = ast.parse(source)
    skip, inside = _marked(tree)
    lines = source.splitlines(keepends=True)
    starts = [0, *accumulate(map(len, lines))]
    out, seen = [], {}
    for node in ast.walk(tree):
        if id(node) in skip or not hasattr(node, "lineno"):
            continue
        for description, old, new in _variants(node):
            seen[node.lineno, description] = repeat = seen.get((node.lineno, description), 0) + 1
            if repeat > 1:
                description += f" (#{repeat})"
            text = ast.unparse(new)
            if isinstance(old, ast.expr):
                text = f"({text})"
            a = starts[old.lineno - 1] + len(lines[old.lineno - 1].encode()[:old.col_offset].decode())
            b = starts[old.end_lineno - 1] + len(lines[old.end_lineno - 1].encode()[:old.end_col_offset].decode())
            out.append((node.lineno, description, source[:a] + text + source[b:], id(node) not in inside))
    return sorted(out, key=lambda m: m[0])


def _install(name: str, path: Path, source: str) -> None:
    """Import module `name` of the package from source, in place of path."""
    import cuspcubes                    # the package; its __init__ imports no module
    module = importlib.util.module_from_spec(importlib.util.spec_from_file_location(name, path))
    sys.modules[name] = module
    exec(compile(source, str(path), "exec"), module.__dict__)
    setattr(cuspcubes, name.rpartition(".")[2], module)


class _Select:
    """pytest plugin: run the given tests, in the given order, each failing
    when it runs past its time limit (seconds, by node id)."""

    def __init__(self, limits: dict):
        self.limits = limits

    def pytest_collection_modifyitems(self, items):
        rank = {node: i for i, node in enumerate(self.limits)}
        items[:] = sorted((item for item in items if item.nodeid in rank), key=lambda item: rank[item.nodeid])

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        signal.setitimer(signal.ITIMER_REAL, self.limits[item.nodeid])
        try:
            return (yield)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


def _past_limit(*_):
    raise TimeoutError("the test ran past its time limit")


class _PerTest:
    """pytest plugin: the package lines each test reaches, its time, and the
    last lines of the report of each test or collector that fails."""

    def __init__(self):
        self.reached, self.seconds, self.failed = {}, {}, {}

    def pytest_runtest_logreport(self, report):
        if report.failed:
            text = "\n".join([report.longreprtext, *(content for _, content in report.sections)])
            self.failed[report.nodeid] = text.splitlines()[-TAIL_LINES:]

    pytest_collectreport = pytest_runtest_logreport

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        lines: dict = {}
        start = time.perf_counter()
        sys.settrace(_trace(lines))
        try:
            return (yield)
        finally:
            sys.settrace(None)
            self.seconds[item.nodeid] = time.perf_counter() - start
            self.reached[item.nodeid] = lines


def _in_child(run, seconds: float, tmp: Path):
    """The exit code of run(basetemp) in a forked child with its output
    discarded and its memory capped; None when the child dies of a signal
    or runs past seconds (it is killed then)."""
    pid = os.fork()
    if pid == 0:
        try:
            resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 1)
            os.dup2(null, 2)
            code = run(tmp / f"pytest-{os.getpid()}")
        except BaseException:
            code = 99
        os._exit(int(code))
    deadline = time.monotonic() + seconds
    while not (done := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            done = os.waitpid(pid, 0)
            break
        time.sleep(0.01)
    status = done[1]
    return os.waitstatus_to_exitcode(status) if os.WIFEXITED(status) else None


def trace_tests(tmp: Path) -> tuple:
    """(test -> {file: lines reached}, test -> seconds) over tier-1.  When
    tier-1 fails, the ids and report tails of the failing tests are printed
    before the census stops."""
    out = tmp / "trace.pickle"

    def run(basetemp):
        plugin = _PerTest()
        code = pytest.main(["-q", "-p", "no:cacheprovider", f"--basetemp={basetemp}"], plugins=[plugin])
        out.write_bytes(pickle.dumps((plugin.reached, plugin.seconds, plugin.failed)))
        return code

    code = _in_child(run, 3600, tmp)
    reached, seconds, failed = pickle.loads(out.read_bytes()) if out.exists() else ({}, {}, {})
    if code != 0:
        for test, tail in failed.items():
            print(f"failed unmutated: {test}", *(f"    {line}" for line in tail), sep="\n", file=sys.stderr)
        if not failed:
            print("the traced run reported no failing test ("
                  + ("killed or past its time" if code is None else f"exit {code}") + ")", file=sys.stderr)
        raise SystemExit("tier-1 does not pass unmutated")
    return reached, seconds


def _status(code, by: str):
    return (None if code == 0 else f"killed by {by}" if code in (1, 2)
            else "killed (timeout or signal)" if code is None else f"killed (exit {code})")


def census(module: str) -> int:
    began = time.monotonic()
    path = PACKAGE / f"{module}.py"
    name, where = f"cuspcubes.{module}", path.relative_to(ROOT)
    found = mutants(path.read_text())
    tmp = Path(tempfile.mkdtemp(prefix="census-"))
    try:
        reached, seconds = trace_tests(tmp)
        by_line: dict = {}
        for test, files in reached.items():
            for line in files.get(str(path), ()):
                by_line.setdefault(line, set()).add(test)
        users = set().union(*by_line.values())
        order = {t: i for i, t in enumerate(seconds)}
        print(f"# {len(found)} mutants of {where}; {len(users)} of {len(seconds)} tests reach it "
              f"(tracing took {time.monotonic() - began:.0f} s)", flush=True)

        # stage 1: the tests that reach the line, fastest first, in forked
        # children; a line that no test reaches may still run at import
        status, ran = [None] * len(found), {}
        for k, (line, _d, source, at_import) in enumerate(found):
            tests = sorted(by_line[line] if line in by_line and not at_import else users,
                           key=lambda t: (seconds[t], order[t]))
            if not tests:                   # left to the full tier-1 run
                continue
            files = sorted({str(ROOT / t.split("::")[0]) for t in tests})

            def run(basetemp, source=source, tests=tests, files=files):
                _install(name, path, source)
                signal.signal(signal.SIGALRM, _past_limit)
                return pytest.main(["-q", "-x", "-p", "no:cacheprovider", f"--basetemp={basetemp}", *files],
                                   plugins=[_Select({t: 5 + 2 * seconds[t] for t in tests})])
            status[k] = _status(_in_child(run, 60 + 2 * sum(seconds[t] for t in tests), tmp), "a reaching test")
            ran[k] = tests
        survivors = [k for k, s in enumerate(status) if s is None]
        print(f"# {len(survivors)} survive the reaching tests ({time.monotonic() - began:.0f} s)", flush=True)
        for k in survivors:
            print(f"#   {where}:{found[k][0]}: {found[k][1]}", flush=True)

        # stage 2: the rest of tier-1 in a subprocess, on a copy of the
        # repository with the mutant written into the file
        def full(basetemp, source, passed):
            tree = basetemp.with_name(f"tree-{os.getpid()}")
            shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
                ".git", ".hypothesis", "__pycache__", ".pytest_cache", ".perfbench_work"))
            (tree / where).write_text(source)
            env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
            deselect = [arg for test in passed for arg in ("--deselect", test)]
            return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                                   f"--basetemp={basetemp}", *deselect], cwd=tree, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode

        for k in survivors:
            code = _in_child(lambda basetemp, k=k: full(basetemp, found[k][2], ran.get(k, ())),
                             120 + 3 * sum(seconds.values()), tmp)
            status[k] = _status(code, "the rest of tier-1")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    counts: dict = {}
    for (line, description, _s, _i), s in zip(found, status):
        if s is None:
            argument = EQUIVALENT.get((module, line, description))
            s = f"equivalent: {argument}" if argument else "open"
        counts[s.split()[0].rstrip(":")] = counts.get(s.split()[0].rstrip(":"), 0) + 1
        print(f"{where}:{line}: {description}: {s}")
    print(f"{len(found)} mutants: " + ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
          + f" ({time.monotonic() - began:.0f} s)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Mutation census of one module of src/cuspcubes.")
    parser.add_argument("module", help="a module name, such as cubing")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))     # clean up on kill
    return census(args.module)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

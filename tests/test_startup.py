"""Import footprint: `from cuspcubes import cli` loads no other package
module, and each subcommand loads only the modules it uses.

Each check runs in a fresh interpreter with the inherited environment
(the package's src directory put first on PYTHONPATH); modules that the
bare interpreter already holds, through site hooks say, are not counted.
"""

import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

from cuspcubes.cli import main
from cuspcubes.pingpong import MAX_WORD_LENGTH

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = """
import contextlib, io, json, sys
before = set(sys.modules)
from cuspcubes import cli
cli.build_parser()
loaded = [sorted(set(sys.modules) - before)]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        cli.main(argv)
        loaded.append(sorted(set(sys.modules) - before))
print(json.dumps(loaded))
"""
M1, M2 = "[[1,0],[4,1]]", "[[9,-16],[4,-7]]"


def new_modules(*commands):
    """The modules loaded by importing cli and building its parser, then
    after each command; modules of the bare interpreter are left out."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    res = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return [set(names) for names in json.loads(res.stdout)]


def package(modules):
    return {m for m in modules if m.startswith("cuspcubes.")}


def test_cli_import_loads_no_package_module():
    (loaded,) = new_modules()
    assert package(loaded) == {"cuspcubes.cli"}
    assert not loaded & {"concurrent.futures", "fractions", "dataclasses"}


@pytest.mark.parametrize("argv, modules", [
    (["farey", "cf", "3/7"], {"farey"}),
    (["farey", "cf", "1.5"], {"farey"}),
    (["pingpong", M1, M2], {"pingpong"}),
    (["pingpong", M1, M2, "--mode", "float"], {"pingpong"}),
    (["pingpong", "[1,2]", M2], {"pingpong"}),
    (["cubing", "--two-bridge", "2,2"], {"diagram", "cubing"}),
    (["decide", "--two-bridge", "2,1,2", "--crossing-arc", "A2:0"],
     {"diagram", "decide", "polyhedra"}),
    (["svg", "--two-bridge", "2,2", "-o", os.devnull], {"diagram", "polyhedra"}),
], ids=["farey", "farey-error", "pingpong", "pingpong-float", "pingpong-error", "cubing",
        "decide", "svg"])
def test_subcommand_loads_its_modules(argv, modules):
    _, loaded = new_modules(argv)
    assert package(loaded) == {"cuspcubes.cli"} | {"cuspcubes." + m for m in modules}


def test_emit_complex_loads_no_typing(tmp_path):
    # the cubing path with --emit-complex (flat int gluing lists, str templates
    # and json.dumps) imports no typing module
    _, loaded = new_modules(["cubing", "--two-bridge", "2,2", "--emit-complex",
                             str(tmp_path / "complex.json")])
    assert "cuspcubes.cubing" in loaded and "typing" not in loaded


def test_farey_loads_no_fractions():
    *_, loaded = new_modules(
        ["farey", "dist", "1/0", "2/5"], ["farey", "cf", "3/7"], ["farey", "covering-slope", "3/7"],
        ["farey", "classify-2bridge", "1/3", "4/3"], ["farey", "classify-p3", "2/5", "-5/2"],
        ["farey", "hyperbolic", "2/5", "--p3"])
    assert not loaded & {"fractions", "decimal"}


def test_pingpong_loads_no_fractions():
    # entries are read as int pairs, in both modes, strings and Gaussian pairs
    # included; MobiusMap is a slotted class, so neither dataclasses nor the
    # inspect it imports is loaded either
    *_, loaded = new_modules(
        ["pingpong", M1, M2], ["pingpong", M1, M2, "--words", "5"],
        ["pingpong", '[["9/2",[-16,"1/3"]],[4,-7]]', M2],
        ["pingpong", M1, M2, "--mode", "float"],
        ["pingpong", '[["1.5",[0,"-1/2"]],[4,1]]', M2, "--mode", "float"])
    assert "cuspcubes.pingpong" in loaded
    assert not loaded & {"fractions", "decimal", "dataclasses", "inspect"}


def test_words_help_names_the_bound(capsys):
    with pytest.raises(SystemExit):
        main(["pingpong", "--help"])
    assert f"(N <= {MAX_WORD_LENGTH})" in " ".join(capsys.readouterr().out.split())

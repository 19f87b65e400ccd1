"""perfbench/tracing.py rebinds package functions by name; keep the names.

The tracer wraps cuspcubes functions in place, so it runs in a subprocess.
"""

from collections import Counter
import json
import os
from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = """
import contextlib, io, json, sys, tracing
from cuspcubes import cli
tracer = tracing.Tracer()
tracing.install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, [span[0] for span in tracer.spans]]))
"""


def traced(commands):
    """Exit codes of the commands run under tracing.install, and the number
    of spans of each name."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    res = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    codes, spans = json.loads(res.stdout)
    return codes, Counter(spans)


def test_pingpong_spans_recorded():
    pair = ["[[1,0],[4,1]]", "[[9,-16],[4,-7]]"]
    codes, spans = traced([["pingpong", *pair], ["pingpong", *pair, "--mode", "float"]])
    assert codes == [0, 0]
    assert {"pingpong.certificate", "pingpong.certificate_float"} <= spans.keys()


def test_layer_spans_recorded(tmp_path):
    codes, spans = traced([
        ["farey", "covering-slope", "2/5"],
        ["cubing", "--two-bridge", "2,2"],
        ["decide", "--two-bridge", "2,1,2", "--crossing-arc", "A1:0"],
        ["decide", "--two-bridge", "2,1,2", "--crossing-arc", "A2:0"],
        ["svg", "--two-bridge", "2,2", "-o", str(tmp_path / "fig8.svg")],
    ])
    assert codes == [0] * 5
    assert {"farey", "diagram.load", "diagram.checks", "diagram.flype", "cubing.build_cubing",
            "cubing.verify_npc", "cubing.boundary_cubings", "polyhedra.build_polyhedra",
            "polyhedra.svg", "decide.classify", "decide.witness_spare_region"} <= spans.keys()


def test_every_call_is_traced():
    # each traced call is one span, on every run: a binding that is swapped
    # out after install (a lazy import that rebinds its own name) loses them
    pair = ["[[1,0],[4,1]]", "[[9,-16],[4,-7]]"]
    commands = [["cubing", "--two-bridge", "2,2"],
                ["decide", "--two-bridge", "2,1,2", "--crossing-arc", "A2:0"],
                ["pingpong", *pair], ["pingpong", *pair, "--words", "4"], ["farey", "cf", "3/7"]]
    codes, spans = traced(commands * 2)
    assert codes == [0] * 10
    assert spans == {
        "diagram.load": 4, "diagram.checks": 12, "decide.classify": 4, "farey": 6,
        "cubing.build_cubing": 2, "cubing.verify_npc": 2, "cubing.boundary_cubings": 2,
        "diagram.flype": 2, "polyhedra.build_polyhedra": 2, "decide.witness_spare_region": 2,
        "pingpong.certificate": 4, "pingpong.free_word_sanity": 2}

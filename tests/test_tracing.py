"""perfbench/tracing.py rebinds pingpong functions by name; keep the names.

The tracer wraps cuspcubes functions in place, so it runs in a subprocess.
"""

import json
import os
from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = """
import contextlib, io, json, tracing
from cuspcubes import cli
tracer = tracing.Tracer()
tracing.install(tracer)
pair = ["[[1,0],[4,1]]", "[[9,-16],[4,-7]]"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["pingpong", *pair]), cli.main(["pingpong", *pair, "--mode", "float"])]
print(json.dumps([codes, sorted({span[0] for span in tracer.spans})]))
"""


def test_pingpong_spans_recorded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    res = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    codes, spans = json.loads(res.stdout)
    assert codes == [0, 0]
    assert {"pingpong.certificate", "pingpong.certificate_float"} <= set(spans)

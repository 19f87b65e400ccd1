"""Byte-identical output: sha256 digests of the JSON that `decide` and
`cubing --emit-complex` produce, one per input family, recorded in
tests/data/golden_digests.json.  A change that alters any of these outputs
must say so and record them again:

    PYTHONPATH=src:tests python tests/test_golden.py > tests/data/golden_digests.json
"""

import hashlib
import json
from pathlib import Path

from cuspcubes.cubing import build_cubing
from cuspcubes.decide import classify_2bridge_pair
from cuspcubes.diagram import CrossingArc, two_bridge_diagram
from conftest import diagram_corpus, twist_sequences

GOLDEN = Path(__file__).parent / "data" / "golden_digests.json"


def decide_outputs():
    """The decide JSON of every crossing arc of every twist sequence with at
    most 10 crossings, under both mirror settings."""
    for seq in twist_sequences(10):
        tb = two_bridge_diagram(seq)
        for c in range(tb.diagram.n):
            for mirror in (False, True):
                yield json.dumps(classify_2bridge_pair(tb, CrossingArc(c), mirror).to_json())


def complex_outputs():
    """The emitted complex of every corpus diagram."""
    for d in diagram_corpus().values():
        yield json.dumps(build_cubing(d).to_json())


def digest(lines):
    h = hashlib.sha256()
    count = 0
    for line in lines:
        h.update(line.encode() + b"\n")
        count += 1
    return {"outputs": count, "sha256": h.hexdigest()}


FAMILIES = {"decide": decide_outputs, "complex": complex_outputs}


def test_outputs_match_recorded_digests():
    want = json.loads(GOLDEN.read_text())
    assert {name: digest(gen()) for name, gen in FAMILIES.items()} == want


if __name__ == "__main__":
    print(json.dumps({name: digest(gen()) for name, gen in FAMILIES.items()}, indent=2))

"""Byte-identical output: sha256 digests of the JSON that `decide`,
`CubedComplex.to_json` (compact), `verify_npc`, the two-bridge builder and
the ping-pong certificates and word checks produce and of the SVG text of
`circle_pattern_svg`, one per input family,
recorded in tests/data/golden_digests.json.  A change that alters any of
these outputs must say so and record them again:

    PYTHONPATH=src:tests python tests/test_golden.py > tests/data/golden_digests.json

The file that `cubing --emit-complex` writes is pinned apart, as the text
of json.dumps(to_json(), indent=2) on the corpus and the ladder diagrams.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cuspcubes import cli
from cuspcubes.cubing import build_cubing, verify_npc, write_complex
from cuspcubes.decide import classify_2bridge_pair
from cuspcubes.diagram import CrossingArc, pretzel_diagram, two_bridge_diagram
from cuspcubes.pingpong import free_word_sanity, pingpong_certificate_float
from cuspcubes.polyhedra import circle_pattern_svg
from conftest import diagram_corpus, twist_sequences
from test_cli import validate
from test_pingpong import NAMED_PAIRS, certificate_outcome, float_matrix, oracle_pairs, outcome

GOLDEN = Path(__file__).parent / "data" / "golden_digests.json"


def decide_outputs():
    """The decide JSON of every crossing arc of every twist sequence with at
    most 10 crossings, under both mirror settings."""
    for seq in twist_sequences(10):
        tb = two_bridge_diagram(seq)
        for c in range(tb.diagram.n):
            for mirror in (False, True):
                yield json.dumps(classify_2bridge_pair(tb, CrossingArc(c), mirror))


def complex_outputs():
    """The emitted complex of every corpus diagram."""
    for d in diagram_corpus().values():
        yield json.dumps(build_cubing(d).to_json())


def ladder_diagrams():
    """Diagrams of 80 and 160 crossings: the (2,1,...,1,2) chain of the
    cubing ladder, a chain of twos and a three-strip pretzel."""
    for n in (80, 160):
        yield two_bridge_diagram((2,) + (1,) * (n - 4) + (2,)).diagram
        yield two_bridge_diagram((2,) * (n // 2)).diagram
        yield pretzel_diagram(n // 3, n // 3, n - 2 * (n // 3))


def npc_outputs():
    """The NPC report of every corpus diagram, of every side-gluing
    corruption of every twist sequence with at most 12 crossings, and of
    the ladder diagrams."""
    for d in diagram_corpus().values():
        yield json.dumps(verify_npc(build_cubing(d)))
    for seq in twist_sequences(12):
        cx = build_cubing(two_bridge_diagram(seq).diagram)
        for k in range(cx.diagram.n, 5 * cx.diagram.n):
            yield json.dumps(verify_npc(cx.corrupt(k)))
    for d in ladder_diagrams():
        yield json.dumps(verify_npc(build_cubing(d)))


def svg_diagrams():
    """The corpus, every twist sequence with at most 10 crossings, two
    drawings whose layout ends in a 2-cycle (pretzel (3,2,3) and two-bridge
    (2,2,2)) and one with no repeat within 200 sweeps (two-bridge (6,6))."""
    yield from diagram_corpus().values()
    for seq in twist_sequences(10):
        yield two_bridge_diagram(seq).diagram
    yield pretzel_diagram(3, 2, 3)
    yield two_bridge_diagram((2, 2, 2)).diagram
    yield two_bridge_diagram((6, 6)).diagram


def svg_outputs():
    """The circle-pattern SVG text of every svg diagram."""
    for d in svg_diagrams():
        yield circle_pattern_svg(d)


def two_bridge_outputs():
    """The rotation JSON of the standard diagram of every twist sequence
    with at most 12 crossings and of the two two-bridge ladder chains.  It
    pins the wiring order, which `_tail_flype` follows when it lists the
    pairs of a flyped diagram."""
    seqs = twist_sequences(12)
    for n in (80, 160):
        seqs += [(2,) + (1,) * (n - 4) + (2,), (2,) * (n // 2)]
    for seq in seqs:
        yield json.dumps(two_bridge_diagram(seq).diagram.to_json())


def pingpong_outputs():
    """The exact certificate JSON (or error message) and the float verdict
    JSON (or error message) of every oracle pair, then free_word_sanity for
    N = 0..8 on each named pair."""
    for s1, s2 in oracle_pairs():
        yield json.dumps(certificate_outcome(s1, s2))
        yield json.dumps(outcome(pingpong_certificate_float, float_matrix(s1), float_matrix(s2)))
    for name, (m1, m2) in NAMED_PAIRS.items():
        yield json.dumps([name, [free_word_sanity(m1, m2, n) for n in range(9)]])


def digest(lines):
    h = hashlib.sha256()
    count = 0
    for line in lines:
        h.update(line.encode() + b"\n")
        count += 1
    return {"outputs": count, "sha256": h.hexdigest()}


FAMILIES = {"decide": decide_outputs, "complex": complex_outputs, "npc": npc_outputs,
            "svg": svg_outputs, "pingpong": pingpong_outputs, "two_bridge": two_bridge_outputs}


def test_emitted_complexes_match_schema():
    for line in complex_outputs():
        validate(json.loads(line), "cubing.complex.v1")


def test_emitted_file_is_the_indented_dump(tmp_path):
    path = tmp_path / "complex.json"
    for d in [*diagram_corpus().values(), *ladder_diagrams()]:
        cx = build_cubing(d)
        write_complex(cx, path)
        assert path.read_text() == json.dumps(cx.to_json(), indent=2), d
    # once through the command line, with its file written in text mode
    pd = tmp_path / "pretzel.json"
    pd.write_text(json.dumps({"pd": [list(x) for x in pretzel_diagram(3, 3, 4).pd_code()]}))
    assert cli.main(["cubing", "--pd", str(pd), "--emit-complex", str(path)]) == 0
    want = json.dumps(build_cubing(pretzel_diagram(3, 3, 4)).to_json(), indent=2)
    assert path.read_bytes() == want.encode()


def test_every_recorded_family_is_replayed():
    assert set(json.loads(GOLDEN.read_text())) == set(FAMILIES)


@pytest.mark.parametrize("family", FAMILIES)
def test_outputs_match_recorded_digests(family):
    assert digest(FAMILIES[family]()) == json.loads(GOLDEN.read_text())[family]


if __name__ == "__main__":
    print(json.dumps({name: digest(gen()) for name, gen in FAMILIES.items()}, indent=2))

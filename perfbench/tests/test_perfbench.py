"""Tests of the benchmark itself: seeded inputs and the output checker.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import checks  # noqa: E402
import workloads  # noqa: E402
from cuspcubes.cli import main  # noqa: E402


def rounds(workload, seed, workdir, count=3):
    pool = workloads.make_pool(workload, seed, workdir)
    ops = [workloads.make_round(pool, r) for r in range(count)]
    return json.loads(json.dumps(ops).replace(str(workdir), "WORKDIR"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    a = rounds(workload, 7, tmp_path / "a")
    b = rounds(workload, 7, tmp_path / "b")
    assert a == b
    assert rounds(workload, 8, tmp_path / "c") != a
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.json"))
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*.json"))
    assert files_a == files_b
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_text() == (tmp_path / "b" / rel).read_text()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_round_has_the_same_mix(workload, tmp_path):
    def parts(op):
        return op["cls"].split(":") + [f"n={op.get('n')}", f"sizes={op['check'].get('sizes')}"]
    mixes = [Counter(part for op in ops for part in parts(op))
             for seed in (1, 2) for ops in rounds(workload, seed, tmp_path / str(seed), 6)]
    assert all(mix == mixes[0] for mix in mixes)


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def verdict(op, code, out):
    failure, _facts = checks.check(op, code, out)
    return failure


def first_op(workload, tmp_path, pred):
    pool = workloads.make_pool(workload, 3, tmp_path)
    for r in range(20):
        for op in workloads.make_round(pool, r):
            if pred(op):
                return op
    raise AssertionError("no such operation")


def test_cubing_wrong_cube_count_is_rejected(tmp_path):
    op = first_op("cubing-ladder", tmp_path,
                  lambda op: op["check"]["type"] == "cubing" and op["n"] == 10)
    code, out = run(op["argv"])
    assert verdict(op, code, out) is None
    data = json.loads(out)
    data["cubes"] += 2
    assert verdict(op, code, json.dumps(data))[0] == "wrong"
    data["cubes"] -= 2
    data["boundary_tori"][0]["euler"] = 2
    assert verdict(op, code, json.dumps(data))[0] == "wrong"


def test_cubing_npc_false_is_a_wrong_answer(tmp_path):
    op = first_op("cubing-ladder", tmp_path,
                  lambda op: op["check"]["type"] == "cubing" and op["n"] == 10)
    code, out = run(op["argv"])
    data = json.loads(out)
    data["npc"] = False
    data["failures"] = [{"vertex": 0}]
    assert verdict(op, 1, json.dumps(data))[0] == "wrong"
    assert verdict(op, 1, out)[0] == "wrong"
    assert verdict(op, 2, out)[0] == "exit"


def test_corrupt_must_exit_one(tmp_path):
    low = first_op("cubing-ladder", tmp_path,
                   lambda op: op["check"]["type"] == "cubing_corrupt" and op["check"]["k"] < op["n"])
    code, out = run(low["argv"])
    assert verdict(low, code, out) == ("exit", "exit 0, expected 1 (K < n corrupts nothing)")
    high = first_op("cubing-ladder", tmp_path,
                    lambda op: op["check"]["type"] == "cubing_corrupt" and op["check"]["k"] >= op["n"]
                    and op["n"] == 10)
    code, out = run(high["argv"])
    assert verdict(high, code, out) is None
    data = json.loads(out)
    data["npc"], data["failures"] = True, []
    assert verdict(high, 0, json.dumps(data))[0] == "wrong"


def test_decide_repeated_wing_region_is_rejected(tmp_path):
    op = first_op("decide-arcs", tmp_path, lambda op: op["cls"] == "n20:fast")
    code, out = run(op["argv"])
    assert verdict(op, code, out) is None
    data = json.loads(out)
    wings = data["witness"]["wings"]
    wings["second"][0] = wings["first"][0]
    assert verdict(op, code, json.dumps(data))[0] == "wrong"


def test_tunnel_must_generate_the_group(tmp_path):
    op = first_op("decide-arcs", tmp_path,
                  lambda op: op["cls"].endswith(":tunnel") and op["argv"][-1] != "--mirror")
    code, out = run(op["argv"])
    assert verdict(op, code, out) is None
    data = json.loads(out)
    data["verdict"] = "FreeGeometricallyFinite"
    assert verdict(op, code, json.dumps(data))[0] == "wrong"


def test_pingpong_overlapping_disks_are_rejected(tmp_path):
    op = first_op("quick-cli", tmp_path,
                  lambda op: op["argv"][0] == "pingpong" and op["check"]["verdict"] == "FreeCertified"
                  and op["check"]["mode"] == "exact")
    code, out = run(op["argv"])
    assert verdict(op, code, out) is None
    data = json.loads(out)
    first, second = data["butterflies"]
    second["neg"]["center"] = first["pos"]["center"]
    assert verdict(op, code, json.dumps(data)) == ("wrong", "disks 1 and 2 overlap")


def test_pingpong_verdicts_against_the_pair_are_wrong_answers(tmp_path):
    free = first_op("pingpong-words", tmp_path,
                    lambda op: op["check"]["verdict"] == "FreeCertified" and op["check"]["words"]
                    and op["check"]["words"] <= 6)
    code, out = run(free["argv"])
    assert verdict(free, code, out) is None
    data = json.loads(out)
    data["no_trivial_word"] = False
    assert verdict(free, 1, json.dumps(data))[0] == "wrong"
    data["no_trivial_word"] = True
    data["verdict"] = "Inconclusive"
    assert verdict(free, 1, json.dumps(data))[0] == "wrong"
    other = first_op("pingpong-words", tmp_path,
                     lambda op: op["check"]["verdict"] != "FreeCertified")
    code, out = run(other["argv"])
    assert verdict(other, code, out) is None
    assert verdict(other, 0, out)[0] == "wrong"
    data = json.loads(out)
    data["verdict"] = "FreeCertified"
    assert verdict(other, 0, json.dumps(data))[0] == "wrong"


def test_farey_checks_use_their_own_arithmetic():
    hyp = {"check": {"type": "farey_hyp", "r": "2/5", "p3": False}}
    assert verdict(hyp, 0, '{"hyperbolic": true}') is None
    assert verdict(hyp, 0, '{"hyperbolic": false}')[0] == "wrong"
    torus = {"check": {"type": "farey_hyp", "r": "1/7", "p3": False}}
    assert verdict(torus, 1, '{"hyperbolic": false}') is None
    assert verdict(torus, 0, '{"hyperbolic": true}')[0] == "wrong"
    assert verdict(torus, 0, '{"hyperbolic": false}')[0] == "wrong"
    assert verdict(torus, 2, "")[0] == "exit"
    two = {"check": {"type": "farey_2bridge", "r": "1/3", "s": "4/3", "oriented": True}}
    assert verdict(two, 0, '{"equivalent": true, "witness": [[1, 1], [0, 1]]}') is None
    assert verdict(two, 1, '{"equivalent": false}')[0] == "wrong"
    cover = {"check": {"type": "farey_cover", "r": "2/5"}}
    assert verdict(cover, 0, '{"r_tilde": "-9/20", "congruence": true}') is None
    assert verdict(cover, 0, '{"r_tilde": "-9/21", "congruence": true}')[0] == "wrong"
    assert verdict(cover, 1, '{"r_tilde": "-9/20", "congruence": false}')[0] == "wrong"

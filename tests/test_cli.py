import argparse
import contextlib
import io
import json
from pathlib import Path
import time

from hypothesis import given, settings
from hypothesis import strategies as st
import jsonschema
import pytest
from referencing import Registry, Resource

from cuspcubes import cli, decide as DC, diagram as DG, farey as FA
from cuspcubes.cli import build_parser, main
from cuspcubes.diagram import AlternatingDiagram, DiagramError, two_bridge_diagram
from cuspcubes.polyhedra import build_polyhedra

SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas"
# every schema under its $id, so that decide.verdict.v1 can $ref diagram.input.v1
REGISTRY = Registry().with_resources(
    (schema["$id"], Resource.from_contents(schema))
    for schema in (json.loads(f.read_text()) for f in SCHEMAS.glob("*.json")))
SCHEMA_OF = {"farey": "farey.outputs.v1", "cubing": "cubing.report.v1",
             "decide": "decide.verdict.v1", "pingpong": "pingpong.certificate.v1",
             "svg": "svg.output.v1"}


def validate(instance, name):
    schema = REGISTRY.contents("cuspcubes/" + name)
    jsonschema.validators.validator_for(schema)(schema, registry=REGISTRY).validate(instance)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def refused(capsys, *argv):
    """argparse's stderr for an argv that it refuses with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "", argv
    return out.err


def run_json(capsys, *argv):
    """Exit code and JSON output of a subcommand, checked against its schema."""
    code, out, _ = run(capsys, *argv)
    data = json.loads(out)
    validate(data, SCHEMA_OF[argv[0]])
    return code, data


class TestFarey:
    def test_covering_slope(self, capsys):
        code, data = run_json(capsys, "farey", "covering-slope", "2/5")
        assert code == 0
        assert data == {"r": "2/5", "r_tilde": "-9/20", "congruence": True}

    def test_dist(self, capsys):
        code, data = run_json(capsys, "farey", "dist", "1/0", "2/5")
        assert code == 0
        assert data["distance"] == 3

    def test_cf(self, capsys):
        code, data = run_json(capsys, "farey", "cf", "-9/20")
        assert code == 0
        assert data["integer_part"] == -1 and data["terms"] == [1, 1, 4, 2]

    def test_negative_denominator(self, capsys):
        # -5/-2 is 5/2; argparse must not take it for an option
        code, data = run_json(capsys, "farey", "cf", "-5/-2")
        assert code == 0
        assert data == {"r": "5/2", "integer_part": 2, "terms": [2], "value": "5/2"}
        code, data = run_json(capsys, "farey", "dist", "-5/-2", "1/0")
        assert code == 0
        assert data == {"r": "5/2", "s": "1/0", "distance": 2}

    def test_deep_slope(self, capsys):
        # partial quotient 5000: deeper than the interpreter's recursion limit
        code, data = run_json(capsys, "farey", "dist", "1/0", "70011/30005")
        assert code == 0
        assert data["distance"] == 4
        code, data = run_json(capsys, "farey", "hyperbolic", "70011/30005")
        assert code == 0 and data["hyperbolic"] is True

    @pytest.mark.parametrize("slope", ["1/3/4", "1.5", "", "1/", "/2", "x/2"])
    def test_malformed_slope_exit(self, capsys, slope):
        code, out, err = run(capsys, "farey", "cf", slope)
        assert (code, out) == (2, "")
        assert err == f"error: a slope is q/p, an integer or inf, got {slope!r}\n"

    def test_long_slope_exit(self, capsys):
        # refused by length before int() meets its 4300-digit limit
        from cuspcubes.farey import MAX_SLOPE_CHARS
        code, out, err = run(capsys, "farey", "dist", "1/0", "1" * 5000)
        assert (code, out) == (2, "")
        assert err == ("error: a slope is q/p, an integer or inf of at most MAX_SLOPE_CHARS = "
                       f"{MAX_SLOPE_CHARS} characters, got 5000 characters\n")
        code, data = run_json(capsys, "farey", "cf", "1" * (MAX_SLOPE_CHARS - 2) + "/3")
        assert code == 0 and data["value"] == data["r"]

    def test_classify_p3(self, capsys):
        code, data = run_json(capsys, "farey", "classify-p3", "2/5", "-5/2", "--oriented")
        assert code == 0 and data["equivalent"] is True
        code, data = run_json(capsys, "farey", "classify-p3", "2/5", "5/2", "--oriented")
        assert code == 1 and data["equivalent"] is False

    def test_classify_2bridge(self, capsys):
        code, data = run_json(capsys, "farey", "classify-2bridge", "1/3", "4/3", "--oriented")
        assert code == 0
        assert data["witness"] == [[1, 1], [0, 1]]

    def test_hyperbolic(self, capsys):
        code, data = run_json(capsys, "farey", "hyperbolic", "2/5")
        assert code == 0 and data["hyperbolic"] is True
        code, data = run_json(capsys, "farey", "hyperbolic", "1/7", "--p3")
        assert code == 1

    def test_parse_error_exit(self, capsys):
        code, _, err = run(capsys, "farey", "dist", "0/0", "1/2")
        assert code == 2 and "error" in err


class TestCubing:
    def test_two_bridge(self, capsys):
        code, out, _ = run(capsys, "cubing", "--two-bridge", "2,2")
        assert code == 0
        data = json.loads(out)
        validate(data, "cubing.report.v1")
        assert data["cubes"] == 8 and data["inner_vertices"] == 2
        assert data["inner_edges"] == 6 and data["npc"] is True

    def test_bigger(self, capsys):
        code, out, _ = run(capsys, "cubing", "--two-bridge", "3,2")
        assert json.loads(out)["cubes"] == 10

    def test_corrupt(self, capsys):
        code, out, _ = run(capsys, "cubing", "--two-bridge", "2,2", "--corrupt", "5")
        assert code == 1
        data = json.loads(out)
        validate(data, "cubing.report.v1")
        assert data["npc"] is False and data["failures"]

    def test_corrupt_out_of_range(self, capsys):
        # the figure-eight has 4 crossings and 5 * 4 = 20 gluings
        for k in ("-1", "20"):
            code, out, err = run(capsys, "cubing", "--two-bridge", "2,2", "--corrupt", k)
            assert code == 2 and out == "" and "no gluing" in err

    def test_huge_crossing_index_exit(self, capsys, tmp_path):
        f = tmp_path / "huge.json"
        f.write_text(json.dumps({"rotation": [[[0, 0], [10 ** 9, 1]]]}))
        code, out, err = run(capsys, "cubing", "--pd", str(f))
        assert code == 2 and out == "" and "paired exactly once" in err

    def test_huge_twist_count_exits_fast(self, capsys):
        for cmd in (["cubing"], ["decide", "--crossing-arc", "A2:0"], ["svg", "-o", "unused.svg"]):
            t0 = time.perf_counter()
            code, out, err = run(capsys, *cmd, "--two-bridge", "2,1000000000000,2")
            assert time.perf_counter() - t0 < 1, cmd
            assert code == 2 and out == "", cmd
            assert err == "error: too large: 1000000000004 crossings, at most 10000 are accepted\n", cmd

    def test_bad_pd_shapes_exit(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        for text in ('5', '{"pd": 5}', '{"pd": [[[1], 2, 3, 4]]}', '{"rotation": [[[0], [1, 2]]]}'):
            f.write_text(text)
            code, out, err = run(capsys, "cubing", "--pd", str(f))
            assert code == 2 and out == "" and err.startswith("error: malformed:"), text

    def test_deeply_nested_pd_exit(self, capsys, tmp_path):
        # json gives up with a RecursionError; that is malformed input, not a failed check
        f = tmp_path / "deep.json"
        f.write_text("[" * 200000)
        for cmd in (["cubing"], ["decide", "--crossing-arc", "c0"], ["svg", "-o", "unused.svg"]):
            code, out, err = run(capsys, *cmd, "--pd", str(f))
            assert code == 2 and out == "", cmd
            assert err == f"error: malformed: JSON nested too deeply in {f}\n", cmd

    def test_deeply_nested_corpus_file_exit(self, capsys, pd_corpus_dir, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        first = sorted(pd_corpus_dir.glob("*.json"))[0]
        (corpus / first.name).write_text(first.read_text())
        (corpus / "deep.json").write_text('{"pd": ' + "[" * 200000)
        code, out, err = run(capsys, "cubing", "--corpus", str(corpus), "--jobs", "2")
        assert code == 2 and out == ""
        assert err == "error: malformed: JSON nested too deeply in deep.json\n"

    def test_named_construction_errors_exit(self, capsys, tmp_path):
        # a rotation file failing one construction check: exit 2 with the
        # check's name and no traceback, from cubing and decide alike
        rotations = {
            "disconnected": [[[0, 0], [1, 1]], [[0, 1], [1, 0]], [[0, 2], [1, 3]], [[0, 3], [1, 2]],
                             [[2, 0], [3, 1]], [[2, 1], [3, 0]], [[2, 2], [3, 3]], [[2, 3], [3, 2]]],
            "non-planar": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]],
            "non-alternating": [[[0, 0], [2, 0]], [[0, 1], [1, 3]], [[0, 2], [1, 2]],
                                [[0, 3], [2, 1]], [[1, 0], [2, 3]], [[1, 1], [2, 2]]],
        }
        f = tmp_path / "bad.json"
        for name, pairs in rotations.items():
            f.write_text(json.dumps({"rotation": pairs}))
            for cmd in (["cubing"], ["decide", "--crossing-arc", "c0"]):
                code, out, err = run(capsys, *cmd, "--pd", str(f))
                assert code == 2 and out == "", (name, cmd)
                assert err.startswith(f"error: {name}: ") and err.count("\n") == 1, (name, cmd)

    def test_ambiguous_diagram_files_exit(self, capsys, tmp_path):
        # a rotation naming a slot twice, and a file with both fields: exit 2
        # from every subcommand that reads a diagram file
        d = two_bridge_diagram((2, 1, 2)).diagram
        pairs = d.to_json()["rotation"]
        (a, b), (c, e) = pairs[:2]
        files = [({"rotation": pairs + [[a, c], [b, e]]}, "every slot must be paired exactly once"),
                 ({"rotation": pairs + pairs[:1]}, "every slot must be paired exactly once"),
                 ({"pd": [list(x) for x in d.pd_code()], "rotation": pairs},
                  "give either a 'pd' or a 'rotation' field, not both")]
        f = tmp_path / "bad.json"
        for obj, message in files:
            f.write_text(json.dumps(obj))
            for cmd in (["cubing"], ["decide", "--crossing-arc", "c0"], ["svg", "-o", str(tmp_path / "unused.svg")]):
                assert run(capsys, *cmd, "--pd", str(f)) == (2, "", f"error: malformed: {message}\n"), (obj, cmd)

    def test_hostile_rotation_slots_exit(self, capsys, tmp_path):
        # a slot [c, i] is flattened to 4c + i only once it is checked, so
        # [0, 7] does not alias [1, 3], nor [-1, 0] and [0, -1] a slot of
        # the last crossing; a slot paired with itself is no edge
        pairs = two_bridge_diagram((2, 1, 2)).diagram.to_json()["rotation"]

        def swap(old, new):
            return [[new if h == old else h for h in pair] for pair in pairs]

        (a, b), rest = pairs[0], pairs[1:]
        once = "error: malformed: every slot must be paired exactly once\n"
        files = [(swap([1, 3], [0, 7]), once), (swap([1, 3], [-1, 0]), once), (swap([4, 3], [0, -1]), once),
                 (swap([4, 3], [10 ** 8, 3]), once), ([[a, a]] + rest, once),
                 ([[a, a], [b, b]] + rest, "error: malformed: slot pairing must be a fixed-point-free involution\n")]
        f = tmp_path / "bad.json"
        for rotation, message in files:
            f.write_text(json.dumps({"rotation": rotation}))
            for cmd in (["cubing"], ["decide", "--crossing-arc", "c0"], ["svg", "-o", str(tmp_path / "unused.svg")]):
                assert run(capsys, *cmd, "--pd", str(f)) == (2, "", message), (rotation, cmd)

    def test_input_schema_and_from_json_agree(self):
        # on which of the two fields an input carries, and of what type
        d = two_bridge_diagram((2, 1, 2)).diagram
        pd, rotation = [list(x) for x in d.pd_code()], d.to_json()["rotation"]
        shapes = [{"pd": pd}, {"rotation": rotation}, {"pd": pd, "rotation": rotation},
                  {"pd": pd, "rotation": 5}, {"pd": 5, "rotation": rotation}, {"pd": pd, "note": 5},
                  {"rotation": rotation, "note": 5}, {}, {"note": 5}, {"pd": 5}, {"rotation": 5}]
        for obj in shapes:
            try:
                validate(obj, "diagram.input.v1")
                schema_accepts = True
            except jsonschema.ValidationError:
                schema_accepts = False
            try:
                AlternatingDiagram.from_json(obj)
                accepted = True
            except DiagramError:
                accepted = False
            assert accepted == schema_accepts, obj

    def test_pd_file_and_emit(self, capsys, tmp_path, corpus):
        pd = {"pd": [list(x) for x in corpus["C2_2"].pd_code()]}
        f = tmp_path / "fig8.json"
        f.write_text(json.dumps(pd))
        out_file = tmp_path / "complex.json"
        code, out, _ = run(capsys, "cubing", "--pd", str(f),
                           "--emit-complex", str(out_file))
        assert code == 0
        dumped = json.loads(out_file.read_text())
        validate(dumped, "cubing.complex.v1")
        assert len(dumped["cubes"]) == 8

    def test_corrupt_refuses_emit_complex(self, capsys, tmp_path, monkeypatch):
        # the file would pair the clean gluings with the corrupted counts
        monkeypatch.chdir(tmp_path)
        for argv in (("--corrupt", "5", "--emit-complex", "complex.json"),
                     ("--emit-complex", "complex.json", "--corrupt", "0"),
                     ("--corrupt", "5", "--emit-complex", "")):
            code, out, err = run(capsys, "cubing", "--two-bridge", "2,2", *argv)
            assert code == 2 and out == "", argv
            assert err == "error: --corrupt cannot be combined with --emit-complex\n", argv
            assert list(tmp_path.iterdir()) == [], argv

    def test_corpus_fanout(self, capsys, pd_corpus_dir):
        code, out, _ = run(capsys, "cubing", "--corpus", str(pd_corpus_dir), "--jobs", "2")
        assert code == 0
        data = json.loads(out)
        for result in data["results"]:
            validate(result, "cubing.report.v1")
        assert len(data["results"]) >= 10
        assert all(r["npc"] for r in data["results"])

    def test_mirror_flag_has_no_effect(self, capsys, pd_corpus_dir):
        # --mirror is still accepted, and the cubed exterior does not read it
        for f in sorted(pd_corpus_dir.glob("*.json")):
            plain = run(capsys, "cubing", "--pd", str(f))
            assert plain[0] == 0, f.name
            assert run(capsys, "cubing", "--pd", str(f), "--mirror") == plain, f.name
        args = ("cubing", "--corpus", str(pd_corpus_dir))
        assert run(capsys, *args, "--mirror") == run(capsys, *args)

    @pytest.mark.parametrize("flag, value", [
        ("--pd", "fig8.json"), ("--two-bridge", "2,2"), ("--corrupt", "12"),
        ("--emit-complex", "complex.json")])
    def test_corpus_refuses_single_diagram_flags(self, capsys, pd_corpus_dir, tmp_path,
                                                 monkeypatch, flag, value):
        # --corpus would drop these silently: no negative control, no file;
        # --pd and --two-bridge share its exclusive group, so argparse refuses them
        monkeypatch.chdir(tmp_path)
        argv = ["cubing", "--corpus", str(pd_corpus_dir), flag, value]
        if flag in ("--pd", "--two-bridge"):
            err = refused(capsys, *argv)
            assert err.endswith(f"error: argument {flag}: not allowed with argument --corpus\n")
        else:
            assert run(capsys, *argv) == (2, "", f"error: --corpus cannot be combined with {flag}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit(self, capsys, pd_corpus_dir, jobs):
        code, out, err = run(capsys, "cubing", "--corpus", str(pd_corpus_dir), "--jobs", jobs)
        assert code == 2 and out == ""
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"

    def test_empty_path_values_are_given(self, capsys, tmp_path, monkeypatch):
        # an empty --emit-complex or --corpus is given, as an empty --two-bridge
        # is: no silent skip, and no glob of the working directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "trefoil.json").write_text(json.dumps({"pd": [[1, 4, 2, 5], [3, 6, 4, 1],
                                                                [5, 2, 6, 3]]}))
        assert run(capsys, "cubing", "--two-bridge", "2,2", "--emit-complex", "") == (
            2, "", "error: [Errno 2] No such file or directory: ''\n")
        assert run(capsys, "cubing", "--corpus", "") == (
            2, "", "error: --corpus expects a directory, got ''\n")
        assert [f.name for f in tmp_path.iterdir()] == ["trefoil.json"]

    def test_empty_corpus_exit(self, capsys, tmp_path):
        # exit 1 would mean a diagram failed the NPC check
        (tmp_path / "notes.txt").write_text("no diagrams here")
        code, out, err = run(capsys, "cubing", "--corpus", str(tmp_path))
        assert code == 2 and out == ""
        assert err == f"error: no .json diagrams under {tmp_path}\n"


class TestDecide:
    def test_tunnel(self, capsys):
        code, data = run_json(capsys, "decide", "--two-bridge", "2,2", "--crossing-arc", "A1:0")
        assert code == 0
        assert data["verdict"] == "GeneratesLinkGroup"

    def test_middle(self, capsys):
        code, data = run_json(capsys, "decide", "--two-bridge", "2,1,2", "--crossing-arc", "A2:0")
        assert code == 0
        assert data["verdict"] == "FreeGeometricallyFinite"
        assert len(set(data["witness"]["wings"]["first"]
                       + data["witness"]["wings"]["second"])) == 4

    def test_in_region(self, capsys, tmp_path):
        from cuspcubes.diagram import two_bridge_diagram, crossings_adjacent_on_region
        d = two_bridge_diagram((3, 3)).diagram
        target = None
        for R in d.regions:
            cs = sorted(R.distinct_crossings)
            for i, a in enumerate(cs):
                for b in cs[i + 1:]:
                    if not crossings_adjacent_on_region(d, R.index, a, b):
                        target = (R.index, a, b)
        assert target
        f = tmp_path / "d.json"
        f.write_text(json.dumps({"pd": [list(x) for x in d.pd_code()]}))
        code, data = run_json(capsys, "decide", "--pd", str(f),
                              "--in-region", f"R{target[0]}:c{target[1]}:c{target[2]}")
        assert code == 0
        assert data["verdict"] == "FreeGeometricallyFinite"

    def test_mirror_reaches_a_file_diagram(self, capsys, tmp_path):
        # --mirror flips each wing pair for a --pd diagram as for --two-bridge
        from cuspcubes.diagram import two_bridge_diagram
        f = tmp_path / "d.json"
        f.write_text(json.dumps(two_bridge_diagram((2, 3, 2)).diagram.to_json()))
        argv = ["decide", "--pd", str(f), "--in-region", "R0:c0:c3"]
        code, plain = run_json(capsys, *argv)
        assert code == 0
        code, mirrored = run_json(capsys, *argv, "--mirror")
        assert code == 0
        assert plain["verdict"] == mirrored["verdict"] == "FreeGeometricallyFinite"
        for key in ("first", "second"):
            assert mirrored["witness"]["wings"][key] == plain["witness"]["wings"][key][::-1]

    def test_malformed_arc_exit(self, capsys):
        code, _, err = run(capsys, "decide", "--two-bridge", "2,2",
                           "--in-region", "R0:c1:c1")
        assert code == 2
        # a spec of the wrong shape is refused with its flag and form
        for flag, spec, form in (("--in-region", "R0:c0", "R<k>:c<i>:c<j>"),
                                 ("--transverse", "c0:c1", "c<i>:c<j>:e<a>,..."),
                                 ("--crossing-arc", "A2:x", "A<i>:<k> or c<i>"),
                                 ("--crossing-arc", "Ax:0", "A<i>:<k> or c<i>"),
                                 ("--crossing-arc", "A1:0:3", "A<i>:<k> or c<i>"),
                                 # one prefix letter, then -?[0-9]+ and nothing else
                                 ("--crossing-arc", "aAaA2:0", "A<i>:<k> or c<i>"),
                                 ("--crossing-arc", "AA1:0", "A<i>:<k> or c<i>"),
                                 ("--crossing-arc", "A:0", "A<i>:<k> or c<i>"),
                                 ("--crossing-arc", "cc0", "A<i>:<k> or c<i>"),
                                 ("--crossing-arc", "c", "A<i>:<k> or c<i>"),
                                 ("--crossing-arc", "c3_0", "A<i>:<k> or c<i>"),
                                 ("--crossing-arc", "c+1", "A<i>:<k> or c<i>"),
                                 ("--crossing-arc", "c 1", "A<i>:<k> or c<i>"),
                                 ("--crossing-arc", "c1 ", "A<i>:<k> or c<i>"),
                                 ("--crossing-arc", "c\u0661", "A<i>:<k> or c<i>"),
                                 ("--crossing-arc", "c--1", "A<i>:<k> or c<i>"),
                                 # the <k> of A<i>:<k> is -?[0-9]+ as well
                                 ("--crossing-arc", "A2:+0", "A<i>:<k> or c<i>"),
                                 ("--crossing-arc", "A2:0_0", "A<i>:<k> or c<i>"),
                                 ("--crossing-arc", "A2: 0", "A<i>:<k> or c<i>"),
                                 ("--crossing-arc", "A2:0 ", "A<i>:<k> or c<i>"),
                                 ("--crossing-arc", "A2:\u0660", "A<i>:<k> or c<i>"),
                                 ("--crossing-arc", "A2:", "A<i>:<k> or c<i>"),
                                 ("--in-region", "rRr0:c0:c1", "R<k>:c<i>:c<j>"),
                                 ("--in-region", "R0:cc0:c1", "R<k>:c<i>:c<j>"),
                                 ("--transverse", "c0:c1:ee1", "c<i>:c<j>:e<a>,..."),
                                 ("--transverse", "c0:c1:e1,1", "c<i>:c<j>:e<a>,..."),
                                 ("--transverse", "c0:c1:e1,", "c<i>:c<j>:e<a>,..."),
                                 # an empty spec is given, not absent
                                 ("--crossing-arc", "", "A<i>:<k> or c<i>"),
                                 ("--in-region", "", "R<k>:c<i>:c<j>"),
                                 ("--transverse", "", "c<i>:c<j>:e<a>,...")):
            code, out, err = run(capsys, "decide", "--two-bridge", "2,2", flag, spec)
            assert code == 2 and out == "", spec
            assert err == f"error: {flag} expects {form}, got {spec!r}\n", spec
        code, out, err = run(capsys, "decide", "--two-bridge", "2,x", "--crossing-arc", "A1:0")
        assert code == 2 and out == ""
        assert err == "error: --two-bridge expects A1,A2,..., got '2,x'\n"

    def test_malformed_two_bridge_exit(self, capsys):
        # each term is -?[0-9]+ and nothing else, for every subcommand that
        # reads one; an empty sequence is given, not absent
        for seq in (" 2,+1,2_0", "2,+1,2", "2,1_0,2", "2, 1,2", "2,1 ,2", "2,\u0661,2", "2,,2",
                    "2,1,", "2,--1,2", ""):
            for cmd in (["decide", "--crossing-arc", "A1:0"], ["cubing"], ["svg", "-o", "unused.svg"]):
                code, out, err = run(capsys, *cmd, "--two-bridge", seq)
                assert code == 2 and out == "", (seq, cmd)
                assert err == f"error: --two-bridge expects A1,A2,..., got {seq!r}\n", (seq, cmd)
        code, data = run_json(capsys, "decide", "--two-bridge", "02,1,2", "--crossing-arc", "A2:00")
        assert code == 0 and data == run_json(capsys, "decide", "--two-bridge", "2,1,2",
                                              "--crossing-arc", "A2:0")[1]

    def test_region_out_of_range_exit(self, capsys):
        # the (2,1,2) diagram has 7 regions
        for region in ("R-1", "R7", "R99"):
            code, out, err = run(capsys, "decide", "--two-bridge", "2,1,2",
                                 "--in-region", f"{region}:c3:c4")
            assert code == 2 and out == "", region
            assert err == f"error: no region {region[1:]}\n", region

    def test_negative_crossing_number_exit(self, capsys):
        code, out, err = run(capsys, "decide", "--two-bridge", "2,3,2",
                             "--crossing-arc", "A2:-1")
        assert code == 2 and out == ""
        assert "A2 has no crossing #-1" in err

    def test_missing_twist_region_exit(self, capsys):
        # (2,2) has twist regions A1 and A2; the error names the region, not k
        for region in ("A9", "A0", "A3", "A-1"):
            code, out, err = run(capsys, "decide", "--two-bridge", "2,2",
                                 "--crossing-arc", f"{region}:0")
            assert code == 2 and out == "", region
            assert err == f"error: no twist region {region}: the sequence has 2 twist regions\n"

    def test_long_transverse_word_fails_fast(self, capsys):
        # a 120 KB edge word that cancels from the middle outwards
        half = ["e1", "e2"] * 10_000
        spec = "c0:c1:" + ",".join(half + half[::-1])
        assert len(spec) > 120_000
        t0 = time.perf_counter()
        code, data = run_json(capsys, "decide", "--two-bridge", "2,2,2", "--transverse", spec)
        assert time.perf_counter() - t0 < 1
        assert code == 0 and data["verdict"] == "CrossingArcEquivalent"

    def test_long_middle_block(self, capsys):
        # the flype chain builds at most two diagrams however long the twist
        # region is
        code, data = run_json(capsys, "decide", "--two-bridge", "2,80,2",
                              "--crossing-arc", "A2:0")
        assert code == 0
        assert data["verdict"] == "FreeGeometricallyFinite"
        assert len(set(data["witness"]["wings"]["first"]
                       + data["witness"]["wings"]["second"])) == 4

    def test_very_long_middle_block(self, capsys):
        # each of the two flypes is linear in the crossing count
        t0 = time.perf_counter()
        code, data = run_json(capsys, "decide", "--two-bridge", "2,2000,2",
                              "--crossing-arc", "A2:0")
        assert time.perf_counter() - t0 < 2
        assert code == 0 and data["verdict"] == "FreeGeometricallyFinite"
        assert data["flype"]["flype_steps"] == 2


class TestPingpong:
    def test_certified(self, capsys):
        code, data = run_json(capsys, "pingpong", "[[1,0],[4,1]]", "[[9,-16],[4,-7]]",
                              "--words", "6")
        assert code == 0
        assert data["verdict"] == "FreeCertified" and data["no_trivial_word"] is True
        assert data["checked_words"] == 6

    def test_commuting(self, capsys):
        code, data = run_json(capsys, "pingpong", "[[1,0],[4,1]]", "[[1,0],[4,1]]", "--words", "3")
        assert code == 1
        assert data["verdict"] == "Commuting" and "checked_words" not in data

    def test_inconclusive(self, capsys):
        code, data = run_json(capsys, "pingpong", "[[1,0],[1,1]]", "[[2,-1],[1,0]]")
        assert code == 1
        assert data["verdict"] == "Inconclusive"

    def test_non_parabolic_exit(self, capsys):
        code, _, err = run(capsys, "pingpong", "[[2,0],[0,\"1/2\"]]", "[[1,0],[4,1]]")
        assert code == 2
        # z -> iz as diag(1 + i, 1 - i): determinant 2, no square root to scale by
        code, out, err = run(capsys, "pingpong", "[[[1,1],0],[0,[1,-1]]]", "[[1,0],[4,1]]")
        assert code == 2 and out == "" and "determinant must be 1" in err

    def test_exact_mode_bad_entries_exit(self, capsys):
        for m1 in ('[["1/0",0],[4,1]]', '[[["1","1/0"],0],[4,1]]', '[["x",0],[4,1]]',
                   '[[null,0],[4,1]]', '[[[[1],0],0],[4,1]]', '[[NaN,0],[4,1]]',
                   '[[1,0],[4.0,1]]', '[[1,0],[[4.0,0],1]]', '[[true,0],[4,true]]'):
            code, out, err = run(capsys, "pingpong", m1, "[[9,-16],[4,-7]]")
            assert code == 2, m1
            assert out == "" and err.startswith("error:"), m1

    def test_words_range(self, capsys):
        from cuspcubes.pingpong import MAX_WORD_LENGTH
        for n in (-1, MAX_WORD_LENGTH + 1):
            code, out, err = run(capsys, "pingpong", "[[1,0],[4,1]]", "[[9,-16],[4,-7]]",
                                 "--words", str(n))
            assert code == 2, n
            assert out == "" and err.startswith("error:") and "word length" in err, n
        code, data = run_json(capsys, "pingpong", "[[1,0],[4,1]]", "[[9,-16],[4,-7]]",
                              "--words", "0")
        assert code == 0 and "checked_words" not in data

    def test_huge_words_fails_fast(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "pingpong", "[[1,0],[4,1]]", "[[9,-16],[4,-7]]",
                             "--words", "100000000")
        assert time.perf_counter() - t0 < 1
        assert code == 2 and out == "" and "word length" in err

    def test_mode_env_variable_ignored(self, capsys, monkeypatch):
        # only --mode selects float mode
        monkeypatch.setenv("CUSPCUBES_MODE", "float")
        code, data = run_json(capsys, "pingpong", "[[1,0],[4,1]]", "[[9,-16],[4,-7]]")
        assert code == 0 and "numeric" not in data

    def test_float_mode_words_exit(self, capsys):
        pair = ("[[1,0],[4,1]]", "[[9,-16],[4,-7]]")
        code, out, err = run(capsys, "pingpong", *pair, "--words", "5", "--mode", "float")
        assert code == 2 and out == "" and "exact mode" in err
        code, data = run_json(capsys, "pingpong", *pair, "--words", "0", "--mode", "float")
        assert code == 0 and data["numeric"] is True

    def test_float_mode_singularity_scales(self, capsys):
        # det = 1e-14 is far below the tolerance but not a rounding of 0
        small = '[["9/10000000","-16/10000000"],["4/10000000","-7/10000000"]]'
        for mode in ("exact", "float"):
            code, data = run_json(capsys, "pingpong", "[[1,0],[4,1]]", small, "--mode", mode)
            assert code == 0 and data["verdict"] == "FreeCertified", mode
        for m2 in ("[[0.1,0.3],[0.2,0.6]]", "[[1,2],[2,4]]"):
            code, out, err = run(capsys, "pingpong", "[[1,0],[4,1]]", m2, "--mode", "float")
            assert code == 2 and out == "" and "singular" in err, m2

    def test_float_mode_verdicts(self, capsys):
        for m2, verdict in (("[[9,-16],[4,-7]]", "FreeCertified"), ("[[1,0],[4,1]]", "Commuting")):
            code, data = run_json(capsys, "pingpong", "[[1,0],[4,1]]", m2, "--mode", "float")
            assert data["verdict"] == verdict and code == (verdict != "FreeCertified")
        code, data = run_json(capsys, "pingpong", "[[1,0],[1,1]]", "[[2,-1],[1,0]]",
                              "--mode", "float")
        assert code == 1 and data["verdict"] == "Inconclusive" and "diagnostic" in data

    def test_float_mode_string_entries(self, capsys):
        code0, data0 = run_json(capsys, "pingpong", '[[1,0],["8/2",1]]', "[[9,-16],[4,-7]]")
        assert data0["verdict"] == "FreeCertified"
        for m1 in ('[[1,0],["8/2",1]]', '[[1,0],[["8/2","0"],1]]', '[[1,0],[[4.0,0],"1"]]'):
            code, data = run_json(capsys, "pingpong", m1, "[[9,-16],[4,-7]]", "--mode", "float")
            assert code == code0, m1
            assert data["numeric"] is True
            assert data["verdict"] == data0["verdict"]

    def test_float_mode_bad_entries_exit(self, capsys):
        big = "9" * 400           # finite in JSON, too large for a float
        for m1 in ('[[1,0],["x",1]]', '[[1,0],[[1,2,3],1]]', '[[1,0],[true,1]]',
                   '[[1,0],["1/0",1]]', '[[1,0],[{},1]]', '[1,2]', '[[1,0],[1e400,1]]',
                   '[[1,0],["1e400",1]]', f'[[1,0],[{big},1]]', f'[[1,0],["{big}",1]]',
                   '[[1,0],[NaN,1]]', '[[1,0],[-Infinity,1]]', '[[1e200,0],[0,1e200]]'):
            code, out, err = run(capsys, "pingpong", m1, "[[9,-16],[4,-7]]", "--mode", "float")
            assert code == 2, m1
            assert out == "" and err.startswith("error:"), m1

    def test_long_entry_strings_exit_fast(self, capsys):
        from cuspcubes.pingpong import MAX_ENTRY_CHARS
        for entry in ("1e100000", "1e10000000", "1E5", "1" * (MAX_ENTRY_CHARS + 1)):
            for mode in ("exact", "float"):
                t0 = time.perf_counter()
                code, out, err = run(capsys, "pingpong", f'[[1,0],["{entry}",1]]', "[[1,1],[0,1]]",
                                     "--mode", mode)
                assert time.perf_counter() - t0 < 0.1, (entry[:12], mode)
                assert code == 2 and out == "" and err.startswith("error:") and len(err) < 200

    def test_long_integer_entries_exit(self, capsys):
        from cuspcubes.pingpong import MAX_ENTRY_CHARS
        for big in (str(10 ** MAX_ENTRY_CHARS), "9" * 2500):
            for entry in (big, "-" + big):
                code, out, err = run(capsys, "pingpong", f"[[1,0],[{entry},1]]", "[[1,1],[0,1]]")
                assert code == 2 and out == ""
                assert err == (f"error: integer entries have at most MAX_ENTRY_CHARS = "
                               f"{MAX_ENTRY_CHARS} digits\n")
        code, _, _ = run(capsys, "pingpong", f"[[1,0],[{'9' * MAX_ENTRY_CHARS},1]]", "[[1,1],[0,1]]")
        assert code in (0, 1)

    def test_tolerance_validated(self, capsys):
        for tol in ("nan", "-1", "0", "inf", "-inf"):
            code, out, err = run(capsys, "pingpong", "[[1,0],[4,1]]", "[[9,-16],[4,-7]]",
                                 "--mode", "float", f"--tolerance={tol}")
            assert code == 2 and out == "" and "tolerance must be a finite number > 0" in err

    def test_exact_mode_tolerance_exit(self, capsys):
        # exact mode has no tolerance, so any --tolerance would be ignored
        for tol in ("-5", "1e-12", "0.5"):
            for mode in ((), ("--mode", "exact")):
                code, out, err = run(capsys, "pingpong", "[[1,0],[4,1]]", "[[9,-16],[4,-7]]",
                                     *mode, "--tolerance", tol)
                assert code == 2 and out == "", (tol, mode)
                assert err == "error: --tolerance needs float mode: exact mode has no tolerance\n"

    def test_deeply_nested_matrix_exit(self, capsys):
        for m1, m2 in (("[" * 100000, "[[1,0],[4,1]]"), ("[[1,0],[4,1]]", "[" * 5000 + "]" * 5000)):
            for mode in ("exact", "float"):
                code, out, err = run(capsys, "pingpong", m1, m2, "--mode", mode)
                assert code == 2 and out == ""
                assert err == "error: malformed: JSON nested too deeply in a matrix\n"

    def test_gaussian_entries(self, capsys):
        code, data = run_json(capsys, "pingpong", "[[1,0],[[1,1],1]]", "[[9,-16],[4,-7]]")
        assert code in (0, 1)
        assert data["verdict"] in ("FreeCertified", "Inconclusive")
        # fixed points 1+i and -1-2i, c = 2+i and 1-2i
        code, data = run_json(capsys, "pingpong", '[[["2","3"],["2","-4"]],[["2","1"],["0","-3"]]]',
                                  '[[["-4","0"],["-5","-10"]],[["1","-2"],["6","0"]]]',
                                  "--words", "5")
        assert code == 0 and data["verdict"] == "FreeCertified"
        assert data["no_trivial_word"] is True and data["conjugator"]


class TestLibraryAnswer:
    """The dict a library function returns is what the CLI prints: it
    serializes with no default= hook, follows its schema and reads back
    equal to the CLI's output."""

    @staticmethod
    def check(capsys, answer, schema, argv):
        text = json.dumps(answer)
        validate(answer, schema)
        code, out, _ = run(capsys, *argv)
        assert json.loads(out) == answer == json.loads(text), argv
        return code

    def test_decide(self, capsys, tmp_path):
        from cuspcubes.decide import classify_2bridge_pair, classify_alternating_pair
        from cuspcubes.diagram import (AlternatingDiagram, CrossingArc, InRegionArc,
                                       TransverseArc, crossings_adjacent_on_region,
                                       two_bridge_diagram)
        d = two_bridge_diagram((3, 3)).diagram
        R, a, b = next((R, a, b) for R in d.regions for a in R.distinct_crossings
                       for b in R.distinct_crossings
                       if a < b and not crossings_adjacent_on_region(d, R.index, a, b))
        f = tmp_path / "d.json"
        f.write_text(json.dumps({"pd": [list(x) for x in d.pd_code()]}))
        d = AlternatingDiagram.from_json(json.loads(f.read_text()))
        tunnel, middle = two_bridge_diagram((2, 2)), two_bridge_diagram((2, 1, 2))
        cases = [
            (classify_2bridge_pair(tunnel, CrossingArc(tunnel.crossings_in(1)[0])),
             ["--two-bridge", "2,2", "--crossing-arc", "A1:0"]),
            (classify_2bridge_pair(middle, CrossingArc(middle.crossings_in(2)[0])),
             ["--two-bridge", "2,1,2", "--crossing-arc", "A2:0"]),
            (classify_2bridge_pair(middle, CrossingArc(middle.crossings_in(2)[0]), mirror=True),
             ["--two-bridge", "2,1,2", "--crossing-arc", "A2:0", "--mirror"]),
            (classify_alternating_pair(d, InRegionArc(R.index, a, b)),
             ["--pd", str(f), "--in-region", f"R{R.index}:c{a}:c{b}"]),
            (classify_alternating_pair(d, TransverseArc(a, b, (1, 2))),
             ["--pd", str(f), "--transverse", f"c{a}:c{b}:e1,e2"]),
        ]
        verdicts = set()
        for answer, argv in cases:
            assert self.check(capsys, answer, "decide.verdict.v1", ["decide", *argv]) == 0
            verdicts.add((answer["verdict"], "witness" in answer, "flype" in answer))
        assert len(verdicts) == 4

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_pingpong(self, capsys, mode):
        from cuspcubes.pingpong import (FREE_CERTIFIED, float_entry, pingpong_certificate,
                                        pingpong_certificate_float)
        from test_pingpong import NAMED_PAIRS, matrix_json
        verdicts = set()
        for name, (m1, m2) in NAMED_PAIRS.items():
            if mode == "exact":
                answer = pingpong_certificate(m1, m2)
            else:
                answer = pingpong_certificate_float(
                    *([[float_entry(e) for e in row] for row in matrix_json(m)] for m in (m1, m2)))
            argv = ["pingpong", json.dumps(matrix_json(m1)), json.dumps(matrix_json(m2)), "--mode", mode]
            code = self.check(capsys, answer, "pingpong.certificate.v1", argv)
            assert code == (answer["verdict"] != FREE_CERTIFIED), name
            verdicts.add(answer["verdict"])
        assert len(verdicts) == 2


class TestConflictingFlags:
    """Two flags that name the diagram, or two that name the arc, exit 2
    in argparse; an empty value counts as given."""

    @pytest.mark.parametrize("cmd", [["cubing"], ["svg", "-o", "unused.svg"],
                                     ["decide", "--crossing-arc", "A1:0"]])
    def test_two_bridge_with_pd(self, capsys, tmp_path, monkeypatch, cmd):
        monkeypatch.chdir(tmp_path)
        Path("p.json").write_text(json.dumps({"pd": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]}))
        for tb in ("2,2", ""):
            err = refused(capsys, *cmd, "--two-bridge", tb, "--pd", "p.json")
            assert "error: argument --pd: not allowed with argument --two-bridge" in err, tb
            err = refused(capsys, *cmd, "--pd", "p.json", "--two-bridge", tb)
            assert "error: argument --two-bridge: not allowed with argument --pd" in err, tb
        assert sorted(f.name for f in tmp_path.iterdir()) == ["p.json"]

    @pytest.mark.parametrize("first, second", [
        ("--crossing-arc", "--in-region"), ("--crossing-arc", "--transverse"),
        ("--in-region", "--transverse")])
    def test_two_arc_flags(self, capsys, first, second):
        spec = {"--crossing-arc": "A1:0", "--in-region": "R0:c0:c1", "--transverse": "c0:c1:e1"}
        for a, b in ((spec[first], spec[second]), ("", spec[second]), (spec[first], "")):
            err = refused(capsys, "decide", "--two-bridge", "2,2", first, a, second, b)
            assert f"error: argument {second}: not allowed with argument {first}" in err, (a, b)


class TestSvg:
    def test_write(self, capsys, tmp_path):
        out_file = tmp_path / "fig8.svg"
        code, data = run_json(capsys, "svg", "--two-bridge", "2,2", "-o", str(out_file))
        assert code == 0
        assert data == {"written": str(out_file), "circles": 6}
        assert out_file.read_text().startswith("<svg")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "svg", "--pd", "/nonexistent.json", "-o", "/tmp/x.svg")
        assert code == 2


class TestErrors:
    def test_package_errors_are_value_errors(self):
        # main turns OSError and ValueError into exit 2 with one error line
        from cuspcubes import cubing, decide, diagram, farey, pingpong, polyhedra
        errors = [obj for mod in (cubing, decide, diagram, farey, pingpong, polyhedra)
                  for obj in vars(mod).values()
                  if isinstance(obj, type) and issubclass(obj, Exception)
                  and obj.__module__ == mod.__name__]
        assert len(errors) == 6
        assert all(issubclass(err, ValueError) for err in errors), errors

    def test_unparsable_json_exit(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{")
        code, out, err = run(capsys, "decide", "--pd", str(f), "--crossing-arc", "c0")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


FIG8 = two_bridge_diagram((2, 2)).diagram
TREFOIL = AlternatingDiagram.from_pd([[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]])
KINKED = {"pd": [[1, 1, 2, 2]]}         # one crossing, two nugatory loops
WHITE_OF_FIG8 = next(R.index for R in FIG8.regions if R.color == DG.WHITE)
TB2222 = two_bridge_diagram((2, 2, 2, 2)).diagram
BLACKS_OF_TB2222 = tuple(R.index for R in TB2222.regions if R.color == DG.BLACK)


def _flype_off_the_standard_diagram():
    # a TwoBridgeDiagram holding a pretzel diagram under (3,3,3) labels: the
    # tail past A_2's first crossing is no flype disk there
    tb = DG.TwoBridgeDiagram((3, 3, 3), DG.pretzel_diagram(3, 3, 3), (1,) * 3 + (2,) * 3 + (3,) * 3)
    return DG.flype(tb, 2)


class TestErrorBranches:
    """Every error branch of src/ that an input reaches, in one table: an
    argv through cli.main ("F" names a file holding the JSON given) with
    exit 2 and its stderr line (the last line, after argparse's usage, for
    what argparse refuses), or, for a branch that only the library reaches,
    the call with its error class and message.  tests/error_branch_census.py
    lists the statements that no test runs."""

    TABLE = [
        (["decide", "--pd", "F", "--crossing-arc", "A1:0"], FIG8.to_json(),
         "error: twist-region arcs need a --two-bridge diagram"),
        (["cubing", "--pd", "F"], KINKED, "error: the cubed decomposition requires a reduced diagram"),
        (["decide", "--pd", "F", "--crossing-arc", "c0"], KINKED,
         "error: classification requires a prime reduced alternating diagram"),
        (["svg", "--pd", "F", "-o", "unused.svg"], {"pd": [[1, 2, 2, 1], [3, 4, 3]]},
         "error: malformed: every PD entry needs four edge labels"),
        (["cubing", "--pd", "F"], {"rotation": [[[0, 0], [0, 1]]]},
         "error: malformed: every slot must be paired exactly once"),
        (["cubing", "--pd", "F"], {"rotation": [[[-1, 0], [-1, 1]]]},
         "error: malformed: a diagram needs at least one crossing"),
        (["decide", "--pd", "F", "--crossing-arc", "c99"], FIG8.to_json(), "error: no crossing 99"),
        (["decide", "--two-bridge", "2,2", "--crossing-arc", "c99"], None, "error: no crossing 99"),
        (["decide", "--pd", "F", "--transverse", "c99:c0:e1"], FIG8.to_json(), "error: no crossing 99"),
        (["decide", "--two-bridge", "2,3,1,2,2", "--transverse", "c4:c8:e0,e0"], None,
         "error: empty reduced word but the endpoints share no region; malformed arc"),
        # the reason does not hold: both fixed points (0 and 2) are finite,
        # but float mode calls a map's fixed point infinite when |c| < T
        (["pingpong", "[[1,0],[4,1]]", "[[9,-16],[4,-7]]", "--mode", "float", "--tolerance", "5"], None,
         "error: could not move both fixed points into the plane"),
        (["cubing"], None,
         "cuspcubes cubing: error: one of the arguments --two-bridge --pd --corpus is required"),
        (["cubing", "--corrupt", "5"], None,
         "cuspcubes cubing: error: one of the arguments --two-bridge --pd --corpus is required"),
        (["decide", "--two-bridge", "2,2"], None,
         "cuspcubes decide: error: one of the arguments --crossing-arc --in-region --transverse is required"),
        (["decide", "--crossing-arc", "c0"], None,
         "cuspcubes decide: error: one of the arguments --two-bridge --pd is required"),
        (["svg", "-o", "unused.svg"], None,
         "cuspcubes svg: error: one of the arguments --two-bridge --pd is required"),
        # the first index past each range of the figure-eight (n = 4): crossing
        # n, region n + 2, edge 2n and endpoint n, given as a PD file and as a
        # twist sequence
        *[(argv + arc, data, expected)
          for argv, data in ((["decide", "--pd", "F"], FIG8.to_json()), (["decide", "--two-bridge", "2,2"], None))
          for arc, expected in ((["--crossing-arc", "c4"], "error: no crossing 4"),
                                (["--in-region", "R6:c0:c1"], "error: no region 6"),
                                (["--in-region", "R0:c4:c0"], "error: crossing 4 is not on the boundary of region 0"),
                                (["--transverse", "c4:c0:e1"], "error: no crossing 4"),
                                (["--transverse", "c0:c4:e1"], "error: no crossing 4"),
                                (["--transverse", "c0:c1:e8"], "error: no edge 8"))],
        # the trefoil has two black and three white regions: a torus link
        *[(["decide", "--pd", "F", *arc], TREFOIL.to_json(),
           "error: 2 black / 3 white regions: torus-link form, not a hyperbolic alternating link")
          for arc in (["--in-region", "R0:c0:c1"], ["--transverse", "c0:c1:e0"])],
        (lambda: FA.Slope(1, -1), FA.FareyError, "denominator must be non-negative (use reduce_slope)"),
        (lambda: FA.Slope(2, 0), FA.FareyError, "infinity must be stored as 1/0 (use reduce_slope)"),
        (lambda: FA.Slope(0, 0), FA.FareyError, "infinity must be stored as 1/0 (use reduce_slope)"),
        (lambda: FA.Slope(2, 4), FA.FareyError, "2/4 is not reduced (use reduce_slope)"),
        (lambda: AlternatingDiagram(2, [(0, 5)]), DiagramError,
         "malformed: every slot must be paired exactly once"),
        (lambda: AlternatingDiagram(1, [(0, 0), (1, 2)]), DiagramError,
         "malformed: every slot must be paired exactly once"),
        (lambda: DG.find_small_white_region(TREFOIL, DG.BLACK), DiagramError,
         "no qualifying small region found; this contradicts the structure of prime alternating "
         "diagrams of hyperbolic links and indicates a bug or bad input"),
        (lambda: DG.flype(two_bridge_diagram((2, 3, 2)), 2, crossing=0), DiagramError,
         "crossing 0 is not in twist region A_2"),
        (_flype_off_the_standard_diagram, DiagramError, "no flype chain found for the crossing arc at 3"),
        (lambda: DC.witness_spare_region(FIG8, (WHITE_OF_FIG8,), DG.BLACK, build_polyhedra(FIG8)),
         DC.DecideError, "wing regions must all have the witness color"),
        (lambda: DC.witness_spare_region(TB2222, BLACKS_OF_TB2222, DG.BLACK, build_polyhedra(TB2222)),
         DC.DecideError, "the wings use all 5 regions of the witness color; no spare region is left"),
        (lambda: DC.classify_alternating_pair(FIG8, "c0"), DC.DecideError,
         "unknown arc specification: 'c0'"),
        (lambda: DC.classify_2bridge_pair(FIG8, DG.CrossingArc(0)), DC.DecideError,
         "need a twist sequence or a standard two-bridge diagram"),
    ]

    @pytest.mark.parametrize("target, data, expected", TABLE)
    def test_error_branch(self, capsys, tmp_path, monkeypatch, target, data, expected):
        if callable(target):
            with pytest.raises(ValueError) as exc:
                target()
            assert (type(exc.value), str(exc.value)) == (data, expected)
            return
        monkeypatch.chdir(tmp_path)
        if data is not None:
            Path("F").write_text(json.dumps(data))
        try:
            code = main(target)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        if expected.startswith("error: "):
            assert out.err == expected + "\n"
        else:
            assert out.err.startswith("usage: ") and out.err.endswith("\n" + expected + "\n")
        assert [f.name for f in tmp_path.iterdir()] == ["F"] * (data is not None)


class TestPretty:
    def test_indented(self, capsys):
        code, out, _ = run(capsys, "--pretty", "farey", "dist", "0/1", "1/0")
        assert code == 0 and out.startswith("{\n")


class TestParserReuse:
    # each flag with and without it, in one process, argparse errors between
    M1, M2 = "[[1,0],[4,1]]", "[[9,-16],[4,-7]]"
    ARGVS = [
        ["--pretty", "farey", "classify-2bridge", "1/3", "4/3", "--oriented"],
        ["farey", "classify-2bridge", "1/3", "4/3"],
        ["farey", "nosuch", "1/3"],
        ["farey", "hyperbolic", "2/5", "--p3"],
        ["farey", "hyperbolic", "2/5"],
        ["farey", "classify-p3", "2/5", "-5/2", "--oriented"],
        ["farey", "classify-p3", "2/5", "-5/2"],
        ["cubing", "--two-bridge", "2,2", "--mirror", "--bogus"],
        ["decide", "--two-bridge", "2,1,2", "--crossing-arc", "A2:0", "--mirror"],
        ["decide", "--two-bridge", "2,1,2", "--crossing-arc", "A2:0"],
        ["cubing", "--two-bridge", "2,2", "--mirror"],
        ["cubing", "--two-bridge", "2,2"],
        ["pingpong", M1, M2, "--mode", "float", "--tolerance", "1e-9"],
        ["pingpong", M1],
        ["pingpong", M1, M2, "--words", "4"],
        ["pingpong", M1, M2],
        ["--pretty", "pingpong", M1, M2, "--mode", "float"],
        ["pingpong", M1, M2, "--mode", "quadruple"],
        ["pingpong", M1, M2, "--words", "3"],
        ["farey", "dist", "-5/2", "2/5"],
    ]

    def call(self, capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_outputs_match_fresh_parser(self, capsys):
        assert build_parser() is build_parser()
        reused = [self.call(capsys, argv) for argv in self.ARGVS]
        fresh = []
        for argv in self.ARGVS:
            build_parser.cache_clear()
            fresh.append(self.call(capsys, argv))
        assert reused == fresh
        assert [code for code, _, _ in reused].count(("SystemExit", 2)) == 4

    # one argv of each operation shape that perfbench's workloads run
    WORKLOAD_FORMS = [
        ["cubing", "--pd", "d.json", "--mirror", "--emit-complex", "complex.json"],
        ["cubing", "--pd", "d.json", "--corrupt", "7"],
        ["cubing", "--corpus", "corpus", "--jobs", "2"],
        ["decide", "--two-bridge", "2,16,2", "--crossing-arc", "A2:3", "--mirror"],
        ["decide", "--pd", "d.json", "--in-region", "R1:c0:c2"],
        ["decide", "--pd", "d.json", "--transverse", "c0:c3:e1,e2"],
        ["pingpong", M1, '[["9/2",[-16,"1/3"]],[4,-7]]', "--words", "7"],
        ["pingpong", M1, M2, "--mode", "float"],
        ["farey", "dist", "1/0", "-12/5"],
        ["farey", "cf", "-3/7"],
        ["farey", "covering-slope", "3/7"],
        ["farey", "classify-2bridge", "1/3", "4/3", "--oriented"],
        ["farey", "hyperbolic", "2/5", "--p3"],
        ["svg", "--pd", "d.json", "-o", "figure.svg"],
    ]

    def test_walk_alone_reads_well_formed_leaf_forms(self, monkeypatch):
        def no_parse(self, *args, **kwargs):
            raise AssertionError("argparse parse")
        forms = [argv for argv in self.ARGVS if argv[0] != "--pretty" and "nosuch" not in argv
                 and "--bogus" not in argv and "quadruple" not in argv and argv != ["pingpong", self.M1]]
        assert len(forms) == 14
        expected = [vars(build_parser().parse_args(argv)) for argv in forms + self.WORKLOAD_FORMS]
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", no_parse)
        assert [vars(cli._parse_args(argv)) for argv in forms + self.WORKLOAD_FORMS] == expected


class TestWalk:
    """_walk on leaf parsers unlike cuspcubes' own: an argv that it reads
    gets the namespace of parse_known_args, and any other is handed over."""
    @staticmethod
    def leaf(required_group=False, optional_positional=False):
        p = argparse.ArgumentParser(prog="leaf")
        p.add_argument("-1x", dest="one")               # starts like a negative number
        p.add_argument("--level", type=int, default="3")  # a str default goes through type
        p.add_argument("--kind", choices=("a", "b"), default="a")
        p.add_argument("n", type=int, nargs="?" if optional_positional else None)
        group = p.add_mutually_exclusive_group(required=required_group)
        group.add_argument("--a", action="store_true")
        group.add_argument("--b", action="store_true")
        return p

    @pytest.mark.parametrize("argv", [["5"], ["--a", "5", "--level", "4"], ["5", "-1x", "v"],
                                      ["--kind", "b", "5", "--b", "--b"]])
    def test_read(self, argv):
        # a leaf whose group is required reads the argvs that give the group
        leaves = [self.leaf(), self.leaf(required_group=True)]
        for leaf in leaves if "--a" in argv or "--b" in argv else leaves[:1]:
            args = cli._walk(cli._leaf_table(leaf, {"command": "x"}), argv)
            assert vars(args) == vars(leaf.parse_known_args(argv, argparse.Namespace(command="x"))[0])

    @pytest.mark.parametrize("argv", [["-5"], ["-1"], ["5", "--a", "--b"], ["5", "6"], [],
                                      ["--level", "x", "5"], ["--kind", "c", "5"], ["5", "--kind"],
                                      ["5", "--level=4"], ["5", "-h"], ["5", "--lev", "4"]])
    def test_handed_over(self, argv):
        assert cli._walk(cli._leaf_table(self.leaf(), {}), argv) is None

    def test_other_kinds_are_handed_over(self):
        # an optional positional, and a required group that argv leaves out
        assert cli._walk(cli._leaf_table(self.leaf(optional_positional=True), {}), ["5", "--a"]) is None
        assert cli._walk(cli._leaf_table(self.leaf(required_group=True), {}), ["5"]) is None


# well-typed values of the leaves' own options and positionals, by dest
LEAF_VALUES = {"r": ["1/3", "-5/2", "-5/-2", "2/5", "3", "-3", "1/0"], "s": ["4/3", "-12/5", "0"],
               "m1": [TestParserReuse.M1, '[["9/2",[-16,"1/3"]],[4,-7]]'], "m2": [TestParserReuse.M2],
               "two_bridge": ["2,2", "2,1,2"], "pd": ["d.json"], "corpus": ["corpus"],
               "emit_complex": ["complex.json"], "crossing_arc": ["A2:0", "c3"],
               "in_region": ["R3:c0:c2"], "transverse": ["c0:c2:e1,e2"], "output": ["figure.svg"]}


def leaves(parser, chain=()):
    """(command words, leaf parser) of every leaf under parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(chain, parser)]
    return [leaf for word, sub in subs[0].choices.items() for leaf in leaves(sub, chain + (word,))]


def typed_value(action):
    """A value token of the action's type or choices."""
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    if action.type is int:
        return st.integers(-5, 40).map(str)
    if action.type is float:
        return st.sampled_from(["1e-9", "0.5", "-0.5", "3"])
    return st.sampled_from(LEAF_VALUES[action.dest])


@st.composite
def leaf_argvs(draw):
    """(command words, rest): a leaf's positionals in order, with its
    options among them: one action of each required exclusive group and at
    most one of any other, any other option up to twice and a required one
    at least once, each with a value of its type."""
    chain, leaf = draw(st.sampled_from(leaves(build_parser())))
    groups = leaf._mutually_exclusive_groups
    grouped = {a for g in groups for a in g._group_actions}
    counts = {a: draw(st.integers(1 if a.required else 0, 2)) for a in leaf._actions
              if a.option_strings and a.dest != "help" and a not in grouped}
    for a in (draw(st.sampled_from([None] * (not g.required) + g._group_actions)) for g in groups):
        if a is not None:
            counts[a] = draw(st.integers(1, 2))
    units = [[draw(st.sampled_from(a.option_strings))] + ([] if a.nargs == 0 else [draw(typed_value(a))])
             for a, k in counts.items() for _ in range(k)]
    positionals = [draw(typed_value(a)) for a in leaf._actions if not a.option_strings]
    order, values = draw(st.permutations(units + [None] * len(positionals))), iter(positionals)
    return chain, [t for unit in order for t in (unit or [next(values)])]


class TestRoute:
    """cli.main reads argv by the walk, or by the full nested parse when the
    walk cannot settle it; every outcome must be the one of the full parse."""
    WORDS = ["farey", "dist", "cf", "covering-slope", "classify-2bridge", "classify-p3",
             "hyperbolic", "cubing", "decide", "pingpong", "svg", "nosuch"]
    FLAGS = ["--pretty", "--oriented", "--p3", "--two-bridge", "--pd", "--corpus", "--jobs",
             "--emit-complex", "--corrupt", "--mirror", "--crossing-arc", "--in-region",
             "--transverse", "--words", "--mode", "--tolerance", "-o", "--output",
             "--pre", "--two", "--cross", "--or", "--p", "--m", "--t", "--w", "--tol=1e-9",
             "--pretty=1", "--mode=float", "--words=3", "-ofile", "-h", "--help", "--h", "--",
             "--=x", "--bogus", "-x"]
    # tokens come from one pool, so "-x" and each flag also stand where a value goes;
    # "٣", "1_0" and "+3" are ints to int(), "0x1" is not
    VALUES = ["1/3", "-5/2", "-5/-2", "2/5", "3", "-3", "inf", "0", "4", "-1", "1e-9", "2,2",
              "A2:0", "c3", "R3:c0:c2", "exact", "float", "quadruple",
              TestParserReuse.M1, TestParserReuse.M2,
              "[1,2]", "", "x", " -1", "-", "٣", "1_0", "+3", "0x1"]
    CHAINS = [(), ("--pretty",), ("farey",), ("cubing",), ("decide",), ("pingpong",),
              ("svg",)] + [("farey", word) for word in WORDS[1:7]]

    @staticmethod
    def outcome(parse, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return "parsed", vars(parse(list(argv)))
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()

    @settings(max_examples=1500)
    @given(st.tuples(st.sampled_from(CHAINS),
                     st.lists(st.sampled_from(WORDS + FLAGS + VALUES), max_size=7)))
    def test_route_matches_full_parse(self, chain_rest):
        chain, rest = chain_rest
        argv = list(chain) + rest
        assert self.outcome(cli._parse_args, argv) == self.outcome(build_parser().parse_args, argv)

    @settings(max_examples=1500)
    @given(leaf_argvs())
    def test_walk_reads_well_typed_leaf_argvs(self, chain_rest):
        # every such argv is read by the walk alone, as the full parse reads it
        chain, rest = chain_rest
        route = cli._leaf_routes(build_parser())
        for word in chain:
            route = route[word]
        assert cli._walk(route, rest) is not None
        argv = list(chain) + rest
        assert self.outcome(cli._parse_args, argv) == self.outcome(build_parser().parse_args, argv)


# ---------------------------------------------------------------------------
# the CLI contract on generated input
# ---------------------------------------------------------------------------

SMALL_INT = st.integers(-3, 12)
# JSON values that a mutation puts in place of a node
JSON_LEAF = st.one_of(st.integers(-5, 60), st.sampled_from(
    [10 ** 9, -1, True, False, None, 1.5, "1", "", [], {}, [[0, 0]], [1, 2, 3, 4]])).map(
        lambda v: json.loads(json.dumps(v)))          # a fresh copy, which later mutations may edit


def _nodes(value, path=()):
    """(path, value) of every node of a JSON value, the root first."""
    yield path, value
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nodes(item, path + (i,))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))


@st.composite
def mutated_json(draw, value):
    """value with up to three mutations, each at a node: replaced by a leaf,
    deleted, duplicated, wrapped in a list, or given a second diagram field."""
    value = json.loads(json.dumps(value))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        nodes = list(_nodes(value))
        path, node = draw(st.sampled_from(nodes))
        op = draw(st.sampled_from(["replace", "delete", "duplicate", "wrap", "field"]))
        if op == "field" and isinstance(value, dict):
            value[draw(st.sampled_from(["pd", "rotation", "note"]))] = draw(JSON_LEAF)
            continue
        if not path:
            value = [value] if op == "wrap" else draw(JSON_LEAF)
            continue
        *head, key = path
        parent = value
        for k in head:
            parent = parent[k]
        if op == "delete":
            del parent[key]
        elif op == "duplicate" and isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(node)))
        elif op == "wrap":
            parent[key] = [node]
        else:
            parent[key] = draw(JSON_LEAF)
    return value


def _diagram_inputs():
    shapes = [two_bridge_diagram(seq).diagram for seq in ((2, 2), (2, 1, 2), (3, 1, 1, 3))]
    shapes += [DG.pretzel_diagram(3, 3, 3), TREFOIL]
    return ([d.to_json() for d in shapes]
            + [{"pd": [list(x) for x in d.pd_code()]} for d in shapes] + [KINKED])


DIAGRAM_INPUTS = _diagram_inputs()
SEQUENCE = st.one_of(
    st.tuples(st.integers(2, 5), st.lists(st.integers(1, 5), max_size=3), st.integers(2, 5)).map(
        lambda t: ",".join(map(str, (t[0], *t[1], t[2])))),
    st.lists(st.integers(-1, 6), max_size=5).map(lambda a: ",".join(map(str, a))),
    st.text("0123456789,- x", max_size=8))
SLOPE = st.one_of(st.integers(-99, 99).map(str), st.sampled_from(["inf", "oo", "1/0", "0/0", "x", ""]),
                  st.tuples(st.integers(-60, 60), st.integers(-60, 60)).map(lambda qp: f"{qp[0]}/{qp[1]}"),
                  st.text("0123456789/-.e ", max_size=8))
ENTRY = st.one_of(st.integers(-20, 20), st.sampled_from(["1/2", "-16/3", "1/0", "x", 0.5, 1e300, True, None]),
                  st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(list))
PARABOLIC = [[[1, 1], [0, 1]], [[1, 0], [4, 1]], [[9, -16], [4, -7]], [[1, 0], [1, 1]], [[2, -1], [1, 0]],
             [[1, 0], [[1, 1], 1]], [[1, "1/2"], [0, 1]], [[3, -4], [1, -1]]]
MATRIX = st.one_of(st.sampled_from(PARABOLIC), st.sampled_from(PARABOLIC),
                   st.lists(st.lists(ENTRY, min_size=2, max_size=2), min_size=2, max_size=2))
ARC = st.one_of(
    st.tuples(st.integers(1, 4), st.integers(0, 2)).map(lambda ik: ["--crossing-arc", f"A{ik[0]}:{ik[1]}"]),
    st.tuples(SMALL_INT, SMALL_INT).map(lambda ik: ["--crossing-arc", f"A{ik[0]}:{ik[1]}"]),
    SMALL_INT.map(lambda i: ["--crossing-arc", f"c{i}"]),
    st.tuples(SMALL_INT, SMALL_INT, SMALL_INT).map(lambda r: ["--in-region", "R{}:c{}:c{}".format(*r)]),
    st.tuples(SMALL_INT, SMALL_INT, st.lists(SMALL_INT, min_size=1, max_size=6)).map(
        lambda t: ["--transverse", f"c{t[0]}:c{t[1]}:" + ",".join(f"e{e}" for e in t[2])]),
    st.text("ARce:0123456789,-", max_size=10).map(lambda spec: ["--crossing-arc", spec]),
    st.just([]))


@st.composite
def contract_calls(draw):
    """(argv, diagram file JSON or None): an argv of every subcommand, with
    "F" for a diagram file, "D" for a corpus directory holding it and "O"
    for an output path."""
    data = draw(mutated_json(draw(st.sampled_from(DIAGRAM_INPUTS))))
    diagram = draw(st.sampled_from([["--two-bridge", draw(SEQUENCE)], ["--pd", "F"], ["--pd", "F"], []]))
    command = draw(st.sampled_from(["farey", "cubing", "decide", "pingpong", "svg"]))
    if command == "farey":
        sub = draw(st.sampled_from(["dist", "cf", "covering-slope", "classify-2bridge", "classify-p3",
                                    "hyperbolic"]))
        slopes = [draw(SLOPE) for _ in range(1 if sub in ("cf", "covering-slope", "hyperbolic") else 2)]
        own = {"classify-2bridge": "--oriented", "classify-p3": "--oriented", "hyperbolic": "--p3"}
        flags = draw(st.sampled_from([[], [], [own.get(sub, "--oriented")], ["--p3"]]))
        argv = ["farey", sub, *slopes, *flags]
    elif command == "cubing":
        source = draw(st.sampled_from([diagram, ["--corpus", "D"]]))
        extra = draw(st.lists(st.sampled_from([["--corrupt", str(draw(st.integers(-2, 60)))],
                                               ["--corrupt", str(draw(st.integers(5, 20)))],
                                               ["--emit-complex", "O"], ["--mirror"],
                                               ["--jobs", str(draw(st.integers(-1, 3)))]]),
                              max_size=2))
        argv = ["cubing", *source, *(t for flag in extra for t in flag)]
    elif command == "decide":
        argv = ["decide", *diagram, *draw(ARC), *draw(st.sampled_from([[], ["--mirror"]]))]
    elif command == "pingpong":
        argv = ["pingpong", json.dumps(draw(MATRIX)), json.dumps(draw(MATRIX)),
                *draw(st.sampled_from([[], ["--mode", "float"], ["--mode", "exact"]])),
                *draw(st.sampled_from([[], ["--words", str(draw(st.integers(-1, 13)))]])),
                *draw(st.sampled_from([[], ["--tolerance", draw(st.sampled_from(["1e-9", "0", "nan", "5"]))]]))]
    else:
        argv = ["svg", *diagram, "-o", "O"]
    return argv, data


class TestContract:
    """Every generated call exits 0, 1 or 2; an exit 2 prints an `error:`
    line or argparse's usage, and no traceback; and no call takes more
    than BOUND seconds."""
    BOUND = 2.0

    @settings(max_examples=400, deadline=None)
    @given(contract_calls())
    def test_exit_codes_and_errors(self, tmp_path_factory, call):
        argv, data = call
        work = tmp_path_factory.mktemp("contract")
        (work / "D").mkdir()
        for f in (work / "F", work / "D" / "d.json"):
            f.write_text(json.dumps(data))
        paths = {"F": str(work / "F"), "D": str(work / "D"), "O": str(work / "O")}
        argv = [paths.get(t, t) for t in argv]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        elapsed = time.perf_counter() - t0
        assert code in (0, 1, 2), (argv, code)
        assert elapsed < self.BOUND, (argv, elapsed)
        assert "Traceback" not in err.getvalue(), argv
        if code == 2:
            lines = err.getvalue().splitlines()
            assert lines and (lines[0].startswith("usage: ") or (
                len(lines) == 1 and lines[0].startswith("error: "))), (argv, lines)
            if not lines[0].startswith("usage: "):
                assert out.getvalue() == "", argv
        else:
            assert err.getvalue() == "", argv

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

from cuspcubes import cli
from cuspcubes.cli import build_parser, main
from cuspcubes.diagram import AlternatingDiagram, DiagramError, two_bridge_diagram

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
        # --corpus would drop these silently: no negative control, no file
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "cubing", "--corpus", str(pd_corpus_dir), flag, value)
        assert code == 2 and out == ""
        assert err == f"error: --corpus cannot be combined with {flag}\n"
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
                    if not crossings_adjacent_on_region(d, R, a, b):
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
                       if a < b and not crossings_adjacent_on_region(d, R, a, b))
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
        from test_pingpong import NAMED_PAIRS
        verdicts = set()
        for name, (m1, m2) in NAMED_PAIRS.items():
            if mode == "exact":
                answer = pingpong_certificate(m1, m2)
            else:
                answer = pingpong_certificate_float(
                    *([[float_entry(e) for e in row] for row in m.to_json()] for m in (m1, m2)))
            argv = ["pingpong", json.dumps(m1.to_json()), json.dumps(m2.to_json()), "--mode", mode]
            code = self.check(capsys, answer, "pingpong.certificate.v1", argv)
            assert code == (answer["verdict"] != FREE_CERTIFIED), name
            verdicts.add(answer["verdict"])
        assert len(verdicts) == 2


class TestConflictingFlags:
    """Two flags that name the diagram, or two that name the arc, exit 2
    in argparse; an empty value counts as given."""

    @staticmethod
    def refused(capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == "", argv
        return out.err

    @pytest.mark.parametrize("cmd", [["cubing"], ["svg", "-o", "unused.svg"],
                                     ["decide", "--crossing-arc", "A1:0"]])
    def test_two_bridge_with_pd(self, capsys, tmp_path, monkeypatch, cmd):
        monkeypatch.chdir(tmp_path)
        Path("p.json").write_text(json.dumps({"pd": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]}))
        for tb in ("2,2", ""):
            err = self.refused(capsys, *cmd, "--two-bridge", tb, "--pd", "p.json")
            assert "error: argument --pd: not allowed with argument --two-bridge" in err, tb
            err = self.refused(capsys, *cmd, "--pd", "p.json", "--two-bridge", tb)
            assert "error: argument --two-bridge: not allowed with argument --pd" in err, tb
        assert sorted(f.name for f in tmp_path.iterdir()) == ["p.json"]

    @pytest.mark.parametrize("first, second", [
        ("--crossing-arc", "--in-region"), ("--crossing-arc", "--transverse"),
        ("--in-region", "--transverse")])
    def test_two_arc_flags(self, capsys, first, second):
        spec = {"--crossing-arc": "A1:0", "--in-region": "R0:c0:c1", "--transverse": "c0:c1:e1"}
        for a, b in ((spec[first], spec[second]), ("", spec[second]), (spec[first], "")):
            err = self.refused(capsys, "decide", "--two-bridge", "2,2", first, a, second, b)
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

    def test_leaf_forms_take_the_route(self, capsys, monkeypatch):
        def full_parse(argv):
            raise AssertionError(f"full parse of {argv}")
        monkeypatch.setattr(build_parser(), "parse_args", full_parse)
        leaf_forms = [argv for argv in self.ARGVS if argv[0] != "--pretty" and "nosuch" not in argv]
        assert len(leaf_forms) == 17
        codes = [self.call(capsys, argv)[0] for argv in leaf_forms]
        assert codes.count(("SystemExit", 2)) == 3


class TestRoute:
    """cli.main parses argv at its leaf parser; every outcome must be the
    one of the full nested parse."""
    WORDS = ["farey", "dist", "cf", "covering-slope", "classify-2bridge", "classify-p3",
             "hyperbolic", "cubing", "decide", "pingpong", "svg", "nosuch"]
    FLAGS = ["--pretty", "--oriented", "--p3", "--two-bridge", "--pd", "--corpus", "--jobs",
             "--emit-complex", "--corrupt", "--mirror", "--crossing-arc", "--in-region",
             "--transverse", "--words", "--mode", "--tolerance", "-o", "--output",
             "--pre", "--two", "--cross", "--or", "--p", "--m", "--t", "--w", "--tol=1e-9",
             "--pretty=1", "--mode=float", "-ofile", "-h", "--help", "--h", "--", "--=x",
             "--bogus", "-x"]
    VALUES = ["1/3", "-5/2", "-5/-2", "2/5", "3", "-3", "inf", "0", "4", "-1", "1e-9", "2,2",
              "A2:0", "c3", "R3:c0:c2", "exact", "float", "quadruple",
              TestParserReuse.M1, TestParserReuse.M2,
              "[1,2]", "", "x", " -1", "-"]
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

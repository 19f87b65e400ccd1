import json
from pathlib import Path

import jsonschema

from cuspcubes.cli import build_parser, main

SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas"


def validate(instance, schema_name):
    schema = json.loads((SCHEMAS / schema_name).read_text())
    jsonschema.validate(instance, schema)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFarey:
    def test_covering_slope(self, capsys):
        code, out, _ = run(capsys, "farey", "covering-slope", "2/5")
        assert code == 0
        data = json.loads(out)
        assert data == {"r": "2/5", "r_tilde": "-9/20", "congruence": True}

    def test_dist(self, capsys):
        code, out, _ = run(capsys, "farey", "dist", "1/0", "2/5")
        assert code == 0
        assert json.loads(out)["distance"] == 3

    def test_cf(self, capsys):
        code, out, _ = run(capsys, "farey", "cf", "-9/20")
        assert code == 0
        data = json.loads(out)
        assert data["integer_part"] == -1 and data["terms"] == [1, 1, 4, 2]

    def test_deep_slope(self, capsys):
        # partial quotient 5000: deeper than the interpreter's recursion limit
        code, out, _ = run(capsys, "farey", "dist", "1/0", "70011/30005")
        assert code == 0
        data = json.loads(out)
        validate(data, "farey.outputs.v1.json")
        assert data["distance"] == 4
        code, out, _ = run(capsys, "farey", "hyperbolic", "70011/30005")
        assert code == 0 and json.loads(out)["hyperbolic"] is True

    def test_classify_p3(self, capsys):
        code, out, _ = run(capsys, "farey", "classify-p3", "2/5", "-5/2", "--oriented")
        assert code == 0 and json.loads(out)["equivalent"] is True
        code, out, _ = run(capsys, "farey", "classify-p3", "2/5", "5/2", "--oriented")
        assert code == 1 and json.loads(out)["equivalent"] is False

    def test_classify_2bridge(self, capsys):
        code, out, _ = run(capsys, "farey", "classify-2bridge", "1/3", "4/3", "--oriented")
        assert code == 0
        assert json.loads(out)["witness"] == [[1, 1], [0, 1]]

    def test_hyperbolic(self, capsys):
        code, out, _ = run(capsys, "farey", "hyperbolic", "2/5")
        assert code == 0 and json.loads(out)["hyperbolic"] is True
        code, out, _ = run(capsys, "farey", "hyperbolic", "1/7", "--p3")
        assert code == 1

    def test_parse_error_exit(self, capsys):
        code, _, err = run(capsys, "farey", "dist", "0/0", "1/2")
        assert code == 2 and "error" in err


class TestCubing:
    def test_two_bridge(self, capsys):
        code, out, _ = run(capsys, "cubing", "--two-bridge", "2,2")
        assert code == 0
        data = json.loads(out)
        validate(data, "cubing.report.v1.json")
        assert data["cubes"] == 8 and data["inner_vertices"] == 2
        assert data["inner_edges"] == 6 and data["npc"] is True

    def test_bigger(self, capsys):
        code, out, _ = run(capsys, "cubing", "--two-bridge", "3,2")
        assert json.loads(out)["cubes"] == 10

    def test_corrupt(self, capsys):
        code, out, _ = run(capsys, "cubing", "--two-bridge", "2,2", "--corrupt", "5")
        assert code == 1
        data = json.loads(out)
        validate(data, "cubing.report.v1.json")
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

    def test_pd_file_and_emit(self, capsys, tmp_path, corpus):
        pd = {"pd": [list(x) for x in corpus["C2_2"].pd_code()]}
        f = tmp_path / "fig8.json"
        f.write_text(json.dumps(pd))
        out_file = tmp_path / "complex.json"
        code, out, _ = run(capsys, "cubing", "--pd", str(f),
                           "--emit-complex", str(out_file))
        assert code == 0
        dumped = json.loads(out_file.read_text())
        assert len(dumped["cubes"]) == 8

    def test_corpus_fanout(self, capsys, pd_corpus_dir):
        code, out, _ = run(capsys, "cubing", "--corpus", str(pd_corpus_dir), "--jobs", "2")
        assert code == 0
        data = json.loads(out)
        for result in data["results"]:
            validate(result, "cubing.report.v1.json")
        assert len(data["results"]) >= 10
        assert all(r["npc"] for r in data["results"])


class TestDecide:
    def test_tunnel(self, capsys):
        code, out, _ = run(capsys, "decide", "--two-bridge", "2,2",
                           "--crossing-arc", "A1:0")
        assert code == 0
        assert json.loads(out)["verdict"] == "GeneratesLinkGroup"

    def test_middle(self, capsys):
        code, out, _ = run(capsys, "decide", "--two-bridge", "2,1,2",
                           "--crossing-arc", "A2:0")
        assert code == 0
        data = json.loads(out)
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
        code, out, _ = run(capsys, "decide", "--pd", str(f),
                           "--in-region", f"R{target[0]}:c{target[1]}:c{target[2]}")
        assert code == 0
        assert json.loads(out)["verdict"] == "FreeGeometricallyFinite"

    def test_malformed_arc_exit(self, capsys):
        code, _, err = run(capsys, "decide", "--two-bridge", "2,2",
                           "--in-region", "R0:c1:c1")
        assert code == 2


def run_pingpong(capsys, *argv):
    """Exit code and JSON output of pingpong, checked against its schema."""
    code, out, _ = run(capsys, "pingpong", *argv)
    data = json.loads(out)
    validate(data, "pingpong.certificate.v1.json")
    return code, data


class TestPingpong:
    def test_certified(self, capsys):
        code, data = run_pingpong(capsys, "[[1,0],[4,1]]", "[[9,-16],[4,-7]]", "--words", "6")
        assert code == 0
        assert data["verdict"] == "FreeCertified" and data["no_trivial_word"] is True
        assert data["checked_words"] == 6

    def test_commuting(self, capsys):
        code, data = run_pingpong(capsys, "[[1,0],[4,1]]", "[[1,0],[4,1]]", "--words", "3")
        assert code == 1
        assert data["verdict"] == "Commuting" and "checked_words" not in data

    def test_inconclusive(self, capsys):
        code, data = run_pingpong(capsys, "[[1,0],[1,1]]", "[[2,-1],[1,0]]")
        assert code == 1
        assert data["verdict"] == "Inconclusive"

    def test_non_parabolic_exit(self, capsys):
        code, _, err = run(capsys, "pingpong", "[[2,0],[0,\"1/2\"]]", "[[1,0],[4,1]]")
        assert code == 2

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
        code, data = run_pingpong(capsys, "[[1,0],[4,1]]", "[[9,-16],[4,-7]]", "--words", "0")
        assert code == 0 and "checked_words" not in data

    def test_float_mode_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CUSPCUBES_MODE", "float")
        code, data = run_pingpong(capsys, "[[1,0],[4,1]]", "[[9,-16],[4,-7]]")
        assert code == 0
        assert data["numeric"] is True

    def test_float_mode_words_exit(self, capsys, monkeypatch):
        pair = ("[[1,0],[4,1]]", "[[9,-16],[4,-7]]")
        code, out, err = run(capsys, "pingpong", *pair, "--words", "5", "--mode", "float")
        assert code == 2 and out == "" and "exact mode" in err
        monkeypatch.setenv("CUSPCUBES_MODE", "float")
        code, out, err = run(capsys, "pingpong", *pair, "--words", "5")
        assert code == 2 and out == "" and "exact mode" in err
        code, data = run_pingpong(capsys, *pair, "--words", "0")
        assert code == 0 and data["numeric"] is True

    def test_float_mode_verdicts(self, capsys):
        for m2, verdict in (("[[9,-16],[4,-7]]", "FreeCertified"), ("[[1,0],[4,1]]", "Commuting")):
            code, data = run_pingpong(capsys, "[[1,0],[4,1]]", m2, "--mode", "float")
            assert data["verdict"] == verdict and code == (verdict != "FreeCertified")
        code, data = run_pingpong(capsys, "[[1,0],[1,1]]", "[[2,-1],[1,0]]", "--mode", "float")
        assert code == 1 and data["verdict"] == "Inconclusive" and "diagnostic" in data

    def test_float_mode_string_entries(self, capsys):
        code0, data0 = run_pingpong(capsys, '[[1,0],["8/2",1]]', "[[9,-16],[4,-7]]")
        assert data0["verdict"] == "FreeCertified"
        for m1 in ('[[1,0],["8/2",1]]', '[[1,0],[["8/2","0"],1]]', '[[1,0],[[4.0,0],"1"]]'):
            code, data = run_pingpong(capsys, m1, "[[9,-16],[4,-7]]", "--mode", "float")
            assert code == code0, m1
            assert data["numeric"] is True
            assert data["verdict"] == data0["verdict"]

    def test_float_mode_bad_entries_exit(self, capsys):
        for m1 in ('[[1,0],["x",1]]', '[[1,0],[[1,2,3],1]]', '[[1,0],[true,1]]',
                   '[[1,0],["1/0",1]]', '[[1,0],[{},1]]', '[1,2]'):
            code, out, err = run(capsys, "pingpong", m1, "[[9,-16],[4,-7]]", "--mode", "float")
            assert code == 2, m1
            assert out == "" and err.startswith("error:"), m1

    def test_gaussian_entries(self, capsys):
        code, data = run_pingpong(capsys, "[[1,0],[[1,1],1]]", "[[9,-16],[4,-7]]")
        assert code in (0, 1)
        assert data["verdict"] in ("FreeCertified", "Inconclusive")
        # fixed points 1+i and -1-2i, c = 2+i and 1-2i
        code, data = run_pingpong(capsys, '[[["2","3"],["2","-4"]],[["2","1"],["0","-3"]]]',
                                  '[[["-4","0"],["-5","-10"]],[["1","-2"],["6","0"]]]',
                                  "--words", "5")
        assert code == 0 and data["verdict"] == "FreeCertified"
        assert data["no_trivial_word"] is True and data["conjugator"]


class TestSvg:
    def test_write(self, capsys, tmp_path):
        out_file = tmp_path / "fig8.svg"
        code, out, _ = run(capsys, "svg", "--two-bridge", "2,2", "-o", str(out_file))
        assert code == 0
        assert json.loads(out)["circles"] == 6
        assert out_file.read_text().startswith("<svg")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "svg", "--pd", "/nonexistent.json", "-o", "/tmp/x.svg")
        assert code == 2


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

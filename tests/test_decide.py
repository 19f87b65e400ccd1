from collections import Counter
from functools import cached_property
from itertools import product
import json

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from cuspcubes import diagram as diagram_module
from cuspcubes.cli import main
from cuspcubes.cubing import boundary_cubings, build_cubing, verify_npc
from cuspcubes.decide import (
    CROSSING_ARC_EQUIVALENT, CROSSING_ARC_NOT_COVERED, FREE_GEOMETRICALLY_FINITE,
    GENERATES_LINK_GROUP, INESSENTIAL, DecideError, _reduce_edge_word, classify_2bridge_pair,
    classify_alternating_pair, witness_spare_region,
)
from cuspcubes.diagram import (
    AlternatingDiagram, BLACK, CrossingArc, DiagramError, InRegionArc, TransverseArc, WHITE,
    crossings_adjacent_on_region, find_small_white_region, is_prime, is_reduced, pretzel_diagram,
    two_bridge_diagram,
)
from cuspcubes.polyhedra import build_polyhedra
from conftest import diagram_corpus, twist_sequences
import diagram_oracles as oracle
from diagram_oracles import region_adjacent, region_edges, region_of_slot


def wing_regions(w):
    """The four wing regions of a witness, first pair then second."""
    return w["wings"]["first"] + w["wings"]["second"]


def separated_pair(d):
    """Some region with two crossings not adjacent along its boundary."""
    for R in d.regions:
        cs = sorted(R.distinct_crossings)
        for i, a in enumerate(cs):
            for b in cs[i + 1:]:
                if not crossings_adjacent_on_region(d, R.index, a, b):
                    return R, a, b
    return None


class TestTunnels:
    def test_fig8(self):
        tb = two_bridge_diagram((2, 2))
        for c in tb.crossings_in(1):
            v = classify_2bridge_pair(tb, CrossingArc(c))
            assert v["verdict"] == GENERATES_LINK_GROUP
            assert v["tunnel"] == "upper"
        for c in tb.crossings_in(2):
            v = classify_2bridge_pair(tb, CrossingArc(c))
            assert v["verdict"] == GENERATES_LINK_GROUP
            assert v["tunnel"] == "lower"

    def test_accepts_raw_sequences(self):
        v = classify_2bridge_pair((2, 2), CrossingArc(0))
        assert v["tunnel"] == "upper"


class TestMiddleCrossings:
    def test_212(self):
        tb = two_bridge_diagram((2, 1, 2))
        v = classify_2bridge_pair(tb, CrossingArc(2))
        assert v["verdict"] == FREE_GEOMETRICALLY_FINITE
        assert v["flype"] is not None
        w = v["witness"]
        assert len(set(wing_regions(w))) == 4
        d2 = None  # witness regions live in the flyped diagram

    def test_corpus_trichotomy(self):
        for seq in twist_sequences(10, 4):
            tb = two_bridge_diagram(seq)
            n = len(seq)
            for c in range(tb.diagram.n):
                i = tb.twist_region_of[c]
                v = classify_2bridge_pair(tb, CrossingArc(c))
                if i == 1:
                    assert (v["verdict"], v["tunnel"]) == (
                        GENERATES_LINK_GROUP, "upper"), (seq, c)
                elif i == n:
                    assert (v["verdict"], v["tunnel"]) == (
                        GENERATES_LINK_GROUP, "lower"), (seq, c)
                else:
                    assert v["verdict"] == FREE_GEOMETRICALLY_FINITE, (seq, c)
                    assert v.get("witness") is not None, (seq, c)
                    assert len(set(wing_regions(v["witness"]))) == 4, (seq, c)

    def test_five_blocks_of_five(self):
        tb = two_bridge_diagram((5, 5, 5, 5, 5))
        interior = [c for c in range(25) if 2 <= tb.twist_region_of[c] <= 4]
        assert len(interior) == 15
        for c in interior:
            v = classify_2bridge_pair(tb, CrossingArc(c))
            assert v["verdict"] == FREE_GEOMETRICALLY_FINITE, c
            assert v.get("witness") is not None and len(set(wing_regions(v["witness"]))) == 4, c

    def test_mirror_invariance(self):
        tb = two_bridge_diagram((2, 1, 2))
        v0 = classify_2bridge_pair(tb, CrossingArc(2), mirror=False)
        v1 = classify_2bridge_pair(tb, CrossingArc(2), mirror=True)
        assert v0["verdict"] == v1["verdict"]
        assert set(wing_regions(v0["witness"])) == set(wing_regions(v1["witness"]))


class TestInRegion:
    def test_separated_endpoints(self):
        d = two_bridge_diagram((3, 3)).diagram
        found = separated_pair(d)
        assert found is not None
        R, a, b = found
        v = classify_alternating_pair(d, InRegionArc(R.index, a, b))
        assert v["verdict"] == FREE_GEOMETRICALLY_FINITE
        w = v["witness"]
        assert len(set(wing_regions(w))) == 4
        expected_color = BLACK if R.color == WHITE else WHITE
        assert w["color"] == expected_color
        assert w["endpoints"] == [a, b]

    def test_endpoint_swap_same_regions(self):
        d = two_bridge_diagram((3, 3)).diagram
        R, a, b = separated_pair(d)
        v1 = classify_alternating_pair(d, InRegionArc(R.index, a, b))
        v2 = classify_alternating_pair(d, InRegionArc(R.index, b, a))
        assert v1["verdict"] == v2["verdict"] == FREE_GEOMETRICALLY_FINITE
        assert set(wing_regions(v1["witness"])) == set(wing_regions(v2["witness"]))

    def test_adjacent_endpoints_are_crossing_arcs(self):
        d = two_bridge_diagram((2, 2)).diagram
        R = next(R for R in d.regions if len(R.boundary) >= 3)
        cs = [h[0] for h in R.boundary]
        v = classify_alternating_pair(d, InRegionArc(R.index, cs[0], cs[1]))
        assert v["verdict"] == CROSSING_ARC_EQUIVALENT

    def test_crossing_not_on_region_rejected(self):
        d = two_bridge_diagram((2, 2)).diagram
        R = d.regions[0]
        outside = next(c for c in range(d.n)
                       if c not in R.distinct_crossings)
        inside = next(iter(R.distinct_crossings))
        with pytest.raises(DecideError):
            classify_alternating_pair(d, InRegionArc(R.index, inside, outside))


class TestTransverse:
    def test_separated_endpoints_witnessed(self):
        d = two_bridge_diagram((3, 3)).diagram
        pairs = [(c1, c2) for c1 in range(d.n)
                 for c2 in range(d.n) if c1 < c2]
        done = False
        for c1, c2 in pairs:
            shared = [R for R in d.regions
                      if c1 in R.distinct_crossings and c2 in R.distinct_crossings]
            if shared:
                continue
            word = (0, 1)
            v = classify_alternating_pair(d, TransverseArc(c1, c2, word))
            assert v["verdict"] == FREE_GEOMETRICALLY_FINITE
            if v.get("witness") is not None:
                assert len(set(wing_regions(v["witness"]))) == 4
                done = True
                break
        assert done

    def test_word_reduction_to_inessential(self):
        d = two_bridge_diagram((2, 2)).diagram
        v = classify_alternating_pair(d, TransverseArc(0, 0, (3, 3)))
        assert v["verdict"] == INESSENTIAL

    def test_word_reduction_to_in_region(self):
        d = two_bridge_diagram((3, 3)).diagram
        R, a, b = separated_pair(d)
        eid = next(iter(region_edges(d, 0)))
        v = classify_alternating_pair(d, TransverseArc(a, b, (eid, eid)))
        assert v["verdict"] in (FREE_GEOMETRICALLY_FINITE, CROSSING_ARC_EQUIVALENT)

    def test_bad_edge_rejected(self):
        d = two_bridge_diagram((2, 2)).diagram
        with pytest.raises(DecideError):
            classify_alternating_pair(d, TransverseArc(0, 1, (99,)))

    def test_stack_reduction_matches_greedy_loop(self):
        def greedy(word):
            # cancel the first repeated pair and rescan from the start
            out = list(word)
            changed = True
            while changed:
                changed = False
                for i in range(len(out) - 1):
                    if out[i] == out[i + 1]:
                        del out[i:i + 2]
                        changed = True
                        break
            return tuple(out)

        for n in range(9):
            for word in product(range(3), repeat=n):
                assert _reduce_edge_word(word) == greedy(word), word


class TestCrossingArcGeneral:
    def test_not_covered_on_plain_diagrams(self):
        d = pretzel_diagram(3, 3, 3)
        v = classify_alternating_pair(d, CrossingArc(0))
        assert v["verdict"] == CROSSING_ARC_NOT_COVERED

    def test_torus_rejected(self):
        hopf = AlternatingDiagram.from_pd([(1, 3, 2, 4), (3, 1, 4, 2)])
        with pytest.raises(DecideError, match="torus"):
            classify_alternating_pair(hopf, CrossingArc(0))


class TestSpareRegions:
    def test_direct_with_many_regions(self):
        d = pretzel_diagram(3, 3, 3)
        blacks = [R.index for R in d.regions if R.color == BLACK]
        whites = [R.index for R in d.regions if R.color == WHITE]
        color, pool = (BLACK, blacks) if len(blacks) >= 5 else (WHITE, whites)
        assert len(pool) >= 5
        cert = witness_spare_region(d, tuple(pool[:4]), color, build_polyhedra(d))
        assert cert["kind"] == "direct"
        for w in pool[:4]:
            assert not region_adjacent(d, cert["region"], w)

    def test_transfer_with_exactly_four(self):
        d = two_bridge_diagram((2, 1, 2)).diagram
        counts = {BLACK: [R.index for R in d.regions if R.color == BLACK],
                  WHITE: [R.index for R in d.regions if R.color == WHITE]}
        color = BLACK if len(counts[BLACK]) == 4 else WHITE
        pool = counts[color]
        assert len(pool) == 4
        cert = witness_spare_region(d, tuple(pool), color, build_polyhedra(d))
        assert cert["kind"] == "transfer"
        assert cert["via_kind"] in ("bigon", "trigon")
        assert not region_adjacent(d, cert["region"], cert["via_region"])

    def test_transfer_with_exactly_three(self):
        d = two_bridge_diagram((2, 2)).diagram
        blacks = [R.index for R in d.regions if R.color == BLACK]
        color = BLACK if len(blacks) == 3 else WHITE
        pool = blacks if color == BLACK else [R.index for R in d.regions if R.color == WHITE]
        assert len(pool) == 3
        cert = witness_spare_region(d, tuple(pool), color, build_polyhedra(d))
        assert cert["kind"] == "transfer"
        assert cert["via_kind"] == "bigon"

    def test_validates_against_halfspaces(self):
        for seq in ((2, 1, 2), (2, 2, 2), (2, 1, 1, 2), (3, 1, 2)):
            tb = two_bridge_diagram(seq)
            for c in range(tb.diagram.n):
                if tb.twist_region_of[c] in (1, len(seq)):
                    continue
                v = classify_2bridge_pair(tb, CrossingArc(c))
                w, spare = v["witness"], v["witness"]["spare"]
                assert v.get("witness_diagram") is not None
                # the witness regions are those of the diagram rebuilt from its JSON
                dw = AlternatingDiagram.from_json(v["witness_diagram"])
                # far half-spaces are disjoint exactly when the regions are not adjacent
                if spare["kind"] == "direct":
                    for wing in wing_regions(w):
                        assert not region_adjacent(dw, spare["region"], wing), seq
                else:
                    assert not region_adjacent(dw, spare["region"], spare["via_region"]), seq
                    small = dw.regions[spare["via_region"]]
                    nbrs = [region_of_slot(dw)[dw.pairing[h]] for h in small.boundary]
                    assert len(set(nbrs)) == len(small.boundary), seq


def record_corpus():
    """Every two-bridge diagram of at most 13 crossings and the 3-strip
    pretzels with twists 1..3."""
    return ([two_bridge_diagram(seq).diagram for seq in twist_sequences(13)]
            + [pretzel_diagram(*t) for t in product((1, 2, 3), repeat=3)])


def raised(fn, *args):
    """fn(*args), or the message of the DiagramError it raises."""
    try:
        return fn(*args)
    except DiagramError as err:
        return str(err)


class TestIndexQueriesMatchRecords:
    """The region queries on indices and slot parity against the ones on
    `Region` records in diagram_oracles."""

    @pytest.fixture(scope="class")
    def diagrams(self):
        return record_corpus()

    def test_wings_are_the_corner_regions(self, diagrams):
        for d in diagrams:
            for mirror, c, color in product((False, True), range(d.n), (BLACK, WHITE)):
                want = tuple(R.index for R in oracle.regions_at_crossing(d, c, color))
                assert build_polyhedra(d, mirror).wings(c, color) == want[::-1 if mirror else 1], (d, c)

    def test_small_region(self, diagrams):
        for d in diagrams:
            for color in (BLACK, WHITE):
                want = raised(oracle.find_small_white_region, d, color)
                got = raised(find_small_white_region, d, color)
                if isinstance(want, tuple):
                    want = (want[0].index, want[1])
                assert got == want, (d, color)

    def test_small_regions_of_prime_diagrams_have_distinct_neighbors(self, diagrams):
        # why find_small_white_region takes the first bigon or trigon: in a
        # prime diagram two edges of one region never share their far region
        small = 0
        for d in diagrams + list(diagram_corpus().values()):
            if is_prime(d):
                for walk in d._walks:
                    if len(walk) <= 3:
                        small += 1
                        assert len({d.slot_region[d._twin[h]] for h in walk}) == len(walk), d
        assert small == 19_679                  # bigons and trigons checked

    def test_adjacency_of_every_region_pair(self, diagrams):
        # the spare region's test: the two ends of a wire lie in the
        # regions on the two sides of its edge
        for d in diagrams:
            sides = {frozenset((d.slot_region[a], d.slot_region[b])) for a, b in d.wires}
            for r1, r2 in product(range(d.n + 2), repeat=2):
                if r1 != r2:
                    assert (frozenset((r1, r2)) in sides) == region_adjacent(d, r1, r2), (d, r1, r2)

    def test_spare_regions(self, diagrams):
        # with the wings left out, the spare region is the least region of
        # the color, or the least one that the record search finds free; the
        # small region has the other color, whose faces shift by +1 when
        # black, flipped by the mirror flag
        for d in diagrams:
            for mirror, color in product((False, True), (BLACK, WHITE)):
                same = [R.index for R in d.regions if R.color == color]
                other = WHITE if color == BLACK else BLACK
                small = raised(oracle.find_small_white_region, d, other)
                cert = raised(witness_spare_region, d, (), color, build_polyhedra(d, mirror))
                if len(same) >= 5:
                    assert (cert["kind"], cert["region"]) == ("direct", same[0]), d
                elif not isinstance(small, tuple):
                    assert cert == small, d
                else:
                    free = [r for r in same if not region_adjacent(d, r, small[0].index)]
                    shift = 1 if (other == BLACK) != mirror else -1
                    got = cert["region"], cert["via_region"], cert["via_kind"], cert["transfer_shift"]
                    assert got == (free[0], small[0].index, small[1], shift), d


def mirror_invariants(v):
    """What the mirror flag must not change: the verdict kind, the wing
    regions as a set, the endpoints, the colour, and the spare region with
    its kind.  The wing order and a transfer's shift do change."""
    w = v.get("witness")
    return v["verdict"], w and (frozenset(wing_regions(w)), w["endpoints"], w["color"],
                                w["spare"]["region"], w["spare"]["kind"])


class TestMirror:
    def test_mirror_keeps_the_verdict(self):
        for seq in twist_sequences(10):
            tb = two_bridge_diagram(seq)
            for c in range(tb.diagram.n):
                plain, mirrored = (classify_2bridge_pair(tb, CrossingArc(c), mirror)
                                   for mirror in (False, True))
                assert mirror_invariants(mirrored) == mirror_invariants(plain), (seq, c)

    def test_mirror_reaches_in_region_arcs(self):
        for seq in ((3, 3), (2, 2, 2), (3, 1, 2)):
            d = two_bridge_diagram(seq).diagram
            R, a, b = separated_pair(d)
            plain, mirrored = (classify_alternating_pair(d, InRegionArc(R.index, a, b), mirror)
                               for mirror in (False, True))
            assert mirror_invariants(mirrored) == mirror_invariants(plain), seq
            w, wm = plain["witness"]["wings"], mirrored["witness"]["wings"]
            assert (wm["first"], wm["second"]) == (w["first"][::-1], w["second"][::-1]), seq


def pd_inputs():
    """PD codes of the prime reduced two-bridge and pretzel diagrams with at
    most 10 crossings."""
    diagrams = [two_bridge_diagram(seq).diagram for seq in twist_sequences(10)]
    diagrams += [pretzel_diagram(*t) for k in (2, 3, 4) for t in product(range(1, 9), repeat=k)
                 if sum(t) <= 10]
    return [d.pd_code() for d in diagrams if is_prime(d) and is_reduced(d)]


PD_INPUTS = pd_inputs()


def cubing_invariants(d):
    cx = build_cubing(d)
    return cx.counts, verify_npc(cx)["npc"], sorted(t["euler"] for t in boundary_cubings(cx))


def kind_or_error(d, arc):
    try:
        return classify_alternating_pair(d, arc)["verdict"]
    except DecideError as err:
        return str(err)


class TestPdRelabelling:
    @settings(max_examples=400)
    @given(st.data())
    def test_relabelled_crossings_keep_the_results(self, data):
        # crossing c of the PD input becomes crossing perm[c]; slot (c, i)
        # becomes (perm[c], i), so regions map through any boundary slot
        code = data.draw(st.sampled_from(PD_INPUTS))
        perm = data.draw(st.permutations(range(len(code))))
        moved = [None] * len(code)
        for c, quad in enumerate(code):
            moved[perm[c]] = quad
        d, d2 = AlternatingDiagram.from_pd(code), AlternatingDiagram.from_pd(moved)
        assert cubing_invariants(d2) == cubing_invariants(d)
        R = data.draw(st.sampled_from(d.regions))
        c1, c2 = data.draw(st.lists(st.sampled_from(sorted(R.distinct_crossings)),
                                    min_size=2, max_size=2, unique=True))
        c, i = R.boundary[0]
        arc2 = InRegionArc(d2.slot_region[4 * perm[c] + i], perm[c1], perm[c2])
        assert kind_or_error(d2, arc2) == kind_or_error(d, InRegionArc(R.index, c1, c2))


class TestVerdictShape:
    def test_json(self):
        tb = two_bridge_diagram((2, 1, 2))
        data = classify_2bridge_pair(tb, CrossingArc(2))
        assert data["verdict"] == "FreeGeometricallyFinite"
        assert set(data["witness"]["wings"]) == {"first", "second"}
        assert data["witness"]["spare"]["kind"] in ("direct", "transfer")
        assert data["flype"]["flype_steps"] >= 1

    def test_inessential_note(self):
        d = two_bridge_diagram((2, 2)).diagram
        v = classify_alternating_pair(d, TransverseArc(1, 1, (2, 2)))
        assert v["verdict"] == INESSENTIAL
        assert v["notes"]


def decide_commands(tmp_path):
    """decide on interior crossing arcs, which one or two flypes move, with
    and without the mirror flag, and on a diagram read from a file: an
    in-region arc, whose spare region is a transfer, a transverse arc and
    one whose word reduces to that in-region arc."""
    d = two_bridge_diagram((3, 3)).diagram
    R, a, b = separated_pair(d)
    f = tmp_path / "d.json"
    f.write_text(json.dumps({"pd": [list(x) for x in d.pd_code()]}))
    return (["decide", "--two-bridge", "4,4,4,4,4", "--crossing-arc", "A3:0"],
            ["decide", "--two-bridge", "2,2,2", "--crossing-arc", "A2:1", "--mirror"],
            ["decide", "--pd", str(f), "--in-region", f"R{R.index}:c{a}:c{b}"],
            ["decide", "--pd", str(f), "--transverse", f"c{a}:c{b}:e0,e1", "--mirror"],
            ["decide", "--pd", str(f), "--transverse", f"c{a}:c{b}:e2,e2"])


class TestWorkOnUse:
    def test_strands_not_walked(self, capsys, monkeypatch, tmp_path):
        init = AlternatingDiagram.__init__
        built = []

        def recording(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(AlternatingDiagram, "__init__", recording)
        for argv in decide_commands(tmp_path):
            built.clear()
            assert main(argv) == 0, argv
            assert built, argv
            for d in built:
                assert "strands" not in d.__dict__, argv

    def test_each_scan_once_per_diagram(self, capsys, monkeypatch, tmp_path):
        # build_polyhedra and the classifier both ask whether the diagram is
        # prime; the scan runs for the first of them only
        scans = []
        for name in ("prime", "reduced"):
            def counted(d, scan=getattr(AlternatingDiagram, name).func, name=name):
                scans.append((name, d))
                return scan(d)

            prop = cached_property(counted)
            prop.__set_name__(AlternatingDiagram, name)
            monkeypatch.setattr(AlternatingDiagram, name, prop)
        for argv in decide_commands(tmp_path):
            scans.clear()
            assert main(argv) == 0, argv
            counts = Counter((name, id(d)) for name, d in scans)
            assert {name for name, _ in counts} == {"prime", "reduced"}, argv
            assert max(counts.values()) == 1, argv

    def test_no_decide_argv_makes_region_records(self, capsys, monkeypatch, tmp_path):
        # the classifier and the polyhedra read region indices and slot
        # parity: no diagram that a decide argv builds fills `regions`, and
        # no Region record is made.  A tunnel verdict builds no diagram and
        # a flype chain one per step.
        argvs = decide_commands(tmp_path)           # read off Region records
        init = AlternatingDiagram.__init__
        built, records = [], []

        def recording(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(AlternatingDiagram, "__init__", recording)
        monkeypatch.setattr(diagram_module, "Region", lambda *fields: records.append(fields))
        for argv in argvs:
            built.clear()
            assert main(argv) == 0, argv
            assert built and all("regions" not in vars(d) for d in built), argv
        kinds = Counter()
        for seq in ((2, 16, 2), (4, 4, 4, 4, 4), (5, 5, 5, 5)):
            tb = two_bridge_diagram(seq)
            for c in range(tb.diagram.n):
                built.clear()
                verdict = classify_2bridge_pair(tb, CrossingArc(c))
                kinds["tunnel" if "tunnel" in verdict else len(built)] += 1
                assert len(built) == verdict.get("flype", {}).get("flype_steps", 0), (seq, c)
                assert all("regions" not in vars(d) for d in [tb.diagram] + built), (seq, c)
                if built:
                    assert built[-1].to_json() == verdict["witness_diagram"], (seq, c)
        assert kinds == {"tunnel": 22, 1: 22, 2: 16}
        assert records == []
        # the patch sees the records that a read of `regions` makes
        assert len(two_bridge_diagram((2, 2)).diagram.regions) == len(records) == 6

    def test_decide_builds_no_tuple_slot_views(self, capsys, monkeypatch, tmp_path):
        # interior crossing arcs, whose flypes rewire wire lists, and pretzel
        # in-region and transverse arcs read a file diagram: the input and
        # every image are read on flat slot ids alone
        init = AlternatingDiagram.__init__
        built = []

        def recording(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(AlternatingDiagram, "__init__", recording)
        views = {"pairing", "edges", "edge_of_slot", "region_of_slot"}
        for seq in ((2, 1, 2), (2, 16, 2), (4, 4, 4, 4, 4), (5, 5, 5, 5)):
            built.clear()
            tb = two_bridge_diagram(seq)
            for c, i in enumerate(tb.twist_region_of):
                if 1 < i < len(seq):
                    for mirror in (False, True):
                        assert classify_2bridge_pair(tb, CrossingArc(c), mirror)["flype"], (seq, c)
            assert len(built) > 1 and all(views.isdisjoint(vars(d)) for d in built), seq
        d = pretzel_diagram(3, 3, 4)
        R, a, b = separated_pair(d)
        f = tmp_path / "pretzel.json"
        f.write_text(json.dumps({"pd": [list(x) for x in d.pd_code()]}))
        for arc in (["--in-region", f"R{R.index}:c{a}:c{b}"], ["--transverse", f"c{a}:c{b}:e1,e2"]):
            built.clear()
            assert main(["decide", "--pd", str(f), *arc]) == 0, arc
            assert len(built) == 1 and views.isdisjoint(vars(built[0])), arc

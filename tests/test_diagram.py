import pytest

from cuspcubes.diagram import (
    AlternatingDiagram, BLACK, CrossingArc, DiagramError, InRegionArc, TransverseArc,
    TwistSequence, WHITE, alternating_determinant, black_dual_graph,
    crossings_adjacent_on_region, edge_arc_classes, find_small_white_region, flype,
    is_prime, is_reduced, pretzel_diagram, region_adjacent, two_bridge_diagram,
)
from cuspcubes.diagram import _flype_disks, _pinch_flypes
from conftest import twist_sequences

TREFOIL_PD = [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]
HOPF_PD = [(1, 3, 2, 4), (3, 1, 4, 2)]


def connected_sum_of_trefoils():
    """Splice two trefoil copies along one edge of each; never prime."""
    base = AlternatingDiagram.from_pd(TREFOIL_PD)
    pairs = []
    seen = set()
    for h, k in base.pairing.items():
        if h in seen:
            continue
        seen.update((h, k))
        pairs.append((h, k))

    def shifted(pairs, offset):
        return [(((c + offset), i), ((c2 + offset), i2)) for (c, i), (c2, i2) in pairs]

    first = pairs
    second = shifted(pairs, 3)
    (h1, k1) = first[0]
    (h2, k2) = second[0]
    for splice in (((h1, h2), (k1, k2)), ((h1, k2), (k1, h2))):
        pairing = {}
        for a, b in first[1:] + second[1:] + list(splice):
            pairing[a] = b
            pairing[b] = a
        try:
            return AlternatingDiagram(6, pairing)
        except DiagramError:
            continue
    raise AssertionError("no valid splice found")


class TestConstruction:
    def test_trefoil_pd(self):
        d = AlternatingDiagram.from_pd(TREFOIL_PD)
        assert d.crossing_count == 3
        assert len(d.regions) == 5
        assert len(d.edges) == 6

    def test_figure_eight_counts(self):
        d = two_bridge_diagram((2, 2)).diagram
        assert d.crossing_count == 4
        assert len(d.regions) == 6

    def test_hopf(self):
        d = AlternatingDiagram.from_pd(HOPF_PD)
        assert len(d.regions) == 4
        assert len(d.strands) == 2

    def test_malformed_label_count(self):
        with pytest.raises(DiagramError, match="appears"):
            AlternatingDiagram.from_pd([(1, 2, 3, 4), (1, 2, 3, 5)])

    def test_empty_rejected(self):
        with pytest.raises(DiagramError, match="malformed"):
            AlternatingDiagram.from_pd([])

    def test_huge_crossing_index_rejected(self):
        # crossing 10^9 would mean 4 * 10^9 slots; the pairing's size is
        # checked against 4n before any slot list is built
        with pytest.raises(DiagramError, match="paired exactly once"):
            AlternatingDiagram.from_json({"rotation": [[[0, 0], [10 ** 9, 1]]]})
        with pytest.raises(DiagramError, match="paired exactly once"):
            AlternatingDiagram(10 ** 9, {(0, 0): (0, 1), (0, 1): (0, 0)})

    def test_non_alternating_rejected(self):
        # pairing opposite ports of the same crossing onto one edge makes a
        # strand meet itself over/over
        with pytest.raises(DiagramError):
            AlternatingDiagram.from_pd([(1, 2, 1, 3), (2, 4, 3, 4)])

    def test_region_report(self):
        rep = two_bridge_diagram((2, 2)).diagram.region_report()
        assert rep["black_count"] + rep["white_count"] == 6
        assert sorted(r["size"] for r in rep["regions"]) == [2, 2, 3, 3, 3, 3]

    def test_json_roundtrip(self):
        d = two_bridge_diagram((3, 2)).diagram
        d2 = AlternatingDiagram.from_json(d.to_json())
        assert d2.crossing_count == d.crossing_count
        assert sorted(map(sorted, d2.pd_code())) == sorted(map(sorted, d.pd_code()))
        d3 = AlternatingDiagram.from_json({"pd": [list(x) for x in d.pd_code()]})
        assert len(d3.regions) == len(d.regions)

    def test_region_count_invariant(self, corpus):
        for name, d in corpus.items():
            assert len(d.regions) == d.crossing_count + 2, name

    def test_every_edge_has_both_colors(self, corpus):
        for name, d in corpus.items():
            for eid in range(len(d.edges)):
                a, b = d.edge_sides(eid)
                assert {d.regions[a].color, d.regions[b].color} == {BLACK, WHITE}, name


class TestPrimeReduced:
    def test_examples(self):
        assert is_prime(two_bridge_diagram((2, 2)).diagram)
        assert is_prime(AlternatingDiagram.from_pd(HOPF_PD))
        assert not is_prime(connected_sum_of_trefoils())
        assert is_reduced(two_bridge_diagram((2, 2)).diagram)
        assert is_reduced(AlternatingDiagram.from_pd(HOPF_PD))

    def test_kink_not_reduced(self):
        # one-crossing unknot with two lobes: nugatory, hence not reduced
        # (still vacuously prime: no loop can have crossings on both sides)
        d = AlternatingDiagram(1, {(0, 0): (0, 1), (0, 1): (0, 0),
                                   (0, 2): (0, 3), (0, 3): (0, 2)})
        assert not is_reduced(d)
        assert is_prime(d)

    def test_corpus(self, corpus):
        for name, d in corpus.items():
            assert is_prime(d) and is_reduced(d), name


class TestRegions:
    def test_region_adjacent(self):
        d = two_bridge_diagram((2, 2)).diagram
        blacks = [R for R in d.regions if R.color == BLACK]
        whites = [R for R in d.regions if R.color == WHITE]
        for i, R1 in enumerate(blacks):
            for R2 in blacks[i + 1:]:
                assert not region_adjacent(d, R1, R2)
        assert any(region_adjacent(d, b, w) for b in blacks for w in whites)
        with pytest.raises(DiagramError):
            region_adjacent(d, blacks[0], blacks[0])

    def test_black_dual_graph(self, corpus):
        for name, d in corpus.items():
            for color in (BLACK, WHITE):
                g = black_dual_graph(d, color)
                assert len(g.edges) == d.crossing_count, name
                same = sum(1 for R in d.regions if R.color == color)
                other = len(d.regions) - same
                assert len(g.vertices) + other == len(d.regions), name

    def test_fig8_dual_sizes(self):
        d = two_bridge_diagram((2, 2)).diagram
        g = black_dual_graph(d)
        gw = black_dual_graph(d, WHITE)
        assert sorted((len(g.vertices), len(gw.vertices))) == [3, 3]
        assert len(g.edges) == 4 == len(gw.edges)
        assert "graph" in g.to_dot()

    def test_torus_two_black_regions(self):
        # the (2,4) torus closure: two regions of one color, four of the other
        d = AlternatingDiagram.from_pd(HOPF_PD)
        counts = sorted((sum(1 for R in d.regions if R.color == BLACK),
                         sum(1 for R in d.regions if R.color == WHITE)))
        assert counts == [2, 2]

    def test_small_white_region_fig8(self):
        d = two_bridge_diagram((2, 2)).diagram
        R, kind = find_small_white_region(d)
        assert kind == "bigon" and len(R) == 2
        nbrs = {d.region_of_slot[d.pairing[h]] for h in R.boundary}
        assert len(nbrs) == 2

    def test_small_region_none_needed(self):
        d = two_bridge_diagram((3, 1, 3)).diagram
        blacks = sum(1 for R in d.regions if R.color == BLACK)
        whites = len(d.regions) - blacks
        color = WHITE if blacks >= 5 else BLACK
        if max(blacks, whites) >= 5:
            assert find_small_white_region(
                d, witness_color=(WHITE if blacks >= 5 else BLACK)) is None

    def test_small_region_rejects_torus(self):
        d = AlternatingDiagram.from_pd(HOPF_PD)
        with pytest.raises(DiagramError, match="torus"):
            find_small_white_region(d)


class TestTwistSequences:
    def test_invariants(self):
        with pytest.raises(DiagramError):
            TwistSequence((3,))
        with pytest.raises(DiagramError):
            TwistSequence((1, 2))
        with pytest.raises(DiagramError):
            TwistSequence((2, 0, 2))
        assert TwistSequence((2, 1, 2)).crossing_count == 5

    def test_builders(self):
        tb = two_bridge_diagram((2, 2))
        assert tb.diagram.crossing_count == 4
        assert tb.crossings_in(1) == [0, 1]
        tb = two_bridge_diagram((3, 2))
        assert tb.diagram.crossing_count == 5
        tb = two_bridge_diagram((2, 1, 2))
        assert tb.diagram.crossing_count == 5
        assert tb.twist_region_of == (1, 1, 2, 3, 3)

    def test_corpus_all_standard(self):
        for seq in twist_sequences(10, 4):
            d = two_bridge_diagram(seq).diagram
            assert is_prime(d) and is_reduced(d), seq
            assert d.crossing_count == sum(seq)


class TestArcSpecs:
    def test_validation(self):
        with pytest.raises(DiagramError):
            InRegionArc(0, 1, 1)
        with pytest.raises(DiagramError):
            TransverseArc(0, 1, ())
        assert CrossingArc(3).crossing == 3

    def test_adjacent_on_region(self):
        d = two_bridge_diagram((2, 2)).diagram
        R = next(R for R in d.regions if len(R) == 3)
        cs = [h[0] for h in R.boundary]
        assert crossings_adjacent_on_region(d, R, cs[0], cs[1])


class TestGearClasses:
    def test_counts(self, corpus):
        for name, d in corpus.items():
            for mirror in (False, True):
                classes = edge_arc_classes(d, mirror)
                assert len(classes) == d.crossing_count, name
                assert all(len(m) == 4 for m, _ in classes), name
                assert sorted(c for _, c in classes) == list(range(d.crossing_count)), name

    def test_two_per_sign(self, corpus):
        for name, d in corpus.items():
            for members, _c in edge_arc_classes(d):
                signs = sorted(s for s, _e in members)
                assert signs == [-1, -1, 1, 1], name


class TestDeterminant:
    def test_known_values(self):
        assert alternating_determinant(AlternatingDiagram.from_pd(TREFOIL_PD)) == 3
        assert alternating_determinant(two_bridge_diagram((2, 2)).diagram) == 5
        assert alternating_determinant(AlternatingDiagram.from_pd(HOPF_PD)) == 2
        assert alternating_determinant(two_bridge_diagram((3, 2)).diagram) == 7

    def test_two_bridge_determinant_is_denominator(self):
        # for the standard diagram of a two-bridge link the determinant equals
        # the continued-fraction denominator of the twist sequence
        from fractions import Fraction
        for seq in ((2, 2), (3, 2), (2, 1, 2), (3, 3), (2, 2, 2)):
            acc = Fraction(seq[-1])
            for a in reversed(seq[:-1]):
                acc = a + 1 / acc
            det = alternating_determinant(two_bridge_diagram(seq).diagram)
            assert det == acc.numerator, seq


class TestFlype:
    def test_tunnel_regions_rejected(self):
        tb = two_bridge_diagram((2, 2))
        with pytest.raises(DiagramError, match="tunnel"):
            flype(tb, 1)
        with pytest.raises(DiagramError, match="tunnel"):
            flype(tb, 2)

    def test_single_crossing_block(self):
        fr = flype(two_bridge_diagram((2, 1, 2)), 2)
        d2 = fr.diagram
        assert d2.crossing_count == 5
        assert is_prime(d2) and is_reduced(d2)
        R = d2.regions[fr.arc.region]
        assert not crossings_adjacent_on_region(d2, R, fr.arc.c1, fr.arc.c2)

    def test_wide_block_chains(self):
        fr = flype(two_bridge_diagram((2, 2, 2)), 2)
        assert fr.trace["flype_steps"] >= 2
        R = fr.diagram.regions[fr.arc.region]
        assert not crossings_adjacent_on_region(fr.diagram, R, fr.arc.c1, fr.arc.c2)

    def test_corpus_preserves_structure(self):
        for seq in twist_sequences(9, 4):
            tb = two_bridge_diagram(seq)
            det = alternating_determinant(tb.diagram)
            comps = len(tb.diagram.strands)
            for i in range(2, len(seq)):
                fr = flype(tb, i)
                assert fr.diagram.crossing_count == tb.diagram.crossing_count, (seq, i)
                assert is_prime(fr.diagram) and is_reduced(fr.diagram), (seq, i)
                assert alternating_determinant(fr.diagram) == det, (seq, i)
                assert len(fr.diagram.strands) == comps, (seq, i)


def four_edge_cuts(d):
    """Every set S of crossings whose boundary cuts exactly four edges, with
    those edges, found by visiting all 2^n subsets in Gray-code order."""
    nbrs = [[d.pairing[(x, i)][0] for i in range(4)] for x in range(d.n)]
    inside = [False] * d.n
    cut = 0
    masks = []
    for k in range(1, 1 << d.n):
        x = (k & -k).bit_length() - 1
        for y in nbrs[x]:
            if y != x:
                cut += 1 if inside[y] == inside[x] else -1
        inside[x] = not inside[x]
        if cut == 4:
            masks.append(k ^ (k >> 1))
    ends = [d.edge_endpoints(e) for e in range(len(d.edges))]
    out = []
    for mask in masks:
        S = frozenset(x for x in range(d.n) if mask >> x & 1)
        out.append((S, {e for e, (a, b) in enumerate(ends) if (a in S) != (b in S)}))
    return out


def subset_flype_disks(d, c, cuts):
    """Flype disks at c by the exhaustive subset search: four cut edges, two
    of them at consecutive ports p, p+1 of c, the far edges at p+2, p+3
    leaving c for crossings outside S and six distinct edges rewired."""
    out = []
    for S, cut in cuts:
        if c in S:
            continue
        ports = sorted(i for i in range(4) if d.pairing[(c, i)][0] in S)
        if ports not in ([0, 1], [1, 2], [2, 3], [0, 3]):
            continue
        p = 3 if ports == [0, 3] else ports[0]
        far = [d.pairing[(c, (p + k) % 4)][0] for k in (2, 3)]
        if any(x in S or x == c for x in far):
            continue
        if len(cut | {d.edge_of_slot[(c, (p + k) % 4)] for k in (2, 3)}) != 6:
            continue
        f1, f2 = sorted(cut - {d.edge_of_slot[(c, p)], d.edge_of_slot[(c, (p + 1) % 4)]})
        out.append((S, p, (f1, f2)))
    return sorted(out, key=lambda item: (len(item[0]), sorted(item[0])))


class TestFlypeDisks:
    def test_match_subset_search(self):
        diagrams = [two_bridge_diagram(seq).diagram for seq in twist_sequences(12)]
        diagrams += [pretzel_diagram(*tw) for tw in ((3, 3, 3), (2, 3, 4), (2, 2, 3, 3))]
        for d in diagrams:
            cuts = four_edge_cuts(d)
            for c in range(d.n):
                assert _flype_disks(d, c) == subset_flype_disks(d, c, cuts), (d.pd_code(), c)

    def test_non_prime_rejected(self):
        with pytest.raises(DiagramError, match="non-prime"):
            next(_pinch_flypes(connected_sum_of_trefoils(), 0))


# Traces and flyped PD codes of the subset search, which the 4-cycle
# search must reproduce exactly.
FLYPE_GOLDEN = {
    ((2, 2, 2), 2): (
        {"twist_region": 2, "crossing": 2, "searched_from": 2, "flype_steps": 2,
         "image_region": 2, "image_endpoints": [3, 4]},
        [(0, 1, 2, 3), (3, 4, 5, 0), (6, 7, 8, 9), (1, 5, 7, 6), (9, 10, 11, 2), (10, 8, 4, 11)]),
    ((2, 12, 2), 2): (
        {"twist_region": 2, "crossing": 2, "searched_from": 2, "flype_steps": 2,
         "image_region": 2, "image_endpoints": [3, 14]},
        [(0, 1, 2, 3), (3, 4, 5, 0), (6, 7, 8, 9), (1, 5, 7, 6), (10, 11, 9, 8),
         (12, 13, 11, 10), (14, 15, 13, 12), (16, 17, 15, 14), (18, 19, 17, 16),
         (20, 21, 19, 18), (22, 23, 21, 20), (24, 25, 23, 22), (26, 27, 25, 24),
         (28, 29, 27, 26), (29, 30, 31, 2), (30, 28, 4, 31)]),
    ((2, 16, 2), 2): (
        {"twist_region": 2, "crossing": 2, "searched_from": 2, "flype_steps": 2,
         "image_region": 2, "image_endpoints": [3, 18]},
        [(0, 1, 2, 3), (3, 4, 5, 0), (6, 7, 8, 9), (1, 5, 7, 6), (10, 11, 9, 8),
         (12, 13, 11, 10), (14, 15, 13, 12), (16, 17, 15, 14), (18, 19, 17, 16),
         (20, 21, 19, 18), (22, 23, 21, 20), (24, 25, 23, 22), (26, 27, 25, 24),
         (28, 29, 27, 26), (30, 31, 29, 28), (32, 33, 31, 30), (34, 35, 33, 32),
         (36, 37, 35, 34), (37, 38, 39, 2), (38, 36, 4, 39)]),
    ((4, 4, 4, 4, 4), 3): (
        {"twist_region": 3, "crossing": 8, "searched_from": 8, "flype_steps": 1,
         "image_region": 6, "image_endpoints": [3, 7]},
        [(0, 1, 2, 3), (1, 4, 5, 2), (4, 6, 7, 5), (6, 8, 9, 7), (10, 11, 8, 0),
         (12, 13, 11, 10), (14, 15, 13, 12), (16, 17, 15, 14), (18, 16, 3, 19),
         (17, 20, 21, 9), (20, 22, 23, 21), (22, 24, 25, 23), (19, 25, 26, 27),
         (27, 26, 28, 29), (29, 28, 30, 31), (31, 30, 32, 33), (24, 34, 35, 32),
         (34, 36, 37, 35), (36, 38, 39, 37), (38, 18, 33, 39)]),
    ((5, 5, 5, 5), 3): (
        {"twist_region": 3, "crossing": 10, "searched_from": 10, "flype_steps": 1,
         "image_region": 7, "image_endpoints": [4, 9]},
        [(0, 1, 2, 3), (1, 4, 5, 2), (4, 6, 7, 5), (6, 8, 9, 7), (8, 10, 11, 9),
         (12, 13, 10, 0), (14, 15, 13, 12), (16, 17, 15, 14), (18, 19, 17, 16),
         (20, 21, 19, 18), (22, 20, 3, 23), (21, 24, 25, 11), (24, 26, 27, 25),
         (26, 28, 29, 27), (28, 30, 31, 29), (23, 31, 32, 33), (33, 32, 34, 35),
         (35, 34, 36, 37), (37, 36, 38, 39), (39, 38, 30, 22)]),
}


@pytest.mark.parametrize("seq,i", list(FLYPE_GOLDEN))
def test_flype_golden(seq, i):
    trace, pd = FLYPE_GOLDEN[seq, i]
    fr = flype(two_bridge_diagram(seq), i)
    assert fr.trace == trace
    assert fr.diagram.pd_code() == pd


class TestPretzel:
    def test_valid(self):
        for twists in ((3, 3, 3), (2, 3, 3), (2, 3, 4), (3, 3, 3, 3)):
            d = pretzel_diagram(*twists)
            assert d.crossing_count == sum(twists)
            assert is_prime(d) and is_reduced(d)

    def test_rejects_bad_counts(self):
        with pytest.raises(DiagramError):
            pretzel_diagram(3)
        with pytest.raises(DiagramError):
            pretzel_diagram(3, 0, 3)

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from cuspcubes.diagram import (
    AlternatingDiagram, BLACK, CrossingArc, DiagramError, InRegionArc, MAX_CROSSINGS,
    TransverseArc, TwoBridgeDiagram, WHITE, arc_crossing, crossings_adjacent_on_region,
    find_small_white_region, flype, is_prime, is_reduced, pretzel_diagram, twist_sequence,
    two_bridge_diagram,
)
from cuspcubes.diagram import _spot_options, _tail_flype
from cuspcubes.cubing import _UnionFind
from cuspcubes.farey import ContinuedFraction, cf_value
from conftest import diagram_corpus, twist_sequences
import diagram_oracles as oracle
from diagram_oracles import (_flype_disks, _mirror, built_diagram, edge_endpoints, edge_of_slot, edge_sides,
                             outcome, read_off, region_adjacent, region_edges, region_of_slot, tuple_views,
                             walked_views, wires_of)
from gear_oracles import closed_form_classes, edge_arc_classes

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
            return AlternatingDiagram(6, wires_of(pairing))
        except DiagramError:
            continue
    raise AssertionError("no valid splice found")


class TestConstruction:
    def test_trefoil_pd(self):
        d = AlternatingDiagram.from_pd(TREFOIL_PD)
        assert d.n == 3
        assert len(d.regions) == 5
        assert len(d.edges) == 6

    def test_figure_eight_counts(self):
        d = two_bridge_diagram((2, 2)).diagram
        assert d.n == 4
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
            AlternatingDiagram(10 ** 9, wires_of({(0, 0): (0, 1), (0, 1): (0, 0)}))

    def test_bad_json_shapes_rejected(self):
        for obj in (5, [[1, 2, 3, 4]], {"pd": 5}, {"pd": [[[1], 2, 3, 4]]}, {"pd": [5]},
                    {"pd": [[1, 2, 3, True], [1, 2, 3, 4]]}, {"pd": [["a", "b", "a", "b"]]},
                    {"rotation": [[[0], [1, 2]]]}, {"rotation": 5}, {"rotation": []},
                    {"rotation": [[[0, 0]]]}, {"rotation": [[[0, "1"], [0, 2]]]}):
            with pytest.raises(DiagramError, match="malformed"):
                AlternatingDiagram.from_json(obj)

    def test_rotation_naming_a_slot_twice_rejected(self):
        # wiring the pairs in order, a later pair would re-pair an earlier
        # one's slots: the (2,1,2) rotation with [a, c] and [b, e] taken from
        # its first two pairs, and with its first pair repeated
        pairs = two_bridge_diagram((2, 1, 2)).diagram.to_json()["rotation"]
        (a, b), (c, e) = pairs[:2]
        for rotation in (pairs + [[a, c], [b, e]], pairs + pairs[:1]):
            with pytest.raises(DiagramError, match=r"^malformed: every slot must be paired exactly once$"):
                AlternatingDiagram.from_json({"rotation": rotation})

    def test_pd_and_rotation_together_rejected(self):
        d = two_bridge_diagram((2, 1, 2)).diagram
        with pytest.raises(DiagramError, match=r"^malformed: give either a 'pd' or a 'rotation' field, not both$"):
            AlternatingDiagram.from_json({"pd": [list(x) for x in d.pd_code()], **d.to_json()})

    def test_non_alternating_rejected(self):
        # the trefoil with crossing 0 switched: planar, and a strand passes
        # over twice in a row
        with pytest.raises(DiagramError, match="^non-alternating: consecutive passages on a strand agree$"):
            AlternatingDiagram.from_pd([(5, 1, 4, 2), (3, 6, 4, 1), (5, 2, 6, 3)])

    def test_non_planar_rejected(self):
        # pairing opposite ports of the same crossing onto one edge leaves too
        # few faces for the sphere; both pairings also fail alternation, which
        # is checked after planarity
        with pytest.raises(DiagramError, match=r"^non-planar: 2 crossings with 2 regions \(expected 4 on the sphere\)$"):
            AlternatingDiagram.from_pd([(1, 2, 1, 3), (2, 4, 3, 4)])
        with pytest.raises(DiagramError, match=r"^non-planar: 1 crossings with 1 regions \(expected 3 on the sphere\)$"):
            AlternatingDiagram(1, wires_of({(0, 0): (0, 2), (0, 2): (0, 0), (0, 1): (0, 3), (0, 3): (0, 1)}))

    def test_disconnected_rejected(self):
        with pytest.raises(DiagramError, match="^disconnected: the diagram graph must be connected$"):
            AlternatingDiagram.from_pd(HOPF_PD + [(5, 7, 6, 8), (7, 5, 8, 6)])

    def test_json_roundtrip(self):
        d = two_bridge_diagram((3, 2)).diagram
        d2 = AlternatingDiagram.from_json(d.to_json())
        assert d2.n == d.n
        assert sorted(map(sorted, d2.pd_code())) == sorted(map(sorted, d.pd_code()))
        d3 = AlternatingDiagram.from_json({"pd": [list(x) for x in d.pd_code()]})
        assert len(d3.regions) == len(d.regions)

    def test_region_count_invariant(self, corpus):
        for name, d in corpus.items():
            assert len(d.regions) == d.n + 2, name

    def test_every_edge_has_both_colors(self, corpus):
        for name, d in corpus.items():
            for eid in range(len(d.edges)):
                a, b = edge_sides(d, eid)
                assert {d.regions[a].color, d.regions[b].color} == {BLACK, WHITE}, name


MUTATED = diagram_corpus()


def turned(pairing, c):
    """The pairing with the slots of crossing c turned by one position."""
    def turn(h):
        return (c, (h[1] + 1) % 4) if h[0] == c else h
    return {turn(h): turn(k) for h, k in pairing.items()}


def spliced(d, e1, e2, cross):
    """The pairing with edges {a, b} = e1 and {x, y} = e2 reconnected as
    {a, y}, {x, b}, or as {a, x}, {b, y} when `cross`."""
    (a, b), (x, y) = sorted(d.edges[e1]), sorted(d.edges[e2])
    pairing = dict(d.pairing)
    for h, k in ((a, x), (b, y)) if cross else ((a, y), (x, b)):
        pairing[h] = k
        pairing[k] = h
    return pairing


class TestParityOracle:
    """Colors from slot parity and alternation as edge parity, against the
    strand walk and the depth-first coloring of `diagram_oracles`, and the
    views built on flat slot ids against its tuple-slot face walk."""

    def test_corpus_twist_sequences_and_pretzels(self, corpus):
        diagrams = list(corpus.values())
        diagrams += [two_bridge_diagram(seq).diagram for seq in twist_sequences(12)]
        diagrams += [pretzel_diagram(*t) for k in (2, 3, 4) for t in product(range(1, 5), repeat=k)]
        assert len(diagrams) == 13 + 1013 + 336
        for d in diagrams:
            assert read_off(d) == walked_views(d.n, d.pairing), d.pd_code()

    def test_eager_flype_trials(self, eager_corpus):
        # every trial rewiring, those the constructor refuses included
        trials = eager_corpus[4]
        assert sum(built for built, _agree in trials) == 4360
        assert all(agree for _built, agree in trials)

    @settings(max_examples=400)
    @given(st.data())
    def test_mutated_pairings(self, data):
        # one crossing turned by one slot, or two edges spliced: the
        # constructor accepts what the oracle accepts, reads the same colors,
        # strands and views off it, and otherwise raises the same first error
        d = MUTATED[data.draw(st.sampled_from(sorted(MUTATED)))]
        if data.draw(st.booleans()):
            pairing = turned(d.pairing, data.draw(st.integers(0, d.n - 1)))
        else:
            edge = st.integers(0, len(d.edges) - 1)
            pairing = spliced(d, data.draw(edge), data.draw(edge), data.draw(st.booleans()))
        assert outcome(built_diagram, d.n, pairing) == outcome(walked_views, d.n, pairing)


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
        d = AlternatingDiagram(1, wires_of({(0, 0): (0, 1), (0, 1): (0, 0),
                                            (0, 2): (0, 3), (0, 3): (0, 2)}))
        assert not is_reduced(d)
        assert is_prime(d)

    def test_corpus(self, corpus):
        for name, d in corpus.items():
            assert is_prime(d) and is_reduced(d), name


class TestRegions:
    def test_region_adjacent(self):
        d = two_bridge_diagram((2, 2)).diagram
        blacks = [R.index for R in d.regions if R.color == BLACK]
        whites = [R.index for R in d.regions if R.color == WHITE]
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
                assert len(g.edges) == d.n, name
                same = sum(1 for R in d.regions if R.color == color)
                other = len(d.regions) - same
                assert len(g.vertices) + other == len(d.regions), name

    def test_fig8_dual_sizes(self):
        d = two_bridge_diagram((2, 2)).diagram
        g = black_dual_graph(d)
        gw = black_dual_graph(d, WHITE)
        assert sorted((len(g.vertices), len(gw.vertices))) == [3, 3]
        assert len(g.edges) == 4 == len(gw.edges)

    def test_torus_two_black_regions(self):
        # the (2,4) torus closure: two regions of one color, four of the other
        d = AlternatingDiagram.from_pd(HOPF_PD)
        counts = sorted((sum(1 for R in d.regions if R.color == BLACK),
                         sum(1 for R in d.regions if R.color == WHITE)))
        assert counts == [2, 2]

    def test_small_white_region_fig8(self):
        d = two_bridge_diagram((2, 2)).diagram
        r, kind = find_small_white_region(d)
        assert kind == "bigon" and len(d.regions[r].boundary) == 2
        nbrs = {region_of_slot(d)[d.pairing[h]] for h in d.regions[r].boundary}
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
            twist_sequence((3,))
        with pytest.raises(DiagramError):
            twist_sequence((1, 2))
        with pytest.raises(DiagramError):
            twist_sequence((2, 0, 2))
        assert twist_sequence([2, 1, 2]) == (2, 1, 2)

    def test_builders(self):
        tb = two_bridge_diagram((2, 2))
        assert tb.diagram.n == 4
        assert tb.crossings_in(1) == [0, 1]
        tb = two_bridge_diagram((3, 2))
        assert tb.diagram.n == 5
        tb = two_bridge_diagram((2, 1, 2))
        assert tb.diagram.n == 5
        assert tb.twist_region_of == (1, 1, 2, 3, 3)

    def test_corpus_all_standard(self):
        for seq in twist_sequences(10, 4):
            d = two_bridge_diagram(seq).diagram
            assert is_prime(d) and is_reduced(d), seq
            assert d.n == sum(seq)


TWIST_COUNTS = st.lists(st.integers(1, 6), min_size=2, max_size=9).map(
    lambda a: (max(a[0], 2), *a[1:-1], max(a[-1], 2)))


class TestTwoBridgeWiring:
    """The construction order that flype relies on."""

    @settings(max_examples=300)
    @given(TWIST_COUNTS)
    def test_twist_bigons_and_tail_cuts(self, seq):
        tb = two_bridge_diagram(seq)
        d = tb.diagram
        bigons = {R.distinct_crossings for R in d.regions if len(R.boundary) == 2}
        for i in range(1, len(seq) + 1):
            members = tb.crossings_in(i)
            # consecutive crossings of a twist region bound a bigon
            for c1, c2 in zip(members, members[1:]):
                shared = [e for e in d.edges if {h[0] for h in e} == {c1, c2}]
                assert len(shared) == 2 and frozenset((c1, c2)) in bigons, (seq, c1)
            if 1 < i < len(seq):
                # the tail after an interior region's first crossing c is a
                # tangle: four edges cut it off, two at consecutive ports of c
                c = members[0]
                tail = set(range(c + 1, d.n))
                cut = [e for e in d.edges if len({h[0] in tail for h in e}) == 2]
                ports = sorted(j for e in cut for x, j in e if x == c)
                assert len(cut) == 4 and len(ports) == 2 and (ports[1] - ports[0]) % 2 == 1, (seq, i)


class TestArcSpecs:
    def test_validation(self):
        with pytest.raises(DiagramError):
            InRegionArc(0, 1, 1)
        with pytest.raises(DiagramError):
            TransverseArc(0, 1, ())
        assert CrossingArc(3).crossing == 3

    def test_adjacent_on_region(self):
        d = two_bridge_diagram((2, 2)).diagram
        R = next(R for R in d.regions if len(R.boundary) == 3)
        cs = [h[0] for h in R.boundary]
        assert crossings_adjacent_on_region(d, R.index, cs[0], cs[1])


def joined_one_at_a_time(size, pairs) -> dict:
    """Label -> members of the classes that the pairs span, by relabelling."""
    label = list(range(size))
    for a, b in pairs:
        la, lb = label[a], label[b]
        label = [lb if x == la else x for x in label]
    out = {}
    for g, x in enumerate(label):
        out.setdefault(x, []).append(g)
    return out


class TestUnionFind:
    def test_classes_leave_every_parent_at_its_root(self):
        rng = random.Random(10)
        for _ in range(20):
            uf = _UnionFind(60)
            germs = range(60)
            pairs = [(rng.choice(germs), rng.choice(germs)) for _ in range(45)]
            uf.union(pairs)
            ref = list(uf.parent)

            def find(g):
                while ref[g] != g:
                    g = ref[g]
                return g

            assert any(uf.parent[g] != find(g) for g in germs)
            # the roots in id order, as the closures read them, and every
            # parent left at its root: the germ -> class map
            want = {}
            for g in germs:
                want.setdefault(find(g), []).append(g)
            assert uf.roots() == sorted(want)
            assert all(uf.parent[g] == find(g) for g in germs)
            # the classes are those of the pairs, joined one at a time
            assert sorted(map(sorted, want.values())) == sorted(
                map(sorted, joined_one_at_a_time(60, pairs).values()))


def gear_mismatches(d, mirror=False):
    """Positive-copy edges (negative-copy under the mirror flag, whose
    slot pairs swap) that the closure files under another crossing than
    arc_crossing names."""
    sign = -1 if mirror else 1
    return sum(1 for members, x in edge_arc_classes(d, mirror) for s, e in members
               if s == sign and arc_crossing(d, e) != x)


class TestGearClasses:
    def test_counts(self, corpus):
        for name, d in corpus.items():
            for mirror in (False, True):
                classes = edge_arc_classes(d, mirror)
                assert len(classes) == d.n, name
                assert all(len(m) == 4 for m, _ in classes), name
                assert sorted(c for _, c in classes) == list(range(d.n)), name

    def test_two_per_sign(self, corpus):
        for name, d in corpus.items():
            for members, _c in edge_arc_classes(d):
                signs = sorted(s for s, _e in members)
                assert signs == [-1, -1, 1, 1], name

    def test_closed_form_matches_closure(self):
        diagrams = list(diagram_corpus().values()) + [
            two_bridge_diagram(seq).diagram for seq in twist_sequences(12)]
        checked = 0
        for d in diagrams:
            for mirror in (False, True):
                classes = edge_arc_classes(d, mirror)
                assert {x: set(m) for m, x in classes} == closed_form_classes(d, mirror), d.pd_code()
                assert gear_mismatches(d, mirror) == 0, d.pd_code()
                checked += 1
        assert checked == 2052


class TestDeterminant:
    def test_known_values(self):
        assert fraction_determinant(AlternatingDiagram.from_pd(TREFOIL_PD)) == 3
        assert fraction_determinant(two_bridge_diagram((2, 2)).diagram) == 5
        assert fraction_determinant(AlternatingDiagram.from_pd(HOPF_PD)) == 2
        assert fraction_determinant(two_bridge_diagram((3, 2)).diagram) == 7

    def test_two_bridge_determinant_is_denominator(self):
        # the determinant of the standard diagram of a two-bridge link is p
        # for the Farey layer's slope [0; a1, ..., an] = q/p
        seqs = twist_sequences(12)
        assert len(seqs) == 1013
        for seq in seqs:
            det = fraction_determinant(two_bridge_diagram(seq).diagram)
            assert det == cf_value(ContinuedFraction(0, seq)).p, seq


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
        assert d2.n == 5
        assert is_prime(d2) and is_reduced(d2)
        assert not crossings_adjacent_on_region(d2, fr.arc.region, fr.arc.c1, fr.arc.c2)

    def test_wide_block_chains(self):
        fr = flype(two_bridge_diagram((2, 2, 2)), 2)
        assert fr.trace["flype_steps"] >= 2
        assert not crossings_adjacent_on_region(fr.diagram, fr.arc.region, fr.arc.c1, fr.arc.c2)

    def test_corpus_preserves_structure(self):
        for seq in twist_sequences(9, 4):
            tb = two_bridge_diagram(seq)
            det = fraction_determinant(tb.diagram)
            comps = len(tb.diagram.strands)
            for i in range(2, len(seq)):
                fr = flype(tb, i)
                assert fr.diagram.n == tb.diagram.n, (seq, i)
                assert is_prime(fr.diagram) and is_reduced(fr.diagram), (seq, i)
                assert fraction_determinant(fr.diagram) == det, (seq, i)
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
    ends = [edge_endpoints(d, e) for e in range(len(d.edges))]
    out = []
    for mask in masks:
        S = frozenset(x for x in range(d.n) if mask >> x & 1)
        out.append((S, {e for e, (a, b) in enumerate(ends) if (a in S) != (b in S)}))
    return out


def subset_flype_disks(d, c, cuts):
    """Flype disks at c by the exhaustive subset search: four cut edges, two
    of them at consecutive ports p, p+1 of c, the far edges at p+2, p+3
    leaving c for crossings outside S and six distinct edges rewired."""
    out, eos = [], edge_of_slot(d)
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
        if len(cut | {eos[(c, (p + k) % 4)] for k in (2, 3)}) != 6:
            continue
        f1, f2 = sorted(cut - {eos[(c, p)], eos[(c, (p + 1) % 4)]})
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
        tb = TwoBridgeDiagram((2, 2, 2), connected_sum_of_trefoils(), (1, 1, 2, 2, 3, 3))
        with pytest.raises(DiagramError, match="non-prime"):
            flype(tb, 2)


# Traces and flyped PD codes of the tail rule.  The two one-step A3 flypes
# are also those of a search over all subsets of crossings, smallest disk
# first; the (2,k,2) chains cross other disks than that search's.
FLYPE_GOLDEN = {
    ((2, 2, 2), 2): (
        {"twist_region": 2, "crossing": 2, "searched_from": 2, "flype_steps": 2,
         "image_region": 4, "image_endpoints": [2, 3]},
        [(0, 1, 2, 3), (4, 2, 1, 5), (3, 4, 6, 7), (8, 9, 5, 0), (9, 10, 11, 6), (10, 8, 7, 11)]),
    ((2, 12, 2), 2): (
        {"twist_region": 2, "crossing": 2, "searched_from": 2, "flype_steps": 2,
         "image_region": 4, "image_endpoints": [2, 3]},
        [(0, 1, 2, 3), (4, 2, 1, 5), (3, 4, 6, 7), (8, 9, 5, 0), (10, 11, 9, 8),
         (12, 13, 11, 10), (14, 15, 13, 12), (16, 17, 15, 14), (18, 19, 17, 16),
         (20, 21, 19, 18), (22, 23, 21, 20), (24, 25, 23, 22), (26, 27, 25, 24),
         (28, 29, 27, 26), (29, 30, 31, 6), (30, 28, 7, 31)]),
    ((2, 16, 2), 2): (
        {"twist_region": 2, "crossing": 2, "searched_from": 2, "flype_steps": 2,
         "image_region": 4, "image_endpoints": [2, 3]},
        [(0, 1, 2, 3), (4, 2, 1, 5), (3, 4, 6, 7), (8, 9, 5, 0), (10, 11, 9, 8),
         (12, 13, 11, 10), (14, 15, 13, 12), (16, 17, 15, 14), (18, 19, 17, 16),
         (20, 21, 19, 18), (22, 23, 21, 20), (24, 25, 23, 22), (26, 27, 25, 24),
         (28, 29, 27, 26), (30, 31, 29, 28), (32, 33, 31, 30), (34, 35, 33, 32),
         (36, 37, 35, 34), (37, 38, 39, 6), (38, 36, 7, 39)]),
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


# ---------------------------------------------------------------------------
# Oracles: the Fraction determinant of the checkerboard graph and the eager
# flype search, which builds every trial rewiring and every follow-up's gear
# map
# ---------------------------------------------------------------------------

@dataclass
class DualGraph:
    """Multigraph on the regions of one color; one edge per crossing."""

    color: str
    vertices: list[int]                    # region indices
    edges: list[tuple[int, int, int]]      # (region, region, crossing)


def black_dual_graph(d, color=BLACK):
    """Graph whose vertices are the regions of one color, one edge per
    crossing.  It has no loop edge: `regions_at_crossing` refuses a crossing
    whose two same-color corners coincide."""
    verts = [R.index for R in d.regions if R.color == color]
    edges = []
    for c in range(d.n):
        r1, r2 = oracle.regions_at_crossing(d, c, color)
        edges.append((r1.index, r2.index, c))
    return DualGraph(color, verts, edges)


def fraction_determinant(d):
    """Spanning-tree count of the black graph by Fraction elimination."""
    g = black_dual_graph(d)
    verts = g.vertices
    if len(verts) == 1:
        return 1
    idx = {v: i for i, v in enumerate(verts)}
    m = len(verts) - 1
    lap = [[0] * (m + 1) for _ in range(m + 1)]
    for a, b, _c in g.edges:
        ia, ib = idx[a], idx[b]
        lap[ia][ia] += 1
        lap[ib][ib] += 1
        lap[ia][ib] -= 1
        lap[ib][ia] -= 1
    mat = [[Fraction(lap[i][j]) for j in range(m)] for i in range(m)]
    det = Fraction(1)
    for col in range(m):
        piv = None
        for row in range(col, m):
            if mat[row][col] != 0:
                piv = row
                break
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for row in range(col + 1, m):
            f = mat[row][col] * inv
            if f:
                for j in range(col, m):
                    mat[row][j] -= f * mat[col][j]
    assert det.denominator == 1
    return abs(int(det))


def eager_trials(d, c, disks=None):
    """Every trial rewiring at c that is a slot involution, as (disk number,
    pairing, spot), in the order of the flype search: for each flype disk
    (all of `_flype_disks` unless `disks` names some), both slot orders on
    each diagonal of c and both ways of pairing the far strands with the
    diagonals."""
    for j, (S, p, f_ids) in enumerate(_flype_disks(d, c) if disks is None else disks):
        att1 = d.pairing[(c, p)]
        att2 = d.pairing[(c, (p + 1) % 4)]
        g1_far = d.pairing[(c, (p + 2) % 4)]
        g2_far = d.pairing[(c, (p + 3) % 4)]
        fS = [next(h for h in d.edges[f] if h[0] in S) for f in f_ids]
        fR = [next(h for h in d.edges[f] if h[0] not in S) for f in f_ids]

        def mu(h):
            return _mirror(h, S)

        eos = edge_of_slot(d)
        removed = {eos[(c, k)] for k in range(4)} | set(f_ids)
        base = []
        seen = set()
        for h, k in d.pairing.items():
            if h in seen:
                continue
            seen.update((h, k))
            if eos[h] in removed:
                continue
            base.append((mu(h), mu(k)))
        spot = [(mu(att1), g1_far), (mu(att2), g2_far)]
        for f1 in (0, 1):
            for f2 in (0, 1):
                a1, a2 = ((c, 0), (c, 2)) if not f1 else ((c, 2), (c, 0))
                b1, b2 = ((c, 1), (c, 3)) if not f2 else ((c, 3), (c, 1))
                for assoc in (0, 1):
                    if assoc:
                        far = [(mu(fS[0]), a1), (fR[0], a2), (mu(fS[1]), b1), (fR[1], b2)]
                    else:
                        far = [(mu(fS[0]), a1), (fR[0], a2), (fR[1], b1), (mu(fS[1]), b2)]
                    pairing = {}
                    ok = True
                    for h, k in base + spot + far:
                        if h in pairing or k in pairing or h == k:
                            ok = False
                            break
                        pairing[h] = k
                        pairing[k] = h
                    if ok and len(pairing) == 4 * d.n:
                        yield j, pairing, spot


def built_spot_options(d2, spot):
    """The in-region arcs the image of the crossing arc can be, read off the
    built diagram: (R, c1, c2, adjacent) for each region R holding both spot
    edges and each pair of distinct ends c1, c2 of the two, by region index."""
    ea, eb = (edge_of_slot(d2)[h] for h, _k in spot)
    out = []
    for R in d2.regions:
        if {ea, eb} <= region_edges(d2, R.index):
            cs = [c for c, _i in R.boundary]
            steps = {frozenset(pair) for pair in zip(cs, cs[1:] + cs[:1])}
            for c1 in [h[0] for h in d2.edges[ea]]:
                for c2 in [h[0] for h in d2.edges[eb]]:
                    if c1 != c2 and c1 in R.distinct_crossings and c2 in R.distinct_crossings:
                        out.append((R, c1, c2, frozenset((c1, c2)) in steps))
    return out


def keeps_invariants(d2, strands0, det0):
    """Does d2 have strands0 strands and determinant det0, and is it prime
    and reduced?"""
    return (len(d2.strands) == strands0 and is_prime(d2) and is_reduced(d2)
            and fraction_determinant(d2) == det0)


def disk_survivors(d, c, disk):
    """The trial rewirings at c across one flype disk (S, p, (f1, f2)) that
    the eager search keeps, as (pairing, spot) pairs."""
    det0, strands0 = fraction_determinant(d), len(d.strands)
    out = []
    for _j, pairing, spot in eager_trials(d, c, [disk]):
        try:
            d2 = AlternatingDiagram(d.n, wires_of(pairing))
        except DiagramError:
            continue
        if keeps_invariants(d2, strands0, det0):
            out.append((pairing, spot))
    return out


def eager_pinch_flypes(d, c, record):
    """Build every trial rewiring at c and filter it by strand count,
    primeness, reducedness and determinant; return the survivors as
    (diagram, spot).  `record` collects, per built rewiring, its spot options
    read off the pairing and off the built diagram and its count of gear
    mismatches, per trial rewiring (built, agrees with the strand-walk
    oracle), and per call (d, c, the survivors of each flype disk as
    (pairing, spot) pairs)."""
    if not is_prime(d):
        raise DiagramError("non-prime: the flype search needs a prime diagram")
    det0 = fraction_determinant(d)
    strands0 = len(d.strands)
    disks = [[] for _ in _flype_disks(d, c)]
    out = []
    for j, pairing, spot in eager_trials(d, c):
        walked = outcome(walked_views, d.n, pairing)
        try:
            d2 = AlternatingDiagram(d.n, wires_of(pairing))
        except DiagramError as err:
            record["oracle"].append((False, str(err) == walked))
            continue
        record["oracle"].append((True, read_off(d2) == walked))
        record["gear_mismatches"].append(gear_mismatches(d2))
        record["spots"].append((
            [(r, c1, c2, bool(joint)) for r, c1, c2, joint in _spot_options(d2, flat(spot))],
            [(R.index, c1, c2, adjacent) for R, c1, c2, adjacent in built_spot_options(d2, spot)]))
        if not keeps_invariants(d2, strands0, det0):
            continue
        disks[j].append((pairing, spot))
        out.append((d2, spot))
    record["calls"].append((d, c, disks))
    return out


def diagram_key(d):
    return frozenset(frozenset(e) for e in d.edges)


def eager_flype_arc_search(d, c, record, max_depth=5):
    """The breadth-first search over every flype disk of every intermediate
    diagram, at most `max_depth` flypes deep: returns (diagram, arc,
    steps) for the first image whose ends are not adjacent."""
    visited = {(diagram_key(d), c)}
    queue = [(d, c, 0)]
    while queue:
        cur, cc, depth = queue.pop(0)
        if depth >= max_depth:
            continue
        followups = []
        for d2, spot in eager_pinch_flypes(cur, cc, record):
            options = built_spot_options(d2, spot)
            nonadj = [(R, c1, c2) for R, c1, c2, adjacent in options if not adjacent]
            if nonadj:
                R, c1, c2 = nonadj[0]
                return d2, InRegionArc(R.index, c1, c2), depth + 1
            followups.append((d2, [(R, c1, c2) for R, c1, c2, _ in options]))
        for d2, adj in followups:
            if not adj:
                continue
            gear = {e: x for members, x in edge_arc_classes(d2) for s, e in members if s == 1}
            for R, c1, c2 in adj:
                for e in region_edges(d2, R.index):
                    if {h[0] for h in d2.edges[e]} == {c1, c2}:
                        key = (diagram_key(d2), gear[e])
                        if key not in visited:
                            visited.add(key)
                            queue.append((d2, gear[e], depth + 1))
    raise DiagramError(f"no flype chain found for the crossing arc at {c}")


def search_outcome(d2, arc, steps):
    return arc, steps, d2.pd_code(), d2.to_json()


@pytest.fixture(scope="module")
def eager_corpus():
    """The eager search run on every interior twist region of the two-bridge
    sequences with at most 10 crossings and four larger ones.

    Returns per region (seq, i, eager outcome), per trial rewiring the
    eager search built its spot kinds read both ways, per
    `eager_pinch_flypes` call the survivors of each flype disk, per
    built trial rewiring its count of gear mismatches, and per trial
    rewiring whether the constructor built it and whether it agreed with
    `diagram_oracles.walked_views`.
    """
    regions = []
    record = {"spots": [], "calls": [], "gear_mismatches": [], "oracle": []}
    for seq in twist_sequences(10) + [(2, 16, 2), (4, 4, 4, 4, 4), (5, 5, 5, 5), (5, 5, 5, 5, 5)]:
        tb = two_bridge_diagram(seq)
        for i in range(2, len(seq)):
            try:
                out = search_outcome(*eager_flype_arc_search(tb.diagram, tb.crossings_in(i)[0], record))
            except DiagramError as err:
                out = str(err)
            regions.append((seq, i, out))
    return regions, record["spots"], record["calls"], record["gear_mismatches"], record["oracle"]


def flat(pairs):
    """Pairs of tuple slots (c, i) as pairs of flat slot ids 4c + i."""
    return [(4 * h[0] + h[1], 4 * k[0] + k[1]) for h, k in pairs]


def tupled(pairs):
    """Pairs of flat slot ids as pairs of tuple slots (c, i)."""
    return [(divmod(a, 4), divmod(b, 4)) for a, b in pairs]


def as_pairing(wired):
    """A `_tail_flype` result (wires, spot) on tuple slots: the pairing dict
    of the wires and the spot pairs."""
    wires, spot = wired
    pairing = {}
    for h, k in tupled(wires):
        pairing[h], pairing[k] = k, h
    return pairing, tupled(spot)


def relabel_at(pairing, c):
    """The same rewiring with the slots of crossing c turned by 180 degrees."""
    def turn(h):
        return (c, (h[1] + 2) % 4) if h[0] == c else h
    return {turn(h): turn(k) for h, k in pairing.items()}


class TestLazyFlypeSearch:
    def test_valid_against_eager_search(self, eager_corpus, monkeypatch):
        # each flype of the chain crosses a disk that the 4-cycle oracle
        # lists, with that disk's one surviving wiring; the image keeps the
        # invariants, its ends are not adjacent, and the chain is as long
        # as the eager search's
        import cuspcubes.diagram as D
        steps = []

        def recorded(d, c, S):
            wired = _tail_flype(d, c, S)
            if wired:
                steps.append((d, c, S, wired))
            return wired

        monkeypatch.setattr(D, "_tail_flype", recorded)
        regions = eager_corpus[0]
        assert len(regions) == 531
        same = 0
        for seq, i, out in regions:
            tb = two_bridge_diagram(seq)
            steps.clear()
            fr = flype(tb, i)
            assert len(steps) == fr.trace["flype_steps"] == out[1], (seq, i)
            for d, c, S, wired in steps:
                x, spot = as_pairing(wired)
                disk = next(disk for disk in _flype_disks(d, c) if disk[0] == S)
                y = relabel_at(x, c)
                assert disk_survivors(d, c, disk) == [(x, spot), (x, spot), (y, spot), (y, spot)], (seq, i)
            d2 = fr.diagram
            assert keeps_invariants(d2, len(tb.diagram.strands), fraction_determinant(tb.diagram)), (seq, i)
            assert not crossings_adjacent_on_region(d2, fr.arc.region, fr.arc.c1, fr.arc.c2)
            assert (fr.trace["image_region"], fr.trace["image_endpoints"]) == (
                fr.arc.region, [fr.arc.c1, fr.arc.c2])
            same += search_outcome(d2, fr.arc, fr.trace["flype_steps"]) == out
        assert same == 366

    def test_one_forced_wiring_per_disk(self, eager_corpus):
        # of the eight trial wirings of a disk, those that pass the
        # constructor and every filter are the tail flype x twice, then its
        # relabelling at c twice; a disk with no survivors has no tail flype
        kept = skipped = 0
        for d, c, disks in eager_corpus[2]:
            for (S, _p, _f), survivors in zip(_flype_disks(d, c), disks):
                wired = _tail_flype(d, c, S)
                if not survivors:
                    assert wired is None, (d.pd_code(), c)
                    skipped += 1
                    continue
                kept += 1
                x, spot = as_pairing(wired)
                y = relabel_at(x, c)
                assert x != y
                assert survivors == [(x, spot), (x, spot), (y, spot), (y, spot)], (d.pd_code(), c)
        assert (kept, skipped) == (1090, 1090)

    def test_tail_flype_refuses_non_disks(self):
        d = two_bridge_diagram((2, 2, 2)).diagram
        assert _tail_flype(d, 2, frozenset(range(3, 6)))
        assert _tail_flype(d, 2, frozenset(range(2, 6))) is None     # c inside
        assert _tail_flype(d, 2, frozenset({5})) is None             # no port of c enters
        assert _tail_flype(d, 2, frozenset({3, 5})) is None          # six cut edges

    def test_spot_options_match_built_diagram(self, eager_corpus):
        # option for option, in order: region index, ends, adjacency
        spots = eager_corpus[1]
        assert len(spots) == 4360
        kinds = {(any(not o[3] for o in want), any(o[3] for o in want)) for _, want in spots}
        assert kinds == {(True, False), (False, True), (True, True)}
        for got, want in spots:
            assert got == want

    def test_rewiring_matches_the_dict_oracles(self, monkeypatch):
        # every _tail_flype call of decide's flype chains, its wire list and
        # spot against the tuple-slot rewiring of diagram_oracles (wire order
        # is the oracle pairing's order), and the image options against the
        # oracle's, read off the pairing from the spot slot
        import cuspcubes.diagram as D
        from cuspcubes.decide import classify_2bridge_pair
        tail, options = D._tail_flype, D._spot_options
        checked = Counter()

        def checked_tail(d, c, S):
            wired, want = tail(d, c, S), oracle._tail_flype(d, c, S)
            if wired is None:
                assert want is None, (d.pd_code(), c, S)
                checked["none"] += 1
            else:
                assert wired[0] == wires_of(want[0]) and wired[1] == flat(want[1]), (d.pd_code(), c, S)
                checked["wired"] += 1
            return wired

        def checked_options(d2, spot):
            got = [(r, c1, c2, [divmod(h, 4) for h in joint]) for r, c1, c2, joint in options(d2, spot)]
            regions = region_of_slot(d2)
            want = [(regions[walk[0]], c1, c2, joint)
                    for walk, c1, c2, joint in oracle._spot_options(d2.pairing, tupled(spot))]
            assert got == want, d2.pd_code()
            checked["options"] += len(got)
            return options(d2, spot)

        monkeypatch.setattr(D, "_tail_flype", checked_tail)
        monkeypatch.setattr(D, "_spot_options", checked_options)
        seqs = twist_sequences(10) + [(2, 16, 2), (4, 4, 4, 4, 4), (5, 5, 5, 5)]
        for seq in seqs:
            tb = two_bridge_diagram(seq)
            for c, i in enumerate(tb.twist_region_of):
                if 1 < i < len(seq):
                    for mirror in (False, True):
                        classify_2bridge_pair(tb, CrossingArc(c), mirror)
        assert checked == {"wired": 2418, "none": 806, "options": 8244}

    def test_one_prime_check_per_flype(self, monkeypatch):
        import cuspcubes.diagram as D
        calls = []

        def counted(d):
            calls.append(d)
            return is_prime(d)

        monkeypatch.setattr(D, "is_prime", counted)
        for seq in twist_sequences(10):
            tb = two_bridge_diagram(seq)
            for i in range(2, len(seq)):
                calls.clear()
                flype(tb, i)
                assert calls == [tb.diagram], (seq, i)

    def test_closed_form_on_every_trial_diagram(self, eager_corpus):
        mismatches = eager_corpus[3]
        assert len(mismatches) == 4360 and sum(mismatches) == 0

    def test_builds_do_not_grow_with_the_block(self, monkeypatch):
        init = AlternatingDiagram.__init__
        built = []

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        counts = []
        for k in (16, 40, 320):
            tb = two_bridge_diagram((2, k, 2))
            built.clear()
            with monkeypatch.context() as m:
                m.setattr(AlternatingDiagram, "__init__", counted)
                flype(tb, 2)
            counts.append(len(built))
        assert counts == [2, 2, 2]


class TestSizeCap:
    def test_checked_before_building(self):
        twist_sequence((2, MAX_CROSSINGS - 4, 2))
        for build in (lambda: twist_sequence((2, MAX_CROSSINGS - 3, 2)),
                      lambda: two_bridge_diagram((2, 10 ** 12, 2)),
                      lambda: pretzel_diagram(MAX_CROSSINGS, 1),
                      lambda: AlternatingDiagram(MAX_CROSSINGS + 1, wires_of({(c, i): (c, i ^ 1)
                                                                              for c in range(MAX_CROSSINGS + 1)
                                                                              for i in range(4)}))):
            with pytest.raises(DiagramError, match=f"too large: .* at most {MAX_CROSSINGS}"):
                build()


class TestPretzel:
    def test_valid(self):
        for twists in ((3, 3, 3), (2, 3, 3), (2, 3, 4), (3, 3, 3, 3)):
            d = pretzel_diagram(*twists)
            assert d.n == sum(twists)
            assert is_prime(d) and is_reduced(d)

    def test_rejects_bad_counts(self):
        with pytest.raises(DiagramError):
            pretzel_diagram(3)
        with pytest.raises(DiagramError):
            pretzel_diagram(3, 0, 3)

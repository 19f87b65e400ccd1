import json
from collections import Counter
from itertools import combinations
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from cuspcubes import cubing
from cuspcubes.cubing import (
    _CORNER_EDGES, _SQUARE_CORNERS, PASSAGES, CubedComplex, CubingError,
    _link_failure, boundary_cubings, build_cubing, edge_name, verify_npc, vertex_name,
)
from cuspcubes.diagram import AlternatingDiagram, pretzel_diagram, two_bridge_diagram
from cubing_oracles import (face_name, first_seen_germs, germ_id, is_flag, link_angle_class,
                            npc_report, region_edge, vertex_links)
from conftest import twist_sequences
from diagram_oracles import Walked, walked_diagram
from test_golden import ladder_diagrams

GOLDEN = Path(__file__).parent / "data" / "corrupt_npc_golden.json"


def corrupted_diagrams(fig8):
    """The diagrams whose every side-gluing corruption is checked: the
    figure-eight, the trefoil and two diagrams of 10 and 12 crossings."""
    return (("fig8", fig8),
            ("trefoil", AlternatingDiagram.from_pd([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])),
            ("pretzel_3_3_4", pretzel_diagram(3, 3, 4)),
            ("C2_3_2_3_2", two_bridge_diagram((2, 3, 2, 3, 2)).diagram))


def side_corruptions(fig8):
    """(label, complex) for every side-gluing corruption of the corrupted
    diagrams, each on its own build."""
    for name, d in corrupted_diagrams(fig8):
        for k in range(d.n, 5 * d.n):
            yield f"{name}:{k}", build_cubing(d).corrupt(k)


def reclosed(base, **lists):
    """A copy of the complex base with some gluing lists replaced and its
    classes closed again."""
    cx = object.__new__(CubedComplex)
    cx.__dict__.update(base.__dict__, **lists)
    cx._close_classes()
    return cx


def hostile_pairs(fig8):
    """(label, complex) for pairs of same-kind germs written straight into
    the gluing lists of the figure-eight and the trefoil: each edge pair
    with its second germ moved on by one port or one cube, each vertex pair
    with its second corner moved on by one port."""
    diagrams = (fig8, AlternatingDiagram.from_pd([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]))
    for d in diagrams:
        base = build_cubing(d)
        for partners, step, germs in (("eb", 3, 24), ("eb", 12, 24), ("vb", 2, 16)):
            for i in range(20 * d.n):
                moved = getattr(base, partners)[:]
                moved[i] = (moved[i] + step) % (germs * d.n)
                yield (d.n, partners, step, i), reclosed(base, **{partners: moved})


def folded_squares(fig8):
    """(label, complex) for each top square of the figure-eight and the
    trefoil whose top corners at ports p and p + 2 share a vertex class,
    folded onto itself: the pairs that hold its vertical edge germ at port
    p + 2 are cut (the germ's partner is paired with itself) and the pairs
    that hold its flat edge germs at ports p - 1 and p join them to the
    opposite flats, so both corners give the square one link edge."""
    for d in (fig8, AlternatingDiagram.from_pd([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])):
        base = build_cubing(d)
        for q in range(2 * d.n):
            for p in (0, 1):
                if base._vroot[8 * q + 2 * p + 1] != base._vroot[8 * q + 2 * p + 5]:
                    continue
                ea, eb = base.ea[:], base.eb[:]
                cut = 12 * q + 3 * p + 6
                for i, (a, b) in enumerate(zip(ea, eb)):
                    if a == cut:
                        ea[i] = b
                    elif b == cut:
                        eb[i] = a
                for port in (p - 1, p):
                    flat = 12 * q + 3 * (port % 4) + 2
                    opposite = 12 * q + 3 * ((port + 2) % 4) + 2
                    if flat in ea:
                        eb[ea.index(flat)] = opposite
                    else:
                        ea[eb.index(flat)] = opposite
                yield (d.n, q, p), reclosed(base, ea=ea, eb=eb)


def assert_reports_match_oracle(complexes):
    for label, cx in complexes:
        assert verify_npc(cx) == npc_report(cx), label


def _has_perfect_matching(compatible: dict, n: int) -> bool:
    order = list(compatible)
    if len(order) != n:
        return False
    match: dict[int, object] = {}

    def augment(w, seen):
        for c in compatible[w]:
            if c in seen:
                continue
            seen.add(c)
            if c not in match or augment(match[c], seen):
                match[c] = w
                return True
        return False

    return all(augment(w, set()) for w in order)


@pytest.fixture(scope="module")
def fig8():
    return two_bridge_diagram((2, 2)).diagram


@pytest.fixture(scope="module")
def fig8_cx(fig8):
    return build_cubing(fig8)


class TestCounts:
    def test_fig8(self, fig8_cx):
        counts = fig8_cx.counts
        assert counts["cubes"] == 8
        assert counts["inner_vertices"] == 2
        assert counts["inner_edges"] == 6
        assert counts["boundary_squares"] == 8
        assert counts["hyperplanes"] == 2
        assert counts["midsquares_per_hyperplane"] == {"black": 8, "white": 8}
        assert counts["crossing_lines"] == 4

    def test_trefoil(self):
        d = AlternatingDiagram.from_pd([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])
        cx = build_cubing(d)
        assert cx.counts["cubes"] == 6
        assert cx.counts["inner_edges"] == 5

    def test_corpus(self, corpus):
        for name, d in corpus.items():
            cx = build_cubing(d)
            c = d.n
            counts = cx.counts
            assert counts["cubes"] == 2 * c, name
            assert counts["inner_vertices"] == 2, name
            assert counts["inner_edges"] == c + 2, name
            assert counts["boundary_squares"] == 2 * c, name
            assert counts["vertical_edges"] == 2 * c, name
            assert counts["boundary_vertices"] == 2 * c, name
            assert counts["boundary_edges"] == 4 * c, name
            assert counts["interior_squares"] == 5 * c, name

    def test_gluings_involutive(self, fig8_cx):
        seen = set()
        for f in fig8_cx.fa + fig8_cx.fb:
            assert f not in seen
            seen.add(f)

    def test_square_classes_are_gluings_and_tops(self, corpus, fig8):
        # the closure files a square class per gluing and per top face:
        # each face lies in at most one gluing, tops in none
        complexes = [(name, build_cubing(d)) for name, d in corpus.items()]
        for label, cx in complexes + list(side_corruptions(fig8)):
            n = cx.diagram.n
            glued = cx.fa + cx.fb
            assert len(set(glued)) == len(glued), label
            assert not any(f % 6 == 4 for f in glued), label
            # every face but the tops is glued: 5n gluings, the first n bottom
            assert sorted(glued) == [f for f in range(12 * n) if f % 6 != 4], label
            assert len(cx.fa) == len(cx.fb) == 5 * n, label
            assert [f % 6 == 5 for f in glued] == ([True] * n + [False] * 4 * n) * 2, label
            # four vertex and four edge pairs per gluing
            assert len(cx.va) == len(cx.vb) == len(cx.ea) == len(cx.eb) == 20 * n, label
            assert (cx.counts["interior_squares"], cx.counts["crossing_lines"]) == (5 * n, n), label

    def test_non_prime_rejected(self):
        from test_diagram import connected_sum_of_trefoils
        with pytest.raises(CubingError, match="prime"):
            build_cubing(connected_sum_of_trefoils())

    def test_inner_edges_match_regions(self, fig8, fig8_cx):
        assert sorted(region_edge(fig8_cx)) == list(range(len(fig8.regions)))
        assert sorted(region_edge(fig8_cx).values()) == sorted(fig8_cx.inner_edges)


class TestVertexLinks:
    def test_inner_links_are_subdivided_duals(self, corpus):
        for name, d in corpus.items():
            cx = build_cubing(d)
            links, walked = vertex_links(cx), Walked(d)
            for v in cx.inner_vertices:
                lk = links[v]
                assert not lk.problems, name
                assert len(lk.triangles) == 4 * d.n, name
                assert len(lk.vertices) == (d.n + 2) + d.n, name
                # one fan of four triangles per crossing
                region_dirs = {root: rid for rid, root in region_edge(cx).items()}
                compatible = {}
                for w in lk.vertices:
                    if w in region_dirs:
                        continue
                    fan = [t for t in lk.triangles if w in t]
                    assert len(fan) == 4, name
                    pairs = {frozenset(region_dirs[x] for x in t if x != w) for t in fan}
                    compatible[w] = {
                        c for c in range(d.n)
                        if pairs == {frozenset((walked.corner(c, k), walked.corner(c, (k + 1) % 4)))
                                     for k in range(4)}}
                    assert compatible[w], name
                # a perfect matching fans <-> crossings must exist
                assert _has_perfect_matching(compatible, d.n), name

    def test_links_match_find_based_oracle(self, corpus):
        # verify_npc against the report from the links and the flag check,
        # on the corpus, a 40-crossing (2,1,...,1,2) chain and a 40-crossing
        # pretzel, and on the ladder diagrams of the golden digests
        diagrams = dict(corpus, chain_40=two_bridge_diagram((2,) + (1,) * 36 + (2,)).diagram,
                        pretzel_13_13_14=pretzel_diagram(13, 13, 14))
        diagrams.update((f"ladder_{d.n}", d) for d in ladder_diagrams())
        assert_reports_match_oracle((name, build_cubing(d)) for name, d in diagrams.items())

    def test_boundary_links_flag(self, fig8_cx):
        links = vertex_links(fig8_cx)
        for v in fig8_cx.boundary_vertices:
            assert not links[v].problems
            assert is_flag(links[v].edges, links[v].triangles)

    def test_link_sizes(self, corpus):
        for name, d in corpus.items():
            cx = build_cubing(d)
            links, n = vertex_links(cx), d.n
            for v in cx.inner_vertices:
                assert len(links[v].edges) == 6 * n, name
            for v in cx.boundary_vertices:
                lk = links[v]
                assert (len(lk.vertices), len(lk.edges), len(lk.triangles)) == (5, 8, 4), name


def simplicial_complex(triangles, extra_edges=()):
    """Edges (pairs) and triangles of the complex that the triangles and the
    extra edges span."""
    edges = {frozenset(p) for t in triangles for p in combinations(t, 2)}
    edges |= {frozenset(e) for e in extra_edges}
    return [tuple(sorted(e, key=str)) for e in edges], [frozenset(t) for t in triangles]


def cone_over_square(chord=False):
    rim = ("a", "b", "c", "d")
    triangles = [("o", rim[i], rim[(i + 1) % 4]) for i in range(4)]
    return simplicial_complex(triangles, [("a", "c")] if chord else [])


def octahedron():
    axes = [("+x", "-x"), ("+y", "-y"), ("+z", "-z")]
    return simplicial_complex([(x, y, z) for x in axes[0] for y in axes[1] for z in axes[2]])


def link_failure(edges, triangles):
    """`_link_failure` on a 2-complex whose triangles and edges each stand
    for one corner or square: a triangle's greatest vertex is its vertical
    edge class, so no corner is degenerate and no two share a key."""
    corners = [(g, *sorted(t)) for g, t in enumerate(triangles)]
    return _link_failure(corners, [(f, *e) for f, e in enumerate(edges)])


NAMED_COMPLEXES = {
    "octahedron": (octahedron(), True),
    "tetrahedron boundary": (simplicial_complex(list(combinations("abcd", 3))), False),
    "hollow triangle": (simplicial_complex([], [("a", "b"), ("b", "c"), ("a", "c")]), False),
    "cone over a 4-cycle": (cone_over_square(), True),
    "cone over a 4-cycle with a chord": (cone_over_square(chord=True), False),
}


class TestFlag:
    # the flag check of verify_npc's link pass against the flag condition
    def test_empty_tetrahedron_not_flag(self):
        (edges, triangles), _want = NAMED_COMPLEXES["tetrahedron boundary"]
        assert link_failure(edges, triangles) == "non-flag clique" and not is_flag(edges, triangles)

    def test_single_simplex_flag(self):
        edges, triangles = simplicial_complex([("a", "b", "c")])
        assert link_failure(edges, triangles) is None and is_flag(edges, triangles)

    def test_missing_triangle_not_flag(self):
        (edges, triangles), _want = NAMED_COMPLEXES["hollow triangle"]
        assert link_failure(edges, triangles) == "non-flag clique" and not is_flag(edges, triangles)

    @pytest.mark.parametrize("name", NAMED_COMPLEXES)
    def test_named_complexes(self, name):
        (edges, triangles), want = NAMED_COMPLEXES[name]
        assert is_flag(edges, triangles) == want
        assert (link_failure(edges, triangles) is None) == want

    @settings(max_examples=300)
    @given(st.data())
    def test_random_complexes_match_brute_force(self, data):
        # every 3- and 4-clique of the drawn complex, found by the oracle
        m = data.draw(st.integers(1, 7), label="vertices")
        triangles = data.draw(st.lists(st.sampled_from(list(combinations(range(m), 3)))
                                       if m >= 3 else st.nothing(), unique=True),
                              label="triangles")
        extra = data.draw(st.lists(st.sampled_from(list(combinations(range(m), 2)))
                                   if m >= 2 else st.nothing(), unique=True), label="edges")
        edges, triangles = simplicial_complex(triangles, extra)
        assert (link_failure(edges, triangles) is None) == is_flag(edges, triangles)


class TestNpc:
    def test_corpus_passes(self, corpus):
        for name, d in corpus.items():
            rep = verify_npc(build_cubing(d))
            assert rep["npc"], (name, rep["failures"])

    def test_corruptions_fail_with_located_vertex(self, fig8):
        cx = build_cubing(fig8)
        side_indices = range(fig8.n, 5 * fig8.n)
        assert len(side_indices) >= 10
        clean = verify_npc(cx)
        lists = [list(getattr(cx, x)) for x in ("fa", "fb", "va", "vb", "ea", "eb")]
        for k in side_indices:
            bad = cx.corrupt(k)
            rep = verify_npc(bad)
            assert not rep["npc"], k
            assert rep["failures"][0]["vertex"], k
            # a side gluing uncrossed twice is crossed again
            assert verify_npc(bad.corrupt(k)) == clean, k
        # corrupt returns a copy: the complex it is called on stays clean
        assert [list(getattr(cx, x)) for x in ("fa", "fb", "va", "vb", "ea", "eb")] == lists
        assert verify_npc(cx) == clean
        # a bottom gluing is copied as it is (the K < n control)
        assert all(verify_npc(cx.corrupt(k)) == clean for k in range(fig8.n))

    def test_corruption_golden(self, fig8):
        # every failing vertex and reason is pinned, not only the verdict
        golden = json.loads(GOLDEN.read_text())
        got = {}
        for name, d in corrupted_diagrams(fig8):
            cx = build_cubing(d)
            for k in range(d.n, 5 * d.n):
                got[f"{name}:{k}"] = verify_npc(cx.corrupt(k))
        assert got == golden

    def test_corrupted_links_match_find_based_oracle(self, fig8):
        # every side corruption of the figure-eight, the trefoil, (3,3,4)
        # and (2,3,2,3,2)
        assert_reports_match_oracle(side_corruptions(fig8))

    def test_verdicts_match_link_oracle(self):
        # every vertex's verdict and first problem against the link-by-link
        # oracle, on every side corruption of the twist sequences of at most
        # 10 crossings
        checked = 0
        for seq in twist_sequences(10):
            cx = build_cubing(two_bridge_diagram(seq).diagram)
            for k in range(cx.diagram.n, 5 * cx.diagram.n):
                bad = cx.corrupt(k)
                assert verify_npc(bad) == npc_report(bad), (seq, k)
                checked += 1
        assert checked == 9004

    def test_hostile_pairs_match_link_oracle(self, fig8):
        # the first problems of the hostile pairs reach every branch a
        # same-kind pairing can reach first (see
        # test_pinch_follows_a_degenerate_corner)
        reached = Counter()
        for label, cx in hostile_pairs(fig8):
            rep = verify_npc(cx)
            assert rep == npc_report(cx), label
            for f in rep["failures"]:
                reached[f["reason"].split(" (")[0].split(" between")[0]] += 1
        assert {"non-simplicial: degenerate corner of cube", "non-simplicial: corner of cube",
                "non-simplicial: double edge", "non-simplicial: triangle with a missing edge",
                "non-flag clique"} <= reached.keys(), reached

    def test_folded_squares_match_link_oracle(self, fig8):
        # a square folded onto itself gives one link edge at two corners of
        # one vertex, which the pass files once.  No single moved pair gets
        # there: it would have to glue two pairs of opposite flats and part
        # the vertical edges at the two corners, whose triangles else repeat
        folds = 0
        for label, cx in folded_squares(fig8):
            assert verify_npc(cx) == npc_report(cx), label
            for lk in vertex_links(cx).values():
                if not (lk.problems and "corner" in lk.problems[0].split(" (")[0]):
                    folds += lk.folds
        assert folds, "no folded square reached the link's edges"

    def test_classes_keep_one_kind(self, corpus, fig8):
        # every edge class's germs share their id mod 3 and every vertex
        # class's germs their parity, on clean, corrupted and hostile pairings:
        # the link pass keys a corner's triangle by (lesser flat, greater
        # flat, vertical) and calls it degenerate only when its flats agree
        def complexes():
            for name, d in corpus.items():
                cx = build_cubing(d)
                yield name, cx
                for k in range(5 * d.n):
                    yield f"{name}:{k}", cx.corrupt(k)
            yield from hostile_pairs(fig8)

        for label, cx in complexes():
            assert all(g % 3 == root % 3 for g, root in enumerate(cx._eroot)), label
            assert all((g ^ root) & 1 == 0 for g, root in enumerate(cx._vroot)), label

    def test_pinch_follows_a_degenerate_corner(self):
        # a square pinches at a corner germ when its two edges there are one
        # class; they are two of the corner germ's three edges, and that germ
        # is in the same vertex class, whose corners are checked first, so a
        # "degenerate corner" problem always comes first, whatever the pairing
        for k in range(6):
            for corner, ea, eb in _SQUARE_CORNERS[k]:
                assert {ea, eb} < set(_CORNER_EDGES[corner]), (k, corner)

class TestAngles:
    def test_matches_region_adjacency(self, corpus):
        for name, d in corpus.items():
            cx = build_cubing(d)
            links, walked = vertex_links(cx), Walked(d)
            for v in cx.inner_vertices:
                for R1 in d.regions:
                    for R2 in d.regions:
                        if R1.index >= R2.index:
                            continue
                        want = "orthogonal" if walked.adjacent(R1.index, R2.index) else "far"
                        assert link_angle_class(cx, links[v], R1.index, R2.index) == want, name

    def test_same_color_far(self, fig8, fig8_cx):
        blacks = [R.index for R in fig8.regions if R.color == "black"]
        link = vertex_links(fig8_cx)[fig8_cx.inner_vertices[0]]
        assert link_angle_class(fig8_cx, link, blacks[0], blacks[1]) == "far"

    def test_same_region_rejected(self, fig8, fig8_cx):
        with pytest.raises(CubingError):
            link_angle_class(fig8_cx, vertex_links(fig8_cx)[fig8_cx.inner_vertices[0]], 0, 0)


class TestBoundary:
    def test_fig8_torus(self, fig8_cx):
        assert boundary_cubings(fig8_cx) == [
            {"component": 0, "squares": 8, "euler": 0, "meridian_loops": 8}]

    def test_multi_component(self):
        hopf = AlternatingDiagram.from_pd([(1, 3, 2, 4), (3, 1, 4, 2)])
        tori = boundary_cubings(build_cubing(hopf))
        assert len(tori) == 2
        assert all(t["euler"] == 0 for t in tori)
        assert sum(t["squares"] for t in tori) == 4

    def test_corpus_euler_and_square_totals(self, corpus):
        for name, d in corpus.items():
            tori = boundary_cubings(build_cubing(d))
            assert len(tori) == len(d.strands), name
            assert all(t["euler"] == 0 for t in tori), name
            assert sum(t["squares"] for t in tori) == 2 * d.n, name

    def test_tori_follow_walked_strands(self, corpus):
        # one torus per strand of the strand walk, in its order, holding the
        # outer square of each of the strand's passages
        for name, d in corpus.items():
            _colors, strands, *_ = walked_diagram(d.n, d.pairing)
            tori = boundary_cubings(build_cubing(d))
            assert [t["component"] for t in tori] == list(range(len(strands))), name
            assert [t["squares"] for t in tori] == [len(strand) for strand in strands], name

    def test_meridian_diagonals_close_up(self, corpus):
        # the diagonal of each outer square between the top corners at the
        # ports transverse to its strand (0, 2 over, 1, 3 under) has both
        # ends in one vertex class: a loop
        for name, d in corpus.items():
            cx = build_cubing(d)
            for c in range(d.n):
                for s in PASSAGES:
                    p = 0 if s == "over" else 1
                    ends = [cx._vroot[germ_id(("tc", c, s, port))] for port in (p, p + 2)]
                    assert ends[0] == ends[1], (name, c, s)


class TestGermIds:
    @pytest.fixture(scope="class", params=[3, 160])
    def named(self, request):
        n = request.param
        d = (AlternatingDiagram.from_pd([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]) if n == 3
             else two_bridge_diagram((2,) * 80).diagram)
        assert d.n == n
        return build_cubing(d), first_seen_germs(n)

    def test_names_round_trip(self, named):
        _cx, germs = named
        for decode, names in zip((vertex_name, edge_name, face_name), germs):
            assert tuple(decode(germ_id(g)) for g in names) == names

    def test_ids_are_dense_in_first_seen_order(self, named):
        cx, germs = named
        n = cx.diagram.n
        for names, count in zip(germs, (16 * n, 24 * n, 12 * n)):
            assert [germ_id(g) for g in names] == list(range(count))
        assert (len(cx._vroot), len(cx._eroot)) == (16 * n, 24 * n)
        glued = cx.fa + cx.fb
        assert len(set(glued)) == len(glued) and set(glued) <= set(range(12 * n))

    def test_names_stay_out_of_the_link_loops(self, monkeypatch):
        # a clean build and check of 40 crossings decode at most one name
        # per vertex class: none per germ, corner or link direction
        calls = Counter()
        for decoder in ("vertex_name", "edge_name"):
            def counted(g, real=getattr(cubing, decoder), decoder=decoder):
                calls[decoder] += 1
                return real(g)
            monkeypatch.setattr(cubing, decoder, counted)
        rep = verify_npc(build_cubing(two_bridge_diagram((2,) * 20).diagram))
        assert rep["npc"] and len(rep["vertices"]) == 82
        assert sum(calls.values()) <= len(rep["vertices"]), calls

    def test_verify_builds_no_link_objects(self, monkeypatch):
        # verify_npc at 40 crossings decodes names only for the germs and
        # directions of failing vertices; the named VertexLink is a test oracle
        assert not hasattr(cubing, "VertexLink")
        d = two_bridge_diagram((2,) * 20).diagram
        clean = build_cubing(d)
        decoded = []
        for decoder in ("vertex_name", "edge_name"):
            def recorded(g, real=getattr(cubing, decoder), decoder=decoder):
                decoded.append((decoder, g))
                return real(g)
            monkeypatch.setattr(cubing, decoder, recorded)
        assert verify_npc(clean)["npc"]
        assert decoded == []
        for k in (2 * d.n, 3 * d.n + 1, 5 * d.n - 1):
            cx = build_cubing(d).corrupt(k)
            decoded.clear()
            rep = verify_npc(cx)
            assert rep["failures"] and decoded, k
            failing = {v for v, name in zip(cx._vertex_ids, cx._vertex_strs)
                       if name in {f["vertex"] for f in rep["failures"]}}
            links = vertex_links(cx)
            directions = {x for v in failing for x in links[vertex_name(v)].vertices}
            for decoder, g in decoded:
                if decoder == "vertex_name":
                    assert cx._vroot[g] in failing, (k, g)
                else:
                    assert g in directions, (k, g)


class TestSerialization:
    def test_cubing_builds_no_region_records(self):
        # the gluings and inner edges read the diagram's flat slot_region list
        pd = [list(x) for x in pretzel_diagram(3, 3, 4).pd_code()]
        d = AlternatingDiagram.from_json({"pd": pd})
        cx = build_cubing(d)
        assert verify_npc(cx)["npc"]
        boundary_cubings(cx)
        cx.to_json()
        assert "regions" not in d.__dict__

    def test_json_dump(self, fig8_cx):
        data = fig8_cx.to_json()
        assert len(data["cubes"]) == 8
        assert data["counts"]["inner_vertices"] == 2
        assert data["hyperplanes"] == {"black": 8, "white": 8}

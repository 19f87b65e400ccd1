import pytest

from cuspcubes.diagram import AlternatingDiagram, BLACK, WHITE, pretzel_diagram, two_bridge_diagram
from gear_oracles import closed_form_classes, edge_arc_classes, transfer_pairs
from polyhedra_oracles import _tutte_layout as tutte_200_sweeps, first_repeat
from cuspcubes.polyhedra import PolyhedraError, _tutte_layout, build_polyhedra, circle_pattern_svg
from diagram_oracles import Walked
from test_golden import svg_diagrams


@pytest.fixture(scope="module")
def fig8():
    return two_bridge_diagram((2, 2)).diagram


@pytest.fixture(scope="module")
def fig8_pp(fig8):
    return build_polyhedra(fig8)


class TestBuild:
    def test_fig8_counts(self, fig8, fig8_pp):
        assert fig8_pp.diagram is fig8 and len(fig8.regions) == 6
        assert len(edge_arc_classes(fig8)) == 4

    def test_trefoil_counts(self):
        d = AlternatingDiagram.from_pd([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])
        assert build_polyhedra(d).diagram is d and len(d.regions) == 5
        assert len(edge_arc_classes(d)) == 3

    def test_two_preimages_per_copy(self, corpus):
        for name, d in corpus.items():
            for mirror in (False, True):
                classes = edge_arc_classes(d, mirror)
                assert len(classes) == d.n, name
                for members, crossing in classes:
                    assert sorted(s for s, _e in members) == [-1, -1, 1, 1], (name, crossing)

    def test_non_prime_rejected(self):
        from test_diagram import connected_sum_of_trefoils
        with pytest.raises(PolyhedraError, match="prime"):
            build_polyhedra(connected_sum_of_trefoils())

    def test_gear_maps_shift_by_one(self, fig8, fig8_pp):
        for color in (BLACK, WHITE):
            shift = fig8_pp.transfer_shift(color)
            assert abs(shift) == 1
            assert (shift == 1) == (color == BLACK)


class TestFaceTransfer:
    def test_walk_edges_share_a_gear_class(self, corpus):
        # the shift is read from the pair; the classes from the closed form
        for name, d in corpus.items():
            for mirror in (False, True):
                crossing_of = {member: x for x, members in closed_form_classes(d, mirror).items()
                               for member in members}
                for R, pos, neg in transfer_pairs(d, build_polyhedra(d, mirror)):
                    assert crossing_of[(1, pos)] == crossing_of[(-1, neg)], (name, mirror, R.index)

    def test_direction_flips_with_color(self, fig8, fig8_pp):
        assert fig8_pp.transfer_shift(BLACK) == -fig8_pp.transfer_shift(WHITE)

    def test_direction_flips_with_mirror(self, fig8):
        pp = build_polyhedra(fig8)
        ppm = build_polyhedra(fig8, mirror=True)
        for color in (BLACK, WHITE):
            assert pp.transfer_shift(color) == -ppm.transfer_shift(color)

    def test_bigon_swap(self, fig8):
        # on a bigon both directions glue each edge to the other one
        bigon = next(R for R in fig8.regions if len(R.boundary) == 2)
        e0, e1 = (fig8._edge[4 * c + i] for c, i in bigon.boundary)
        assert e0 != e1
        for mirror in (False, True):
            pairs = {(pos, neg) for R, pos, neg in transfer_pairs(fig8, build_polyhedra(fig8, mirror))
                     if R is bigon}
            assert pairs == {(e0, e1), (e1, e0)}


class TestButterflyRegions:
    def test_distinct_and_contain_crossing(self, corpus):
        for name, d in corpus.items():
            for mirror in (False, True):
                pp = build_polyhedra(d, mirror)
                for c in range(d.n):
                    for col in (BLACK, WHITE):
                        a, b = pp.wings(c, col)
                        assert d.regions[a].color == col == d.regions[b].color, name
                        assert a != b, name
                        assert c in d.regions[a].distinct_crossings, name
                        assert c in d.regions[b].distinct_crossings, name

    def test_order_conventions(self, fig8, fig8_pp):
        # lower corner first: the order in which the corners are read
        walked = Walked(fig8)
        for c in range(fig8.n):
            for col in (BLACK, WHITE):
                assert fig8_pp.wings(c, col) == walked.at_crossing(c, col)

    def test_mirror_flips_order(self, fig8):
        pp = build_polyhedra(fig8)
        ppm = build_polyhedra(fig8, mirror=True)
        a, b = pp.wings(1, WHITE)
        assert ppm.wings(1, WHITE) == (b, a)

    def test_validation(self, fig8_pp):
        with pytest.raises(PolyhedraError):
            fig8_pp.wings(0, "green")


class TestSvg:
    def test_circle_counts(self, corpus):
        for name, d in list(corpus.items())[:4]:
            svg = circle_pattern_svg(d)
            assert svg.count("<circle") == len(d.regions), name
            assert svg.startswith("<svg")

    def test_fig8_and_trefoil(self, fig8):
        assert circle_pattern_svg(fig8).count("<circle") == 6
        tref = AlternatingDiagram.from_pd([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])
        assert circle_pattern_svg(tref).count("<circle") == 5


def float_hex(pos):
    return {c: (x.hex(), y.hex()) for c, (x, y) in pos.items()}


class TestTutteLayout:
    def test_equals_200_sweeps(self):
        """Stopping at a fixed point or 2-cycle changes no coordinate's float."""
        for k, d in enumerate(svg_diagrams()):
            outer = max(range(len(d.regions)), key=lambda i: len(d.regions[i].boundary))
            assert float_hex(_tutte_layout(d, outer)) == float_hex(tutte_200_sweeps(d)), k

    def test_every_outer_region(self, fig8):
        for r in range(len(fig8.regions)):
            assert float_hex(_tutte_layout(fig8, r)) == float_hex(tutte_200_sweeps(fig8, r)), r

    def test_stopping_cases(self, fig8):
        """The drawings of test_equals_200_sweeps reach every way the relaxation
        ends: a fixed point, a 2-cycle and no repeat in 200 sweeps."""
        assert first_repeat(fig8)[1] == 1
        assert first_repeat(pretzel_diagram(3, 2, 3)) == (55, 2)
        assert first_repeat(two_bridge_diagram((2, 2, 2)).diagram) == (30, 2)
        assert first_repeat(two_bridge_diagram((6, 6)).diagram) is None

import pytest

from cuspcubes.diagram import (AlternatingDiagram, BLACK, WHITE, region_adjacent,
                               two_bridge_diagram)
from gear_oracles import edge_arc_classes
from cuspcubes.polyhedra import (
    NEGATIVE, POSITIVE, PolyhedraError, build_polyhedra, butterfly_regions,
    circle_pattern_svg, face_transfer, halfspace_disjoint,
)


@pytest.fixture(scope="module")
def fig8():
    return two_bridge_diagram((2, 2)).diagram


@pytest.fixture(scope="module")
def fig8_pp(fig8):
    return build_polyhedra(fig8)


class TestBuild:
    def test_fig8_counts(self, fig8, fig8_pp):
        assert len(fig8_pp.gear_shift) == 6
        assert len(edge_arc_classes(fig8)) == 4

    def test_trefoil_counts(self):
        d = AlternatingDiagram.from_pd([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])
        pp = build_polyhedra(d)
        assert len(pp.gear_shift) == 5
        assert len(edge_arc_classes(d)) == 3

    def test_two_preimages_per_copy(self, corpus):
        for name, d in corpus.items():
            for mirror in (False, True):
                classes = edge_arc_classes(d, mirror)
                assert len(classes) == d.crossing_count, name
                for members, crossing in classes:
                    assert sorted(s for s, _e in members) == [-1, -1, 1, 1], (name, crossing)

    def test_non_prime_rejected(self):
        from test_diagram import connected_sum_of_trefoils
        with pytest.raises(PolyhedraError, match="prime"):
            build_polyhedra(connected_sum_of_trefoils())

    def test_gear_maps_shift_by_one(self, fig8, fig8_pp):
        for R in fig8.regions:
            shift = fig8_pp.gear_shift[R.index]
            assert abs(shift) == 1
            assert (shift == 1) == (R.color == BLACK)


class TestHalfSpaces:
    def test_law(self, corpus):
        for name, d in corpus.items():
            pp = build_polyhedra(d)
            for R1 in d.regions:
                for R2 in d.regions:
                    if R1.index >= R2.index:
                        continue
                    expect = not region_adjacent(d, R1, R2)
                    assert halfspace_disjoint(pp, POSITIVE, R1, R2) == expect, name
                    assert halfspace_disjoint(pp, NEGATIVE, R1, R2) == expect, name

    def test_same_color_always_disjoint(self, fig8, fig8_pp):
        blacks = [R for R in fig8.regions if R.color == BLACK]
        for i, R1 in enumerate(blacks):
            for R2 in blacks[i + 1:]:
                assert halfspace_disjoint(fig8_pp, POSITIVE, R1, R2)

    def test_same_region_rejected(self, fig8, fig8_pp):
        with pytest.raises(PolyhedraError):
            halfspace_disjoint(fig8_pp, POSITIVE, fig8.regions[0], fig8.regions[0])


class TestFaceTransfer:
    def test_cycle_identity(self, corpus):
        for name, d in corpus.items():
            pp = build_polyhedra(d)
            for R in d.regions:
                ft = face_transfer(pp, R)
                state = (POSITIVE, 0)
                for _ in range(2 * ft.order):
                    state = ft.apply(*state)
                assert state == (POSITIVE, 0), name

    def test_direction_flips_with_color(self, fig8, fig8_pp):
        shifts = {R.color: face_transfer(fig8_pp, R).shift for R in fig8.regions}
        assert shifts[BLACK] == -shifts[WHITE]

    def test_direction_flips_with_mirror(self, fig8):
        pp = build_polyhedra(fig8)
        ppm = build_polyhedra(fig8, mirror=True)
        for R in fig8.regions:
            assert face_transfer(pp, R).shift == -face_transfer(ppm, R).shift

    def test_bigon_swap(self, fig8, fig8_pp):
        bigon = next(R for R in fig8.regions if len(R) == 2)
        ft = face_transfer(fig8_pp, bigon)
        assert ft.order == 2
        sign, idx = ft.apply(POSITIVE, 0)
        assert (sign, idx) == (NEGATIVE, 1)


class TestButterflyRegions:
    def test_distinct_and_contain_crossing(self, corpus):
        for name, d in corpus.items():
            pp = build_polyhedra(d)
            for c in range(d.crossing_count):
                for col in (BLACK, WHITE):
                    a, b = butterfly_regions(pp, POSITIVE, c, col)
                    assert a.color == col == b.color, name
                    assert a.index != b.index, name
                    assert c in a.distinct_crossings and c in b.distinct_crossings, name

    def test_order_conventions(self, fig8_pp):
        a, b = butterfly_regions(fig8_pp, POSITIVE, 0, BLACK)
        assert butterfly_regions(fig8_pp, NEGATIVE, 0, BLACK) == (b, a)

    def test_mirror_flips_order(self, fig8):
        pp = build_polyhedra(fig8)
        ppm = build_polyhedra(fig8, mirror=True)
        a, b = butterfly_regions(pp, POSITIVE, 1, WHITE)
        assert butterfly_regions(ppm, POSITIVE, 1, WHITE) == (b, a)

    def test_validation(self, fig8_pp):
        with pytest.raises(PolyhedraError):
            butterfly_regions(fig8_pp, POSITIVE, 0, "green")
        with pytest.raises(PolyhedraError):
            butterfly_regions(fig8_pp, 7, 0, BLACK)


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

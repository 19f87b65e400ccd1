from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcubes.farey import (
    INFINITY, ZERO, ContinuedFraction, FareyAut, FareyError, IDENTITY_AUT, Slope,
    cf_expand, cf_value, covering_slope, farey_distance, parse_slope,
    rational_p3_classify, rational_p3_hyperbolic, reduce_slope,
    two_bridge_equivalent, two_bridge_hyperbolic,
)
from farey_oracles import (
    cf_value_fraction, compose, covering_slope_characterization, covering_slope_search_oracle,
    differ_by_integer, farey_adjacent, farey_distance_bfs, inverse, rational_p3_trivial, same_as,
    schubert_oracle,
)


def slopes_with_denominator_up_to(pmax, qband=1):
    out = [INFINITY]
    for p in range(1, pmax + 1):
        for q in range(-qband * p - 1, qband * p + 2):
            if gcd(abs(q), p) == 1:
                out.append(Slope(q, p))
    return sorted(set(out))


rational_slopes = st.builds(
    lambda q, p: reduce_slope(q, p),
    st.integers(-40, 40), st.integers(1, 30))


class TestSlopes:
    def test_reduce(self):
        assert reduce_slope(4, 10) == Slope(2, 5)
        assert reduce_slope(-3, 0) == INFINITY
        assert reduce_slope(6, -4) == Slope(-3, 2)

    def test_zero_zero_rejected(self):
        with pytest.raises(FareyError):
            reduce_slope(0, 0)

    def test_parse_and_json(self):
        assert parse_slope("1/0") == INFINITY
        assert parse_slope("-9/20") == Slope(-9, 20)
        assert parse_slope("7") == Slope(7, 1)
        # whitespace, signs, underscores and unreduced pairs, as int() reads them
        forms = {" 3/7 ": Slope(3, 7), "6/-4": Slope(-3, 2), "+5": Slope(5, 1),
                 "1_0/4": Slope(5, 2), "-0": ZERO, "3/0": INFINITY, "oo": INFINITY,
                 "infinity": INFINITY, "inf": INFINITY}
        assert {text: parse_slope(text) for text in forms} == forms
        for text in ("1/3/4", "1.5", "", "inf/2", "1" * 1001):
            with pytest.raises(FareyError, match="q/p, an integer or inf"):
                parse_slope(text)

    def test_inverse_and_negation(self):
        assert Slope(2, 5).inverse() == Slope(5, 2)
        assert INFINITY.inverse() == ZERO
        assert ZERO.inverse() == INFINITY
        assert -Slope(2, 5) == Slope(-2, 5)
        assert -INFINITY == INFINITY


class TestAdjacency:
    def test_examples(self):
        assert farey_adjacent(ZERO, INFINITY)
        assert farey_adjacent(Slope(2, 5), Slope(1, 2))
        assert not farey_adjacent(Slope(2, 5), INFINITY)

    def test_self_adjacency_rejected(self):
        with pytest.raises(FareyError):
            farey_adjacent(Slope(1, 2), Slope(1, 2))


class TestDistance:
    def test_examples(self):
        assert farey_distance(INFINITY, ZERO) == 1
        assert farey_distance(INFINITY, Slope(2, 5)) == 3
        assert farey_distance(INFINITY, Slope(1, 3)) == 2

    def test_agrees_with_bfs_exhaustively(self):
        slopes = slopes_with_denominator_up_to(7)
        for r in slopes:
            for s in slopes:
                assert farey_distance(r, s) == farey_distance_bfs(r, s), (r, s)

    @given(rational_slopes, rational_slopes)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, r, s):
        assert farey_distance(r, s) == farey_distance(s, r)

    @given(rational_slopes, rational_slopes, rational_slopes)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, r, s, t):
        assert farey_distance(r, t) <= farey_distance(r, s) + farey_distance(s, t)

    @given(rational_slopes, rational_slopes)
    @settings(max_examples=40, deadline=None)
    def test_zero_iff_equal_and_one_iff_adjacent(self, r, s):
        d = farey_distance(r, s)
        assert (d == 0) == (r == s)
        if r != s:
            assert (d == 1) == farey_adjacent(r, s)


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


DEEP_SLOPES = {                                  # name: (slope, d(oo, r), d(0, r))
    "70011/30005": (Slope(70011, 30005), 4, 5),
    "F1200/F1201": (reduce_slope(fibonacci(1200), fibonacci(1201)), 601, 600),
    "-F1201/F1200": (reduce_slope(-fibonacci(1201), fibonacci(1200)), 600, 601),
    "3+[1,1,20000,1,1,7,3000,2]":
        (cf_value(ContinuedFraction(3, (1, 1, 20000, 1, 1, 7, 3000, 2))), 7, 8),
    "-4+[9999,1,1,1,1,2,1,12345]":
        (cf_value(ContinuedFraction(-4, (9999, 1, 1, 1, 1, 2, 1, 12345))), 6, 7),
    "0+[1*300,4000,2*50,1*7,3]":
        (cf_value(ContinuedFraction(0, (1,) * 300 + (4000,) + (2,) * 50 + (1,) * 7 + (3,))),
         206, 205),
}
DEEP_PAIRS = [("70011/30005", "F1200/F1201", 604),
              ("70011/30005", "3+[1,1,20000,1,1,7,3000,2]", 10),
              ("F1200/F1201", "-F1201/F1200", 1201),
              ("-F1201/F1200", "0+[1*300,4000,2*50,1*7,3]", 806),
              ("3+[1,1,20000,1,1,7,3000,2]", "-4+[9999,1,1,1,1,2,1,12345]", 13)]


class TestDeepSlopes:
    """Distances recorded from the earlier recursive distance, one call per
    subtractive step, run with a raised recursion limit."""

    def test_golden_distances(self):
        assert len(str(fibonacci(1200))) == 251
        for name, (r, d_inf, d_zero) in DEEP_SLOPES.items():
            assert farey_distance(INFINITY, r) == d_inf, name
            assert farey_distance(ZERO, r) == d_zero, name
            assert two_bridge_hyperbolic(r), name
        for a, b, d in DEEP_PAIRS:
            r, s = DEEP_SLOPES[a][0], DEEP_SLOPES[b][0]
            assert farey_distance(r, s) == farey_distance(s, r) == d, (a, b)


class TestContinuedFractions:
    def test_examples(self):
        assert cf_expand(Slope(2, 5)) == ContinuedFraction(0, (2, 2))
        assert cf_expand(Slope(3, 1)) == ContinuedFraction(2, (1,))
        assert cf_expand(Slope(-9, 20)) == ContinuedFraction(-1, (1, 1, 4, 2))
        assert cf_value(ContinuedFraction(0, (2, 2))) == Slope(2, 5)
        assert cf_value(ContinuedFraction(0, (2, 4, 2))) == Slope(9, 20)
        assert cf_value(ContinuedFraction(5, (1,))) == Slope(6, 1)

    def test_infinity_has_no_expansion(self):
        with pytest.raises(FareyError):
            cf_expand(INFINITY)

    def test_invalid_terms_rejected(self):
        with pytest.raises(FareyError):
            ContinuedFraction(0, ())
        with pytest.raises(FareyError):
            ContinuedFraction(0, (2, 0))

    @given(rational_slopes)
    @settings(max_examples=120, deadline=None)
    def test_roundtrip(self, r):
        cf = cf_expand(r)
        assert cf_value(cf) == r
        if len(cf.terms) > 1:
            assert cf.terms[-1] >= 2

    @given(st.integers(-10**6, 10**6),
           st.one_of(st.lists(st.integers(1, 5), min_size=1, max_size=1),
                     st.lists(st.integers(1, 10**9), min_size=1, max_size=8),
                     st.lists(st.integers(1, 3), min_size=200, max_size=600)))
    @settings(max_examples=300, deadline=None)
    def test_convergents_match_fraction_fold(self, a0, terms):
        cf = ContinuedFraction(a0, tuple(terms))
        assert cf_value(cf) == cf_value_fraction(cf)


class TestCoveringSlope:
    def test_examples(self):
        assert covering_slope(Slope(2, 5)) == Slope(-9, 20)
        # the defining search characterization gives +1/4 here (the formula's
        # sign is (-1)^(n-1) with a single-term expansion); -1/4 fails it
        assert covering_slope(Slope(1, 2)) == Slope(1, 4)
        assert not covering_slope_characterization(Slope(1, 2), Slope(-1, 4))

    def test_oddness(self):
        for q, p in [(2, 5), (3, 7), (4, 9)]:
            assert covering_slope(Slope(-q, p)) == -covering_slope(Slope(q, p))

    def test_trivial_rejected(self):
        for r in (ZERO, INFINITY):
            with pytest.raises(FareyError):
                covering_slope(r)

    def test_congruence_band(self):
        for p in range(2, 31):
            for q in range(1, 2 * p):
                if gcd(q, p) != 1:
                    continue
                rt = covering_slope(Slope(q, p))
                assert (rt.q * rt.q - 1) % (2 * rt.p) == 0

    def test_distance_law_spot(self):
        for q, p in [(2, 5), (3, 8), (5, 12), (7, 9)]:
            r = Slope(q, p)
            rt = covering_slope(r)
            assert farey_distance(INFINITY, rt) == 2 * min(
                farey_distance(INFINITY, r), farey_distance(ZERO, r))

    def test_word_search_oracle(self):
        for q, p in [(2, 5), (1, 2), (3, 7), (5, 8), (4, 11)]:
            r = Slope(q, p)
            eta = covering_slope_search_oracle(r)
            assert eta.det == 1
            assert eta.act(-r) == INFINITY
            assert differ_by_integer(covering_slope(r), eta.act(r))


class TestTwoBridge:
    def test_examples(self):
        ok, w = two_bridge_equivalent(Slope(1, 3), Slope(1, 3), True)
        assert ok and same_as(w, IDENTITY_AUT)
        ok, w = two_bridge_equivalent(Slope(1, 3), Slope(4, 3), True)
        assert ok and same_as(w, FareyAut(1, 1, 0, 1))
        for oriented in (True, False):
            ok, _ = two_bridge_equivalent(Slope(1, 3), Slope(2, 5), oriented)
            assert not ok

    def test_witnesses_act_correctly(self):
        # every witness among the slopes q/p with p <= 30 and |q| <= 2p + 1,
        # whose shifts k of x -> +-x + k run from -6 to 6: it sends {r, oo}
        # to {s, oo}, and with the orientation flag set it is x -> x + k
        # (det 1, fixing oo) or a swap of determinant -1
        by_p = {}
        for s in slopes_with_denominator_up_to(30, qband=2):
            by_p.setdefault(s.p, []).append(s)
        shifts = set()
        for group in by_p.values():
            for r, s, oriented in product(group, group, (False, True)):
                ok, w = two_bridge_equivalent(r, s, oriented)
                if not ok:
                    continue
                image = w.act(r), w.act(INFINITY)
                if oriented:
                    assert image == ((s, INFINITY) if w.det == 1 else (INFINITY, s)), (r, s, w)
                else:
                    assert set(image) == {s, INFINITY}, (r, s, w)
                if w.c == 0:
                    shifts.add(w.b)
        assert shifts == set(range(-6, 7))

    def test_against_schubert_oracle(self):
        slopes = slopes_with_denominator_up_to(9)
        for r in slopes:
            for s in slopes:
                ok, _ = two_bridge_equivalent(r, s, False)
                assert ok == schubert_oracle(r, s), (r, s)

    def test_oriented_refines_unoriented(self):
        slopes = slopes_with_denominator_up_to(8)
        for r in slopes:
            for s in slopes:
                ok_or, _ = two_bridge_equivalent(r, s, True)
                ok_un, _ = two_bridge_equivalent(r, s, False)
                assert not ok_or or ok_un

    def test_word_search_agrees_on_small_slopes(self):
        gens = [FareyAut(1, 1, 0, 1), FareyAut(1, -1, 0, 1),
                FareyAut(0, -1, 1, 0), FareyAut(-1, 0, 0, 1)]
        slopes = [s for s in slopes_with_denominator_up_to(4) if s.p <= 4]

        def bounded_search(r, s, depth):
            frontier = {(r, INFINITY)}
            seen = set(frontier)
            if {r, INFINITY} == {s, INFINITY}:
                return True
            for _ in range(depth):
                nxt = set()
                for a, b in frontier:
                    for g in gens:
                        img = (g.act(a), g.act(b))
                        if set(img) == {s, INFINITY}:
                            return True
                        if img not in seen:
                            seen.add(img)
                            nxt.add(img)
                frontier = nxt
            return False

        for r in slopes:
            for s in slopes:
                if r.p != s.p:
                    continue
                expected, _ = two_bridge_equivalent(r, s, False)
                got = bounded_search(r, s, 8)
                assert got == expected, (r, s)

    def test_hyperbolic(self):
        assert two_bridge_hyperbolic(Slope(2, 5))
        assert not two_bridge_hyperbolic(Slope(1, 3))
        assert not two_bridge_hyperbolic(INFINITY)

    def test_non_hyperbolic_iff_torus_form(self):
        for r in slopes_with_denominator_up_to(12):
            if r.is_infinity:
                continue
            torus = r.p <= 1 or (r.q % r.p) in (1 % r.p, (-1) % r.p)
            assert two_bridge_hyperbolic(r) == (not torus), r


class TestRationalP3:
    def test_trivial(self):
        assert rational_p3_trivial(ZERO)
        assert rational_p3_trivial(INFINITY)
        assert not rational_p3_trivial(Slope(2, 5))

    def test_hyperbolic(self):
        assert rational_p3_hyperbolic(Slope(2, 5))
        assert not rational_p3_hyperbolic(Slope(1, 7))
        assert not rational_p3_hyperbolic(Slope(3, 1))
        for r in slopes_with_denominator_up_to(10):
            excluded = r.is_infinity or r.p == 1 or abs(r.q) == 1
            assert rational_p3_hyperbolic(r) == (not excluded), r

    def test_classify_examples(self):
        assert rational_p3_classify(Slope(2, 5), Slope(-5, 2), True)
        assert not rational_p3_classify(Slope(2, 5), Slope(5, 2), True)
        assert rational_p3_classify(Slope(2, 5), Slope(5, 2), False)
        assert rational_p3_classify(Slope(2, 5), Slope(2, 5), True)

    def test_equivalence_relation(self):
        slopes = slopes_with_denominator_up_to(5)
        for oriented in (True, False):
            for r in slopes:
                assert rational_p3_classify(r, r, oriented)
            for r in slopes:
                for s in slopes:
                    if rational_p3_classify(r, s, oriented):
                        assert rational_p3_classify(s, r, oriented), (r, s)
            import random
            rng = random.Random(7)
            for _ in range(400):
                r, s, t = rng.choice(slopes), rng.choice(slopes), rng.choice(slopes)
                if rational_p3_classify(r, s, oriented) and rational_p3_classify(s, t, oriented):
                    assert rational_p3_classify(r, t, oriented), (r, s, t)


class TestFareyAut:
    def test_group_structure(self):
        a = FareyAut(1, 1, 0, 1)
        b = FareyAut(0, -1, 1, 0)
        assert same_as(compose(a, inverse(a)), IDENTITY_AUT)
        assert same_as(compose(b, b), FareyAut(-1, 0, 0, -1))
        assert compose(a, b).act(Slope(1, 2)) == a.act(b.act(Slope(1, 2)))

    def test_determinant_guard(self):
        with pytest.raises(FareyError):
            FareyAut(2, 0, 0, 1)

    @given(rational_slopes, rational_slopes)
    @settings(max_examples=40, deadline=None)
    def test_action_preserves_distance(self, r, s):
        g = FareyAut(2, 1, 1, 1)
        assert farey_distance(g.act(r), g.act(s)) == farey_distance(r, s)

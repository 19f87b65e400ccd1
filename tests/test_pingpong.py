from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcubes.pingpong import (
    COMMUTING, FREE_CERTIFIED, INCONCLUSIVE, INFINITY_POINT, MAX_WORD_LENGTH,
    GaussRational, MobiusMap, PingPongError, RoundDisk, apply, compose, disjoint_interiors,
    disks_interiors_disjoint, disks_tangent, fixed_point, free_word_sanity,
    inverse, is_parabolic, isometric_butterfly, normalize_pair,
    pingpong_certificate, pingpong_certificate_float,
)

M_STD = MobiusMap.from_entries(1, 0, 4, 1)
M_SHIFTED = MobiusMap.from_entries(9, -16, 4, -7)     # conjugate by z -> z + 2
TRANSLATION = MobiusMap.from_entries(1, 1, 0, 1)


def gr(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


class TestScalars:
    def test_arithmetic(self):
        z = gr(1, 2)
        w = gr(3, -1)
        assert z * w == gr(5, 5)
        assert (z / w) * w == z
        assert z.conj() == gr(1, -2)
        assert z.abs2() == Fraction(5)

    def test_sqrt(self):
        assert gr(4).sqrt() == gr(2)
        assert gr(-9).sqrt() == gr(0, 3)
        assert gr(0, 2).sqrt() == gr(1, 1)
        assert gr(2).sqrt() is None

    @given(st.integers(-9, 9), st.integers(-9, 9))
    @settings(max_examples=50, deadline=None)
    def test_square_then_sqrt(self, a, b):
        z = gr(a, b)
        if z.is_zero:
            return
        r = (z * z).sqrt()
        assert r is not None and (r == z or r == -z)


class TestGroupOps:
    def test_compose_inverse(self):
        assert compose(M_STD, inverse(M_STD)).is_identity
        assert compose(TRANSLATION, inverse(TRANSLATION)).is_identity

    def test_apply(self):
        assert apply(TRANSLATION, INFINITY_POINT) == INFINITY_POINT
        assert apply(MobiusMap.from_entries(1, 0, 2, 1), 0).is_zero
        assert apply(M_STD, Fraction(-1, 4)) == INFINITY_POINT
        assert apply(M_STD, INFINITY_POINT) == gr(Fraction(1, 4))

    def test_determinant_normalization(self):
        m = MobiusMap.from_entries(2, 0, 0, 2)
        assert m.is_identity
        with pytest.raises(PingPongError):
            MobiusMap.from_entries(2, 0, 0, 1)
        with pytest.raises(PingPongError):
            MobiusMap.from_entries(1, 1, 1, 1)

    def test_sign_quotient(self):
        m = MobiusMap.from_entries(-1, 0, -4, -1)
        assert m.same_as(M_STD)


class TestParabolic:
    def test_examples(self):
        assert is_parabolic(TRANSLATION)
        assert fixed_point(TRANSLATION) == INFINITY_POINT
        assert not is_parabolic(MobiusMap.from_entries(2, 0, 0, Fraction(1, 2)))
        assert is_parabolic(M_STD)
        assert fixed_point(M_STD).is_zero
        assert fixed_point(M_SHIFTED) == gr(2)

    def test_identity_rejected(self):
        from cuspcubes.pingpong import IDENTITY
        with pytest.raises(PingPongError):
            fixed_point(IDENTITY)


class TestButterflies:
    def test_standard(self):
        bf = isometric_butterfly(M_STD)
        assert bf.neg.center == gr(Fraction(-1, 4))
        assert bf.pos.center == gr(Fraction(1, 4))
        assert bf.neg.radius2 == Fraction(1, 16)
        assert disks_tangent(bf.neg, bf.pos)

    def test_shifted(self):
        bf = isometric_butterfly(M_SHIFTED)
        assert bf.neg.center == gr(Fraction(7, 4))
        assert bf.pos.center == gr(Fraction(9, 4))
        assert bf.neg.radius2 == Fraction(1, 16)

    def test_fixing_infinity_rejected(self):
        with pytest.raises(PingPongError, match="infinity"):
            isometric_butterfly(TRANSLATION)

    def test_irrational_radius_stays_exact(self):
        m = MobiusMap.from_entries(1, 0, (1, 1), 1)       # c = 1 + i
        bf = isometric_butterfly(m)
        assert bf.neg.radius2 == Fraction(1, 2)
        assert disks_tangent(bf.neg, bf.pos)

    def test_inverse_swaps_wings(self):
        bf = isometric_butterfly(M_STD)
        bfi = isometric_butterfly(inverse(M_STD))
        assert bfi.neg == bf.pos and bfi.pos == bf.neg


class TestDisks:
    def test_examples(self):
        quarter = Fraction(1, 16)
        ds = [RoundDisk(gr(Fraction(-1, 4)), quarter), RoundDisk(gr(Fraction(1, 4)), quarter),
              RoundDisk(gr(Fraction(7, 4)), quarter), RoundDisk(gr(Fraction(9, 4)), quarter)]
        assert disjoint_interiors(ds)
        assert not disjoint_interiors([RoundDisk(gr(0), Fraction(1)),
                                       RoundDisk(gr(1), Fraction(1))])
        assert disjoint_interiors([RoundDisk(gr(0), Fraction(1)),
                                   RoundDisk(gr(2), Fraction(1))])

    def test_irrational_radii_comparison(self):
        # radius sqrt(1/2) disks centered 0 and (1.4, 0): 2*sqrt(1/2) > 1.4
        a = RoundDisk(gr(0), Fraction(1, 2))
        b = RoundDisk(gr(Fraction(7, 5)), Fraction(1, 2))
        assert not disks_interiors_disjoint(a, b)
        c = RoundDisk(gr(Fraction(3, 2)), Fraction(1, 2))
        assert disks_interiors_disjoint(a, c)

    def test_needs_two(self):
        with pytest.raises(PingPongError):
            disjoint_interiors([RoundDisk(gr(0), Fraction(1))])

    def test_positive_radius(self):
        with pytest.raises(PingPongError):
            RoundDisk(gr(0), Fraction(0))


class TestCertificates:
    def test_free_certified(self):
        cert = pingpong_certificate(M_STD, M_SHIFTED)
        assert cert.verdict == FREE_CERTIFIED
        assert len(cert.butterflies) == 2
        assert cert.notes

    def test_commuting(self):
        cert = pingpong_certificate(M_STD, MobiusMap.from_entries(1, 0, 4, 1))
        assert cert.verdict == COMMUTING
        cert2 = pingpong_certificate(TRANSLATION, MobiusMap.from_entries(1, 3, 0, 1))
        assert cert2.verdict == COMMUTING

    def test_inconclusive(self):
        mA = MobiusMap.from_entries(1, 0, 1, 1)
        mB = MobiusMap.from_entries(2, -1, 1, 0)
        cert = pingpong_certificate(mA, mB)
        assert cert.verdict == INCONCLUSIVE
        assert "overlap" in cert.diagnostic
        assert "not refute" in " ".join(cert.notes) or "does not refute" in " ".join(cert.notes)

    def test_non_parabolic_rejected(self):
        with pytest.raises(PingPongError):
            pingpong_certificate(MobiusMap.from_entries(2, 0, 0, Fraction(1, 2)), M_STD)

    def test_swap_and_inverse_invariance(self):
        for a, b in [(M_STD, M_SHIFTED), (M_SHIFTED, M_STD),
                     (inverse(M_STD), M_SHIFTED), (M_STD, inverse(M_SHIFTED)),
                     (inverse(M_STD), inverse(M_SHIFTED))]:
            assert pingpong_certificate(a, b).verdict == FREE_CERTIFIED

    def test_infinite_fixed_point_normalized(self):
        cert = pingpong_certificate(TRANSLATION, M_STD)
        assert cert.verdict in (FREE_CERTIFIED, INCONCLUSIVE)
        assert cert.conjugator is not None and not cert.conjugator.is_identity

    def test_json(self):
        data = pingpong_certificate(M_STD, M_SHIFTED).to_json()
        assert data["verdict"] == FREE_CERTIFIED
        assert len(data["butterflies"]) == 2


class TestNormalize:
    def test_moves_fixed_points(self):
        n1, n2, g = normalize_pair(TRANSLATION, M_STD)
        assert fixed_point(n1) != INFINITY_POINT
        assert fixed_point(n2) != INFINITY_POINT
        gi = inverse(g)
        assert compose(compose(g, TRANSLATION), gi).same_as(n1)

    def test_already_finite_identity(self):
        n1, n2, g = normalize_pair(M_STD, M_SHIFTED)
        assert g.is_identity and n1.same_as(M_STD)

    def test_equal_fixed_points_rejected(self):
        with pytest.raises(PingPongError):
            normalize_pair(TRANSLATION, MobiusMap.from_entries(1, 5, 0, 1))


def words_oracle(m1, m2, max_length):
    """The word check on Fraction matrices, as free_word_sanity did it
    before it moved to Gaussian integers: the same depth-first order, each
    word composed with compose() and tested with is_identity."""
    gens = [(0, m1), (1, inverse(m1)), (2, m2), (3, inverse(m2))]
    inverse_of = {0: 1, 1: 0, 2: 3, 3: 2}
    stack = [(g, m, 1) for g, m in gens]
    while stack:
        last, mat, length = stack.pop()
        if mat.is_identity:
            return False
        if length >= max_length:
            continue
        for g, gm in gens:
            if g != inverse_of[last]:
                stack.append((g, compose(gm, mat), length + 1))
    return True


def parabolic(c, s):
    """[[1 + cs, -cs^2], [c, 1 - cs]]: parabolic with fixed point s."""
    c, s, one = GaussRational.of(c), GaussRational.of(s), GaussRational.of(1)
    cs = c * s
    return MobiusMap.from_entries(one + cs, -(cs * s), c, one - cs)


H = Fraction(1, 2)
FREE_PAIRS = [                                   # (c, s) of each map
    ((3, 0), (4, 2)), ((4, 1), (3, -2)),
    ((Fraction(5, 2), H), (Fraction(7, 2), -Fraction(3, 2))),
    ((Fraction(7, 2), Fraction(5, 2)), (Fraction(5, 2), -H)),
    (((2, 1), (1, 2)), ((1, -2), (-1, -1))), (((1, 2), (-2, 1)), ((2, -1), (2, -2))),
]
# SL2(Z) pair whose shortest relations have length 6, and its conjugate by
# z -> z/2, which needs the shared denominator 2
SL2Z_PAIR = (MobiusMap.from_entries(1, 1, 0, 1), MobiusMap.from_entries(1, 0, -1, 1))
HALF_PAIR = (MobiusMap.from_entries(1, H, 0, 1), MobiusMap.from_entries(1, 0, -2, 1))
# a pair whose product has order 4: every trivial word of length 4 is -I
ORDER4_PAIR = (MobiusMap.from_entries(1, 1, 0, 1), MobiusMap.from_entries(1, 0, -2, 1))
ORDER4_HALF_PAIR = (MobiusMap.from_entries(1, H, 0, 1), MobiusMap.from_entries(1, 0, -4, 1))
# z -> z + i and z -> z/(iz + 1): off-diagonal entries with zero real part
GAUSS_PAIR = (MobiusMap.from_entries(1, (0, 1), 0, 1), MobiusMap.from_entries(1, 0, (0, 1), 1))
# diagonal matrices other than +-I (none of determinant one): i*I, 2*I,
# diag(1, -1) and diag(1 + i, 1)
DIAGONALS = [MobiusMap(gr(a, b), gr(0), gr(0), gr(c, d))
             for a, b, c, d in ((0, 1, 0, 1), (2, 0, 2, 0), (1, 0, -1, 0), (1, 1, 1, 0))]


class TestWords:
    def test_certified_pair_free(self):
        assert free_word_sanity(M_STD, M_SHIFTED, 8)

    def test_commuting_pair_fails(self):
        t2 = MobiusMap.from_entries(1, 2, 0, 1)
        assert not free_word_sanity(TRANSLATION, t2, 4)

    def test_zero_length_vacuous(self):
        assert free_word_sanity(M_STD, M_SHIFTED, 0)

    def test_length_limits(self):
        assert free_word_sanity(TRANSLATION, TRANSLATION, MAX_WORD_LENGTH) is False
        for n in (-1, MAX_WORD_LENGTH + 1):
            with pytest.raises(PingPongError, match="word length"):
                free_word_sanity(M_STD, M_SHIFTED, n)

    def test_shortest_relations(self):
        minus_one = MobiusMap.from_entries(-1, 0, 0, -1)
        for (m1, m2), k in ((SL2Z_PAIR, 6), (HALF_PAIR, 6), (ORDER4_PAIR, 4),
                            (ORDER4_HALF_PAIR, 4)):
            assert [free_word_sanity(m1, m2, n) for n in range(9)] == \
                [True] * k + [False] * (9 - k)
            ab = compose(m1, m2)
            power = ab
            for _ in range(k // 2 - 1):
                power = compose(power, ab)
            assert power == minus_one

    def test_agrees_with_fraction_oracle(self):
        pairs = [(parabolic(*p1), parabolic(*p2)) for p1, p2 in FREE_PAIRS]
        assert all(pingpong_certificate(*p).verdict == FREE_CERTIFIED for p in pairs)
        pairs += [SL2Z_PAIR, HALF_PAIR, ORDER4_PAIR, ORDER4_HALF_PAIR, GAUSS_PAIR,
                  (TRANSLATION, TRANSLATION), (TRANSLATION, MobiusMap.from_entries(1, 2, 0, 1))]
        pairs += [(m, M_STD) for m in DIAGONALS]
        for m1, m2 in pairs:
            for n in range(7):
                assert free_word_sanity(m1, m2, n) == words_oracle(m1, m2, n), (m1, m2, n)


class TestFloatPath:
    def test_verdicts(self):
        assert pingpong_certificate_float([[1, 0], [4, 1]], [[9, -16], [4, -7]]).verdict \
            == FREE_CERTIFIED
        assert pingpong_certificate_float([[1, 0], [4, 1]], [[1, 0], [4, 1]]).verdict \
            == COMMUTING
        assert pingpong_certificate_float([[1, 0], [1, 1]], [[2, -1], [1, 0]]).verdict \
            == INCONCLUSIVE

    def test_irrational_entries(self):
        import math
        s = math.sqrt(2)
        cert = pingpong_certificate_float([[1, 0], [4 * s, 1]],
                                          [[1 + 8 * s, -16 * s], [4 * s, 1 - 8 * s]])
        assert cert.verdict == FREE_CERTIFIED
        assert cert.to_json()["numeric"] is True

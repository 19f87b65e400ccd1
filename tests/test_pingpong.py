import cmath
from fractions import Fraction
import functools
import json
import math
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspcubes.pingpong import (
    COMMUTING, FREE_CERTIFIED, INCONCLUSIVE, MAX_ENTRY_CHARS, MAX_WORD_LENGTH, MobiusMap,
    PingPongError, _gauss_matmul, _inverse, _matrix_json, _normal_form, _overlap, _ratio, float_entry,
    free_word_sanity, parse_rational, pingpong_certificate, pingpong_certificate_float,
)

M_STD = MobiusMap.from_entries(1, 0, 4, 1)
M_SHIFTED = MobiusMap.from_entries(9, -16, 4, -7)     # conjugate by z -> z + 2
TRANSLATION = MobiusMap.from_entries(1, 1, 0, 1)
IDENTITY = MobiusMap.from_entries(1, 0, 0, 1)
IDENTITY_JSON = [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]]


# The Fraction Moebius algebra of the oracles below, on records of its own;
# the package itself decides on scaled Gaussian integers and keeps no
# complex arithmetic.

class GR(NamedTuple):
    """The Gaussian rational re + im i."""

    re: Fraction
    im: Fraction

    def to_json(self):
        return [str(self.re), str(self.im)]


class FMap(NamedTuple):
    """The matrix [[a, b], [c, d]] of Gaussian rationals."""

    a: GR
    b: GR
    c: GR
    d: GR

    def to_json(self):
        return [[self.a.to_json(), self.b.to_json()], [self.c.to_json(), self.d.to_json()]]


class Disk(NamedTuple):
    """Closed round disk: centre and squared radius."""

    center: GR
    radius2: Fraction

    def to_json(self):
        return {"center": self.center.to_json(), "radius2": str(self.radius2)}


def gr(re, im=0):
    return GR(Fraction(re), Fraction(im))


def of(x):
    """A rational or an (re, im) pair of rationals, as a GR."""
    return gr(*x) if isinstance(x, (tuple, list)) else gr(x)


def from_json(rows):
    """The FMap of a JSON matrix [[a, b], [c, d]] of [re, im] strings."""
    return FMap(*(gr(*map(Fraction, z)) for row in rows for z in row))


def matrix_json(m: MobiusMap) -> list:
    """The JSON matrix of m, as the certificates print it."""
    return _matrix_json(m.den, m.e)


def fmap(m: MobiusMap) -> FMap:
    return from_json(matrix_json(m))


def json_entry(x):
    """An entry as a JSON matrix gives it: a Fraction as its string, a
    Gaussian (re, im) pair as a list of such entries."""
    if isinstance(x, tuple):
        return [json_entry(y) for y in x]
    return str(x) if isinstance(x, Fraction) else x


def disk_of(obj) -> Disk:
    return Disk(gr(*map(Fraction, obj["center"])), Fraction(obj["radius2"]))


ZERO_C, ONE_C = gr(0), gr(1)
INF = "inf"


def add(x, y):
    return GR(x.re + y.re, x.im + y.im)


def sub(x, y):
    return GR(x.re - y.re, x.im - y.im)


def mul(x, y):
    return GR(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)


def abs2(x):
    return x.re * x.re + x.im * x.im


def div(x, y):
    n = abs2(y)
    return mul(x, GR(y.re / n, -y.im / n))


def sqrt(z):
    """The exact square root nearest the principal one (positive real part, or
    positive imaginary part for a negative real), or None if it is irrational."""
    w = cmath.sqrt(complex(float(z.re), float(z.im)))
    root = gr(*(Fraction(x).limit_denominator(10 ** 6) for x in (w.real, w.imag)))
    return root if mul(root, root) == z else None


def det(m):
    return sub(mul(m.a, m.d), mul(m.b, m.c))


def compose(m1, m2):
    return FMap(add(mul(m1.a, m2.a), mul(m1.b, m2.c)), add(mul(m1.a, m2.b), mul(m1.b, m2.d)),
                add(mul(m1.c, m2.a), mul(m1.d, m2.c)), add(mul(m1.c, m2.b), mul(m1.d, m2.d)))


def inverse(m):
    return FMap(m.d, sub(ZERO_C, m.b), sub(ZERO_C, m.c), m.a)


def apply(m, z):
    """Evaluate the fractional linear map; infinity and poles are exact."""
    if z == INF:
        return INF if m.c == ZERO_C else div(m.a, m.c)
    den = add(mul(m.c, z), m.d)
    return INF if den == ZERO_C else div(add(mul(m.a, z), m.b), den)


def same_as(m, n):
    """Equality in the quotient by the global sign."""
    return m == n or all(x == sub(ZERO_C, y) for x, y in zip(m, n))


def is_identity(m):
    return same_as(m, FMap(ONE_C, ZERO_C, ZERO_C, ONE_C))


def fraction_from_entries(a, b, c, d):
    """from_entries as it was on Fractions: divide by the root of sqrt()."""
    a, b, c, d = map(of, (a, b, c, d))
    dt = sub(mul(a, d), mul(b, c))
    if dt == ZERO_C:
        raise PingPongError("matrix is singular")
    root = sqrt(dt)
    if root is None:
        raise PingPongError(
            "determinant must be 1 (or an exact square so the matrix can be scaled)")
    return FMap(*(div(x, root) for x in (a, b, c, d)))


class Spec(NamedTuple):
    """A map given by four entries, rationals or (re, im) pairs: from_entries
    scales them to determinant one, unless raw, when they stand as given."""

    entries: tuple
    raw: bool = False


def scaled(m: FMap):
    """(D, D*M), D the lcm of the denominators of the parts of m's entries."""
    parts = [x for z in m for x in z]
    den = math.lcm(*(x.denominator for x in parts))
    return den, tuple(x.numerator * (den // x.denominator) for x in parts)


def package_map(spec: Spec) -> MobiusMap:
    if spec.raw:
        return MobiusMap(*scaled(FMap(*map(of, spec.entries))))
    return MobiusMap.from_entries(*map(json_entry, spec.entries))


def fraction_map(spec: Spec) -> FMap:
    return FMap(*map(of, spec.entries)) if spec.raw else fraction_from_entries(*spec.entries)


def float_matrix(spec: Spec):
    """The spec's entries as complex floats, for the numeric path."""
    a, b, c, d = (complex(float(z.re), float(z.im)) for z in map(of, spec.entries))
    return [[a, b], [c, d]]


def inverse_map(m: MobiusMap) -> MobiusMap:
    return MobiusMap.from_entries(*map(json_entry, inverse(fmap(m))))


def tangency(bf) -> GR:
    """The point where a butterfly's two disks touch: the map's fixed point."""
    neg, pos = disk_of(bf["neg"]).center, disk_of(bf["pos"]).center
    return GR((neg.re + pos.re) / 2, (neg.im + pos.im) / 2)


class TestScalars:
    def test_arithmetic(self):
        z = gr(1, 2)
        w = gr(3, -1)
        assert mul(z, w) == gr(5, 5)
        assert mul(div(z, w), w) == z
        assert abs2(z) == Fraction(5)
        assert matrix_json(MobiusMap.from_entries(1, ["1/2", -3], 0, 1))[0][1] == ["1/2", "-3"]

    def test_sqrt(self):
        assert sqrt(gr(4)) == gr(2)
        assert sqrt(gr(-9)) == gr(0, 3)
        assert sqrt(gr(0, 2)) == gr(1, 1)
        assert sqrt(gr(2)) is None
        # from_entries divides by the same root: det 4 -> 2, -9 -> 3i, 2i -> 1 + i
        assert MobiusMap.from_entries(2, 0, 0, 2) == IDENTITY
        assert fmap(MobiusMap.from_entries(3, 0, 0, -3)).a == gr(0, -1)
        assert fmap(MobiusMap.from_entries((1, 1), 0, 0, (1, 1))).a == gr(1)

    @given(st.integers(-9, 9), st.integers(-9, 9), st.sampled_from([1, 2, Fraction(1, 3)]))
    @settings(max_examples=50, deadline=None)
    def test_square_then_sqrt(self, a, b, q):
        z = gr(a * q, b)
        if z == ZERO_C:
            return
        r = sqrt(mul(z, z))
        assert r is not None and (r == z or r == sub(ZERO_C, z))
        # from_entries on Gaussian integers agrees with the Fraction oracle, sign
        # included, on z times matrices of determinant 1, -1, -2 and 2i
        for m in ((1, 0, 4, 1), (9, -16, 4, -7), (0, 1, 1, 0), (1, 2, 3, 4), ((1, 1), 0, 0, 1)):
            entries = [json_entry(mul(of(x), z)) for x in m]
            assert outcome(MobiusMap.from_entries, *entries) == \
                outcome(fraction_from_entries, *entries), (m, z)


# entries for the reader: strings over the characters of rational literals
# (and of refused ones), strings shaped like rationals, and JSON scalars
ENTRIES = st.one_of(
    st.text(alphabet="0123456789٣_./+- eEx", max_size=8),
    st.from_regex(r"\s?[-+]?[0-9٣_]{0,4}[./]?[0-9٣_]{0,4}\s?", fullmatch=True),
    st.integers(), st.booleans(), st.floats(), st.none())


def fraction_entry(x):
    """The exact value of an entry by Fraction, or None: Fraction refuses
    it, or it is a bool, a float or None, which exact mode refuses."""
    if isinstance(x, bool) or not isinstance(x, (str, int)):
        return None
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError):
        return None


class TestEntries:
    @given(ENTRIES)
    @settings(max_examples=1000, deadline=None)
    @example("٣/1_0")
    @example(" +.5 ")
    @example("-1.")
    @example("1__0")
    @example("1.d")
    @example("1 / 2")
    @example("0/7")
    @example("3/0")
    @example("1e5")
    @example(10 ** MAX_ENTRY_CHARS)
    @example("-6/4")
    # the edge of the int() path for ASCII -?digits(/digits)?
    @example("-0")
    @example("-0/5")
    @example("007/014")
    @example("3/-4")
    @example("+3/4")
    @example(" 3/4")
    @example("3/4 ")
    @example("-/2")
    @example("/3")
    @example("3/")
    @example("1_000/2")
    @example("\uff13")          # fullwidth 3, a Unicode decimal digit
    @example("\u00b2")          # superscript 2: isdigit() holds, int() refuses it
    def test_reader_matches_fraction(self, x):
        if isinstance(x, str) and (len(x) > MAX_ENTRY_CHARS or "e" in x.lower()) or \
                type(x) is int and abs(x) >= 10 ** MAX_ENTRY_CHARS:
            with pytest.raises(PingPongError):
                parse_rational(x)
            return
        value, got = fraction_entry(x), parse_rational(x)
        assert (got is None) == (value is None)
        if got is not None:
            n, d = got
            assert type(n) is type(d) is int and d > 0 and math.gcd(n, d) == 1
            assert Fraction(n, d) == value

    @given(ENTRIES)
    @settings(max_examples=1000, deadline=None)
    @example(10 ** 400)
    @example("1" * 400)
    @example("1/3")
    def test_float_entry_matches_fraction(self, x):
        try:
            expected = float(x if isinstance(x, float) else fraction_entry(x))
        except (TypeError, OverflowError):
            expected = math.inf
        if not math.isfinite(expected) or isinstance(x, str) and "e" in x.lower():
            with pytest.raises(PingPongError):
                float_entry(x)
        else:
            assert float_entry(x) == complex(expected, 0.0)


class TestGroupOps:
    def test_compose_inverse(self):
        for m in (fmap(M_STD), fmap(TRANSLATION)):
            assert is_identity(compose(m, inverse(m)))

    def test_apply(self):
        assert apply(fmap(TRANSLATION), INF) == INF
        assert apply(fmap(MobiusMap.from_entries(1, 0, 2, 1)), gr(0)) == ZERO_C
        assert apply(fmap(M_STD), gr(Fraction(-1, 4))) == INF
        assert apply(fmap(M_STD), INF) == gr(Fraction(1, 4))

    def test_determinant_normalization(self):
        assert is_identity(fmap(MobiusMap.from_entries(2, 0, 0, 2)))
        with pytest.raises(PingPongError):
            MobiusMap.from_entries(2, 0, 0, 1)
        with pytest.raises(PingPongError):
            MobiusMap.from_entries(1, 1, 1, 1)

    def test_sign_quotient(self):
        assert same_as(fmap(MobiusMap.from_entries(-1, 0, -4, -1)), fmap(M_STD))


class TestParabolic:
    def test_examples(self):
        # the isometric disks of a parabolic map touch at its fixed point
        bf1, bf2 = pingpong_certificate(M_STD, M_SHIFTED)["butterflies"]
        assert (tangency(bf1), tangency(bf2)) == (gr(0), gr(2))
        # translations fix infinity, so two of them commute
        assert pingpong_certificate(TRANSLATION, MobiusMap.from_entries(1, (2, -1), 0, 1)
                                    )["verdict"] == COMMUTING
        with pytest.raises(PingPongError, match="two parabolic maps"):
            pingpong_certificate(MobiusMap.from_entries(2, 0, 0, "1/2"), M_STD)

    def test_identity_rejected(self):
        for pair in ((IDENTITY, M_STD), (M_STD, IDENTITY)):
            with pytest.raises(PingPongError, match="two parabolic maps"):
                pingpong_certificate(*pair)


class TestButterflies:
    def test_standard(self):
        bf = pingpong_certificate(M_STD, M_SHIFTED)["butterflies"][0]
        assert bf["map"] == matrix_json(M_STD)
        assert bf["neg"] == {"center": ["-1/4", "0"], "radius2": "1/16"}
        assert bf["pos"] == {"center": ["1/4", "0"], "radius2": "1/16"}
        assert FractionOracle.separation(disk_of(bf["neg"]), disk_of(bf["pos"])) == 0

    def test_shifted(self):
        bf = pingpong_certificate(M_STD, M_SHIFTED)["butterflies"][1]
        assert bf["neg"] == {"center": ["7/4", "0"], "radius2": "1/16"}
        assert bf["pos"] == {"center": ["9/4", "0"], "radius2": "1/16"}

    def test_irrational_radius_stays_exact(self):
        m = MobiusMap.from_entries(1, 0, (1, 1), 1)       # c = 1 + i
        bf = pingpong_certificate(m, M_SHIFTED)["butterflies"][0]
        assert bf["neg"]["radius2"] == "1/2"
        assert FractionOracle.separation(disk_of(bf["neg"]), disk_of(bf["pos"])) == 0

    def test_inverse_swaps_wings(self):
        bf = pingpong_certificate(M_STD, M_SHIFTED)["butterflies"][0]
        bfi = pingpong_certificate(inverse_map(M_STD), M_SHIFTED)["butterflies"][0]
        assert bfi["neg"] == bf["pos"] and bfi["pos"] == bf["neg"]


class TestDisks:
    # scaled disks (Re v, Im v, q, r): centre v/q and squared radius r/q^2
    def test_examples(self):
        # centres -1/4, 1/4, 7/4 and 9/4, radius 1/4: tangent in a row
        row = [(x, 0, 4, 1) for x in (-1, 1, 7, 9)]
        assert not any(_overlap(row[i], row[j]) for i in range(4) for j in range(i + 1, 4))
        assert _overlap((0, 0, 1, 1), (1, 0, 1, 1))
        assert not _overlap((0, 0, 1, 1), (2, 0, 1, 1))

    def test_irrational_radii_comparison(self):
        # radius sqrt(1/2) disks centered 0 and (1.4, 0): 2*sqrt(1/2) > 1.4
        a = (0, 0, 2, 2)
        assert _overlap(a, (14, 0, 10, 50))
        assert not _overlap(a, (3, 0, 2, 2))      # centre 3/2

    def test_positive_radius(self):
        # c is not 0 once both fixed points are finite, so radius2 = 1/|c|^2 > 0
        for s1, s2 in oracle_pairs():
            kind, data = certificate_outcome(s1, s2)
            if kind == "ok":
                assert all(disk_of(bf[side]).radius2 > 0
                           for bf in data["butterflies"] for side in ("neg", "pos"))


class TestCertificates:
    def test_free_certified(self):
        cert = pingpong_certificate(M_STD, M_SHIFTED)
        assert cert["verdict"] == FREE_CERTIFIED
        assert len(cert["butterflies"]) == 2
        assert cert["notes"]

    def test_commuting(self):
        cert = pingpong_certificate(M_STD, MobiusMap.from_entries(1, 0, 4, 1))
        assert cert["verdict"] == COMMUTING
        cert2 = pingpong_certificate(TRANSLATION, MobiusMap.from_entries(1, 3, 0, 1))
        assert cert2["verdict"] == COMMUTING

    def test_inconclusive(self):
        mA = MobiusMap.from_entries(1, 0, 1, 1)
        mB = MobiusMap.from_entries(2, -1, 1, 0)
        cert = pingpong_certificate(mA, mB)
        assert cert["verdict"] == INCONCLUSIVE
        assert "overlap" in cert["diagnostic"]
        notes = " ".join(cert["notes"])
        assert "not refute" in notes or "does not refute" in notes

    def test_non_parabolic_rejected(self):
        with pytest.raises(PingPongError):
            pingpong_certificate(MobiusMap.from_entries(2, 0, 0, "1/2"), M_STD)

    def test_swap_and_inverse_invariance(self):
        for a, b in [(M_STD, M_SHIFTED), (M_SHIFTED, M_STD),
                     (inverse_map(M_STD), M_SHIFTED), (M_STD, inverse_map(M_SHIFTED)),
                     (inverse_map(M_STD), inverse_map(M_SHIFTED))]:
            assert pingpong_certificate(a, b)["verdict"] == FREE_CERTIFIED

    def test_infinite_fixed_point_normalized(self):
        cert = pingpong_certificate(TRANSLATION, M_STD)
        assert cert["verdict"] in (FREE_CERTIFIED, INCONCLUSIVE)
        assert cert["conjugator"] is not None and not is_identity(from_json(cert["conjugator"]))

    def test_json(self):
        data = pingpong_certificate(M_STD, M_SHIFTED)
        assert data["verdict"] == FREE_CERTIFIED
        assert len(data["butterflies"]) == 2


class TestNormalize:
    # the certificate conjugates a fixed point at infinity into the plane
    # and emits the conjugated maps with their conjugator
    def test_moves_fixed_points(self):
        cert = pingpong_certificate(TRANSLATION, M_STD)
        g = from_json(cert["conjugator"])
        n1, n2 = (from_json(bf["map"]) for bf in cert["butterflies"])
        assert n1.c != ZERO_C and n2.c != ZERO_C
        assert same_as(compose(compose(g, fmap(TRANSLATION)), inverse(g)), n1)
        assert same_as(compose(compose(g, fmap(M_STD)), inverse(g)), n2)

    def test_already_finite_identity(self):
        cert = pingpong_certificate(M_STD, M_SHIFTED)
        assert cert["conjugator"] == IDENTITY_JSON
        assert [bf["map"] for bf in cert["butterflies"]] == [matrix_json(M_STD), matrix_json(M_SHIFTED)]

    def test_equal_fixed_points_rejected(self):
        cert = pingpong_certificate(TRANSLATION, MobiusMap.from_entries(1, 5, 0, 1))
        assert cert["verdict"] == COMMUTING
        assert "conjugator" not in cert and cert["butterflies"] == []


def words_oracle(m1, m2, max_length):
    """The word check on Fraction matrices, as free_word_sanity did it
    before it moved to Gaussian integers: the same depth-first order, each
    word composed with compose() and tested with is_identity."""
    m1, m2 = fmap(m1), fmap(m2)
    gens = [(0, m1), (1, inverse(m1)), (2, m2), (3, inverse(m2))]
    inverse_of = {0: 1, 1: 0, 2: 3, 3: 2}
    stack = [(g, m, 1) for g, m in gens]
    while stack:
        last, mat, length = stack.pop()
        if is_identity(mat):
            return False
        if length >= max_length:
            continue
        for g, gm in gens:
            if g != inverse_of[last]:
                stack.append((g, compose(gm, mat), length + 1))
    return True


def mitm_words_oracle(m1, m2, max_length):
    """The word check as free_word_sanity did it before it probed odd
    lengths by rotation: every reduced word of length <= ceil(N/2) is built
    breadth-first and stored under its primitive key, and the check fails
    when a word of length a meets a key first reached at length b with
    a + b <= N."""
    def primitive(e):
        g = math.gcd(*e)
        if e < (0,) * 8:
            g = -g
        return e if g == 1 else tuple(x // g for x in e)

    gens = (m1.e, _inverse(m1.e), m2.e, _inverse(m2.e))
    identity = (1, 0, 0, 0, 0, 0, 1, 0)
    first_length = {identity: 0}
    frontier = [(-1, identity)]
    for length in range(1, (max_length + 1) // 2 + 1):
        words = []
        for last, mat in frontier:
            for g, gm in enumerate(gens):
                if g == last ^ 1:
                    continue
                key = primitive(_gauss_matmul(mat, gm))
                b = first_length.get(key)
                if b is None:
                    first_length[key] = length
                elif b + length <= max_length:
                    return False
                words.append((g, key))
        frontier = words
    return True


def parabolic(c, s):
    """[[1 + cs, -cs^2], [c, 1 - cs]]: parabolic with fixed point s."""
    c, s = of(c), of(s)
    cs = mul(c, s)
    return Spec((add(ONE_C, cs), sub(ZERO_C, mul(cs, s)), c, sub(ONE_C, cs)))


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
HALF_PAIR = (MobiusMap.from_entries(1, "1/2", 0, 1), MobiusMap.from_entries(1, 0, -2, 1))
# a pair whose product has order 4: every trivial word of length 4 is -I
ORDER4_PAIR = (MobiusMap.from_entries(1, 1, 0, 1), MobiusMap.from_entries(1, 0, -2, 1))
ORDER4_HALF_PAIR = (MobiusMap.from_entries(1, "1/2", 0, 1), MobiusMap.from_entries(1, 0, -4, 1))
# z -> z + i and z -> z/(iz + 1): off-diagonal entries with zero real part
GAUSS_PAIR = (MobiusMap.from_entries(1, (0, 1), 0, 1), MobiusMap.from_entries(1, 0, (0, 1), 1))
# diagonal matrices other than +-I, none of determinant one, so no map is
# made of them: i*I, 2*I, diag(1, -1) and diag(1 + i, 1)
DIAGONALS = [Spec(((a, b), 0, 0, (c, d)), raw=True)
             for a, b, c, d in ((0, 1, 0, 1), (2, 0, 2, 0), (1, 0, -1, 0), (1, 1, 1, 0))]


def free_pair(p1, p2):
    return package_map(parabolic(*p1)), package_map(parabolic(*p2))


# the pairs whose word checks the golden pingpong family records
NAMED_PAIRS = {"SL2Z_PAIR": SL2Z_PAIR, "HALF_PAIR": HALF_PAIR, "ORDER4_PAIR": ORDER4_PAIR,
               "ORDER4_HALF_PAIR": ORDER4_HALF_PAIR, "GAUSS_PAIR": GAUSS_PAIR,
               **{f"FREE_PAIRS[{k}]": free_pair(*p) for k, p in enumerate(FREE_PAIRS)}}


# (w, k): the shortest trivial word of <T, U_w>, U_w = [[1, 0], [w, 1]], has length k
SPLIT_BOUNDARY = (("3/2", 9), ("1/2", 8), ("1/3", 10), ((0, 1), 10))
# z -> -1/(z + 1), of order 3: E^3 = 1 is a relation that avoids T
ORDER3 = MobiusMap.from_entries(0, -1, 1, 1)


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
        minus_one = fmap(MobiusMap.from_entries(-1, 0, 0, -1))
        for (m1, m2), k in ((SL2Z_PAIR, 6), (HALF_PAIR, 6), (ORDER4_PAIR, 4),
                            (ORDER4_HALF_PAIR, 4)):
            assert [free_word_sanity(m1, m2, n) for n in range(9)] == \
                [True] * k + [False] * (9 - k)
            ab = compose(fmap(m1), fmap(m2))
            power = ab
            for _ in range(k // 2 - 1):
                power = compose(power, ab)
            assert power == minus_one

    def test_split_boundary(self):
        """<T, U_w> with T = [[1, 1], [0, 1]] and U_w = [[1, 0], [w, 1]]: the
        shortest trivial word has length k, odd for w = 3/2 (halves of 5 and
        4 letters) and even for the others."""
        for omega, k in SPLIT_BOUNDARY:
            u = MobiusMap.from_entries(1, 0, omega, 1)
            assert [free_word_sanity(TRANSLATION, u, n) for n in range(k + 1)] == \
                [True] * k + [False], omega

    def test_odd_lengths_probe_both_rotations(self):
        """At N = 3, E^3 = 1 is found only by the probe m2^-2 for (T, E), and
        only by the words that start with letter 0 for (E, T)."""
        for pair in ((TRANSLATION, ORDER3), (ORDER3, TRANSLATION)):
            assert [free_word_sanity(*pair, n) for n in range(MAX_WORD_LENGTH + 1)] == \
                [True] * 3 + [False] * (MAX_WORD_LENGTH - 2), pair

    def test_agrees_with_mitm_oracle_up_to_the_cap(self):
        pairs = list(NAMED_PAIRS.values())
        pairs += [(TRANSLATION, MobiusMap.from_entries(1, 0, omega, 1)) for omega, _ in SPLIT_BOUNDARY]
        for m1, m2 in pairs:
            for n in range(MAX_WORD_LENGTH + 1):
                assert free_word_sanity(m1, m2, n) == mitm_words_oracle(m1, m2, n), (m1, m2, n)

    def test_agrees_with_fraction_oracle(self):
        pairs = [free_pair(*p) for p in FREE_PAIRS]
        assert all(pingpong_certificate(*p)["verdict"] == FREE_CERTIFIED for p in pairs)
        pairs.append(GAUSS_PAIR)
        for m1, m2 in pairs:
            for n in range(7):
                assert free_word_sanity(m1, m2, n) == words_oracle(m1, m2, n), (m1, m2, n)
        # pairs with a trivial word of length <= 6, which the oracle finds early
        for m1, m2 in (SL2Z_PAIR, HALF_PAIR, ORDER4_PAIR, ORDER4_HALF_PAIR,
                       (TRANSLATION, TRANSLATION),
                       (TRANSLATION, MobiusMap.from_entries(1, 2, 0, 1))):
            for n in range(9):
                assert free_word_sanity(m1, m2, n) == words_oracle(m1, m2, n), (m1, m2, n)


class FractionOracle:
    """The certificate on Fraction matrices, as pingpong_certificate
    computed it before it moved to the scaled Gaussian-integer forms: each
    test through the Fraction algebra above, apply() and compose(), and the
    certificate JSON built from these records.  det = 1 is checked first,
    as the package does where a map is made."""

    @staticmethod
    def check_det(*ms):
        if any(det(m) != ONE_C for m in ms):
            raise PingPongError("determinant must be 1")

    @staticmethod
    def is_parabolic(m):
        tr = add(m.a, m.d)
        return (tr == gr(2) or tr == gr(-2)) and not is_identity(m)

    @staticmethod
    def fixed_point(m):
        return INF if m.c == ZERO_C else div(sub(m.a, m.d), mul(m.c, gr(2)))

    @staticmethod
    def separation(d1, d2):
        """Sign of |centre(d1) - centre(d2)| - (r1 + r2), decided on squares."""
        L = abs2(sub(d1.center, d2.center)) - d1.radius2 - d2.radius2
        diff = L * L - 4 * d1.radius2 * d2.radius2
        return -1 if L < 0 else (diff > 0) - (diff < 0)

    @classmethod
    def butterfly(cls, m):
        """The isometric disks (neg, pos) of a parabolic m with finite fixed point."""
        r2 = 1 / abs2(m.c)
        neg, pos = Disk(div(sub(ZERO_C, m.d), m.c), r2), Disk(div(m.a, m.c), r2)
        # the identities the package relies on unchecked: they hold for det 1, trace +-2
        for z in (gr(0), gr(1), gr(0, 1)):
            den = add(mul(m.c, z), m.d)
            if den != ZERO_C:
                assert abs2(sub(mul(m.c, apply(m, z)), m.a)) * abs2(den) == 1
        assert cls.separation(neg, pos) == 0
        fix = cls.fixed_point(m)
        assert all(abs2(sub(fix, disk.center)) == disk.radius2 for disk in (neg, pos))
        return neg, pos

    @classmethod
    def normalize_pair(cls, m1, m2):
        """(g m1 g^-1, g m2 g^-1, g) with g = z -> 1/(z - t) for the first t
        in 0..5 that is no fixed point, or g = 1 if both are finite."""
        f1, f2 = cls.fixed_point(m1), cls.fixed_point(m2)
        if f1 != INF and f2 != INF:
            return m1, m2, FMap(ONE_C, ZERO_C, ZERO_C, ONE_C)
        t = next(t for t in range(6) if gr(t) not in (f1, f2))
        g = FMap(ZERO_C, ONE_C, ONE_C, gr(-t))
        gi = inverse(g)
        return compose(compose(g, m1), gi), compose(compose(g, m2), gi), g

    @classmethod
    def certificate(cls, m1, m2):
        cls.check_det(m1, m2)
        if not (cls.is_parabolic(m1) and cls.is_parabolic(m2)):
            raise PingPongError("certificates need two parabolic maps")
        if cls.fixed_point(m1) == cls.fixed_point(m2):
            return {"verdict": COMMUTING, "butterflies": [], "notes": [
                "equal fixed points: parabolic maps with a common fixed point commute"]}
        n1, n2, g = cls.normalize_pair(m1, m2)
        disks = cls.butterfly(n1) + cls.butterfly(n2)
        out = {"verdict": FREE_CERTIFIED,
               "butterflies": [{"map": n.to_json(), "neg": neg.to_json(), "pos": pos.to_json()}
                               for n, (neg, pos) in ((n1, disks[:2]), (n2, disks[2:]))],
               "notes": ["four round disks with disjoint interiors never cover the sphere, "
                         "so the complementary open set is automatically non-empty"],
               "conjugator": g.to_json()}
        names = ["neg(1)", "pos(1)", "neg(2)", "pos(2)"]
        overlaps = [(i, j) for i in range(4) for j in range(i + 1, 4)
                    if cls.separation(disks[i], disks[j]) < 0]
        if overlaps:
            i, j = overlaps[0]
            out.update(verdict=INCONCLUSIVE,
                       diagnostic=f"isometric disks {names[i]} and {names[j]} overlap",
                       notes=["round disks give a sufficient criterion only; "
                              "overlap does not refute freeness"])
        return out


def outcome(f, *args):
    """JSON of f's result, or the message of the PingPongError it raised."""
    try:
        res = f(*args)
    except PingPongError as err:
        return "error", str(err)
    if isinstance(res, MobiusMap):
        return "ok", matrix_json(res)
    return "ok", res.to_json() if hasattr(res, "to_json") else res


def certificate_outcome(s1: Spec, s2: Spec):
    """The certificate JSON of the maps of two specs, or the error of making
    or certifying them."""
    return outcome(lambda: pingpong_certificate(package_map(s1), package_map(s2)))


Q = Fraction
# (c, s) grids of parabolic maps per kind of entry
ORACLE_GRIDS = {
    "int": ([1, 2, 3, 4], [-2, -1, 0, 1, 2]),
    "rat": ([Q(1, 2), Q(3, 2), Q(5, 2)], [Q(-3, 2), Q(-1, 2), Q(1, 3), 1, Q(3, 2)]),
    "dyadic": ([Q(5, 4), Q(9, 4), Q(7, 8)], [Q(-1, 2), Q(1, 4), Q(3, 2), Q(-5, 8)]),
    "gauss": ([(1, 1), (2, -1), (0, 1)], [0, (1, 1), -1, (0, H), (-1, -2)]),
}
# odd maps, taken as given: trace 2 with det 2 and diag(1 + i, 1 - i) (trace
# 2, det 2, elliptic), which are refused when the map is made, diag(2, 1/2)
# (loxodromic), the identity, -1 times a parabolic
ODD_MAPS = [Spec(entries, raw=True) for entries in (
    (2, -2, 1, 0), ((1, 1), 0, 0, (1, -1)), (2, 0, 0, H), (1, 0, 0, 1), (-1, 0, -4, -1))]


def oracle_pairs():
    """Pairs of map specs: parabolic grids, fixed points at infinity, scaled
    entries and odd maps."""
    pairs = []
    for cs, ss in ORACLE_GRIDS.values():
        maps = [parabolic(c, s) for c in cs for s in ss]
        pairs += [(m1, m2) for i, m1 in enumerate(maps) for m2 in maps[i + 1:]]
        pairs += [(maps[-1], maps[0]), (maps[-2], maps[1])]
    at_infinity = [Spec((1, 1, 0, 1)), Spec((1, (2, -1), 0, 1)), Spec((-1, H, 0, -1))]
    finite = [Spec((1, 0, 4, 1)), Spec((9, -16, 4, -7)), parabolic(2, 1),
              parabolic((1, 1), (0, H)), parabolic(H, 3)]
    pairs += [(m1, m2) for m1 in at_infinity for m2 in finite]      # t = 1 against M_STD
    pairs += [(m2, m1) for m1 in at_infinity for m2 in finite]
    pairs += [(m1, m2) for m1 in at_infinity for m2 in at_infinity]
    scaled_maps = [Spec((2, 0, 8, 2)), Spec((-3, 0, -12, -3)), Spec(((0, 1), 0, (0, 4), (0, 1))),
                   Spec((18, -32, 8, -14))]
    pairs += [(m1, m2) for m1 in scaled_maps for m2 in finite + at_infinity]
    pairs += [(m1, m2) for m1 in ODD_MAPS for m2 in finite + at_infinity + ODD_MAPS]
    pairs += [(m2, m1) for m1 in ODD_MAPS for m2 in finite + at_infinity]
    return pairs


class TestFractionOracle:
    def test_certificate_matches(self):
        verdicts = set()
        for s1, s2 in oracle_pairs():
            expected = outcome(lambda: FractionOracle.certificate(fraction_map(s1),
                                                                  fraction_map(s2)))
            assert certificate_outcome(s1, s2) == expected, (s1, s2)
            verdicts.add(expected[1]["verdict"] if expected[0] == "ok" else expected[1])
        assert verdicts == {FREE_CERTIFIED, INCONCLUSIVE, COMMUTING,
                            "certificates need two parabolic maps",
                            "determinant must be 1"}

    def test_disk_tests_match(self):
        disks = [(vr, vi, q, r) for vr, vi in ((0, 0), (1, 0), (3, -2), (7, 7))
                 for q in (1, 2, 5) for r in (1, 2, 9, 50)]
        for x in disks:
            for y in disks:
                d1, d2 = (Disk(gr(Fraction(z[0], z[2]), Fraction(z[1], z[2])),
                               Fraction(z[3], z[2] * z[2])) for z in (x, y))
                assert _overlap(x, y) == (FractionOracle.separation(d1, d2) < 0), (x, y)


# parabolic maps over small Gaussian rationals: (c, s) with c not 0 and the
# fixed point s finite, or None for the translation z -> z + c
SMALL = st.builds(lambda re, im, q: gr(Fraction(re, q), Fraction(im, q)),
                  st.integers(-3, 3), st.integers(-3, 3), st.sampled_from([1, 2, 3]))
PARABOLIC = st.tuples(SMALL.filter(lambda c: c != ZERO_C), st.none() | SMALL)


def parabolic_spec(c, s):
    return Spec((1, c, 0, 1)) if s is None else parabolic(c, s)


# maps of finite order: of order 3, its inverse, of order 2, of order 3 and
# z -> -z; with +-I, the identity
FINITE_ORDER = [Spec(e) for e in ((0, -1, 1, 1), (1, 1, -1, 0), (0, -1, 1, 0), (1, -1, 1, 0),
                                  ((0, 1), 0, 0, (0, -1)), (1, 0, 0, 1), (-1, 0, 0, -1))]


def conjugated(spec, s):
    """The map of spec conjugated by z -> z + s."""
    return conjugated_by(spec, FMap(ONE_C, s, ZERO_C, ONE_C))


def conjugated_by(spec, g: FMap):
    """The map of spec conjugated by g: g M g^-1."""
    return Spec(tuple(compose(compose(g, fraction_map(spec)), inverse(g))))


def signed(spec, sign):
    """The map of spec with its matrix times sign (+-1): the same map."""
    return Spec(tuple(mul(gr(sign), of(x)) for x in spec.entries), spec.raw)


SIGNED_PARABOLIC = st.builds(lambda p, sign: signed(parabolic_spec(*p), sign), PARABOLIC,
                             st.sampled_from((1, -1)))
# pairs of parabolic maps with distinct fixed points and either sign of the
# trace, which the word check takes to their normal form (T, U_omega), the
# path the CLI runs: two draws in four
NORMAL_FORM_PAIRS = st.builds(
    lambda ps, signs: tuple(signed(parabolic_spec(*p), sign) for p, sign in zip(ps, signs)),
    st.tuples(PARABOLIC, PARABOLIC).filter(lambda ps: ps[0][1] != ps[1][1]),
    st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))))
# and pairs of parabolic maps, maps of finite order and their conjugates,
# which commute or reach the full products
WORD_MAPS = (SIGNED_PARABOLIC | st.sampled_from(FINITE_ORDER)
             | st.builds(conjugated, st.sampled_from(FINITE_ORDER), SMALL))
WORD_PAIRS = st.integers(0, 3).flatmap(
    lambda k: ((NORMAL_FORM_PAIRS,) * 2 + (st.tuples(WORD_MAPS, WORD_MAPS),
                                           st.tuples(SIGNED_PARABOLIC, SIGNED_PARABOLIC)))[k])
T_SPEC = Spec((1, 1, 0, 1))


def u_spec(omega):
    """U_omega = [[1, 0], [omega, 1]]."""
    return Spec((1, 0, omega, 1))


# SL2(Z[i]) is generated by the elementary matrices over the Euclidean Z[i]
GAUSS_INT = st.builds(gr, st.integers(-2, 2), st.integers(-2, 2))
SL2_ZI = st.lists(st.tuples(st.booleans(), GAUSS_INT), min_size=1, max_size=4).map(
    lambda steps: functools.reduce(compose, [
        FMap(ONE_C, x, ZERO_C, ONE_C) if upper else FMap(ONE_C, ZERO_C, x, ONE_C)
        for upper, x in steps]))


class TestWordsAgainstOracle:
    @given(WORD_PAIRS)
    @settings(max_examples=300)
    @example((signed(T_SPEC, -1), u_spec(1)))                # trace -2, relation of length 6
    @example((T_SPEC, u_spec(Q(3, 2))))                       # q > 1
    @example((T_SPEC, u_spec((1, 1))))                        # omega not real
    @example((T_SPEC, Spec((1, 2, 0, 1))))                    # commuting: omega = 0
    @example((T_SPEC, FINITE_ORDER[0]))                       # of order 3: not parabolic
    def test_agrees_with_mitm_oracle(self, pair):
        """The check with odd lengths probed by rotation, on the normal form
        (T, U_omega) when the maps are parabolic and do not commute, answers
        as the breadth-first check to ceil(N/2) on the maps' own matrices
        does, for every N up to 10."""
        m1, m2 = map(package_map, pair)
        for n in range(11):
            assert free_word_sanity(m1, m2, n) == mitm_words_oracle(m1, m2, n), n

    @given(WORD_PAIRS, SL2_ZI)
    @settings(max_examples=100)
    def test_conjugation_invariant(self, pair, g):
        """Conjugating both maps by one g in SL2(Z[i]) changes no answer."""
        m1, m2 = map(package_map, pair)
        c1, c2 = (package_map(conjugated_by(s, g)) for s in pair)
        for n in range(9):
            assert free_word_sanity(c1, c2, n) == free_word_sanity(m1, m2, n), n


class TestNormalForm:
    @pytest.mark.parametrize("s1, s2, want", [
        (Spec((1, 0, 4, 1)), Spec((9, -16, 4, -7)), ((-64, 0), 1)),
        (T_SPEC, u_spec(16), ((16, 0), 1)),
        (signed(T_SPEC, -1), u_spec(16), ((16, 0), 1)),         # both traces made +2
        (T_SPEC, u_spec(Q(3, 2)), ((3, 0), 2)),
        (T_SPEC, u_spec((1, 1)), ((1, 1), 1)),
        (T_SPEC, Spec((1, 2, 0, 1)), None),                     # a common fixed point
        (T_SPEC, FINITE_ORDER[0], None),                        # not parabolic
    ])
    def test_omega(self, s1, s2, want):
        assert _normal_form(package_map(s1), package_map(s2)) == want


class TestRatio:
    @given(st.integers(-2 ** 130, 2 ** 130), st.integers(1, 2 ** 130))
    @example(0, 1)
    @example(0, 7)
    @example(-6, 4)
    @example(-(2 ** 64) * 3, 2 ** 64)
    @example(2 ** 70 + 1, 1)
    @settings(max_examples=300)
    def test_matches_fraction(self, n, q):
        assert _ratio(n, q) == str(Fraction(n, q))


class TestInvariance:
    @staticmethod
    def verdict_and_disks(p1, p2):
        data = pingpong_certificate(package_map(parabolic_spec(*p1)),
                                    package_map(parabolic_spec(*p2)))
        return data["verdict"], {json.dumps(bf[side], sort_keys=True)
                                 for bf in data["butterflies"] for side in ("neg", "pos")}

    @given(PARABOLIC, PARABOLIC)
    @settings(max_examples=300)
    def test_swap_and_inverse(self, p1, p2):
        """The verdict and the set of the four disks do not depend on the
        order of the maps or on inverting either (the inverse of the
        parabolic (c, s) is (-c, s))."""
        inv1, inv2 = (sub(ZERO_C, p1[0]), p1[1]), (sub(ZERO_C, p2[0]), p2[1])
        want = self.verdict_and_disks(p1, p2)
        for q1, q2 in ((p1, inv2), (inv1, p2), (inv1, inv2)):
            assert self.verdict_and_disks(q1, q2) == want, (q1, q2)
            assert self.verdict_and_disks(q2, q1) == want, (q2, q1)
        assert self.verdict_and_disks(p2, p1) == want


class TestFloatPath:
    def test_verdicts(self):
        assert pingpong_certificate_float([[1, 0], [4, 1]], [[9, -16], [4, -7]])["verdict"] \
            == FREE_CERTIFIED
        assert pingpong_certificate_float([[1, 0], [4, 1]], [[1, 0], [4, 1]])["verdict"] \
            == COMMUTING
        assert pingpong_certificate_float([[1, 0], [1, 1]], [[2, -1], [1, 0]])["verdict"] \
            == INCONCLUSIVE
        # c = 1/2 is within tol = 1 of 0, and the finite fixed point 1 is exactly
        # tol from 0 and 2: the conjugating point t must be farther, so t = 3
        assert pingpong_certificate_float([[5, -4], [4, -3]], [[0.25, -1.125], [0.5, 1.75]],
                                          1.0)["verdict"] == COMMUTING

    def test_irrational_entries(self):
        s = math.sqrt(2)
        cert = pingpong_certificate_float([[1, 0], [4 * s, 1]],
                                          [[1 + 8 * s, -16 * s], [4 * s, 1 - 8 * s]])
        assert cert["verdict"] == FREE_CERTIFIED
        assert cert["numeric"] is True

    def test_agrees_with_exact_path(self):
        for s1, s2 in oracle_pairs()[::3]:
            exact = certificate_outcome(s1, s2)
            if exact[0] == "error":
                continue
            assert pingpong_certificate_float(float_matrix(s1), float_matrix(s2))["verdict"] \
                == exact[1]["verdict"], (s1, s2)

    def test_parabolic_with_large_entries(self):
        # det = 1 is computed with cancellation between products of size
        # s^2 ~ 1e5, so the normalised traces miss 2 by ~1e-11; both maps
        # fix s, as the exact path finds
        s = Fraction(1000, 3)
        m1 = [[1 + s, -s * s], [1, 1 - s]]
        m2 = [[1 + 3 * s, -3 * s * s], [3, 1 - 3 * s]]
        exact = pingpong_certificate(*(MobiusMap.from_entries(*map(str, sum(m, []))) for m in (m1, m2)))
        assert exact["verdict"] == COMMUTING
        floats = [[[float(x) for x in row] for row in m] for m in (m1, m2)]
        assert pingpong_certificate_float(*floats)["verdict"] == COMMUTING

    def test_trace_off_by_small_amount_refused(self):
        # det 1 and trace 2 + 1e-6 with entries of size 1: hyperbolic
        for m in ([[1 + 1e-6, 1e-6], [1, 1]], [[1, 1], [1e-6, 1 + 1e-6]]):
            with pytest.raises(PingPongError, match="two parabolic maps"):
                pingpong_certificate_float(m, [[1, 0], [4, 1]])
        # det exactly 1 in floats and trace 3 with entries of size 1e12: large
        # entries do not widen the tolerance past det's rounding; the parabolic
        # partner shares the pair's (a - d)/2c
        hyperbolic = [[1e6, 1e6 * (3 - 1e6) - 1], [1, 3 - 1e6]]
        partner = [[1e6 - 0.5, (1e6 - 0.5) * (2.5 - 1e6) - 1], [1, 2.5 - 1e6]]
        with pytest.raises(PingPongError, match="two parabolic maps"):
            pingpong_certificate_float(hyperbolic, partner)

    def test_bad_input_is_an_error(self):
        pair = [[1, 0], [4, 1]], [[9, -16], [4, -7]]
        with pytest.raises(PingPongError, match="two parabolic maps"):     # the identity
            pingpong_certificate_float([[-2, 0], [0, -2]], pair[0])
        for m in ([[1e200, 0], [0, 1e200]], [[1e300, 1e300], [1e300, -1e300]],
                  [[1, 0], [math.inf, 1]], [[math.nan, 0], [4, 1]]):
            with pytest.raises(PingPongError, match="not finite"):
                pingpong_certificate_float(m, pair[0])
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(PingPongError, match="tolerance must be a finite number > 0"):
                pingpong_certificate_float(*pair, tol)


class TestDeterminant:
    # z -> iz as diag(1 + i, 1 - i): trace 2, determinant 2, elliptic
    ELLIPTIC = Spec(((1, 1), 0, 0, (1, -1)), raw=True)

    def test_checked_where_a_map_enters(self):
        # a map is made only with determinant one, so every entry point
        # (certificate and word check) gets one
        for spec in [self.ELLIPTIC] + DIAGONALS:
            with pytest.raises(PingPongError, match="determinant must be 1"):
                package_map(spec)
        with pytest.raises(PingPongError, match="determinant must be 1"):
            MobiusMap(1, (1, 0, 1, 0, 0, 0, 2, 0))

    def test_scaled_form_in_lowest_terms(self):
        # 2 * I over 2, -I over -1 and the zero form are the identity or no map
        for den, e in ((2, (2, 0, 0, 0, 0, 0, 2, 0)), (-1, (-1, 0, 0, 0, 0, 0, -1, 0)),
                       (0, (0,) * 8)):
            with pytest.raises(PingPongError, match="D > 0 and no common factor"):
                MobiusMap(den, e)
        assert MobiusMap(1, (1, 0, 0, 0, 0, 0, 1, 0)) == IDENTITY

    def test_emitted_conjugator_keeps_det_minus_one(self):
        cert = pingpong_certificate(TRANSLATION, M_STD)
        assert cert["conjugator"] == [[["0", "0"], ["1", "0"]], [["1", "0"], ["-1", "0"]]]
        assert det(from_json(cert["conjugator"])) == gr(-1)

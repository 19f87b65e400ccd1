"""Round-disk ping-pong certificates for pairs of parabolic linear fractional maps.

Maps are 2x2 determinant-one matrices over the Gaussian rationals (exact
path) or complex floats (numeric fallback with a tangency tolerance).
A parabolic map with finite fixed point carries a canonical pair of round
disks, its isometric disks, which it exchanges with the complement; two
such pairs with pairwise disjoint interiors certify that the generated
group is free of rank two (and, for groups of isometries of hyperbolic
space arising from link complements, geometrically finite).  Overlapping
disks are reported as inconclusive, never as a non-freeness claim.

Radii are irrational in general (1/|c|), so disks store the squared
radius and every comparison is the exact rational test
    dist^2 >= r1^2 + r2^2 + 2*sqrt(r1^2 * r2^2),
rearranged to avoid square roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math


class PingPongError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Exact complex scalars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussRational:
    """Complex number with Fraction coordinates."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(x) -> "GaussRational":
        if isinstance(x, GaussRational):
            return x
        try:
            if isinstance(x, (int, Fraction, str)):
                return GaussRational(Fraction(x), Fraction(0))
            if isinstance(x, (tuple, list)) and len(x) == 2:
                return GaussRational(Fraction(x[0]), Fraction(x[1]))
        except (ValueError, ZeroDivisionError, TypeError, OverflowError) as err:
            raise PingPongError(f"not an exact complex value: {x!r}") from err
        raise PingPongError(f"not an exact complex value: {x!r}")

    def __add__(self, o):
        o = GaussRational.of(o)
        return GaussRational(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        o = GaussRational.of(o)
        return GaussRational(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __mul__(self, o):
        o = GaussRational.of(o)
        return GaussRational(self.re * o.re - self.im * o.im,
                             self.re * o.im + self.im * o.re)

    def conj(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussRational":
        n = self.abs2()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return GaussRational(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * GaussRational.of(o).inverse()

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def sqrt(self) -> "GaussRational | None":
        """Exact square root when one exists in the Gaussian rationals."""
        def frac_sqrt(f: Fraction) -> Fraction | None:
            if f < 0:
                return None
            a = math.isqrt(f.numerator)
            b = math.isqrt(f.denominator)
            if a * a == f.numerator and b * b == f.denominator:
                return Fraction(a, b)
            return None

        if self.im == 0:
            if self.re >= 0:
                r = frac_sqrt(self.re)
                return GaussRational(r, Fraction(0)) if r is not None else None
            r = frac_sqrt(-self.re)
            return GaussRational(Fraction(0), r) if r is not None else None
        n = frac_sqrt(self.abs2())
        if n is None:
            return None
        x2 = (n + self.re) / 2
        x = frac_sqrt(x2)
        if x is None or x == 0:
            return None
        y = self.im / (2 * x)
        cand = GaussRational(x, y)
        return cand if cand * cand == self else None

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self):
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"

    def to_json(self):
        return [str(self.re), str(self.im)]


ZERO_C = GaussRational(Fraction(0), Fraction(0))
ONE_C = GaussRational(Fraction(1), Fraction(0))
INFINITY_POINT = "inf"


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MobiusMap:
    """Determinant-one matrix [[a, b], [c, d]], identified up to global sign."""

    a: GaussRational
    b: GaussRational
    c: GaussRational
    d: GaussRational

    @staticmethod
    def from_entries(a, b, c, d) -> "MobiusMap":
        a, b, c, d = map(GaussRational.of, (a, b, c, d))
        det = a * d - b * c
        if det.is_zero:
            raise PingPongError("matrix is singular")
        if det != ONE_C:
            root = det.sqrt()
            if root is None:
                raise PingPongError(
                    "determinant must be 1 (or an exact square so the matrix can be scaled)")
            a, b, c, d = a / root, b / root, c / root, d / root
        return MobiusMap(a, b, c, d)

    @staticmethod
    def from_json(obj) -> "MobiusMap":
        (a, b), (c, d) = obj
        return MobiusMap.from_entries(a, b, c, d)

    def to_json(self):
        return [[self.a.to_json(), self.b.to_json()], [self.c.to_json(), self.d.to_json()]]

    @property
    def det(self) -> GaussRational:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> GaussRational:
        return self.a + self.d

    def same_as(self, other: "MobiusMap") -> bool:
        """Equality in the quotient by the global sign."""
        m = (self.a, self.b, self.c, self.d)
        n = (other.a, other.b, other.c, other.d)
        return m == n or all(x == -y for x, y in zip(m, n))

    @property
    def is_identity(self) -> bool:
        return self.same_as(IDENTITY)


IDENTITY = MobiusMap(ONE_C, ZERO_C, ZERO_C, ONE_C)


def compose(m1: MobiusMap, m2: MobiusMap) -> MobiusMap:
    return MobiusMap(m1.a * m2.a + m1.b * m2.c, m1.a * m2.b + m1.b * m2.d,
                     m1.c * m2.a + m1.d * m2.c, m1.c * m2.b + m1.d * m2.d)


def inverse(m: MobiusMap) -> MobiusMap:
    return MobiusMap(m.d, -m.b, -m.c, m.a)


def apply(m: MobiusMap, z) -> "GaussRational | str":
    """Evaluate the fractional linear map; infinity and poles are exact."""
    if z == INFINITY_POINT:
        if m.c.is_zero:
            return INFINITY_POINT
        return m.a / m.c
    z = GaussRational.of(z)
    den = m.c * z + m.d
    if den.is_zero:
        return INFINITY_POINT
    return (m.a * z + m.b) / den


def is_parabolic(m: MobiusMap) -> bool:
    """Trace +-2 and not the identity."""
    tr = m.trace
    return (tr == GaussRational.of(2) or tr == GaussRational.of(-2)) and not m.is_identity


def fixed_point(m: MobiusMap):
    """The unique fixed point of a parabolic map."""
    if m.is_identity:
        raise PingPongError("the identity fixes everything")
    if not is_parabolic(m):
        raise PingPongError("fixed_point here is for parabolic maps only")
    if m.c.is_zero:
        return INFINITY_POINT
    return (m.a - m.d) / (m.c * GaussRational.of(2))


# ---------------------------------------------------------------------------
# Disks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundDisk:
    """Closed round disk: center and squared radius (exact)."""

    center: GaussRational
    radius2: Fraction

    def __post_init__(self):
        if self.radius2 <= 0:
            raise PingPongError("disk radius must be positive")

    def radius(self) -> float:
        return math.sqrt(float(self.radius2))

    def to_json(self):
        return {"center": self.center.to_json(), "radius2": str(self.radius2)}


def disks_interiors_disjoint(d1: RoundDisk, d2: RoundDisk) -> bool:
    """Exact test: centers at distance >= sum of radii (tangency allowed).

    dist^2 >= r1^2 + r2^2 + 2 sqrt(r1^2 r2^2) is decided without square
    roots: with L = dist^2 - r1^2 - r2^2, the inequality holds iff L >= 0
    and L^2 >= 4 r1^2 r2^2.
    """
    dist2 = (d1.center - d2.center).abs2()
    L = dist2 - d1.radius2 - d2.radius2
    if L < 0:
        return False
    return L * L >= 4 * d1.radius2 * d2.radius2


def disks_tangent(d1: RoundDisk, d2: RoundDisk) -> bool:
    dist2 = (d1.center - d2.center).abs2()
    L = dist2 - d1.radius2 - d2.radius2
    return L >= 0 and L * L == 4 * d1.radius2 * d2.radius2


def disjoint_interiors(disks: list[RoundDisk]) -> bool:
    """Pairwise disjoint interiors among two or more closed disks."""
    if len(disks) < 2:
        raise PingPongError("need at least two disks")
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            if not disks_interiors_disjoint(disks[i], disks[j]):
                return False
    return True


# ---------------------------------------------------------------------------
# Butterflies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Butterfly:
    """A parabolic map with its isometric disk pair (neg maps onto pos).

    The defining relation map(complement of int neg) = pos holds exactly:
    with determinant one, |c w - a| * |c z + d| = 1 whenever w = map(z), so
    the isometric circle |cz + d| = 1 maps onto |cw - a| = 1 and the outside
    of neg onto pos.  Validation checks this identity at sample points
    together with tangency of the two disks at the fixed point.
    """

    map: MobiusMap
    neg: RoundDisk
    pos: RoundDisk

    def to_json(self):
        return {"map": self.map.to_json(), "neg": self.neg.to_json(), "pos": self.pos.to_json()}


def isometric_butterfly(m: MobiusMap) -> Butterfly:
    """Isometric disks of a parabolic map with finite fixed point.

    neg is centered at -d/c, pos at a/c, both of radius 1/|c|; they are
    tangent exactly at the fixed point.
    """
    if not is_parabolic(m):
        raise PingPongError("butterflies exist for parabolic maps only")
    if m.c.is_zero:
        raise PingPongError("the map fixes infinity; conjugate first (normalize_pair)")
    c_abs2 = m.c.abs2()
    neg = RoundDisk((-m.d) / m.c, Fraction(1) / c_abs2)
    pos = RoundDisk(m.a / m.c, Fraction(1) / c_abs2)
    bf = Butterfly(m, neg, pos)
    _validate_butterfly(bf)
    return bf


def _validate_butterfly(bf: Butterfly) -> None:
    m = bf.map
    # the mapping identity |c m(z) - a|^2 |c z + d|^2 = 1 at three points
    for z in (GaussRational.of(0), GaussRational.of(1), GaussRational.of((0, 1))):
        den = m.c * z + m.d
        if den.is_zero:
            continue
        w = apply(m, z)
        lhs = (m.c * w - m.a).abs2() * den.abs2()
        if lhs != 1:
            raise PingPongError("isometric disk mapping identity failed")
    if not disks_tangent(bf.neg, bf.pos):
        raise PingPongError("isometric disks are not tangent")
    fix = fixed_point(m)
    for disk in (bf.neg, bf.pos):
        if (GaussRational.of(fix) - disk.center).abs2() != disk.radius2:
            raise PingPongError("fixed point does not lie on both disk boundaries")


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

FREE_CERTIFIED = "FreeCertified"
COMMUTING = "Commuting"
INCONCLUSIVE = "Inconclusive"


@dataclass
class Certificate:
    verdict: str
    butterflies: tuple = ()
    conjugator: MobiusMap | None = None
    diagnostic: str | None = None
    notes: tuple = ()
    numeric: bool = False

    def to_json(self):
        out = {"verdict": self.verdict,
               "butterflies": [bf.to_json() for bf in self.butterflies],
               "notes": list(self.notes)}
        if self.conjugator is not None:
            out["conjugator"] = self.conjugator.to_json()
        if self.diagnostic:
            out["diagnostic"] = self.diagnostic
        if self.numeric:
            out["numeric"] = True
        return out


def normalize_pair(m1: MobiusMap, m2: MobiusMap) -> tuple[MobiusMap, MobiusMap, MobiusMap]:
    """Conjugate a pair of parabolic maps so both fixed points are finite.

    Returns (g m1 g^-1, g m2 g^-1, g); certificate verdicts are invariant
    under the conjugators this produces.  Pairs with equal fixed points
    are rejected.
    """
    for m in (m1, m2):
        if not is_parabolic(m):
            raise PingPongError("normalize_pair needs parabolic maps")
    f1, f2 = fixed_point(m1), fixed_point(m2)
    if f1 == f2:
        raise PingPongError("the maps share their fixed point")
    if f1 != INFINITY_POINT and f2 != INFINITY_POINT:
        return m1, m2, IDENTITY
    # send some rational point distinct from both fixed points to infinity
    for t in range(0, 6):
        zt = GaussRational.of(t)
        if (f1 == INFINITY_POINT or GaussRational.of(f1) != zt) and \
           (f2 == INFINITY_POINT or GaussRational.of(f2) != zt):
            g = MobiusMap(ZERO_C, ONE_C, ONE_C, -zt)          # z -> 1/(z - t)
            gi = inverse(g)
            n1 = compose(compose(g, m1), gi)
            n2 = compose(compose(g, m2), gi)
            return n1, n2, g
    raise PingPongError("could not find a conjugating point")


def pingpong_certificate(m1: MobiusMap, m2: MobiusMap) -> Certificate:
    """Decide Commuting / FreeCertified / Inconclusive for a parabolic pair.

    Equal fixed points mean the maps commute.  Otherwise the pair is
    conjugated to finite fixed points and the two isometric butterflies
    are built; pairwise disjoint interiors of the four disks certify a
    rank-two free group (the complement of four disks with disjoint
    interiors can never be empty, so the open complementary set condition
    is automatic for round disks and is recorded as a note).  An overlap
    is reported as Inconclusive with the offending pair; it is not a
    non-freeness claim.
    """
    for m in (m1, m2):
        if not is_parabolic(m):
            raise PingPongError("certificates need two parabolic maps")
    if fixed_point(m1) == fixed_point(m2):
        return Certificate(COMMUTING, notes=(
            "equal fixed points: parabolic maps with a common fixed point commute",))
    n1, n2, g = normalize_pair(m1, m2)
    bf1 = isometric_butterfly(n1)
    bf2 = isometric_butterfly(n2)
    disks = [bf1.neg, bf1.pos, bf2.neg, bf2.pos]
    names = ["neg(1)", "pos(1)", "neg(2)", "pos(2)"]
    for i in range(4):
        for j in range(i + 1, 4):
            if not disks_interiors_disjoint(disks[i], disks[j]):
                return Certificate(
                    INCONCLUSIVE,
                    butterflies=(bf1, bf2),
                    conjugator=g,
                    diagnostic=f"isometric disks {names[i]} and {names[j]} overlap",
                    notes=("round disks give a sufficient criterion only; "
                           "overlap does not refute freeness",),
                )
    return Certificate(
        FREE_CERTIFIED,
        butterflies=(bf1, bf2),
        conjugator=g,
        notes=("four round disks with disjoint interiors never cover the sphere, "
               "so the complementary open set is automatically non-empty",),
    )


MAX_WORD_LENGTH = 12          # 2 * (3**12 - 1) = 1,062,880 reduced words


def _scaled_entries(m: MobiusMap) -> tuple[int, tuple[int, ...]]:
    """(D, D*M) with D the lcm of the denominators of all eight coordinates.

    D*M is a Gaussian-integer matrix, flattened to
    (Re a, Im a, Re b, Im b, Re c, Im c, Re d, Im d).
    """
    parts = [x for z in (m.a, m.b, m.c, m.d) for x in (z.re, z.im)]
    den = math.lcm(*(x.denominator for x in parts))
    return den, tuple(x.numerator * (den // x.denominator) for x in parts)


def _gauss_matmul(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two flattened Gaussian-integer 2x2 matrices."""
    ar, ai, br, bi, cr, ci, dr, di = x
    er, ei, fr, fi, gr, gi, hr, hi = y
    return (ar * er - ai * ei + br * gr - bi * gi, ar * ei + ai * er + br * gi + bi * gr,
            ar * fr - ai * fi + br * hr - bi * hi, ar * fi + ai * fr + br * hi + bi * hr,
            cr * er - ci * ei + dr * gr - di * gi, cr * ei + ci * er + dr * gi + di * gr,
            cr * fr - ci * fi + dr * hr - di * hi, cr * fi + ci * fr + dr * hi + di * hr)


def check_word_length(max_length: int) -> None:
    """Reject word-check lengths outside 0..MAX_WORD_LENGTH."""
    if max_length < 0:
        raise PingPongError(f"word length must be non-negative, got {max_length}")
    if max_length > MAX_WORD_LENGTH:
        raise PingPongError(
            f"word length {max_length} exceeds MAX_WORD_LENGTH = {MAX_WORD_LENGTH} "
            f"({2 * (3 ** max_length - 1)} reduced words)")


def free_word_sanity(m1: MobiusMap, m2: MobiusMap, max_length: int) -> bool:
    """No nonempty reduced word in the generators equals the identity.

    Exhaustive enumeration over reduced words up to the given length;
    vacuously true for max_length 0.  Each generator is taken once as
    (D, D*M) with D the shared denominator of its entries, so a word is a
    product of Gaussian-integer matrices with scale the product of the
    generators' D; it is trivial exactly when that product is
    +-scale * I.  Lengths outside 0..MAX_WORD_LENGTH raise PingPongError.
    """
    check_word_length(max_length)
    gens = [(g, *_scaled_entries(m))
            for g, m in enumerate((m1, inverse(m1), m2, inverse(m2)))]
    inverse_of = (1, 0, 3, 2)
    stack = [(g, den, mat, 1) for g, den, mat in gens]
    while stack:
        last, scale, mat, length = stack.pop()
        ar, ai, br, bi, cr, ci, dr, di = mat
        if br == bi == cr == ci == ai == di == 0 and ar == dr and abs(ar) == scale:
            return False
        if length >= max_length:
            continue
        for g, den, gm in gens:
            if g == inverse_of[last]:
                continue
            stack.append((g, den * scale, _gauss_matmul(gm, mat), length + 1))
    return True


# ---------------------------------------------------------------------------
# Floating-point fallback
# ---------------------------------------------------------------------------

@dataclass
class NumericCertificate:
    verdict: str
    tolerance: float
    diagnostic: str | None = None

    def to_json(self):
        out = {"verdict": self.verdict, "numeric": True, "tolerance": self.tolerance}
        if self.diagnostic:
            out["diagnostic"] = self.diagnostic
        return out


def pingpong_certificate_float(m1, m2, tol: float = 1e-12) -> NumericCertificate:
    """Numeric variant for irrational input matrices.

    Matrices are given as nested complex numbers; verdicts come out
    'numerically certified' at the given tangency tolerance.
    """
    import cmath

    def as_mat(m):
        (a, b), (c, d) = m
        m = [complex(a), complex(b), complex(c), complex(d)]
        det = m[0] * m[3] - m[1] * m[2]
        if abs(det) < tol:
            raise PingPongError("matrix is singular")
        root = cmath.sqrt(det)
        return [x / root for x in m]

    A, B = as_mat(m1), as_mat(m2)

    def parabolic(M):
        return abs(M[0] + M[3] - 2) < tol or abs(M[0] + M[3] + 2) < tol

    if not (parabolic(A) and parabolic(B)):
        raise PingPongError("certificates need two parabolic maps")

    def fix(M):
        if abs(M[2]) < tol:
            return None
        return (M[0] - M[3]) / (2 * M[2])

    def matmul(X, Y):
        return [X[0] * Y[0] + X[1] * Y[2], X[0] * Y[1] + X[1] * Y[3],
                X[2] * Y[0] + X[3] * Y[2], X[2] * Y[1] + X[3] * Y[3]]

    fa, fb = fix(A), fix(B)
    if fa is None or fb is None:
        for t in range(6):
            if (fa is None or abs(fa - t) > tol) and (fb is None or abs(fb - t) > tol):
                g = [0.0, 1.0, 1.0, -float(t)]
                gi = [-float(t), -1.0, -1.0, 0.0]
                A = matmul(matmul(g, A), gi)
                B = matmul(matmul(g, B), gi)
                fa, fb = fix(A), fix(B)
                break
        if fa is None or fb is None:
            raise PingPongError("could not move both fixed points into the plane")
    if abs(fa - fb) < tol:
        return NumericCertificate(COMMUTING, tol)
    disks = []
    for M in (A, B):
        r = 1 / abs(M[2])
        disks.append((-M[3] / M[2], r))
        disks.append((M[0] / M[2], r))
    for i in range(4):
        for j in range(i + 1, 4):
            (c1, r1), (c2, r2) = disks[i], disks[j]
            if abs(c1 - c2) < r1 + r2 - tol:
                return NumericCertificate(INCONCLUSIVE, tol,
                                          f"disks {i} and {j} overlap numerically")
    return NumericCertificate(FREE_CERTIFIED, tol)

"""Round-disk ping-pong certificates for pairs of parabolic linear fractional maps.

Maps are 2x2 determinant-one matrices over the Gaussian rationals (exact
path) or complex floats (numeric fallback with a tolerance).  A parabolic
map with finite fixed point carries a canonical pair of round disks, its
isometric disks, which it exchanges with the complement; two such pairs
with pairwise disjoint interiors certify that the generated group is free
of rank two (and, for groups of isometries of hyperbolic space arising
from link complements, geometrically finite).  Overlapping disks are
reported as inconclusive, never as a non-freeness claim.

Both paths run one routine, _decide, on scaled forms (D, D*M): the exact
path on Gaussian integers, the numeric path on determinant-one floats with
D = 1.0.  An exact map, a MobiusMap, is a slotted record of its scaled
form alone, and its determinant is checked once, when the map is made.
Entries are read as (numerator, denominator) int pairs: ASCII strings
-?digits and -?digits/digits by int() directly, every other string through
the one pattern _RATIONAL; from_entries then scales them to D*M in local
ints.  Emitted rationals come from one gcd, so no Fraction is built.  Radii
are irrational in general (1/|c|), so exact disks store the squared
radius and every comparison is the rational test
    dist^2 >= r1^2 + r2^2 + 2*sqrt(r1^2 * r2^2),
rearranged to avoid square roots.
"""

from __future__ import annotations

import cmath
import math
import re


class PingPongError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Parsing and exact complex scalars
# ---------------------------------------------------------------------------

MAX_ENTRY_CHARS = 1000        # longest accepted entry string

# the strings that Fraction reads on Python 3.11, less its exponent: an
# optional sign, then digits (Unicode decimal digits, with single '_'
# between them) with a /denominator or a .fraction, in optional whitespace
_RATIONAL = re.compile(r"\s*([-+]?)(?=\d|\.\d)((?:\d+(?:_\d+)*)?)"
                       r"(?:/(\d+(?:_\d+)*)|\.((?:\d+(?:_\d+)*)?))?\s*")


def parse_rational(x) -> tuple[int, int] | None:
    """An int (not a bool) or a string such as "-3", "3/4" or "0.75", as
    (n, d) in lowest terms with d > 0; None for anything else.  Strings
    longer than MAX_ENTRY_CHARS, integers of more than MAX_ENTRY_CHARS
    digits and exponent notation raise PingPongError before the number is
    built, so no entry costs more than its own length."""
    if isinstance(x, str):
        if len(x) > MAX_ENTRY_CHARS:
            raise PingPongError(f"entry strings are at most MAX_ENTRY_CHARS = {MAX_ENTRY_CHARS} "
                                f"characters, got {len(x)}")
        # ASCII -?digits and -?digits/digits go straight to int(); ASCII
        # isdigit() holds only for 0-9, so these are strings _RATIONAL takes
        if x.isascii():
            n, slash, d = x.partition("/")
            if (n[1:] if n[:1] == "-" else n).isdigit() and (d.isdigit() or not slash):
                if not slash:
                    return int(n), 1
                n, d = int(n), int(d)
                if d == 0:
                    return None
                g = math.gcd(n, d)
                return n // g, d // g
        if "e" in x.lower():
            raise PingPongError(f"exponent notation is not accepted: {x!r}")
        match = _RATIONAL.fullmatch(x)
        if match is None:
            return None
        sign, n, d, fraction = match.groups()
        n, d = int(n or "0"), int(d or "1")       # int() reads '_' and Unicode digits
        if fraction:
            scale = 10 ** len(fraction.replace("_", ""))
            n, d = n * scale + int(fraction), scale
        if d == 0:
            return None
        g = math.gcd(n, d)
        return (-n if sign == "-" else n) // g, d // g
    if isinstance(x, int) and not isinstance(x, bool):
        # an integer of at most 3 * MAX_ENTRY_CHARS bits has at most
        # MAX_ENTRY_CHARS digits (2^3 < 10), so small entries skip the power
        if x.bit_length() > 3 * MAX_ENTRY_CHARS and abs(x) >= 10 ** MAX_ENTRY_CHARS:
            raise PingPongError(f"integer entries have at most MAX_ENTRY_CHARS = {MAX_ENTRY_CHARS} digits")
        return x, 1
    return None


def _float_real(x) -> float:
    """A JSON number or a rational string such as "-3/4", as a finite float;
    n / d of ints is correctly rounded, as float(Fraction(n, d)) is."""
    q = (x, 1) if isinstance(x, (int, float)) and not isinstance(x, bool) else parse_rational(x)
    if q is None:
        raise PingPongError(f"not a real number: {x!r}")
    try:
        value = q[0] / q[1]
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise PingPongError(f"entry is not a finite float: {x!r}")
    return value


def float_entry(e) -> complex:
    """A JSON matrix entry, real or an [re, im] pair, as a complex float."""
    if isinstance(e, list):
        if len(e) != 2:
            raise PingPongError(f"complex entries are [re, im] pairs, got {e!r}")
        return complex(_float_real(e[0]), _float_real(e[1]))
    return complex(_float_real(e), 0.0)


def _ratio(n: int, q: int) -> str:
    """str(Fraction(n, q)) for q > 0, without building the Fraction."""
    g = math.gcd(n, q)
    return str(n // g) if q == g else f"{n // g}/{q // g}"


def _json(p, q: int) -> list[str]:
    """The Gaussian value p/q as [re, im] rational strings."""
    return [_ratio(p[0], q), _ratio(p[1], q)]


# ---------------------------------------------------------------------------
# Gaussian-integer core
# ---------------------------------------------------------------------------
#
# Every decision below is made on a map's scaled form (D, D*M): D > 0 is
# the lcm of the denominators of its eight real and imaginary parts and D*M
# a Gaussian-integer matrix flattened to (Re a, Im a, Re b, Im b, Re c,
# Im c, Re d, Im d).  Gaussian integers are (re, im) pairs of ints.  A disk
# is scaled the same way, as (Re v, Im v, q, r): centre v/q with q > 0 and
# squared radius r/q^2.  The numeric path lays out its matrices in floats.

def _gmul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _norm(x):
    return x[0] * x[0] + x[1] * x[1]


def _gauss_sqrt(wr: int, wi: int) -> tuple[int, int] | None:
    """The square root of the Gaussian integer wr + wi i, with positive real
    part, or positive imaginary part when it is a negative real; None when
    it is not a square."""
    n = math.isqrt(wr * wr + wi * wi)
    x, y = math.isqrt((n + wr) // 2), math.isqrt((n - wr) // 2)
    if wi < 0:
        y = -y
    return (x, y) if x * x - y * y == wr and 2 * x * y == wi else None


def _gauss_matmul(x: tuple, y: tuple) -> tuple:
    """Product of two flattened Gaussian 2x2 matrices."""
    ar, ai, br, bi, cr, ci, dr, di = x
    er, ei, fr, fi, gr, gi, hr, hi = y
    return (ar * er - ai * ei + br * gr - bi * gi, ar * ei + ai * er + br * gi + bi * gr,
            ar * fr - ai * fi + br * hr - bi * hi, ar * fi + ai * fr + br * hi + bi * hr,
            cr * er - ci * ei + dr * gr - di * gi, cr * ei + ci * er + dr * gi + di * gr,
            cr * fr - ci * fi + dr * hr - di * hi, cr * fi + ci * fr + dr * hi + di * hr)


def _inverse(e: tuple[int, ...]) -> tuple[int, ...]:
    ar, ai, br, bi, cr, ci, dr, di = e
    return dr, di, -br, -bi, -cr, -ci, ar, ai


def _is_scalar(e: tuple, scale) -> bool:
    """The scaled matrix is +-scale * I, i.e. the map is the identity."""
    ar, ai, br, bi, cr, ci, dr, di = e
    return br == bi == cr == ci == ai == di == 0 and ar == dr and abs(ar) == scale


# Points of the plane are pairs (u, v) of Gaussian values standing for u/v.
# near(p, q) says whether two points coincide: _same exactly and without
# dividing, the numeric path at distance < tol (<= tol when closed).

_ONE = (1, 0)


def _same(p, q, closed=False) -> bool:
    return _gmul(p[0], q[1]) == _gmul(q[0], p[1])


def _is_parabolic(s, near) -> bool:
    """Trace +-2D and not +-D*I."""
    den, e = s
    trace = ((e[0] + e[6], e[1] + e[7]), _ONE)
    return not _is_scalar(e, den) and (near(trace, ((2 * den, 0), _ONE))
                                       or near(trace, ((-2 * den, 0), _ONE)))


def _at_infinity(e, near) -> bool:
    """A parabolic map fixes infinity iff c = 0."""
    return near((e[4:6], _ONE), ((0, 0), _ONE))


def _fixed(e):
    """A parabolic map's finite fixed point (a - d)/(2c)."""
    return (e[0] - e[6], e[1] - e[7]), (2 * e[4], 2 * e[5])


def _to_plane(forms, near):
    """(None, forms) when both fixed points are finite, else t and the forms
    conjugated by z -> 1/(z - t), with t the first of 0..5 not near a finite
    fixed point even in the closed sense; that moves a fixed point at
    infinity to 0 and keeps the other finite."""
    finite = [_fixed(e) for _, e in forms if not _at_infinity(e, near)]
    if len(finite) == 2:
        return None, forms
    for t in range(6):
        if not any(near(f, ((t, 0), _ONE), closed=True) for f in finite):
            # g = [[0, 1], [1, -t]] and g^-1 = [[-t, -1], [-1, 0]] up to sign
            ge, gie = (0, 0, 1, 0, 1, 0, -t, 0), (-t, 0, -1, 0, -1, 0, 0, 0)
            forms = tuple((den, _gauss_matmul(_gauss_matmul(ge, e), gie)) for den, e in forms)
            if not any(_at_infinity(e, near) for _, e in forms):
                return t, forms
            break
    raise PingPongError("could not move both fixed points into the plane")


def _matrix_json(den: int, e: tuple[int, ...]) -> list:
    return [[_json(e[0:2], den), _json(e[2:4], den)], [_json(e[4:6], den), _json(e[6:8], den)]]


def _conjugator(t: int | None) -> list:
    """z -> 1/(z - t) as the JSON matrix [[0, 1], [1, -t]] (det -1), or the
    identity when t is None."""
    return _matrix_json(1, (1, 0, 0, 0, 0, 0, 1, 0) if t is None else (0, 0, 1, 0, 1, 0, -t, 0))


def _isometric_disks(den, e):
    """neg and pos as (u, c, D): centre u/c (-d/c and a/c), radius D/|c|."""
    return ((-e[6], -e[7]), e[4:6], den), (e[0:2], e[4:6], den)


def _scaled_disk(u, c, den) -> tuple[int, ...]:
    v, n = _gmul(u, (c[0], -c[1])), _norm(c)
    return v[0], v[1], n, den * den * n


def _disk_json(x: tuple[int, ...]) -> dict:
    return {"center": _json(x[:2], x[2]), "radius2": _ratio(x[3], x[2] * x[2])}


def _butterfly(den: int, e: tuple[int, ...]) -> dict:
    """The map with its isometric disks, as JSON (neg maps onto pos).

    neg is centred at -d/c and pos at a/c, both of radius 1/|c|.  With
    determinant one, |c w - a| * |c z + d| = 1 whenever w = map(z), so the
    isometric circle |cz + d| = 1 maps onto |cw - a| = 1 and the outside of
    neg onto pos; with trace +-2 the centres are 2/|c| apart, so the disks
    are tangent, at the fixed point (a - d)/(2c).  Both identities hold by
    algebra for every map, so nothing is sampled.
    """
    neg, pos = (_disk_json(_scaled_disk(*x)) for x in _isometric_disks(den, e))
    return {"map": _matrix_json(den, e), "neg": neg, "pos": pos}


def _overlap(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """Exact: the scaled disks x and y have overlapping interiors.

    With L = dist^2 - r1^2 - r2^2 the distance reaches r1 + r2 iff L >= 0
    and L^2 >= 4 r1^2 r2^2; both sides are cleared of the denominators by
    multiplying L by (q1 q2)^2.
    """
    vr1, vi1, q1, r1 = x
    vr2, vi2, q2, r2 = y
    dr, di = vr1 * q2 - vr2 * q1, vi1 * q2 - vi2 * q1
    gap = dr * dr + di * di - r1 * q2 * q2 - r2 * q1 * q1
    return gap < 0 or gap * gap < 4 * r1 * r2 * q1 * q1 * q2 * q2


FREE_CERTIFIED = "FreeCertified"
COMMUTING = "Commuting"
INCONCLUSIVE = "Inconclusive"


def _decide(s1, s2, parabolic, near, disk, overlap):
    """Commuting, FreeCertified or Inconclusive for the scaled forms s1, s2.

    parabolic tests a scaled form; near compares points; disk(u, c, D)
    builds the isometric disk of centre u/c and radius D/|c|, and overlap
    tells whether two disks' interiors meet.  Returns (verdict, t, forms,
    pair): the conjugator z -> 1/(z - t) that moved a fixed point at
    infinity into the plane (t is None if none did), the conjugated forms,
    and the first overlapping pair (i, j) of neg(1), pos(1), neg(2), pos(2).
    """
    if not (parabolic(s1) and parabolic(s2)):
        raise PingPongError("certificates need two parabolic maps")
    t, forms = _to_plane((s1, s2), near)
    (_, e1), (_, e2) = forms
    if near(_fixed(e1), _fixed(e2)):
        return COMMUTING, None, forms, None
    disks = [disk(*x) for s in forms for x in _isometric_disks(*s)]
    pair = next(((i, j) for i in range(4) for j in range(i + 1, 4)
                 if overlap(disks[i], disks[j])), None)
    return (INCONCLUSIVE if pair else FREE_CERTIFIED), t, forms, pair


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------

class MobiusMap:
    """The determinant-one matrix M = [[a, b], [c, d]] over the Gaussian
    rationals, identified up to global sign, held only as its scaled form:
    den = D > 0 and e = D*M flattened as above, in lowest terms.  Both, and
    determinant one, are checked here, where a map is made, and nowhere else.
    A plain slotted record: two maps are equal when their scaled forms are.
    """

    __slots__ = ("den", "e")

    def __init__(self, den: int, e: tuple[int, ...]):
        if den <= 0 or math.gcd(den, *e) != 1:
            raise PingPongError("a scaled form needs D > 0 and no common factor of D and D*M")
        ar, ai, br, bi, cr, ci, dr, di = e
        if ar * dr - ai * di - br * cr + bi * ci != den * den or ar * di + ai * dr - br * ci - bi * cr:
            raise PingPongError("determinant must be 1")
        self.den, self.e = den, e

    def __eq__(self, other):
        if type(other) is not MobiusMap:
            return NotImplemented
        return self.den == other.den and self.e == other.e

    @staticmethod
    def from_entries(a, b, c, d) -> "MobiusMap":
        """[[a, b], [c, d]] / sqrt(ad - bc), with the root of _gauss_sqrt; each
        entry is a real accepted by parse_rational or an [re, im] pair of these."""
        parts = []
        for z in (a, b, c, d):
            real, imag = z if isinstance(z, (tuple, list)) and len(z) == 2 else (z, 0)
            real, imag = parse_rational(real), parse_rational(imag)
            if real is None or imag is None:
                raise PingPongError(f"not an exact complex value: {z!r}")
            parts += real + imag
        nums, dens = parts[::2], parts[1::2]
        den = math.lcm(*dens)
        if den != 1:
            nums = [n * (den // q) for n, q in zip(nums, dens)]
        ar, ai, br, bi, cr, ci, dr, di = nums
        wr, wi = ar * dr - ai * di - br * cr + bi * ci, ar * di + ai * dr - br * ci - bi * cr
        if wr == den * den and wi == 0:
            # det M = 1 and D is the least common denominator, so D*M is in lowest terms
            return MobiusMap(den, tuple(nums))
        if wr == wi == 0:
            raise PingPongError("matrix is singular")
        # det(M) = det(D*M) / D^2, so M / sqrt(det M) = (D*M) / s = (D*M) s' / |s|^2
        s = _gauss_sqrt(wr, wi)
        if s is None:
            raise PingPongError(
                "determinant must be 1 (or an exact square so the matrix can be scaled)")
        sr, si = s
        n = sr * sr + si * si
        x = (ar * sr + ai * si, ai * sr - ar * si, br * sr + bi * si, bi * sr - br * si,
             cr * sr + ci * si, ci * sr - cr * si, dr * sr + di * si, di * sr - dr * si)
        g = math.gcd(n, *x)
        return MobiusMap(n // g, tuple([p // g for p in x]))

    @staticmethod
    def from_json(obj) -> "MobiusMap":
        (a, b), (c, d) = obj
        return MobiusMap.from_entries(a, b, c, d)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

NAMES = ("neg(1)", "pos(1)", "neg(2)", "pos(2)")


def pingpong_certificate(m1: MobiusMap, m2: MobiusMap) -> dict:
    """Decide Commuting / FreeCertified / Inconclusive for a parabolic pair.

    Equal fixed points mean the maps commute.  Otherwise the pair is
    conjugated to finite fixed points and the two isometric butterflies
    are built; pairwise disjoint interiors of the four disks certify a
    rank-two free group (the complement of four disks with disjoint
    interiors can never be empty, so the open complementary set condition
    is automatic for round disks and is recorded as a note).  An overlap
    is reported as Inconclusive with the offending pair; it is not a
    non-freeness claim.  Every test runs on the scaled forms (D, D*M).

    The certificate is the JSON dict that `cuspcubes pingpong` prints, as
    docs/schemas/pingpong.certificate.v1.json describes: "verdict",
    "butterflies" (each {"map", "neg", "pos"}) and "notes", then, unless
    the maps commute, the JSON matrix of the "conjugator" that moved both
    fixed points into the plane, and a "diagnostic" naming an overlap.
    """
    verdict, t, forms, pair = _decide((m1.den, m1.e), (m2.den, m2.e),
                                      lambda s: _is_parabolic(s, _same), _same,
                                      _scaled_disk, _overlap)
    if verdict == COMMUTING:
        return {"verdict": COMMUTING, "butterflies": [], "notes": [
            "equal fixed points: parabolic maps with a common fixed point commute"]}
    out = {"verdict": verdict, "butterflies": [_butterfly(*s) for s in forms],
           "notes": ["round disks give a sufficient criterion only; overlap does not "
                     "refute freeness"] if pair else
                    ["four round disks with disjoint interiors never cover the sphere, "
                     "so the complementary open set is automatically non-empty"],
           "conjugator": _conjugator(t)}
    if pair:
        out["diagnostic"] = f"isometric disks {NAMES[pair[0]]} and {NAMES[pair[1]]} overlap"
    return out


# N = 2h takes 2*(3^h - 1) matrix products and N = 2h + 1 takes 3^(h+1) - 1:
# 1,456 at the cap N = 12 and 728 at N = 11
MAX_WORD_LENGTH = 12


def check_word_length(max_length: int) -> None:
    """Reject word-check lengths outside 0..MAX_WORD_LENGTH."""
    if max_length < 0:
        raise PingPongError(f"word length must be non-negative, got {max_length}")
    if max_length > MAX_WORD_LENGTH:
        raise PingPongError(f"word length {max_length} exceeds MAX_WORD_LENGTH = {MAX_WORD_LENGTH}")


# The letters put in front of a word with first letter f, by f (-1 for the
# empty word): stored levels put every letter but f ^ 1, which undoes f; the
# probes put letter 0, and letters 0 and 3 in front of the word marked -1.
_STORE = ((0, 2, 3), (1, 2, 3), (0, 1, 2), (0, 1, 3), (0, 1, 2, 3))
_PROBE = ((0,), (), (0,), (0,), (0, 3))


def _normal_form(m1: MobiusMap, m2: MobiusMap) -> tuple[tuple[int, int], int] | None:
    """(w, q) with q > 0 and no common factor of q and the Gaussian integer
    w, such that the pair is conjugate to T = [[1, 1], [0, 1]] and U_omega =
    [[1, 0], [omega, 1]] with omega = w/q = tr(m1 m2) - 2, both traces made
    +2 (T U_omega has trace 2 + omega); None when a map is not parabolic or
    omega = 0, which holds exactly when the maps share a fixed point."""
    (d1, e1), (d2, e2) = (m1.den, m1.e), (m2.den, m2.e)
    if not (_is_parabolic((d1, e1), _same) and _is_parabolic((d2, e2), _same)):
        return None
    # the traces of D*M are +-2D, so flipping the sign of each to +2 flips
    # the product's trace when their signs differ
    e = _gauss_matmul(e1, e2)
    sign = 1 if (e1[0] + e1[6] > 0) == (e2[0] + e2[6] > 0) else -1
    q = d1 * d2
    w = sign * (e[0] + e[6]) - 2 * q, sign * (e[1] + e[7])
    if w == (0, 0):
        return None
    g = math.gcd(*w, q)
    return (w[0] // g, w[1] // g), q // g


def free_word_sanity(m1: MobiusMap, m2: MobiusMap, max_length: int) -> bool:
    """No nonempty reduced word of length <= N = max_length in the generators
    is the identity; vacuously true for N = 0.

    A parabolic pair with distinct fixed points is searched as its normal
    form (T, U_omega) of _normal_form: conjugation sends each word in
    (m1, m2) to the same word in (T, U_omega) and a sign change of a
    generator changes a word only by its sign, so a word is +-I in one pair
    exactly when it is in the other.  T^+-1 in front of a word adds or
    subtracts its second row, and U_omega^+-1 adds +-omega times its first
    row to its second, scaled by q; other pairs multiply full matrices.

    Meet in the middle.  A word's key is its Gaussian-integer matrix over the
    gcd of its entries, negated if the first nonzero entry is negative: two
    words share a key exactly when they are the same map, and then u*v^-1
    reduces to a nonempty trivial word of length <= |u| + |v|.  With q = 1 a
    word's matrix is in SL2(Z[i]), and an integer k dividing its entries has
    k^2 | det = 1, so only the sign is fixed.  Every reduced word of length
    <= h = floor(N/2) is built, a letter in front of a word of the level
    before, and stored; a repeated key fails the check, as every
    trivial word of length <= 2h is u*x with u and x^-1 stored.  Odd N = 2h + 1
    then probes 3^h + 1 words of length h + 1, looked up and not stored.  A
    shortest trivial word w is cyclically reduced, so each rotation of w and
    of w^-1 is trivial too.  If w has length N and holds m1^+-1, one of them
    starts with letter 0 (m1) and is u*x with |u| = h + 1 and x^-1 stored: the
    probes are the words of length h + 1 that start with letter 0.  Otherwise
    w = m2^+-N, and the last probe m2^-(h+1) meets the stored m2^h.  N outside
    0..MAX_WORD_LENGTH raises PingPongError.
    """
    check_word_length(max_length)
    half = max_length // 2
    omega = _normal_form(m1, m2)
    if omega is None:
        gens = (m1.e, _inverse(m1.e), m2.e, _inverse(m2.e))
        reduce = True
    else:
        (wr, wi), q = omega
        gens = (None, None, (wr, wi), (-wr, -wi))       # +-omega of U_omega^+-1
        reduce = q != 1
    identity = (1, 0, 0, 0, 0, 0, 1, 0)
    seen = {identity}
    frontier = [(-1, identity)]                       # (first letter or -1, key)
    before = _STORE
    for length in range(1, half + 1 + max_length % 2):
        stored = length <= half
        if not stored:
            # letter 3 goes in front last, so the last word is m2^-h
            before = _PROBE
            frontier[-1] = (-1, frontier[-1][1])
        words = []
        for first, (er, ei, fr, fi, gr, gi, hr, hi) in frontier:
            for g in before[first]:
                if omega is None:
                    ar, ai, br, bi, cr, ci, dr, di = gens[g]
                    key = (ar * er - ai * ei + br * gr - bi * gi, ar * ei + ai * er + br * gi + bi * gr,
                           ar * fr - ai * fi + br * hr - bi * hi, ar * fi + ai * fr + br * hi + bi * hr,
                           cr * er - ci * ei + dr * gr - di * gi, cr * ei + ci * er + dr * gi + di * gr,
                           cr * fr - ci * fi + dr * hr - di * hi, cr * fi + ci * fr + dr * hi + di * hr)
                elif g == 0:
                    key = (er + gr, ei + gi, fr + hr, fi + hi, gr, gi, hr, hi)
                elif g == 1:
                    key = (er - gr, ei - gi, fr - hr, fi - hi, gr, gi, hr, hi)
                else:
                    xr, xi = gens[g]
                    key = (q * er, q * ei, q * fr, q * fi,
                           xr * er - xi * ei + q * gr, xr * ei + xi * er + q * gi,
                           xr * fr - xi * fi + q * hr, xr * fi + xi * fr + q * hi)
                k = math.gcd(*key) if reduce else 1
                if key < (0,) * 8:
                    k = -k
                if k != 1:
                    key = tuple([x // k for x in key])
                if key in seen:
                    return False
                if stored:
                    seen.add(key)
                    words.append((g, key))
        frontier = words
    return True


# ---------------------------------------------------------------------------
# Floating-point fallback
# ---------------------------------------------------------------------------

def _float_scaled(m) -> tuple[float, tuple[float, ...]]:
    """(1.0, M / sqrt(det M)) for [[a, b], [c, d]] of complex numbers; a finite
    det within its rounding, 8 * ulp(1) * (|ad| + |bc|), of 0 is singular."""
    (a, b), (c, d) = m
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    det = a * d - b * c
    if cmath.isfinite(det) and abs(det) <= 8 * math.ulp(1.0) * (abs(a * d) + abs(b * c)):
        raise PingPongError("matrix is singular")
    root = cmath.sqrt(det)
    a, b, c, d = a / root, b / root, c / root, d / root
    if not all(map(cmath.isfinite, (det, a, b, c, d))):
        raise PingPongError("matrix entries or determinant not finite")
    return 1.0, (a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag)


def pingpong_certificate_float(m1, m2, tol: float = 1e-12) -> dict:
    """Numeric variant for irrational input matrices, given as nested complex
    numbers.  Verdicts come out 'numerically certified' at the tolerance:
    points within tol coincide, two disks overlap when their centres are
    closer than r1 + r2 - tol, and a trace (of det 1 entries) within tol plus
    8 roundings of det's products, 8 * ulp(1) * (|ad| + |bc|), of +-2 is parabolic.
    The certificate is the JSON dict that `cuspcubes pingpong --mode float`
    prints: "verdict", "numeric" (true) and "tolerance", then a
    "diagnostic" naming an overlap.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise PingPongError(f"tolerance must be a finite number > 0, got {tol!r}")

    def point(p):
        return complex(*p[0]) / complex(*p[1])

    def near(p, q, closed=False):
        d = abs(point(p) - point(q))
        return d <= tol if closed else d < tol

    def disk(u, c, den):
        return point((u, c)), den / abs(complex(*c))

    def overlap(x, y):
        return abs(x[0] - y[0]) < x[1] + y[1] - tol

    def parabolic(s):
        a, b, c, d = (complex(*s[1][k:k + 2]) for k in range(0, 8, 2))
        trace_tol = tol + 8 * math.ulp(1.0) * (abs(a * d) + abs(b * c))
        return _is_parabolic(s, lambda p, q: abs(point(p) - point(q)) < trace_tol)

    try:
        verdict, _, _, pair = _decide(_float_scaled(m1), _float_scaled(m2),
                                      parabolic, near, disk, overlap)
    except OverflowError as err:
        raise PingPongError("floating-point overflow") from err
    out = {"verdict": verdict, "numeric": True, "tolerance": tol}
    if pair:
        out["diagnostic"] = f"disks {pair[0]} and {pair[1]} overlap numerically"
    return out

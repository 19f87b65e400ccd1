"""Exact arithmetic on the Farey tessellation of the hyperbolic plane.

Slopes are reduced extended rationals q/p.  The Farey graph has vertex set
these slopes, with an edge between q/p and q'/p' exactly when
|q*p' - q'*p| = 1; it is the 1-skeleton of the ideal-triangle tessellation
generated by the triangle (0, 1, oo).  On top of the graph metric this
module implements the classification predicates for two-bridge links and
for rational links in the projective 3-space, plus the covering-slope map
relating the two.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd


class FareyError(ValueError):
    pass


class Slope(namedtuple("Slope", "q p")):
    """A reduced extended rational q/p with p >= 0; infinity is 1/0.

    A checked tuple (q, p): equality, hashing and ordering are those of the
    pair."""

    __slots__ = ()

    def __new__(cls, q: int, p: int):
        if p < 0:
            raise FareyError("denominator must be non-negative (use reduce_slope)")
        if p == 0 and q != 1:
            raise FareyError("infinity must be stored as 1/0 (use reduce_slope)")
        if gcd(abs(q), p) != 1:
            raise FareyError(f"{q}/{p} is not reduced (use reduce_slope)")
        return tuple.__new__(cls, (q, p))

    @property
    def is_infinity(self) -> bool:
        return self.p == 0

    def __neg__(self) -> "Slope":
        if self.is_infinity:
            return self
        return Slope(-self.q, self.p)

    def inverse(self) -> "Slope":
        """1/r, with 1/0 = oo and 1/oo = 0."""
        return reduce_slope(self.p, self.q)

    def __str__(self) -> str:
        return f"{self.q}/{self.p}"


INFINITY = Slope(1, 0)
ZERO = Slope(0, 1)


def reduce_slope(q: int, p: int) -> Slope:
    """Canonical reduced representative; the sign lives in the numerator.

    Every pair with p = 0 reduces to infinity = 1/0; (0, 0) is rejected.
    """
    if (q, p) == (0, 0):
        raise FareyError("(0, 0) does not determine a slope")
    if p == 0:
        return INFINITY
    g = gcd(abs(q), abs(p))
    q, p = q // g, p // g
    if p < 0:
        q, p = -q, -p
    return Slope(q, p)


MAX_SLOPE_CHARS = 1000        # longest accepted slope string


def parse_slope(text: str) -> Slope:
    """Parse 'q/p', a plain integer string, or 'inf' ('oo', 'infinity').
    Other text, and text longer than MAX_SLOPE_CHARS (checked before any
    number is built), raises FareyError naming the accepted forms."""
    if len(text) > MAX_SLOPE_CHARS:
        raise FareyError(f"a slope is q/p, an integer or inf of at most MAX_SLOPE_CHARS = "
                         f"{MAX_SLOPE_CHARS} characters, got {len(text)} characters")
    s = text.strip()
    if s in ("inf", "oo", "infinity"):
        return INFINITY
    try:
        q, p = map(int, s.split("/")) if "/" in s else (int(s), 1)
    except ValueError:
        raise FareyError(f"a slope is q/p, an integer or inf, got {text!r}") from None
    return reduce_slope(q, p)


# ---------------------------------------------------------------------------
# Farey graph
# ---------------------------------------------------------------------------

def _dist_from_infinity(x: Slope) -> int:
    """Farey-graph distance d(oo, x) for x other than oo, one step per
    partial quotient of x.

    Paths from oo of length k are exactly the integer continued fractions
    x = b1 + 1/(b2 + ... + 1/bk), so d(oo, x) is the length of a geodesic
    continued fraction of x (Beardon, Hockman and Short, *Geodesic
    continued fractions*, Michigan Math. J. 2012).  A geodesic may take its
    first step to floor(x) or ceil(x): any other integer neighbour forces
    the path through an integer strictly between, which shortcuts through
    oo.  Write the fractional part of x as [0; a1, ..., an].  The floor
    step leaves the tail (a2, ..., an); the ceiling step leaves
    (a1 - 1, a2, ..., an), or (a3, ..., an) when a1 = 1.  Repeated ceiling
    steps through a partial quotient a1 >= 2 never beat the floor step, so
    with d_i the distance for the tail that starts at a_i, and
    d_{n+1} = 1 for an integer,
        d_i = 1 + d_{i+1}                  if a_i >= 2,
        d_i = 1 + min(d_{i+1}, d_{i+2})    if a_i = 1,
    one backward pass over the partial quotients (a_n >= 2 always).
    """
    if x.p == 1:
        return 1
    after, after2 = 1, 1                  # d_{i+1} and d_{i+2}
    for a in reversed(cf_expand(x).terms):
        after, after2 = 1 + (after if a >= 2 else min(after, after2)), after
    return after


def farey_distance(r: Slope, s: Slope) -> int:
    """Edge-path distance between r and s in the 1-skeleton.

    Computed by moving r to oo with an integer unimodular matrix and
    taking the minimal integer-continued-fraction length of the image
    of s.  The test suite cross-checks it against a breadth-first search
    over mediant-bounded neighbors (tests/farey_oracles.py).
    """
    if r == s:
        return 0
    if r.is_infinity:
        return _dist_from_infinity(s)
    if s.is_infinity:
        return _dist_from_infinity(r)
    # M = [[a, b], [p_r, -q_r]] with det 1 sends r to oo, and s != r to a
    # finite slope; any other top row shifts the image of s by an integer,
    # which keeps its distance from oo
    a = pow(-r.q, -1, r.p)
    b = (a * -r.q - 1) // r.p
    img = reduce_slope(a * s.q + b * s.p, r.p * s.q - r.q * s.p)
    return _dist_from_infinity(img)


# ---------------------------------------------------------------------------
# Continued fractions
# ---------------------------------------------------------------------------

class ContinuedFraction(namedtuple("ContinuedFraction", "a0 terms")):
    """a0 + [a1, ..., an] with every term positive; terms is non-empty."""

    __slots__ = ()

    def __new__(cls, a0: int, terms: tuple[int, ...]):
        if not terms:
            raise FareyError("continued fraction needs at least one term")
        if any(t < 1 for t in terms):
            raise FareyError("terms must be positive integers")
        return tuple.__new__(cls, (a0, terms))


def cf_value(cf: ContinuedFraction) -> Slope:
    """Exact value a0 + 1/(a1 + 1/(... + 1/an)), the last convergent h/k of
    h_i = a_i h_(i-1) + h_(i-2), k_i = a_i k_(i-1) + k_(i-2)."""
    h, h_prev, k, k_prev = cf.a0, 1, 1, 0
    for a in cf.terms:
        h, h_prev, k, k_prev = a * h + h_prev, h, a * k + k_prev, k
    return reduce_slope(h, k)


def cf_expand(r: Slope) -> ContinuedFraction:
    """Canonical all-positive expansion with the last term >= 2 when possible.

    Integers m expand as (m - 1) + [1]; every other slope gets the
    floor-division Euclidean expansion, whose last term is automatically
    at least 2, so expansions are unique.  cf_value inverts this exactly.
    """
    if r.is_infinity:
        raise FareyError("infinity has no continued fraction expansion")
    a0 = r.q // r.p
    rem = r.q - a0 * r.p
    if rem == 0:
        return ContinuedFraction(a0 - 1, (1,))
    terms = []
    n, d = r.p, rem
    while d:
        a, n, d = n // d, d, n % d
        terms.append(a)
    return ContinuedFraction(a0, tuple(terms))


# ---------------------------------------------------------------------------
# Automorphisms of the tessellation
# ---------------------------------------------------------------------------

class FareyAut(namedtuple("FareyAut", "a b c d")):
    """Integer matrix [[a, b], [c, d]] with det +-1, up to global sign.

    Acts on slopes by q/p -> (a q + b p)/(c q + d p); determinant +1
    elements are the orientation-preserving automorphisms.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int):
        self = tuple.__new__(cls, (a, b, c, d))
        if self.det not in (1, -1):
            raise FareyError("automorphism matrices must have determinant +-1")
        return self

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def act(self, r: Slope) -> Slope:
        return reduce_slope(self.a * r.q + self.b * r.p, self.c * r.q + self.d * r.p)

    def to_json(self) -> list:
        return [[self.a, self.b], [self.c, self.d]]


IDENTITY_AUT = FareyAut(1, 0, 0, 1)


# ---------------------------------------------------------------------------
# Covering slope
# ---------------------------------------------------------------------------

def covering_slope(r: Slope) -> Slope:
    """Slope of the double-covering two-bridge link of the projective rational link.

    For positive r = a0 + [a1, ..., an] the result is
    (-1)^(n-1) [an, ..., a1, 2*a0, a1, ..., an]       if a0 != 0,
    (-1)^(n-1) [an, ..., a2, 2*a1, a2, ..., an]       if a0 == 0,
    extended to negative r by covering_slope(-r) = -covering_slope(r).
    Nothing is re-checked per call: by the theorem this formula implements,
    the result meets the congruence q~^2 = 1 mod 2p~ and the defining
    property that some orientation-preserving automorphism sends (r, -r)
    to (result, oo).  The test suite checks both against oracles.
    """
    if r in (ZERO, INFINITY):
        raise FareyError(
            "slopes 0 and oo give the trivial projective link; "
            "its covering link is the two-component unlink"
        )
    if r.q < 0:
        return -covering_slope(-r)
    cf = cf_expand(r)
    a0, terms = cf.a0, cf.terms
    n = len(terms)
    if a0 != 0:
        word = tuple(reversed(terms)) + (2 * a0,) + terms
    else:
        word = tuple(reversed(terms[1:])) + (2 * terms[0],) + terms[1:]
    value = cf_value(ContinuedFraction(0, word))
    return -value if n % 2 == 0 else value


# ---------------------------------------------------------------------------
# Two-bridge and projective classification
# ---------------------------------------------------------------------------

def two_bridge_equivalent(r: Slope, s: Slope, orientation_preserving: bool) -> tuple[bool, FareyAut | None]:
    """Is there an automorphism of the tessellation taking {r, oo} to {s, oo}?

    With p = p_r = p_s, the maps fixing oo are x -> +-x + k, and they send r
    to s exactly when p divides s.q -+ r.q.  The maps swapping r with oo
    have bottom row (p, -r.q) and top row (s.q, b), and reach determinant
    det exactly when p divides -det - s.q * r.q.  Each witness is built
    from these conditions, so it takes {r, oo} to {s, oo} by construction
    and the first one that applies is returned, in the order x + k, the
    swap of determinant -1, then (unoriented only) -x + k and the swap of
    determinant +1.  With the orientation flag set, only x -> x + k
    (det +1, fixing oo) and the orientation-reversing swap qualify.
    """
    if r.is_infinity or s.is_infinity:
        if r == s:
            return True, IDENTITY_AUT
        return False, None
    if r.p != s.p:
        return False, None
    p = r.p
    if (s.q - r.q) % p == 0:
        return True, FareyAut(1, (s.q - r.q) // p, 0, 1)
    if (1 - s.q * r.q) % p == 0:
        return True, FareyAut(s.q, (1 - s.q * r.q) // p, p, -r.q)
    if not orientation_preserving:
        if (s.q + r.q) % p == 0:
            return True, FareyAut(-1, (s.q + r.q) // p, 0, 1)
        if (-1 - s.q * r.q) % p == 0:
            return True, FareyAut(s.q, (-1 - s.q * r.q) // p, p, -r.q)
    return False, None


def two_bridge_hyperbolic(r: Slope) -> bool:
    """The two-bridge link of slope r is hyperbolic iff d(oo, r) >= 3."""
    return farey_distance(INFINITY, r) >= 3


def rational_p3_hyperbolic(r: Slope) -> bool:
    """Hyperbolic iff min(d(0, r), d(oo, r)) >= 2.

    Equivalently r lies outside Z, {oo}, and {1/p}.
    """
    return min(farey_distance(ZERO, r), farey_distance(INFINITY, r)) >= 2


def rational_p3_classify(r: Slope, s: Slope, orientation_preserving: bool) -> bool:
    """Equivalence of projective rational links.

    Unoriented ambient homeomorphism: s in {r, -r, 1/r, -1/r};
    orientation-preserving: s in {r, -1/r}.
    """
    if orientation_preserving:
        allowed = {r, -(r.inverse())}
    else:
        allowed = {r, -r, r.inverse(), -(r.inverse())}
    return s in allowed

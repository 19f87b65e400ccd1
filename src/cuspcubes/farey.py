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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class FareyError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Slope:
    """A reduced extended rational q/p with p >= 0; infinity is 1/0."""

    q: int
    p: int

    def __post_init__(self):
        if self.p < 0:
            raise FareyError("denominator must be non-negative (use reduce_slope)")
        if self.p == 0 and self.q != 1:
            raise FareyError("infinity must be stored as 1/0 (use reduce_slope)")
        if (self.q, self.p) == (0, 0):
            raise FareyError("0/0 is not a slope")
        if gcd(abs(self.q), self.p) != 1:
            raise FareyError(f"{self.q}/{self.p} is not reduced (use reduce_slope)")

    @property
    def is_infinity(self) -> bool:
        return self.p == 0

    def as_fraction(self) -> Fraction:
        if self.is_infinity:
            raise FareyError("infinity has no rational value")
        return Fraction(self.q, self.p)

    def __neg__(self) -> "Slope":
        if self.is_infinity:
            return self
        return Slope(-self.q, self.p)

    def inverse(self) -> "Slope":
        """1/r, with 1/0 = oo and 1/oo = 0."""
        return reduce_slope(self.p, self.q)

    def __str__(self) -> str:
        return f"{self.q}/{self.p}"

    def to_json(self) -> dict:
        return {"q": self.q, "p": self.p}

    @staticmethod
    def from_json(obj) -> "Slope":
        if isinstance(obj, dict):
            return reduce_slope(int(obj["q"]), int(obj["p"]))
        return parse_slope(obj)


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


def parse_slope(text) -> Slope:
    """Parse 'q/p', a plain integer string, or 'inf'."""
    if isinstance(text, Slope):
        return text
    s = str(text).strip()
    if s in ("inf", "oo", "infinity"):
        return INFINITY
    if "/" in s:
        qs, ps = s.split("/", 1)
        return reduce_slope(int(qs), int(ps))
    return reduce_slope(int(s), 1)


def slope_of_fraction(x: Fraction) -> Slope:
    return reduce_slope(x.numerator, x.denominator)


# ---------------------------------------------------------------------------
# Farey graph
# ---------------------------------------------------------------------------

def farey_adjacent(r: Slope, s: Slope) -> bool:
    """True iff r and s span an edge of the tessellation: |q*p' - q'*p| = 1."""
    if r == s:
        raise FareyError("self-adjacency is undefined")
    return abs(r.q * s.p - s.q * r.p) == 1


def _dist_from_infinity(x: Slope) -> int:
    """Farey-graph distance d(oo, x), one step per partial quotient of x.

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
    if x.is_infinity:
        return 0
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
    of s.  Cross-checked in the test suite against breadth-first search
    over mediant-bounded neighbors (farey_distance_bfs).
    """
    if r == s:
        return 0
    if r.is_infinity:
        return _dist_from_infinity(s)
    if s.is_infinity:
        return _dist_from_infinity(r)
    # M = [[a, b], [p_r, -q_r]] with det 1 sends r to oo.
    a, b = _complete_row(r.p, -r.q)
    img = reduce_slope(a * s.q + b * s.p, r.p * s.q - r.q * s.p)
    return _dist_from_infinity(img)


def _complete_row(c: int, d: int) -> tuple[int, int]:
    """Top row (a, b) with a*d - b*c = 1, given gcd(c, d) = 1."""
    g, x, y = _egcd(d, -c)
    assert g == 1 or g == -1
    if g == -1:
        x, y = -x, -y
    return x, y


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    return old_r, old_s, old_t


def farey_neighbors_bounded(r: Slope, max_den: int, lo: Fraction, hi: Fraction) -> list[Slope]:
    """All Farey neighbors of r with denominator <= max_den in [lo, hi], plus oo.

    Used by the BFS oracle only; enumeration solves q*v - u*p = +-1 per
    denominator v.
    """
    out = []
    if r.is_infinity:
        n0, n1 = int(lo) - 1, int(hi) + 1
        return [Slope(n, 1) for n in range(n0, n1 + 1)]
    q, p = r.q, r.p
    if p == 1:
        out.append(INFINITY)
    for v in range(0, max_den + 1):
        for delta in (1, -1):
            num = q * v - delta
            if p and num % p == 0:
                u = num // p
                if v == 0:
                    continue
                if gcd(abs(u), v) != 1:
                    continue
                cand = Slope(u, v) if v > 0 else INFINITY
                if not cand.is_infinity and (lo <= cand.as_fraction() <= hi):
                    out.append(cand)
    return out


def farey_distance_bfs(r: Slope, s: Slope) -> int:
    """Independent distance oracle: BFS over the denominator-bounded ball.

    Every geodesic between r and s can be taken through pivot vertices of
    the triangles crossed by the hyperbolic segment [r, s]; those pivots
    have denominators at most max(p_r, p_s) and values inside the integer
    window around {r, s} (or anywhere adjacent to oo).  Exponentially
    slower than farey_distance; meant for small denominators.
    """
    if r == s:
        return 0
    B = max(r.p, s.p, 1)
    finite = [x.as_fraction() for x in (r, s) if not x.is_infinity]
    lo = Fraction(min(finite)) - 1 if finite else Fraction(-1)
    hi = Fraction(max(finite)) + 1 if finite else Fraction(1)
    frontier = {r}
    seen = {r}
    dist = 0
    while frontier:
        dist += 1
        nxt = set()
        for u in frontier:
            for w in farey_neighbors_bounded(u, B, lo, hi):
                if w == s:
                    return dist
                if w not in seen:
                    seen.add(w)
                    nxt.add(w)
        frontier = nxt
        if dist > 4 * B + 4:
            raise FareyError("BFS bound exceeded; oracle misuse")
    raise FareyError("unreachable")


# ---------------------------------------------------------------------------
# Continued fractions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuedFraction:
    """a0 + [a1, ..., an] with every term positive; terms is non-empty."""

    a0: int
    terms: tuple[int, ...]

    def __post_init__(self):
        if not self.terms:
            raise FareyError("continued fraction needs at least one term")
        if any(t < 1 for t in self.terms):
            raise FareyError("terms must be positive integers")

    def __str__(self) -> str:
        return f"{self.a0} + [{', '.join(map(str, self.terms))}]"


def cf_value(cf: ContinuedFraction) -> Slope:
    """Exact value a0 + 1/(a1 + 1/(... + 1/an))."""
    acc = Fraction(cf.terms[-1])
    for t in reversed(cf.terms[:-1]):
        acc = t + 1 / acc
    return slope_of_fraction(cf.a0 + 1 / acc)


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


def _pure_cf_value(word: tuple[int, ...]) -> Fraction:
    """[w1, ..., wk] = 1/(w1 + 1/(w2 + ...)); the word must be non-empty."""
    acc = Fraction(word[-1])
    for t in reversed(word[:-1]):
        acc = t + 1 / acc
    return 1 / acc


# ---------------------------------------------------------------------------
# Automorphisms of the tessellation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FareyAut:
    """Integer matrix [[a, b], [c, d]] with det +-1, up to global sign.

    Acts on slopes by q/p -> (a q + b p)/(c q + d p); determinant +1
    elements are the orientation-preserving automorphisms.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.det not in (1, -1):
            raise FareyError("automorphism matrices must have determinant +-1")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def orientation_preserving(self) -> bool:
        return self.det == 1

    def act(self, r: Slope) -> Slope:
        return reduce_slope(self.a * r.q + self.b * r.p, self.c * r.q + self.d * r.p)

    def compose(self, other: "FareyAut") -> "FareyAut":
        return FareyAut(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "FareyAut":
        s = self.det
        return FareyAut(s * self.d, -s * self.b, -s * self.c, s * self.a)

    def same_as(self, other: "FareyAut") -> bool:
        m = (self.a, self.b, self.c, self.d)
        n = (other.a, other.b, other.c, other.d)
        return m == n or m == tuple(-x for x in n)

    def to_json(self) -> list:
        return [[self.a, self.b], [self.c, self.d]]


IDENTITY_AUT = FareyAut(1, 0, 0, 1)
T_AUT = FareyAut(1, 1, 0, 1)          # x -> x + 1
S_AUT = FareyAut(0, -1, 1, 0)         # x -> -1/x
NEG_AUT = FareyAut(-1, 0, 0, 1)       # x -> -x (orientation-reversing)


# ---------------------------------------------------------------------------
# Covering slope
# ---------------------------------------------------------------------------

def covering_slope(r: Slope) -> Slope:
    """Slope of the double-covering two-bridge link of the projective rational link.

    For positive r = a0 + [a1, ..., an] the result is
    (-1)^(n-1) [an, ..., a1, 2*a0, a1, ..., an]       if a0 != 0,
    (-1)^(n-1) [an, ..., a2, 2*a1, a2, ..., an]       if a0 == 0,
    extended to negative r by covering_slope(-r) = -covering_slope(r).
    Two checks run on every call: the congruence q~^2 = 1 mod 2p~, and the
    defining property that some orientation-preserving automorphism sends
    (r, -r) to (result, oo).
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
    elif n == 1:
        word = (2 * terms[0],)
    else:
        word = tuple(reversed(terms[1:])) + (2 * terms[0],) + terms[1:]
    value = _pure_cf_value(word)
    if (n - 1) % 2 == 1:
        value = -value
    result = slope_of_fraction(value)
    _check_covering_congruence(result)
    if not covering_slope_characterization(r, result):
        raise FareyError(f"covering slope of {r} failed its defining property")
    return result


def _check_covering_congruence(rt: Slope) -> None:
    if (rt.q * rt.q - 1) % (2 * rt.p) != 0:
        raise FareyError(f"covering slope {rt} violates q^2 = 1 mod 2p")


def covering_slope_characterization(r: Slope, candidate: Slope) -> bool:
    """Does some eta in Aut+ send (r, -r) to (candidate, oo)?

    The automorphisms with eta(-r) = oo form a single coset of the
    translations, so the orbit of r under them is candidate + Z for one
    particular representative; membership is an exact integer test.
    """
    minus = -r
    # bottom row kills -r: (c, d) = (p, q) up to sign for -r = -q/p
    c, d = minus.p, -minus.q
    a, b = _complete_row(c, d)
    eta = FareyAut(a, b, c, d)
    assert eta.act(minus) == INFINITY
    base = eta.act(r)
    if base.is_infinity or candidate.is_infinity:
        return False
    diff = candidate.as_fraction() - base.as_fraction()
    return diff.denominator == 1


def covering_slope_search_oracle(r: Slope, max_depth: int = 200) -> FareyAut:
    """Independent word search for eta in Aut+ with eta(-r) = oo.

    Breadth-first search over words in {x+1, x-1, -1/x} applied to -r,
    deduplicated on the image slope.  States larger than the start are
    pruned: a Euclidean reduction path (translate toward the floor, then
    invert) reaches oo without ever growing |q| + p, so completeness is
    kept.  Returns the witness automorphism.
    """
    start = -r
    size_bound = abs(start.q) + start.p + 1
    gens = [T_AUT, T_AUT.inverse(), S_AUT]
    frontier = [(start, IDENTITY_AUT)]
    seen = {start}
    for _ in range(max_depth):
        nxt = []
        for val, word in frontier:
            for g in gens:
                nval = g.act(val)
                if nval == INFINITY:
                    return g.compose(word)
                if abs(nval.q) + nval.p > size_bound:
                    continue
                if nval not in seen:
                    seen.add(nval)
                    nxt.append((nval, g.compose(word)))
        frontier = nxt
        if not frontier:
            break
    raise FareyError("word search exhausted; depth bound too small")


# ---------------------------------------------------------------------------
# Two-bridge and projective classification
# ---------------------------------------------------------------------------

def two_bridge_equivalent(r: Slope, s: Slope, orientation_preserving: bool) -> tuple[bool, FareyAut | None]:
    """Is there an automorphism of the tessellation taking {r, oo} to {s, oo}?

    The stabilizer analysis is exact: maps fixing oo are x -> +-x + k and
    maps swapping r with oo have bottom row (p, -q_r); matching the
    required image pins the congruence conditions below.  With the
    orientation flag set, only x -> x + k (det +1, fixing oo) and the
    orientation-reversing swaps qualify.  Returns a verified witness.
    """
    if r.is_infinity or s.is_infinity:
        if r == s:
            return True, IDENTITY_AUT
        return False, None
    if r.p != s.p:
        return False, None
    p = r.p
    candidates: list[FareyAut] = []

    def translation(k: int) -> FareyAut:
        return FareyAut(1, k, 0, 1)

    def neg_translation(k: int) -> FareyAut:
        return FareyAut(-1, k, 0, 1)

    def swap(det: int) -> FareyAut | None:
        # [[s.q, b], [p, -r.q]] sends r to oo and oo to s; det = -s.q*r.q - b*p
        num = -det - s.q * r.q
        if p == 0 or num % p:
            return None
        return FareyAut(s.q, num // p, p, -r.q)

    if p == 0:
        return (r == s), (IDENTITY_AUT if r == s else None)
    if (s.q - r.q) % p == 0:
        candidates.append(translation((s.q - r.q) // p))
    m = swap(-1)
    if m is not None:
        candidates.append(m)
    if not orientation_preserving:
        if (s.q + r.q) % p == 0:
            candidates.append(neg_translation((s.q + r.q) // p))
        m = swap(1)
        if m is not None:
            candidates.append(m)

    for xi in candidates:
        image = {xi.act(r), xi.act(INFINITY)}
        if image != {s, INFINITY}:
            continue
        if orientation_preserving:
            ok = (xi.orientation_preserving and xi.act(r) == s and xi.act(INFINITY) == INFINITY) or (
                not xi.orientation_preserving and xi.act(r) == INFINITY and xi.act(INFINITY) == s
            )
            if not ok:
                continue
        return True, xi
    return False, None


def schubert_oracle(r: Slope, s: Slope) -> bool:
    """Unoriented two-bridge equivalence by congruences: p = p', q' = +-q^{+-1} mod p."""
    if r.p != s.p:
        return False
    p = r.p
    if p == 0:
        return True
    for sign in (1, -1):
        if (s.q - sign * r.q) % p == 0:
            return True
        if (r.q * s.q - sign) % p == 0:
            return True
    return False


def two_bridge_hyperbolic(r: Slope) -> bool:
    """The two-bridge link of slope r is hyperbolic iff d(oo, r) >= 3."""
    return farey_distance(INFINITY, r) >= 3


def rational_p3_trivial(r: Slope) -> bool:
    """The projective rational link of slope r bounds a disk iff r is 0 or oo."""
    return r in (ZERO, INFINITY)


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

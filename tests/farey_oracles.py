"""Oracles for cuspcubes.farey, read only by the tests: Farey adjacency,
distance by breadth-first search, the covering slope by a word search for
its defining automorphism, two-bridge equivalence by the Schubert
congruences, the value of a continued fraction folded from its last term
in Fractions, and the trivial projective rational links.
"""

from fractions import Fraction
from math import gcd

from cuspcubes.farey import (
    INFINITY, IDENTITY_AUT, ZERO, ContinuedFraction, FareyAut, FareyError, Slope, reduce_slope,
)


def farey_adjacent(r: Slope, s: Slope) -> bool:
    """True iff r and s span an edge of the tessellation: |q*p' - q'*p| = 1."""
    if r == s:
        raise FareyError("self-adjacency is undefined")
    return abs(r.q * s.p - s.q * r.p) == 1


def rational_p3_trivial(r: Slope) -> bool:
    """The projective rational link of slope r bounds a disk iff r is 0 or oo."""
    return r in (ZERO, INFINITY)


def compose(f: FareyAut, g: FareyAut) -> FareyAut:
    """f after g."""
    return FareyAut(f.a * g.a + f.b * g.c, f.a * g.b + f.b * g.d,
                    f.c * g.a + f.d * g.c, f.c * g.b + f.d * g.d)


def inverse(f: FareyAut) -> FareyAut:
    s = f.det
    return FareyAut(s * f.d, -s * f.b, -s * f.c, s * f.a)


def same_as(f: FareyAut, g: FareyAut) -> bool:
    """Equal as automorphisms: the matrices agree up to global sign."""
    m, n = (f.a, f.b, f.c, f.d), (g.a, g.b, g.c, g.d)
    return m == n or m == tuple(-x for x in n)


def farey_distance_bfs(r: Slope, s: Slope) -> int:
    """Distance by BFS over the denominator-bounded ball.

    Every geodesic between r and s can be taken through pivot vertices of
    the triangles crossed by the hyperbolic segment [r, s]; those pivots
    have denominators at most max(p_r, p_s) and values inside the integer
    window around {r, s} (or anywhere adjacent to oo).  The neighbors u/v
    of a finite q/p solve q*v - u*p = +-1.  Exponentially slower than
    farey_distance; meant for small denominators.
    """
    B = max(r.p, s.p, 1)
    finite = [Fraction(x.q, x.p) for x in (r, s) if not x.is_infinity]
    lo, hi = (min(finite) - 1, max(finite) + 1) if finite else (-1, 1)

    def neighbors(x: Slope) -> list[Slope]:
        if x.is_infinity:
            return [Slope(n, 1) for n in range(int(lo) - 1, int(hi) + 2)]
        out = [INFINITY] if x.p == 1 else []
        for v in range(1, B + 1):
            for num in (x.q * v - 1, x.q * v + 1):
                u = num // x.p
                if num % x.p == 0 and gcd(abs(u), v) == 1 and lo <= Fraction(u, v) <= hi:
                    out.append(Slope(u, v))
        return out

    frontier, seen, dist = {r}, {r}, 0
    while s not in seen:
        frontier = {w for u in frontier for w in neighbors(u)} - seen
        if not frontier:
            raise FareyError("BFS ball exhausted; oracle misuse")
        seen |= frontier
        dist += 1
    return dist


def covering_slope_search_oracle(r: Slope, max_depth: int = 200) -> FareyAut:
    """Word search for eta in Aut+ with eta(-r) = oo.

    Breadth-first search over words in {x+1, x-1, -1/x} applied to -r,
    deduplicated on the image slope.  States larger than the start are
    pruned: a Euclidean reduction path (translate toward the floor, then
    invert) reaches oo without ever growing |q| + p, so completeness is
    kept.  Returns the witness automorphism.
    """
    start = -r
    size_bound = abs(start.q) + start.p + 1
    gens = [FareyAut(1, 1, 0, 1), FareyAut(1, -1, 0, 1), FareyAut(0, -1, 1, 0)]
    frontier = [(start, IDENTITY_AUT)]
    seen = {start}
    for _ in range(max_depth):
        nxt = []
        for val, word in frontier:
            for g in gens:
                nval = g.act(val)
                if nval == INFINITY:
                    return compose(g, word)
                if abs(nval.q) + nval.p > size_bound:
                    continue
                if nval not in seen:
                    seen.add(nval)
                    nxt.append((nval, compose(g, word)))
        frontier = nxt
        if not frontier:
            break
    raise FareyError("word search exhausted; depth bound too small")


def covering_slope_characterization(r: Slope, candidate: Slope) -> bool:
    """Does some eta in Aut+ send (r, -r) to (candidate, oo)?

    The automorphisms with eta(-r) = oo form one coset of the translations,
    so it is enough that candidate - eta(r) is an integer for the eta that
    the word search finds.
    """
    return differ_by_integer(candidate, covering_slope_search_oracle(r).act(r))


def differ_by_integer(a: Slope, b: Slope) -> bool:
    """Are a and b finite with a - b in Z?  Both are reduced."""
    return a.p == b.p != 0 and (a.q - b.q) % a.p == 0


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


def cf_value_fraction(cf: ContinuedFraction) -> Slope:
    """a0 + 1/(a1 + 1/(... + 1/an)), evaluated from the inside out."""
    acc = Fraction(cf.terms[-1])
    for t in reversed(cf.terms[:-1]):
        acc = t + 1 / acc
    value = cf.a0 + 1 / acc
    return reduce_slope(value.numerator, value.denominator)

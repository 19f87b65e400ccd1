"""Combinatorial model of prime alternating link diagrams.

A diagram is stored as a 4-valent combinatorial map on the 2-sphere: each
crossing carries four slots 0..3 in counterclockwise order, slots pair up
into edges, and the under-strand always occupies the slot diagonal {0, 2}.
Faces are orbits of the walk rule next(h) = rotate(twin(h)); no face is
distinguished as "outer".  PD codes (four edge labels per crossing,
counterclockwise from the incoming under-strand) are accepted as input,
as is a raw rotation-system pairing.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property


class DiagramError(ValueError):
    pass


BLACK = "black"
WHITE = "white"

Slot = tuple[int, int]  # (crossing index, slot 0..3)

MAX_CROSSINGS = 10_000      # a diagram keeps about 0.8 KB per crossing, 2.5 KB with every view built


def _check_size(n: int) -> None:
    if n > MAX_CROSSINGS:
        raise DiagramError(f"too large: {n} crossings, at most {MAX_CROSSINGS} are accepted")


class Region(namedtuple("Region", "index color boundary")):
    """A complementary region of the diagram on the sphere; boundary is its
    face walk, whose entry (c, i) leaves through port i."""

    __slots__ = ()

    @property
    def distinct_crossings(self) -> frozenset[int]:
        return frozenset(c for c, _i in self.boundary)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_slot(h) -> bool:
    """A JSON slot [crossing, position] of two integers."""
    return isinstance(h, list) and len(h) == 2 and all(map(_is_int, h))


class AlternatingDiagram:
    """Validated alternating diagram with regions and checkerboard coloring.

    A diagram is built from its wire list: (a, b) pairs of flat slot ids
    h = 4c + i, one per edge, in the order the builder joins them, which
    `to_json` keeps.  Construction checks, in order: every slot wired once
    and no slot to itself, connectivity, sphericity (V - E + F = 2) and
    alternation, and reports the first violated invariant by name.  Int
    lists keep each slot's twin, edge and region (the public `slot_region`),
    the lower slot of each edge and each face walk.  A region's color is
    the parity of its slots, even for black; the views on tuple slots (c, i),
    `pairing`, `edges` and the `Region` records the drawing reads, strands,
    primeness and reducedness are computed on first use, and the views share
    one tuple per slot.
    """

    def __init__(self, n: int, wires: list[tuple[int, int]]):
        if n < 1:
            raise DiagramError("malformed: a diagram needs at least one crossing")
        if len(wires) < 2 * n:           # before any 4n-sized allocation
            raise DiagramError("malformed: every slot must be paired exactly once")
        _check_size(n)
        self.n, self.wires = n, wires
        twin = [-1] * (4 * n)
        for a, b in wires:
            twin[a] = b
            twin[b] = a
        if -1 in twin:
            raise DiagramError("malformed: every slot must be paired exactly once")
        # 2n wires that reach all 4n slots name each slot once; a longer
        # list wires some slot to itself or twice
        if len(wires) != 2 * n:
            raise DiagramError("malformed: slot pairing must be a fixed-point-free involution")
        lower = [h for h, k in enumerate(twin) if h < k]
        edge = [0] * (4 * n)
        for e, h in enumerate(lower):
            edge[h] = edge[twin[h]] = e

        seen, reach = [True] + [False] * (n - 1), [0]
        for c in reach:
            for k in twin[4 * c:4 * c + 4]:
                if not seen[k >> 2]:
                    seen[k >> 2] = True
                    reach.append(k >> 2)
        if len(reach) != n:
            raise DiagramError("disconnected: the diagram graph must be connected")

        # faces: orbits of next(h) = rotate(twin(h)), walked from their least slot
        region = [-1] * (4 * n)
        walks: list[list[int]] = []
        for h in range(4 * n):
            if region[h] < 0:
                r, walk = len(walks), []
                while region[h] < 0:
                    region[h] = r
                    walk.append(h)
                    k = twin[h]
                    h = k + 1 if k & 3 != 3 else k - 3
                walks.append(walk)
        if len(walks) != n + 2:
            raise DiagramError(f"non-planar: {n} crossings with {len(walks)} regions "
                               f"(expected {n + 2} on the sphere)")
        # A strand leaves crossing c through slot i + 2 and enters the next
        # one at its twin, so consecutive passages differ in kind (alternation)
        # exactly when every edge joins an even slot to an odd one.
        if not all(k & 1 for k in twin[0::2]):
            raise DiagramError("non-alternating: consecutive passages on a strand agree")
        self.slot_region: list[int] = region         # region index by slot id 4c + i
        self._twin, self._edge, self._lower, self._walks = twin, edge, lower, walks

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_pd(code) -> "AlternatingDiagram":
        """Build from a PD code: one 4-tuple of integer edge labels per crossing.

        Labels are listed counterclockwise starting at the incoming
        under-strand, and each label occurs exactly twice overall.
        """
        if not isinstance(code, (list, tuple)) or not all(isinstance(x, (list, tuple)) for x in code):
            raise DiagramError("malformed: a PD code is a list of four-label entries")
        if not code:
            raise DiagramError("malformed: empty PD code")
        if any(len(x) != 4 for x in code):
            raise DiagramError("malformed: every PD entry needs four edge labels")
        if not all(_is_int(label) for quad in code for label in quad):
            raise DiagramError("malformed: PD edge labels must be integers")
        where: dict[int, list[int]] = {}
        for c, quad in enumerate(code):
            for i, label in enumerate(quad):
                where.setdefault(label, []).append(4 * c + i)
        for label, occ in where.items():
            if len(occ) != 2:
                raise DiagramError(f"malformed: edge label {label!r} appears {len(occ)} times, expected 2")
        return AlternatingDiagram(len(code), list(map(tuple, where.values())))

    @staticmethod
    def from_json(obj) -> "AlternatingDiagram":
        """Accept {"pd": [[..4 labels..], ...]} or {"rotation": [[slot pairs]]},
        shaped as docs/schemas/diagram.input.v1.json describes."""
        if isinstance(obj, dict) and "pd" in obj and "rotation" in obj:
            raise DiagramError("malformed: give either a 'pd' or a 'rotation' field, not both")
        if isinstance(obj, dict) and "pd" in obj:
            return AlternatingDiagram.from_pd(obj["pd"])
        if isinstance(obj, dict) and "rotation" in obj:
            pairs = obj["rotation"]
            if not (isinstance(pairs, list) and pairs and all(
                    isinstance(pair, list) and len(pair) == 2 and all(map(_is_slot, pair))
                    for pair in pairs)):
                raise DiagramError("malformed: a rotation is a non-empty list of [[c, i], [c, i]] slot pairs")
            seen: set[Slot] = set()
            for a, b in pairs:
                if tuple(a) in seen or tuple(b) in seen:
                    raise DiagramError("malformed: every slot must be paired exactly once")
                seen.update((tuple(a), tuple(b)))
            n = 1 + max(c for (c, _i) in seen)
            if n >= 1:
                if len(seen) == 4 * n:
                    _check_size(n)
                # 4c + i would alias [0, 7] to [1, 3]: slots are checked first
                if len(seen) != 4 * n or not all(c >= 0 and 0 <= i < 4 for c, i in seen):
                    raise DiagramError("malformed: every slot must be paired exactly once")
            return AlternatingDiagram(n, [(4 * a[0] + a[1], 4 * b[0] + b[1]) for a, b in pairs])
        raise DiagramError("malformed: expected a 'pd' or 'rotation' field")

    def to_json(self) -> dict:
        """The wire list as rotation pairs [[c, i], [c, i]], in wire order."""
        return {"rotation": [[[a >> 2, a & 3], [b >> 2, b & 3]] for a, b in self.wires]}

    def pd_code(self) -> list[tuple[int, int, int, int]]:
        """Edge-label form of the pairing (labels are edge ids)."""
        edge = self._edge
        return [tuple(edge[h:h + 4]) for h in range(0, 4 * self.n, 4)]

    # -- tuple-slot views ----------------------------------------------------

    @cached_property
    def _slots(self) -> list[Slot]:
        """The slot (c, i) of each slot id, one tuple shared by the views."""
        return [(c, i) for c in range(self.n) for i in range(4)]

    @cached_property
    def pairing(self) -> dict[Slot, Slot]:
        """The slot paired with each slot (c, i), both ends of each wire in
        wire order."""
        slots, pairing = self._slots, {}
        for a, b in self.wires:
            pairing[slots[a]], pairing[slots[b]] = slots[b], slots[a]
        return pairing

    @cached_property
    def edges(self) -> list[frozenset[Slot]]:
        """The two slots of each edge, edges in order of their lower slot."""
        slots = self._slots
        return [frozenset((slots[h], slots[self._twin[h]])) for h in self._lower]

    # -- invariants ----------------------------------------------------------

    @cached_property
    def regions(self) -> list[Region]:
        """The faces, indexed as in `slot_region`.  Alternation makes
        twin(h) flip a slot's parity and rotate flip it back, so a face's
        slots share one parity and the two sides of an edge differ: even
        faces are black, odd ones white, the face of slot (0, 0) black."""
        return [Region(r, WHITE if walk[0] & 1 else BLACK, tuple(map(self._slots.__getitem__, walk)))
                for r, walk in enumerate(self._walks)]

    @cached_property
    def strands(self) -> list[list[tuple[int, int]]]:
        """The link components as cycles of passages, (c, 0) under and
        (c, 1) over, each walked from the least passage no earlier strand
        holds: enter slot i, leave through i + 2."""
        twin, seen = self._twin, [False] * (4 * self.n)
        strands = []
        for h0 in range(4 * self.n):
            if h0 & 2 or seen[h0]:
                continue
            strand, h = [], h0
            while True:
                seen[h] = seen[h ^ 2] = True
                strand.append((h >> 2, h & 1))
                h = twin[h ^ 2]
                if h == h0:
                    break
            strands.append(strand)
        return strands

    @cached_property
    def prime(self) -> bool:
        """No simple loop meets the diagram twice with crossings on both sides.

        Equivalent combinatorial form (a diagram has at least one crossing):
        no two distinct edges share the same unordered pair of side regions (such a
        pair supports the splitting loop, and both sides then contain a
        crossing because the cut edge-pieces end at crossings).  Alternation
        gives every edge one even slot, so the even slots list each edge
        once, with its sides in a fixed order.
        """
        region, twin = self.slot_region, self._twin
        return len({(region[h], region[twin[h]]) for h in range(0, 4 * self.n, 2)}) == 2 * self.n

    @cached_property
    def reduced(self) -> bool:
        """No nugatory crossings: no crossing occurs twice on one region boundary."""
        return all(len({h >> 2 for h in walk}) == len(walk) for walk in self._walks)

    def __repr__(self) -> str:
        return f"AlternatingDiagram({self.n} crossings, {len(self._walks)} regions)"


# ---------------------------------------------------------------------------
# Primeness and reducedness
# ---------------------------------------------------------------------------

def is_prime(d: AlternatingDiagram) -> bool:
    """Is d prime?  `AlternatingDiagram.prime`, scanned once per diagram."""
    return d.prime


def is_reduced(d: AlternatingDiagram) -> bool:
    """Is d reduced?  `AlternatingDiagram.reduced`, scanned once per diagram."""
    return d.reduced


# ---------------------------------------------------------------------------
# Small regions guaranteed on hyperbolic diagrams
# ---------------------------------------------------------------------------

def find_small_white_region(d: AlternatingDiagram, witness_color: str = WHITE):
    """Locate the small region guaranteed when the opposite color count is 3 or 4.

    With exactly three black regions there is a white bigon, with four a
    white bigon or trigon.  Every caller checks first that the diagram is
    prime, so no two edges of it share their far region.  Returns (region
    index, 'bigon'|'trigon'), or None when five or more black regions make
    the search unnecessary.  Fewer than three black regions is the
    torus-link case and is rejected.
    """
    other = BLACK if witness_color == WHITE else WHITE
    odd = witness_color == WHITE
    count = sum(1 for walk in d._walks if walk[0] & 1 != odd)
    if count < 3:
        raise DiagramError(
            f"only {count} {other} regions: torus-link form, not a hyperbolic candidate"
        )
    if count > 4:
        return None
    want_kinds = ("bigon",) if count == 3 else ("bigon", "trigon")
    for kind, size in (("bigon", 2), ("trigon", 3)):
        if kind not in want_kinds:
            continue
        for r, walk in enumerate(d._walks):
            if walk[0] & 1 == odd and len(walk) == size:
                return r, kind
    raise DiagramError(
        "no qualifying small region found; this contradicts the structure of prime "
        "alternating diagrams of hyperbolic links and indicates a bug or bad input"
    )


# ---------------------------------------------------------------------------
# Standard two-bridge diagrams
# ---------------------------------------------------------------------------

def twist_sequence(seq) -> tuple[int, ...]:
    """The twist counts (a1, ..., an) as a tuple, checked: n >= 2, every
    count positive, a1, an >= 2 and at most MAX_CROSSINGS crossings."""
    a = tuple(seq)
    if len(a) < 2:
        raise DiagramError("twist sequence needs at least two twist regions")
    if any(x < 1 for x in a):
        raise DiagramError("twist counts must be positive")
    if a[0] < 2 or a[-1] < 2:
        raise DiagramError("first and last twist counts must be at least 2")
    _check_size(sum(a))
    return a


class TwoBridgeDiagram(namedtuple("TwoBridgeDiagram", "seq diagram twist_region_of")):
    """Standard alternating diagram of a two-bridge link with twist labels,
    twist_region_of giving the 1-based twist region of each crossing.

    Twist region A_i (1-based) is horizontal for odd i and vertical for
    even i; crossings are numbered in construction order, so the members
    of A_i are consecutive.  Crossing arcs in A_1 and A_n are the upper
    and lower tunnels.
    """

    __slots__ = ()

    def crossings_in(self, i: int) -> list[int]:
        return [c for c, r in enumerate(self.twist_region_of) if r == i]


# Crossing slot convention for the builders: slots (0,1,2,3) sit at the
# compass ports (SW, SE, NE, NW); the under-strand is the SW-NE diagonal.
_SW, _SE, _NE, _NW = 0, 1, 2, 3

# How a crossing joins the loose ends: (end, port joined to it, port that
# becomes the end), for a horizontal and for a vertical crossing.
_HORIZONTAL = (("ne", _NW, _NE), ("se", _SW, _SE))
_VERTICAL = (("sw", _NW, _SW), ("se", _NE, _SE))


def two_bridge_diagram(seq) -> TwoBridgeDiagram:
    """Build the standard prime alternating diagram for a twist sequence.

    Twist blocks alternate east-going and south-going.  Crossing 0 is the
    first of A_1, and its four ports are the loose ends nw, ne, sw and se.
    Each later crossing joins two loose ends and takes their place: a
    horizontal one (odd i) joins its NW and SW ports to the ne and se ends,
    and its NE and SE ports become the new ne and se; a vertical one (even
    i) joins its NW and NE ports to the sw and se ends, and its SW and SE
    ports become the new sw and se.  The closure joins the loose ends so
    that no block's two output ports meet directly (top/bottom bridges when
    the last block is horizontal, side bridges when it is vertical,
    matching the two drawn forms of the family).
    """
    seq = twist_sequence(seq)
    labels = tuple(i for i, a_i in enumerate(seq, start=1) for _ in range(a_i))
    wires = []
    ends = {"nw": _NW, "ne": _NE, "sw": _SW, "se": _SE}
    for c in range(1, len(labels)):
        for end, joined, new in _HORIZONTAL if labels[c] % 2 else _VERTICAL:
            wires.append((ends[end], 4 * c + joined))
            ends[end] = 4 * c + new
    closing = (("nw", "ne"), ("sw", "se")) if len(seq) % 2 else (("nw", "sw"), ("ne", "se"))
    wires += [(ends[a], ends[b]) for a, b in closing]
    return TwoBridgeDiagram(seq, AlternatingDiagram(len(labels), wires), labels)


# ---------------------------------------------------------------------------
# Arc specifications (shared with the decision procedure)
# ---------------------------------------------------------------------------

class CrossingArc(namedtuple("CrossingArc", "crossing")):
    __slots__ = ()


class InRegionArc(namedtuple("InRegionArc", "region c1 c2")):
    __slots__ = ()

    def __new__(cls, region: int, c1: int, c2: int):
        if c1 == c2:
            raise DiagramError("an in-region arc needs two distinct endpoint crossings")
        return tuple.__new__(cls, (region, c1, c2))


class TransverseArc(namedtuple("TransverseArc", "c1 c2 edge_word")):
    __slots__ = ()

    def __new__(cls, c1: int, c2: int, edge_word: tuple[int, ...]):
        if not edge_word:
            raise DiagramError("a transverse arc needs a non-empty edge word; use InRegionArc")
        return tuple.__new__(cls, (c1, c2, edge_word))


def _joint(twin: list[int], walk: list[int], c1: int, c2: int) -> list[int]:
    """The walk slots whose edge joins crossings c1 and c2, which are then
    consecutive along the face."""
    return [h for h in walk if {h >> 2, twin[h] >> 2} == {c1, c2}]


def crossings_adjacent_on_region(d: AlternatingDiagram, r: int, c1: int, c2: int) -> bool:
    """Are c1 and c2 joined by an edge of the boundary walk of region r?"""
    return bool(_joint(d._twin, d._walks[r], c1, c2))


# ---------------------------------------------------------------------------
# Gear edge classes
# ---------------------------------------------------------------------------

def arc_crossing(d: AlternatingDiagram, e: int) -> int:
    """The crossing whose arc's gear class holds edge e of the positive copy.

    The class of crossing x is e(x, 1), e(x, 3) in the positive copy and
    e(x, 0), e(x, 2) in the negative one, e(x, i) the edge at slot i of x
    (the mirror convention swaps the two pairs).  So a positive-copy edge
    belongs to the crossing where it ends on an over-port, slot 1 or 3;
    alternation gives every edge exactly one such end.
    """
    h = d._lower[e]
    return (h if h & 1 else d._twin[h]) >> 2


# ---------------------------------------------------------------------------
# Flype
# ---------------------------------------------------------------------------

class FlypeResult(namedtuple("FlypeResult", "diagram arc trace")):
    __slots__ = ()


def _tail_flype(d: AlternatingDiagram, c: int, S: frozenset[int]):
    """The flype of d that carries crossing c across the tangle S, as
    (wires, spot), or None when S is no flype disk at c or the forced
    wiring does not exist.  S is a flype disk at c when c lies outside it
    and S is cut off by four edges, at consecutive ports p, p+1 of c and
    f1 < f2 away from c; a prime diagram has no two-edge cut, so both
    sides of the cut are connected.

    The flype turns S over (slot id h of a crossing in S becomes h ^ 3,
    slot i becomes 3 - i) and carries c across it: c's strands reconnect
    across the gap, each to the passing strand on its own side, and c
    re-forms on the far edges f1 and f2.  That wiring is forced.  Each
    far strand runs straight through c, so its two ends take one diagonal;
    alternation picks the diagonal from the parity of the end in S; which
    of the two slots takes that end is a 180-degree relabelling of c, fixed
    here by putting f1's end in S at slot 0; planarity then places f2's end
    in S at slot 1 when p is even and at slot 3 when p is odd.  A flype is
    an isotopy, so nothing is re-checked here; the constructor validates
    the image.  The image keeps d's wire order, then the two spot wires,
    between which the image of the crossing arc at c runs, then the far ones.
    """
    if c in S:
        return None
    twin, edge, h0 = d._twin, d._edge, 4 * c
    cut = {edge[h] for x in S for h in range(4 * x, 4 * x + 4) if twin[h] >> 2 not in S}
    ports = [i for i in range(4) if twin[h0 + i] >> 2 in S]
    if len(cut) != 4 or ports not in ([0, 1], [1, 2], [2, 3], [0, 3]):
        return None
    p = 3 if ports == [0, 3] else ports[0]
    f_ids = sorted(cut - {edge[h0 + i] for i in ports})

    def mu(h):
        return h ^ 3 if h >> 2 in S else h

    ends = [(h, twin[h]) if h >> 2 in S else (twin[h], h) for h in map(d._lower.__getitem__, f_ids)]
    fS, fR = [mu(h) for h, _k in ends], [k for _h, k in ends]
    # f1's strand takes the under-diagonal (c,0)/(c,2) only when its end
    # in S is odd; a disk that needs the over-diagonal has no flype here
    if fS[0] & 1 == 0:
        return None
    removed = set(edge[h0:h0 + 4]) | set(f_ids)
    wires = [(mu(a), mu(b)) for a, b in d.wires if edge[a] not in removed]
    # a prime diagram has no loop edge, so the edges at ports p+2, p+3
    # lead away from c and lie outside the disk
    spot = [(mu(twin[h0 + p]), twin[h0 + (p + 2) % 4]),
            (mu(twin[h0 + (p + 1) % 4]), twin[h0 + (p + 3) % 4])]
    at1, at3 = (fS[1], fR[1]) if p % 2 == 0 else (fR[1], fS[1])
    far = [(fS[0], h0), (fR[0], h0 + 2), (at1, h0 + 1), (at3, h0 + 3)]
    return wires + spot + far, spot


def _spot_options(d: AlternatingDiagram, spot):
    """The in-region arcs the image of the crossing arc can be, read off
    the flyped diagram d: (region, c1, c2, joint) for the face through both
    spot edges and each pair of distinct ends c1, c2 of the two edges, with
    `joint` the face's slots whose edge joins c1 and c2 (none: not
    adjacent), in walk order from the spot slot.  The faces through an edge
    are those of its two slots; the image is prime, so no two edges share
    both faces and at most one face holds both spot edges.  Ends come in
    the order the tuple-slot edge frozenset iterates them.
    """
    twin, region = d._twin, d.slot_region
    a, b = spot[0][0], spot[1][0]
    ends_a, ends_b = ([c for c, _i in frozenset(sorted((divmod(h, 4), divmod(twin[h], 4))))] for h in (a, b))
    for h in (a, twin[a]):
        r = region[h]
        if r in (region[b], region[twin[b]]):
            walk = d._walks[r]
            j = walk.index(h)
            walk = walk[j:] + walk[:j]
            for c1 in ends_a:
                for c2 in ends_b:
                    if c1 != c2:
                        yield r, c1, c2, _joint(twin, walk, c1, c2)


def flype(tb: TwoBridgeDiagram, i: int, crossing: int | None = None) -> FlypeResult:
    """Flype a crossing of twist region A_i out of the diagram's middle.

    Only 2 <= i <= n-1 is allowed: crossing arcs in the end regions are
    the tunnels and need no flype.  All crossing arcs within one twist
    region are properly homotopic (slide across the bigons), so the chain
    starts at the first crossing c of the region.  Crossings are numbered
    in construction order, so the tail T, every crossing after c, is a
    tangle cut off by four edges.  The first flype carries c across T.
    When every image of the arc has adjacent ends, a joining edge's gear
    class names the crossing arc x it has become, and the second flype
    carries the first such x for which T and c form a flype disk across
    them.  The image is an in-region arc joining two crossings that are not
    adjacent along that region's boundary.  Flypes are isotopies, so the
    meridian pair is preserved, and only the input is checked for
    primeness: a flype image is again prime (the flyping theorem).
    """
    n = len(tb.seq)
    if not (2 <= i <= n - 1):
        raise DiagramError("flype applies to interior twist regions only: the ends are tunnels")
    members = tb.crossings_in(i)
    c = members[0] if crossing is None else crossing
    if c not in members:
        raise DiagramError(f"crossing {c} is not in twist region A_{i}")
    d = tb.diagram
    if not is_prime(d):
        raise DiagramError("non-prime: a flype needs a prime diagram")
    tail = frozenset(range(members[0] + 1, d.n))
    disks = [(members[0], tail)]
    for steps in (1, 2):
        wired = next(filter(None, (_tail_flype(d, x, S) for x, S in disks)), None)
        if wired is None:
            break
        wires, spot = wired
        d = AlternatingDiagram(d.n, wires)
        options = list(_spot_options(d, spot))
        for r, c1, c2, joint in options:
            if not joint:
                arc = InRegionArc(r, c1, c2)
                trace = {"twist_region": i, "crossing": c, "searched_from": members[0], "flype_steps": steps,
                         "image_region": arc.region, "image_endpoints": [arc.c1, arc.c2]}
                return FlypeResult(d, arc, trace)
        disks = [(arc_crossing(d, d._edge[h]), tail | {members[0]})
                 for *_, joint in options for h in joint]
    raise DiagramError(f"no flype chain found for the crossing arc at {members[0]}")


# ---------------------------------------------------------------------------
# Extra generators for test corpora
# ---------------------------------------------------------------------------

def pretzel_diagram(*twists: int) -> AlternatingDiagram:
    """Alternating pretzel diagram with the given positive twist counts.

    Each strip is a vertical stack of crossings; strips are joined
    cyclically left to right.  All counts must be positive, at least
    three strips (or counts summing to something prime-looking) keep the
    result prime; validity is re-checked by the constructor either way.
    """
    if len(twists) < 2 or any(t < 1 for t in twists):
        raise DiagramError("pretzel needs at least two positive twist counts")
    _check_size(sum(twists))
    wires = []
    strips: list[list[int]] = []
    count = 0
    for t in twists:
        strips.append(list(range(count, count + t)))
        count += t
    for strip in strips:
        for a, b in zip(strip, strip[1:]):
            wires += [(4 * a + _SW, 4 * b + _NW), (4 * a + _SE, 4 * b + _NE)]
    k = len(strips)
    for j in range(k):
        nxt = strips[(j + 1) % k]
        wires += [(4 * strips[j][0] + _NE, 4 * nxt[0] + _NW), (4 * strips[j][-1] + _SE, 4 * nxt[-1] + _SW)]
    return AlternatingDiagram(count, wires)

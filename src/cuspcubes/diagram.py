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

from dataclasses import dataclass
from functools import cached_property


class DiagramError(ValueError):
    pass


BLACK = "black"
WHITE = "white"

Slot = tuple[int, int]  # (crossing index, slot 0..3)

MAX_CROSSINGS = 10_000      # a diagram keeps about 2 KB per crossing, 2.7 KB with every view built


def _check_size(n: int) -> None:
    if n > MAX_CROSSINGS:
        raise DiagramError(f"too large: {n} crossings, at most {MAX_CROSSINGS} are accepted")


@dataclass(frozen=True)
class Region:
    """A complementary region of the diagram on the sphere."""

    index: int
    color: str
    boundary: tuple[Slot, ...]          # face walk; entry (c, i) leaves through port i
    edges: frozenset[int]
    crossings: tuple[int, ...]          # crossings along the walk, with multiplicity

    def __len__(self) -> int:
        return len(self.boundary)

    @property
    def distinct_crossings(self) -> frozenset[int]:
        return frozenset(self.crossings)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_slot(h) -> bool:
    """A JSON slot [crossing, position] of two integers."""
    return isinstance(h, list) and len(h) == 2 and all(map(_is_int, h))


def _wire(pairing: dict[Slot, Slot], a: Slot, b: Slot) -> None:
    """Pair slots a and b: the edge between them."""
    pairing[a] = b
    pairing[b] = a


def _face_walk(pairing: dict[Slot, Slot], start: Slot) -> tuple[Slot, ...]:
    """The face through slot `start`, walked by next(h) = rotate(twin(h))."""
    walk = [start]
    c, i = pairing[start]
    h = (c, (i + 1) % 4)
    while h != start:
        walk.append(h)
        c, i = pairing[h]
        h = (c, (i + 1) % 4)
    return tuple(walk)


class AlternatingDiagram:
    """Validated alternating diagram with regions and checkerboard coloring.

    Construction checks, in order: 4-valence and involutive pairing,
    connectivity, sphericity (V - E + F = 2) and alternation, and reports
    the first violated invariant by name.  They run on flat slot ids
    h = 4c + i; int lists keep each slot's twin, edge and region (the
    public `slot_region`) and each face walk.  A region's color is read off
    the parity of its slots; the `Region` records, strands, primeness and
    reducedness are computed on first use.
    """

    def __init__(self, n: int, pairing: dict[Slot, Slot]):
        if n < 1:
            raise DiagramError("malformed: a diagram needs at least one crossing")
        if len(pairing) != 4 * n:        # before any 4n-sized allocation
            raise DiagramError("malformed: every slot must be paired exactly once")
        _check_size(n)
        self.n = n
        slots = [(c, i) for c in range(n) for i in range(4)]
        flat = dict(zip(slots, range(4 * n)))
        # twin[h]: the slot paired with h, -1 for none.  With 4n keys the
        # pairing misses a slot exactly when one of its keys is no slot.
        try:
            twin = [flat.get(pairing[h], -1) for h in slots]
        except KeyError:
            raise DiagramError("malformed: every slot must be paired exactly once") from None
        self.pairing = dict(pairing)

        # an involution without fixed points: 2n slots h < twin[h], the lower
        # slots of the edges, each paired back by its twin
        lower = [h for h, k in enumerate(twin) if h < k]
        if len(lower) != 2 * n or any(twin[twin[h]] != h for h in lower):
            raise DiagramError("malformed: slot pairing must be a fixed-point-free involution")
        edge = [0] * (4 * n)
        for e, h in enumerate(lower):
            edge[h] = edge[twin[h]] = e
        self.edges: list[frozenset[Slot]] = [frozenset((slots[h], slots[twin[h]])) for h in lower]
        self.edge_of_slot: dict[Slot, int] = dict(zip(slots, edge))

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
        self.region_of_slot: dict[Slot, int] = dict(zip(slots, region))
        self.slot_region: list[int] = region         # region_of_slot by slot id 4c + i
        self._twin, self._edge, self._walks = twin, edge, walks

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
        where: dict[int, list[Slot]] = {}
        for c, quad in enumerate(code):
            for i, label in enumerate(quad):
                where.setdefault(label, []).append((c, i))
        pairing: dict[Slot, Slot] = {}
        for label, occ in where.items():
            if len(occ) != 2:
                raise DiagramError(f"malformed: edge label {label!r} appears {len(occ)} times, expected 2")
            _wire(pairing, *occ)
        return AlternatingDiagram(len(code), pairing)

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
            pairing = {}
            for a, b in pairs:
                if tuple(a) in pairing or tuple(b) in pairing:
                    raise DiagramError("malformed: every slot must be paired exactly once")
                _wire(pairing, tuple(a), tuple(b))
            n = 1 + max(c for (c, _i) in pairing)
            return AlternatingDiagram(n, pairing)
        raise DiagramError("malformed: expected a 'pd' or 'rotation' field")

    def to_json(self) -> dict:
        pairs = []
        seen = set()
        for h, k in self.pairing.items():
            if h in seen or k in seen:
                continue
            seen.update((h, k))
            pairs.append([list(h), list(k)])
        return {"rotation": pairs}

    def pd_code(self) -> list[tuple[int, int, int, int]]:
        """Edge-label form of the pairing (labels are edge ids)."""
        return [tuple(self.edge_of_slot[(c, i)] for i in range(4)) for c in range(self.n)]

    # -- invariants ----------------------------------------------------------

    @cached_property
    def regions(self) -> list[Region]:
        """The faces, indexed as in `region_of_slot`.  Alternation makes
        twin(h) flip a slot's parity and rotate flip it back, so a face's
        slots share one parity and the two sides of an edge differ: even
        faces are black, odd ones white, the face of slot (0, 0) black."""
        slots = list(self.region_of_slot)         # its keys are the slots in id order
        return [Region(r, WHITE if walk[0] & 1 else BLACK, tuple(map(slots.__getitem__, walk)),
                       frozenset(map(self._edge.__getitem__, walk)), tuple(slots[h][0] for h in walk))
                for r, walk in enumerate(self._walks)]

    @cached_property
    def strands(self) -> list[list[tuple[int, int]]]:
        """The link components as cycles of passages, (c, 0) under and
        (c, 1) over, each walked from the least passage no earlier strand
        holds: enter slot i, leave through i + 2."""
        seen = set()
        strands = []
        for c0 in range(self.n):
            for i0 in (0, 1):
                if (c0, i0) in seen:
                    continue
                strand = []
                h = (c0, i0)
                while True:
                    c, i = h
                    seen.update({(c, i), (c, (i + 2) % 4)})
                    strand.append((c, i % 2))
                    h = self.pairing[(c, (i + 2) % 4)]
                    if h == (c0, i0):
                        break
                strands.append(strand)
        return strands

    @cached_property
    def strand_of_passage(self) -> dict[tuple[int, int], int]:
        """The index in `strands` of each passage's strand."""
        return {passage: k for k, strand in enumerate(self.strands) for passage in strand}

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

    # -- queries ---------------------------------------------------------

    @property
    def crossing_count(self) -> int:
        return self.n

    def corner_region(self, c: int, k: int) -> Region:
        """Region at the corner of crossing c between ports k and k+1."""
        return self.regions[self.region_of_slot[(c, (k + 1) % 4)]]

    def regions_at_crossing(self, c: int, color: str) -> tuple[Region, Region]:
        """The two same-color corner regions at c, in corner order; the
        coloring is proper, so the corners alternate colors."""
        found = [self.corner_region(c, k) for k in range(4) if self.corner_region(c, k).color == color]
        if found[0].index == found[1].index:
            raise DiagramError("non-prime: the two same-color corners at a crossing coincide")
        return found[0], found[1]

    def edge_endpoints(self, eid: int) -> tuple[int, int]:
        a, b = tuple(self.edges[eid])
        return a[0], b[0]

    def edge_sides(self, eid: int) -> tuple[int, int]:
        """Region indices on the two sides of an edge."""
        a, b = tuple(self.edges[eid])
        return self.region_of_slot[a], self.region_of_slot[b]

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


def region_adjacent(d: AlternatingDiagram, r1: int | Region, r2: int | Region) -> bool:
    """Do two distinct regions share at least one edge of the diagram?"""
    i1 = r1.index if isinstance(r1, Region) else r1
    i2 = r2.index if isinstance(r2, Region) else r2
    if i1 == i2:
        raise DiagramError("region_adjacent needs two distinct regions")
    return bool(d.regions[i1].edges & d.regions[i2].edges)


# ---------------------------------------------------------------------------
# Small regions guaranteed on hyperbolic diagrams
# ---------------------------------------------------------------------------

def find_small_white_region(d: AlternatingDiagram, witness_color: str = WHITE):
    """Locate the small region guaranteed when the opposite color count is 3 or 4.

    With exactly three black regions there is a white bigon whose two
    black neighbors are distinct; with four, a white bigon or trigon with
    all-distinct black neighbors.  Returns (region, 'bigon'|'trigon'),
    or None when five or more black regions make the search unnecessary.
    Fewer than three black regions is the torus-link case and is rejected.
    """
    other = BLACK if witness_color == WHITE else WHITE
    count = sum(1 for R in d.regions if R.color == other)
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
        for R in d.regions:
            if R.color != witness_color or len(R.boundary) != size:
                continue
            nbrs = [d.region_of_slot[d.pairing[h]] for h in R.boundary]
            if len(set(nbrs)) == size:
                return R, kind
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


@dataclass
class TwoBridgeDiagram:
    """Standard alternating diagram of a two-bridge link with twist labels.

    Twist region A_i (1-based) is horizontal for odd i and vertical for
    even i; crossings are numbered in construction order, so the members
    of A_i are consecutive.  Crossing arcs in A_1 and A_n are the upper
    and lower tunnels.
    """

    seq: tuple[int, ...]
    diagram: AlternatingDiagram
    twist_region_of: tuple[int, ...]          # 1-based region index per crossing

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
    pairing: dict[Slot, Slot] = {}
    ends = {"nw": (0, _NW), "ne": (0, _NE), "sw": (0, _SW), "se": (0, _SE)}
    for c in range(1, len(labels)):
        for end, joined, new in _HORIZONTAL if labels[c] % 2 else _VERTICAL:
            _wire(pairing, ends[end], (c, joined))
            ends[end] = (c, new)
    closing = (("nw", "ne"), ("sw", "se")) if len(seq) % 2 else (("nw", "sw"), ("ne", "se"))
    for a, b in closing:
        _wire(pairing, ends[a], ends[b])
    return TwoBridgeDiagram(seq, AlternatingDiagram(len(labels), pairing), labels)


# ---------------------------------------------------------------------------
# Arc specifications (shared with the decision procedure)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossingArc:
    crossing: int


@dataclass(frozen=True)
class InRegionArc:
    region: int
    c1: int
    c2: int

    def __post_init__(self):
        if self.c1 == self.c2:
            raise DiagramError("an in-region arc needs two distinct endpoint crossings")


@dataclass(frozen=True)
class TransverseArc:
    c1: int
    c2: int
    edge_word: tuple[int, ...]

    def __post_init__(self):
        if not self.edge_word:
            raise DiagramError("a transverse arc needs a non-empty edge word; use InRegionArc")


def _joints(pairing: dict[Slot, Slot], walk: tuple[Slot, ...]) -> dict[frozenset[int], list[Slot]]:
    """The walk slots by the crossings their edge joins, which are
    consecutive crossings along the face."""
    joints: dict[frozenset[int], list[Slot]] = {}
    for h in walk:
        joints.setdefault(frozenset((h[0], pairing[h][0])), []).append(h)
    return joints


def crossings_adjacent_on_region(d: AlternatingDiagram, R: Region, c1: int, c2: int) -> bool:
    """Are c1 and c2 joined by an edge of the boundary walk of R?"""
    return frozenset((c1, c2)) in _joints(d.pairing, R.boundary)


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
    return next(c for c, i in d.edges[e] if i % 2)


# ---------------------------------------------------------------------------
# Flype
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlypeResult:
    diagram: AlternatingDiagram
    arc: InRegionArc
    trace: dict


def _mirror(h: Slot, L: set[int]) -> Slot:
    c, i = h
    return (c, 3 - i) if c in L else h


def _tail_flype(d: AlternatingDiagram, c: int, S: frozenset[int]):
    """The flype of d that carries crossing c across the tangle S, as
    (pairing, spot), or None when S is no flype disk at c or the forced
    wiring does not exist.  S is a flype disk at c when c lies outside it
    and S is cut off by four edges, at consecutive ports p, p+1 of c and
    f1 < f2 away from c; a prime diagram has no two-edge cut, so both
    sides of the cut are connected.

    The flype turns S over (`_mirror`) and carries c across it: c's strands
    reconnect across the gap, each to the passing strand on its own side,
    and c re-forms on the far edges f1 and f2.  That wiring is forced.  Each
    far strand runs straight through c, so its two ends take one diagonal;
    alternation picks the diagonal from the parity of the end in S; which
    of the two slots takes that end is a 180-degree relabelling of c, fixed
    here by putting f1's end in S at slot 0; planarity then places f2's end
    in S at slot 1 when p is even and at slot 3 when p is odd.  A flype is
    an isotopy, so nothing is re-checked here; the constructor validates
    the image.  The image of the crossing arc at c runs between the two
    spot edges.
    """
    if c in S:
        return None
    cut = {d.edge_of_slot[(x, i)] for x in S for i in range(4) if d.pairing[(x, i)][0] not in S}
    ports = [i for i in range(4) if d.pairing[(c, i)][0] in S]
    if len(cut) != 4 or ports not in ([0, 1], [1, 2], [2, 3], [0, 3]):
        return None
    p = 3 if ports == [0, 3] else ports[0]
    f_ids = sorted(cut - {d.edge_of_slot[(c, i)] for i in ports})

    def mu(h):
        return _mirror(h, S)

    fS = [mu(next(h for h in d.edges[f] if h[0] in S)) for f in f_ids]
    # f1's strand takes the under-diagonal (c,0)/(c,2) only when its end
    # in S is odd; a disk that needs the over-diagonal has no flype here
    if fS[0][1] % 2 == 0:
        return None
    fR = [next(h for h in d.edges[f] if h[0] not in S) for f in f_ids]
    removed = {d.edge_of_slot[(c, k)] for k in range(4)} | set(f_ids)
    pairing: dict[Slot, Slot] = {}
    for h, k in d.pairing.items():
        mh = mu(h)
        if mh not in pairing and d.edge_of_slot[h] not in removed:
            _wire(pairing, mh, mu(k))
    # a prime diagram has no loop edge, so the edges at ports p+2, p+3
    # lead away from c and lie outside the disk
    spot = [(mu(d.pairing[(c, p)]), d.pairing[(c, (p + 2) % 4)]),
            (mu(d.pairing[(c, (p + 1) % 4)]), d.pairing[(c, (p + 3) % 4)])]
    at1, at3 = (fS[1], fR[1]) if p % 2 == 0 else (fR[1], fS[1])
    far = [(fS[0], (c, 0)), (fR[0], (c, 2)), (at1, (c, 1)), (at3, (c, 3))]
    for h, k in spot + far:
        _wire(pairing, h, k)
    return pairing, spot


def _spot_options(pairing: dict[Slot, Slot], spot):
    """The in-region arcs the image of the crossing arc can be, read off a
    rewiring before it is built: (walk, c1, c2, joint) for the face through
    both spot edges and each pair of distinct ends c1, c2 of the two edges,
    with `joint` the walk slots whose edge joins c1 and c2 (none: not
    adjacent).  The faces through an edge are the walks from its two slots;
    the image is prime, so no two edges share both faces and at most one
    face holds both spot edges.  Ends come in the order the built diagram's
    edge frozenset iterates them.
    """
    a, b = spot[0][0], spot[1][0]
    ends_a, ends_b = ([k[0] for k in frozenset(sorted((h, pairing[h])))] for h in (a, b))
    for walk in (_face_walk(pairing, a), _face_walk(pairing, pairing[a])):
        if b in walk or pairing[b] in walk:
            joints = _joints(pairing, walk)
            for c1 in ends_a:
                for c2 in ends_b:
                    if c1 != c2:
                        yield walk, c1, c2, joints.get(frozenset((c1, c2)), [])


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
        pairing, spot = wired
        options = list(_spot_options(pairing, spot))
        d = AlternatingDiagram(d.n, pairing)
        for walk, c1, c2, joint in options:
            if not joint:
                arc = InRegionArc(d.region_of_slot[walk[0]], c1, c2)
                trace = {"twist_region": i, "crossing": c, "searched_from": members[0], "flype_steps": steps,
                         "image_region": arc.region, "image_endpoints": [arc.c1, arc.c2]}
                return FlypeResult(d, arc, trace)
        disks = [(arc_crossing(d, d.edge_of_slot[h]), tail | {members[0]})
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
    pairing: dict[Slot, Slot] = {}
    strips: list[list[int]] = []
    count = 0
    for t in twists:
        strips.append(list(range(count, count + t)))
        count += t
    for strip in strips:
        for a, b in zip(strip, strip[1:]):
            _wire(pairing, (a, _SW), (b, _NW))
            _wire(pairing, (a, _SE), (b, _NE))
    k = len(strips)
    for j in range(k):
        right_top = (strips[j][0], _NE)
        left_top_next = (strips[(j + 1) % k][0], _NW)
        _wire(pairing, right_top, left_top_next)
        right_bot = (strips[j][-1], _SE)
        left_bot_next = (strips[(j + 1) % k][-1], _SW)
        _wire(pairing, right_bot, left_bot_next)
    return AlternatingDiagram(count, pairing)

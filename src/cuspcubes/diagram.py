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


class DiagramError(ValueError):
    pass


BLACK = "black"
WHITE = "white"

Slot = tuple[int, int]  # (crossing index, slot 0..3)


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


class AlternatingDiagram:
    """Validated alternating diagram with regions and checkerboard coloring.

    Construction checks, in order: 4-valence and involutive pairing,
    connectivity, sphericity (V - E + F = 2), alternation along every
    strand, and properness of the 2-coloring.  The first violated
    invariant is reported by name.
    """

    def __init__(self, n: int, pairing: dict[Slot, Slot]):
        if n < 1:
            raise DiagramError("malformed: a diagram needs at least one crossing")
        if len(pairing) != 4 * n:        # before any 4n-sized allocation
            raise DiagramError("malformed: every slot must be paired exactly once")
        self.n = n
        slots = [(c, i) for c in range(n) for i in range(4)]
        if set(pairing) != set(slots):
            raise DiagramError("malformed: every slot must be paired exactly once")
        for h, k in pairing.items():
            if pairing.get(k) != h or k == h:
                raise DiagramError("malformed: slot pairing must be a fixed-point-free involution")
        self.pairing = dict(pairing)

        # edges, with ids
        self.edges: list[frozenset[Slot]] = []
        self.edge_of_slot: dict[Slot, int] = {}
        for h in slots:
            if h in self.edge_of_slot:
                continue
            eid = len(self.edges)
            self.edges.append(frozenset((h, self.pairing[h])))
            self.edge_of_slot[h] = eid
            self.edge_of_slot[self.pairing[h]] = eid

        self._check_connected()
        self._build_regions()
        if len(self._walks) != self.n + 2:
            raise DiagramError(
                f"non-planar: {self.n} crossings with {len(self._walks)} regions "
                f"(expected {self.n + 2} on the sphere)"
            )
        self._check_alternating()
        self._color_regions()

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_pd(code) -> "AlternatingDiagram":
        """Build from a PD code: one 4-tuple of edge labels per crossing.

        Labels are listed counterclockwise starting at the incoming
        under-strand, and each label occurs exactly twice overall.
        """
        code = [tuple(x) for x in code]
        if not code:
            raise DiagramError("malformed: empty PD code")
        if any(len(x) != 4 for x in code):
            raise DiagramError("malformed: every PD entry needs four edge labels")
        where: dict[object, list[Slot]] = {}
        for c, quad in enumerate(code):
            for i, label in enumerate(quad):
                where.setdefault(label, []).append((c, i))
        pairing: dict[Slot, Slot] = {}
        for label, occ in where.items():
            if len(occ) != 2:
                raise DiagramError(f"malformed: edge label {label!r} appears {len(occ)} times, expected 2")
            a, b = occ
            pairing[a] = b
            pairing[b] = a
        return AlternatingDiagram(len(code), pairing)

    @staticmethod
    def from_json(obj) -> "AlternatingDiagram":
        """Accept {"pd": [[..4 labels..], ...]} or {"rotation": [[slot pairs]]}."""
        if "pd" in obj:
            return AlternatingDiagram.from_pd(obj["pd"])
        if "rotation" in obj:
            pairing = {}
            for a, b in obj["rotation"]:
                ha, hb = (int(a[0]), int(a[1])), (int(b[0]), int(b[1]))
                pairing[ha] = hb
                pairing[hb] = ha
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

    def _check_connected(self) -> None:
        seen = {0}
        stack = [0]
        while stack:
            c = stack.pop()
            for i in range(4):
                c2 = self.pairing[(c, i)][0]
                if c2 not in seen:
                    seen.add(c2)
                    stack.append(c2)
        if len(seen) != self.n:
            raise DiagramError("disconnected: the diagram graph must be connected")

    def _build_regions(self) -> None:
        def nxt(h: Slot) -> Slot:
            c, i = self.pairing[h]
            return (c, (i + 1) % 4)

        walks: list[tuple[Slot, ...]] = []
        self.region_of_slot: dict[Slot, int] = {}
        for start in [(c, i) for c in range(self.n) for i in range(4)]:
            if start in self.region_of_slot:
                continue
            walk = []
            h = start
            while True:
                self.region_of_slot[h] = len(walks)
                walk.append(h)
                h = nxt(h)
                if h == start:
                    break
            walks.append(tuple(walk))
        self._walks = walks

    def _check_alternating(self) -> None:
        # strand passages: entering slot i, leaving through i+2
        seen = set()
        self.strand_of_passage: dict[tuple[int, int], int] = {}
        self.strands: list[list[tuple[int, int]]] = []
        for c0 in range(self.n):
            for i0 in (0, 1):
                if (c0, i0) in seen:
                    continue
                strand = []
                h = (c0, i0)
                while True:
                    c, i = h
                    passage = (c, i % 2)   # 0 = under diagonal, 1 = over
                    seen.update({(c, i), (c, (i + 2) % 4)})
                    strand.append(passage)
                    self.strand_of_passage[passage] = len(self.strands)
                    h = self.pairing[(c, (i + 2) % 4)]
                    if h == (c0, i0):
                        break
                self.strands.append(strand)
        for strand in self.strands:
            kinds = [i for (_c, i) in strand]
            for a, b in zip(kinds, kinds[1:] + kinds[:1]):
                if a == b:
                    raise DiagramError("non-alternating: consecutive passages on a strand agree")

    def _color_regions(self) -> None:
        colors: dict[int, str] = {self.region_of_slot[(0, 0)]: BLACK}
        stack = [self.region_of_slot[(0, 0)]]
        adj: dict[int, set[int]] = {i: set() for i in range(len(self._walks))}
        for h in self.pairing:
            adj[self.region_of_slot[h]].add(self.region_of_slot[self.pairing[h]])
        while stack:
            f = stack.pop()
            for g in adj[f]:
                want = WHITE if colors[f] == BLACK else BLACK
                if g not in colors:
                    colors[g] = want
                    stack.append(g)
                elif colors[g] != want:
                    raise DiagramError("coloring: the checkerboard 2-coloring is not proper")
        self.regions: list[Region] = []
        for idx, walk in enumerate(self._walks):
            self.regions.append(Region(
                index=idx,
                color=colors[idx],
                boundary=walk,
                edges=frozenset(self.edge_of_slot[h] for h in walk),
                crossings=tuple(c for (c, _i) in walk),
            ))

    # -- queries ---------------------------------------------------------

    @property
    def crossing_count(self) -> int:
        return self.n

    def region(self, index: int) -> Region:
        return self.regions[index]

    def corner_region(self, c: int, k: int) -> Region:
        """Region at the corner of crossing c between ports k and k+1."""
        return self.regions[self.region_of_slot[(c, (k + 1) % 4)]]

    def corner_regions(self, c: int) -> tuple[Region, Region, Region, Region]:
        return tuple(self.corner_region(c, k) for k in range(4))

    def regions_at_crossing(self, c: int, color: str) -> tuple[Region, Region]:
        """The two same-color corner regions at c, in corner order."""
        found = [self.corner_region(c, k) for k in range(4) if self.corner_region(c, k).color == color]
        if len(found) != 2:
            raise DiagramError("coloring: corners of a crossing must alternate colors")
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

    def passage_type(self, c: int, i: int) -> str:
        """'under' for slots 0/2, 'over' for 1/3."""
        return "under" if i % 2 == 0 else "over"

    def black_regions(self) -> list[Region]:
        return [R for R in self.regions if R.color == BLACK]

    def white_regions(self) -> list[Region]:
        return [R for R in self.regions if R.color == WHITE]

    def region_report(self) -> dict:
        """Region and coloring summary for machine consumption."""
        return {
            "crossings": self.n,
            "black_count": sum(1 for R in self.regions if R.color == BLACK),
            "white_count": sum(1 for R in self.regions if R.color == WHITE),
            "regions": [
                {"index": R.index, "color": R.color, "size": len(R),
                 "crossings": list(R.crossings), "edges": sorted(R.edges)}
                for R in self.regions
            ],
        }

    def __repr__(self) -> str:
        return f"AlternatingDiagram({self.n} crossings, {len(self.regions)} regions)"


# ---------------------------------------------------------------------------
# Primeness and reducedness
# ---------------------------------------------------------------------------

def is_prime(d: AlternatingDiagram) -> bool:
    """No simple loop meets the diagram twice with crossings on both sides.

    Equivalent combinatorial form: at least one crossing, and no two
    distinct edges share the same unordered pair of side regions (such a
    pair supports the splitting loop, and both sides then contain a
    crossing because the cut edge-pieces end at crossings).
    """
    if d.n < 1:
        return False
    seen: dict[frozenset[int] | tuple, int] = {}
    for eid in range(len(d.edges)):
        a, b = d.edge_sides(eid)
        key = (min(a, b), max(a, b))
        if key in seen:
            return False
        seen[key] = eid
    return True


def is_reduced(d: AlternatingDiagram) -> bool:
    """No nugatory crossings: no crossing occurs twice on one region boundary."""
    for R in d.regions:
        if len(set(R.crossings)) != len(R.crossings):
            return False
    return True


def region_adjacent(d: AlternatingDiagram, r1: int | Region, r2: int | Region) -> bool:
    """Do two distinct regions share at least one edge of the diagram?"""
    i1 = r1.index if isinstance(r1, Region) else r1
    i2 = r2.index if isinstance(r2, Region) else r2
    if i1 == i2:
        raise DiagramError("region_adjacent needs two distinct regions")
    return bool(d.regions[i1].edges & d.regions[i2].edges)


# ---------------------------------------------------------------------------
# Dual graphs
# ---------------------------------------------------------------------------

@dataclass
class DualGraph:
    """Multigraph on the regions of one color; one edge per crossing."""

    color: str
    vertices: list[int]                    # region indices
    edges: list[tuple[int, int, int]]      # (region, region, crossing)

    def degree(self, v: int) -> int:
        return sum((a == v) + (b == v) for a, b, _c in self.edges)

    def to_dot(self) -> str:
        lines = ["graph dual {"]
        for v in self.vertices:
            lines.append(f'  r{v} [label="R{v}"];')
        for a, b, c in self.edges:
            lines.append(f'  r{a} -- r{b} [label="c{c}"];')
        lines.append("}")
        return "\n".join(lines)


def _bridges(vertices: list[int], edges: list[tuple[int, int, int]]) -> list[int]:
    """Indices of cut edges of a multigraph (parallel edges are never bridges)."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in vertices}
    for idx, (a, b, _c) in enumerate(edges):
        adj[a].append((b, idx))
        adj[b].append((a, idx))
    low: dict[int, int] = {}
    disc: dict[int, int] = {}
    out: list[int] = []
    counter = [0]

    def dfs(root: int) -> None:
        stack = [(root, -1, iter(adj[root]))]
        disc[root] = low[root] = counter[0]
        counter[0] += 1
        while stack:
            v, pe, it = stack[-1]
            advanced = False
            for w, idx in it:
                if idx == pe:
                    continue
                if w not in disc:
                    disc[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append((w, idx, iter(adj[w])))
                    advanced = True
                    break
                low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] > disc[u]:
                        out.append(pe)

    for v in vertices:
        if v not in disc:
            dfs(v)
    return out


def black_dual_graph(d: AlternatingDiagram, color: str = BLACK) -> DualGraph:
    """Graph whose vertices are the regions of one color, one edge per crossing.

    Asserts the structure forced by primeness: connected, no loop edge,
    no cut edge.  Violations surface as diagnostics naming the defect.
    """
    verts = [R.index for R in d.regions if R.color == color]
    edges = []
    for c in range(d.n):
        r1, r2 = d.regions_at_crossing(c, color)
        if r1.index == r2.index:
            raise DiagramError(f"dual graph has a loop edge at crossing {c}: non-prime input")
        edges.append((r1.index, r2.index, c))
    g = DualGraph(color, verts, edges)
    reach = {verts[0]}
    stack = [verts[0]]
    adj: dict[int, set[int]] = {v: set() for v in verts}
    for a, b, _c in edges:
        adj[a].add(b)
        adj[b].add(a)
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in reach:
                reach.add(w)
                stack.append(w)
    if len(reach) != len(verts):
        raise DiagramError("dual graph disconnected: non-prime or malformed input")
    cut = _bridges(verts, edges)
    if cut:
        raise DiagramError(f"dual graph has a cut edge at crossing {edges[cut[0]][2]}: non-prime input")
    return g


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

@dataclass(frozen=True)
class TwistSequence:
    """Positive twist counts (a1, ..., an) with n >= 2 and a1, an >= 2."""

    a: tuple[int, ...]

    def __post_init__(self):
        a = self.a
        if len(a) < 2:
            raise DiagramError("twist sequence needs at least two twist regions")
        if any(x < 1 for x in a):
            raise DiagramError("twist counts must be positive")
        if a[0] < 2 or a[-1] < 2:
            raise DiagramError("first and last twist counts must be at least 2")

    def __len__(self) -> int:
        return len(self.a)

    @property
    def crossing_count(self) -> int:
        return sum(self.a)


@dataclass
class TwoBridgeDiagram:
    """Standard alternating diagram of a two-bridge link with twist labels.

    Twist region A_i (1-based) is horizontal for odd i and vertical for
    even i; crossings are numbered in construction order, so the members
    of A_i are consecutive.  Crossing arcs in A_1 and A_n are the upper
    and lower tunnels.
    """

    seq: TwistSequence
    diagram: AlternatingDiagram
    twist_region_of: tuple[int, ...]          # 1-based region index per crossing

    @property
    def n_regions(self) -> int:
        return len(self.seq)

    def crossings_in(self, i: int) -> list[int]:
        return [c for c, r in enumerate(self.twist_region_of) if r == i]


# Crossing slot convention for the builder: slots (0,1,2,3) sit at the
# compass ports (SW, SE, NE, NW); the under-strand is the SW-NE diagonal.
_SW, _SE, _NE, _NW = 0, 1, 2, 3


class _TangleBuilder:
    def __init__(self):
        self.pairing: dict[Slot, Slot] = {}
        self.count = 0
        # initial 0-tangle: two horizontal strands nw-ne and sw-se
        self.stubs: dict[str, object] = {
            "nw": ("stub", "ne"), "ne": ("stub", "nw"),
            "sw": ("stub", "se"), "se": ("stub", "sw"),
        }

    def _wire(self, a: Slot, b: Slot) -> None:
        self.pairing[a] = b
        self.pairing[b] = a

    def _consume(self, name: str, port: Slot) -> None:
        held = self.stubs[name]
        if held[0] == "port":
            self._wire(held[1], port)
        else:
            self.stubs[held[1]] = ("port", port)
        self.stubs[name] = None

    def add_horizontal(self) -> int:
        c = self.count
        self.count += 1
        self._consume("ne", (c, _NW))
        self._consume("se", (c, _SW))
        self.stubs["ne"] = ("port", (c, _NE))
        self.stubs["se"] = ("port", (c, _SE))
        return c

    def add_vertical(self) -> int:
        c = self.count
        self.count += 1
        self._consume("sw", (c, _NW))
        self._consume("se", (c, _NE))
        self.stubs["sw"] = ("port", (c, _SW))
        self.stubs["se"] = ("port", (c, _SE))
        return c

    def close(self, pairs=(("nw", "ne"), ("sw", "se"))) -> dict[Slot, Slot]:
        for pair in pairs:
            a, b = pair
            ha, hb = self.stubs[a], self.stubs[b]
            if ha[0] == "port" and hb[0] == "port":
                self._wire(ha[1], hb[1])
            elif ha[0] == "stub" and hb[0] == "stub" and ha[1] == b:
                raise DiagramError("degenerate closure: crossingless component")
            else:
                port_side = ha if ha[0] == "port" else hb
                stub_side = hb if ha[0] == "port" else ha
                other = self.stubs[stub_side[1]]
                self._wire(port_side[1], other[1])
            self.stubs[a] = self.stubs[b] = None
        return self.pairing


def two_bridge_diagram(seq: TwistSequence | tuple[int, ...]) -> TwoBridgeDiagram:
    """Build the standard prime alternating diagram for a twist sequence.

    Twist blocks alternate east-going and south-going; the closure joins
    the loose ends so that no block's two output ports meet directly
    (top/bottom bridges when the last block is horizontal, side bridges
    when it is vertical, matching the two drawn forms of the family).
    """
    if not isinstance(seq, TwistSequence):
        seq = TwistSequence(tuple(seq))
    b = _TangleBuilder()
    labels: list[int] = []
    for i, a_i in enumerate(seq.a, start=1):
        for _ in range(a_i):
            if i % 2 == 1:
                b.add_horizontal()
            else:
                b.add_vertical()
            labels.append(i)
    if len(seq) % 2 == 1:
        pairing = b.close((("nw", "ne"), ("sw", "se")))
    else:
        pairing = b.close((("nw", "sw"), ("ne", "se")))
    d = AlternatingDiagram(seq.crossing_count, pairing)
    return TwoBridgeDiagram(seq, d, tuple(labels))


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


ArcSpec = CrossingArc | InRegionArc | TransverseArc


def crossings_adjacent_on_region(d: AlternatingDiagram, R: Region, c1: int, c2: int) -> bool:
    """Are c1 and c2 joined by an edge of the boundary walk of R?"""
    walk = R.boundary
    m = len(walk)
    for j in range(m):
        a = walk[j][0]
        b = walk[(j + 1) % m][0]
        if {a, b} == {c1, c2}:
            return True
    return False


# ---------------------------------------------------------------------------
# Gear edge classes and diagram invariants
# ---------------------------------------------------------------------------

class _UnionFind:
    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def classes(self) -> dict:
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


def edge_arc_classes(d: AlternatingDiagram, mirror: bool = False) -> list[tuple[list[tuple[int, int]], int]]:
    """Partition of signed edges (sign, edge id) under the gear identifications.

    Each region's boundary cycle in one copy of the diagram sphere is glued
    to the other copy rotated by one edge, clockwise on black regions and
    anticlockwise on white ones (the mirror flag flips both).  The classes
    are each of size four (two per copy) and correspond bijectively to the
    crossings; the crossing of a class is returned with it.
    """
    uf = _UnionFind()
    for s in (1, -1):
        for e in range(len(d.edges)):
            uf.add((s, e))
    for R in d.regions:
        walk = [d.edge_of_slot[h] for h in R.boundary]
        m = len(walk)
        shift = 1 if (R.color == BLACK) != mirror else -1
        for j in range(m):
            uf.union((1, walk[j]), (-1, walk[(j + shift) % m]))
    out = []
    for members in uf.classes().values():
        ends = [set(d.edge_endpoints(e)) for _s, e in members]
        common = set.intersection(*ends)

        def pos_ports(cand: int) -> tuple[int, ...]:
            ports = []
            for s, e in members:
                if s != 1:
                    continue
                ports.extend(i for (x, i) in d.edges[e] if x == cand)
            return tuple(sorted(ports))

        # the positive-copy edges of a class sit at the over-strand ports of
        # its crossing (under-ports when the mirror convention is in force)
        want = (0, 2) if mirror else (1, 3)
        chosen = [cand for cand in common if pos_ports(cand) == want]
        if len(chosen) != 1:
            raise DiagramError("gear class has no unambiguous crossing")
        out.append((members, chosen[0]))
    return out


def alternating_determinant(d: AlternatingDiagram) -> int:
    """Spanning-tree count of the black checkerboard graph.

    For an alternating diagram this is the link determinant, so it is
    invariant under flypes; it guards the flype search against rewirings
    that change the underlying link.
    """
    g = black_dual_graph(d)
    verts = g.vertices
    if len(verts) == 1:
        return 1
    idx = {v: i for i, v in enumerate(verts)}
    m = len(verts) - 1
    lap = [[0] * (m + 1) for _ in range(m + 1)]
    for a, b, _c in g.edges:
        ia, ib = idx[a], idx[b]
        lap[ia][ia] += 1
        lap[ib][ib] += 1
        lap[ia][ib] -= 1
        lap[ib][ia] -= 1
    from fractions import Fraction
    mat = [[Fraction(lap[i][j]) for j in range(m)] for i in range(m)]
    det = Fraction(1)
    for col in range(m):
        piv = None
        for row in range(col, m):
            if mat[row][col] != 0:
                piv = row
                break
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for row in range(col + 1, m):
            f = mat[row][col] * inv
            if f:
                for j in range(col, m):
                    mat[row][j] -= f * mat[col][j]
    assert det.denominator == 1
    return abs(int(det))


# ---------------------------------------------------------------------------
# Flype
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlypeResult:
    diagram: AlternatingDiagram
    arc: InRegionArc
    trace: dict


def _mirror(h: Slot | None, L: set[int]):
    if h is None:
        return None
    c, i = h
    return (c, 3 - i) if c in L else h


def _flype_disks(d: AlternatingDiagram, c: int) -> list[tuple[frozenset[int], int, tuple[int, int]]]:
    """Flype disks at c as (S, p, (f1, f2)): S is cut off by exactly four
    edges, the edges at the consecutive ports p, p+1 of c (c not in S) and
    the edges f1 < f2 away from c.

    The list is ordered by (len(S), sorted(S)), the order in which a search
    over all subsets of the other crossings, smallest first, meets them.
    """
    ends = [d.edge_endpoints(e) for e in range(len(d.edges))]
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(d.n)]
    for e, (a, b) in enumerate(ends):
        nbrs[a].append((e, b))
        nbrs[b].append((e, a))

    def side(start: int, cut: set[int]) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for e, y in nbrs[x]:
                if e not in cut and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    found: dict[frozenset[int], tuple[int, tuple[int, int]]] = {}
    for p in range(4):
        e1, e2 = d.edge_of_slot[(c, p)], d.edge_of_slot[(c, (p + 1) % 4)]
        # e1 separates Ra from the corner region R0 of ports p, p+1; e2
        # separates R0 from Rb.  The disk boundary runs R0, Ra, Rx, Rb.
        ra = d.regions[d.region_of_slot[(c, p)]].edges
        rb = d.regions[d.region_of_slot[(c, (p + 2) % 4)]].edges
        start = d.pairing[(c, p)][0]
        for Rx in d.regions:
            for f1 in ra & Rx.edges:
                if c in ends[f1]:
                    continue
                for f2 in Rx.edges & rb:
                    if c in ends[f2]:
                        continue
                    cut = {e1, e2, f1, f2}
                    S = side(start, cut)
                    if c not in S and all((ends[e][0] in S) != (ends[e][1] in S) for e in cut):
                        found.setdefault(frozenset(S), (p, (min(f1, f2), max(f1, f2))))
    return [(S, p, f) for S, (p, f) in sorted(found.items(), key=lambda item: (len(item[0]), sorted(item[0])))]


def _pinch_flypes(d: AlternatingDiagram, c: int):
    """All single flypes of d whose pinch destroys crossing c.

    A flype disk is a set S of crossings whose boundary cuts exactly four
    edges, two of them the edges e1, e2 joining c to S through cyclically
    consecutive ports p, p+1 of c.  Rotating the disk uncrosses c (its
    strands reconnect across the gap, each to the passing strand on its own
    side) and re-crosses the two far strands, where the crossing re-forms;
    the far wiring is fixed by requiring a valid alternating diagram with
    the same spanning-tree determinant and strand count as d.  Yields
    (diagram, spot edge ports) pairs; the image of the crossing arc at c
    runs between the two spot edges.

    The disks come from region 4-cycles.  In a prime diagram no set of
    crossings is cut off by two edges (those two would share both side
    regions), so both sides of a four-edge cut are connected: the cut is a
    bond of the diagram graph, hence a 4-cycle of regions in the dual.
    That cycle passes the corner region R0 of ports p, p+1 between e1 and
    e2, so it reads R0, Ra, Rx, Rb with Ra and Rb the far sides of e1 and
    e2; the two remaining cut edges f1, f2 separate Ra from Rx and Rx from
    Rb.  For every region Rx and every such f1, f2 not at c, S is the side
    of e1's far end once e1, e2, f1, f2 are removed; it is kept when c lies
    outside it and all four edges cross its boundary.  This lists every
    disk with O(n) work per region, and sorting by (size, sorted members)
    keeps the order of the smallest-first search over all subsets that it
    replaces, so the yielded sequence is the same.
    """
    if not is_prime(d):
        raise DiagramError("non-prime: the flype search needs a prime diagram")
    n = d.n
    det0 = alternating_determinant(d)
    strands0 = len(d.strands)
    for S, p, f_ids in _flype_disks(d, c):
        att1 = d.pairing[(c, p)]
        att2 = d.pairing[(c, (p + 1) % 4)]
        # a prime diagram has no loop edge, so the edges at ports p+2, p+3
        # lead away from c and lie outside the disk
        g1_far = d.pairing[(c, (p + 2) % 4)]
        g2_far = d.pairing[(c, (p + 3) % 4)]
        fS = [next(h for h in d.edges[f] if h[0] in S) for f in f_ids]
        fR = [next(h for h in d.edges[f] if h[0] not in S) for f in f_ids]

        def mu(h):
            return _mirror(h, S)

        removed = {d.edge_of_slot[(c, k)] for k in range(4)} | set(f_ids)
        base = []
        seen: set[Slot] = set()
        for h, k in d.pairing.items():
            if h in seen:
                continue
            seen.update((h, k))
            if d.edge_of_slot[h] in removed:
                continue
            base.append((mu(h), mu(k)))
        # uncrossing: each strand entering the disk reconnects to the
        # outgoing strand on its own side of the destroyed crossing
        spot = [(mu(att1), g1_far), (mu(att2), g2_far)]
        for f1 in (0, 1):
            for f2 in (0, 1):
                a1, a2 = ((c, 0), (c, 2)) if not f1 else ((c, 2), (c, 0))
                b1, b2 = ((c, 1), (c, 3)) if not f2 else ((c, 3), (c, 1))
                for assoc in (0, 1):
                    if assoc:
                        far = [(mu(fS[0]), a1), (fR[0], a2), (mu(fS[1]), b1), (fR[1], b2)]
                    else:
                        far = [(mu(fS[0]), a1), (fR[0], a2), (fR[1], b1), (mu(fS[1]), b2)]
                    trial = base + spot + far
                    pairing: dict[Slot, Slot] = {}
                    ok = True
                    for h, k in trial:
                        if h in pairing or k in pairing or h == k:
                            ok = False
                            break
                        pairing[h] = k
                        pairing[k] = h
                    if not ok or len(pairing) != 4 * n:
                        continue
                    try:
                        d2 = AlternatingDiagram(n, pairing)
                    except DiagramError:
                        continue
                    if len(d2.strands) != strands0 or not is_prime(d2) or not is_reduced(d2):
                        continue
                    if alternating_determinant(d2) != det0:
                        continue
                    yield d2, spot


def _spot_options(d2: AlternatingDiagram, spot):
    ea = d2.edge_of_slot[spot[0][0]]
    eb = d2.edge_of_slot[spot[1][0]]
    nonadj, adj = [], []
    for R in d2.regions:
        if ea in R.edges and eb in R.edges:
            for c1 in [h[0] for h in d2.edges[ea]]:
                for c2 in [h[0] for h in d2.edges[eb]]:
                    if c1 != c2 and c1 in R.distinct_crossings and c2 in R.distinct_crossings:
                        if crossings_adjacent_on_region(d2, R, c1, c2):
                            adj.append((R, c1, c2))
                        else:
                            nonadj.append((R, c1, c2))
    return nonadj, adj


def _diagram_key(d: AlternatingDiagram):
    return frozenset(frozenset(e) for e in d.edges)


def flype_arc_search(d: AlternatingDiagram, c: int, max_depth: int = 5):
    """Carry the crossing arc at c through flypes until its image is an
    in-region arc with endpoints not adjacent along the region boundary.

    Each flype is an ambient isotopy, so the meridian pair is preserved at
    every step.  When a step leaves the image adjacent along an edge, that
    edge's gear class names the crossing arc the image has become, and the
    search continues from there.  Returns (diagram, arc, steps).
    """
    start = (_diagram_key(d), c)
    visited = {start}
    queue = [(d, c, 0)]
    while queue:
        cur, cc, depth = queue.pop(0)
        if depth >= max_depth:
            continue
        followups = []
        for d2, spot in _pinch_flypes(cur, cc):
            nonadj, adj = _spot_options(d2, spot)
            if nonadj:
                R, c1, c2 = nonadj[0]
                return d2, InRegionArc(R.index, c1, c2), depth + 1
            followups.append((d2, adj))
        for d2, adj in followups:
            if not adj:
                continue
            # positive-copy edge -> crossing of its gear class
            gear = {e: x for members, x in edge_arc_classes(d2) for s, e in members if s == 1}
            for R, c1, c2 in adj:
                shared = [e for e in R.edges
                          if {h[0] for h in d2.edges[e]} == {c1, c2}]
                for e in shared:
                    kappa = gear[e]
                    key = (_diagram_key(d2), kappa)
                    if key not in visited:
                        visited.add(key)
                        queue.append((d2, kappa, depth + 1))
    raise DiagramError(f"no flype chain found for the crossing arc at {c}")


def flype(tb: TwoBridgeDiagram, i: int, crossing: int | None = None) -> FlypeResult:
    """Flype a crossing of twist region A_i out of the diagram's middle.

    Only 2 <= i <= n-1 is allowed: crossing arcs in the end regions are
    the tunnels and need no flype.  All crossing arcs within one twist
    region are properly homotopic (slide across the bigons), so the search
    runs from the first crossing of the region.  Since diagrams live on
    the sphere, no preliminary re-drawing distinguishes the two parities
    of i; blocks needing it are handled by chaining flypes.  The image is
    an in-region arc joining two crossings that are not adjacent along
    that region's boundary.
    """
    n = len(tb.seq)
    if not (2 <= i <= n - 1):
        raise DiagramError("flype applies to interior twist regions only: the ends are tunnels")
    members = tb.crossings_in(i)
    c = members[0] if crossing is None else crossing
    if c not in members:
        raise DiagramError(f"crossing {c} is not in twist region A_{i}")
    d2, arc, steps = flype_arc_search(tb.diagram, members[0])
    trace = {
        "twist_region": i,
        "crossing": c,
        "searched_from": members[0],
        "flype_steps": steps,
        "image_region": arc.region,
        "image_endpoints": [arc.c1, arc.c2],
    }
    return FlypeResult(d2, arc, trace)


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
    pairing: dict[Slot, Slot] = {}

    def wire(a: Slot, b: Slot) -> None:
        pairing[a] = b
        pairing[b] = a

    strips: list[list[int]] = []
    count = 0
    for t in twists:
        strips.append(list(range(count, count + t)))
        count += t
    for strip in strips:
        for a, b in zip(strip, strip[1:]):
            wire((a, _SW), (b, _NW))
            wire((a, _SE), (b, _NE))
    k = len(strips)
    for j in range(k):
        right_top = (strips[j][0], _NE)
        left_top_next = (strips[(j + 1) % k][0], _NW)
        wire(right_top, left_top_next)
        right_bot = (strips[j][-1], _SE)
        left_bot_next = (strips[(j + 1) % k][-1], _SW)
        wire(right_bot, left_bot_next)
    return AlternatingDiagram(count, pairing)

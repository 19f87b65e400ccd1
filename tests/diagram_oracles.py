"""Oracles for the diagram layer, read only by the tests.

`walked_diagram` is the definition of what the constructor of
`cuspcubes.diagram.AlternatingDiagram` builds from a slot pairing: it
checks the invariants in their order, walks every strand for alternation,
walks the faces by next(h) = rotate(twin(h)) from their least slot, colors
them by a depth-first 2-coloring of the region adjacency graph, and reads
primeness and reducedness off the faces.  `read_off` reads the same off a
diagram, and `wires_of` turns a pairing dict into the wire list the
constructor takes.

`Walked` answers the region queries from the walked faces and colors: the
region at a corner, the two same-color regions at a crossing, the edges of
a region, adjacency of two regions and the small region of a color.

`_flype_disks` lists every flype disk at a crossing from the region
4-cycles.  It is the disk list of the eager flype search in the tests,
which builds every trial rewiring across each disk and is the reference
for the forced rewiring of `cuspcubes.diagram.flype`.
"""

from cuspcubes.diagram import BLACK, WHITE, AlternatingDiagram, DiagramError, _check_size


def wires_of(pairing):
    """The wire list of a pairing dict of tuple slots (c, i), fixed points
    included: (4c + i, 4c' + i') for each key not yet wired and its value,
    in the dict's order."""
    seen, wires = set(), []
    for h, k in pairing.items():
        if h not in seen:
            seen.update((h, k))
            wires.append((4 * h[0] + h[1], 4 * k[0] + k[1]))
    return wires


def edge_of_slot(d):
    """Edge id by tuple slot (c, i)."""
    return {divmod(h, 4): e for h, e in enumerate(d._edge)}


def _face_walk(pairing, start):
    """The face through slot `start`, walked by next(h) = rotate(twin(h))."""
    walk = [start]
    c, i = pairing[start]
    h = (c, (i + 1) % 4)
    while h != start:
        walk.append(h)
        c, i = pairing[h]
        h = (c, (i + 1) % 4)
    return tuple(walk)


def walked_strands(n, pairing):
    """Each strand a cycle of passages (c, i % 2), entering slot i and
    leaving through i + 2, walked from the least passage no earlier strand
    holds."""
    seen, strands = set(), []
    for c0 in range(n):
        for i0 in (0, 1):
            if (c0, i0) in seen:
                continue
            strand, h = [], (c0, i0)
            while True:
                c, i = h
                seen.update({(c, i), (c, (i + 2) % 4)})
                strand.append((c, i % 2))
                h = pairing[(c, (i + 2) % 4)]
                if h == (c0, i0):
                    break
            strands.append(strand)
    return strands


def dfs_colors(pairing, region_of_slot, count):
    """Region colors by 2-coloring the region adjacency graph from the
    region of slot (0, 0), which is black."""
    adj = {r: set() for r in range(count)}
    for h, k in pairing.items():
        adj[region_of_slot[h]].add(region_of_slot[k])
    colors = {region_of_slot[(0, 0)]: BLACK}
    stack = [region_of_slot[(0, 0)]]
    while stack:
        f = stack.pop()
        want = WHITE if colors[f] == BLACK else BLACK
        for g in adj[f]:
            if g not in colors:
                colors[g] = want
                stack.append(g)
            elif colors[g] != want:
                raise DiagramError("coloring: the checkerboard 2-coloring is not proper")
    return [colors[r] for r in range(count)]


def walked_diagram(n, pairing):
    """(region colors, strands, faces, edges, prime, reduced) of the diagram, or DiagramError naming the first violated
    invariant among: malformed pairing, size, connectivity, sphericity,
    alternation along every strand and properness of the coloring.  Faces
    are walked from their least slot, edges listed by their lesser slot; the
    diagram is prime when no two edges have the same two regions on their
    sides, and reduced when no crossing occurs twice on one face."""
    if n < 1:
        raise DiagramError("malformed: a diagram needs at least one crossing")
    if len(pairing) != 4 * n:
        raise DiagramError("malformed: every slot must be paired exactly once")
    _check_size(n)
    slots = [(c, i) for c in range(n) for i in range(4)]
    if set(pairing) != set(slots):
        raise DiagramError("malformed: every slot must be paired exactly once")
    for h, k in pairing.items():
        if pairing.get(k) != h or k == h:
            raise DiagramError("malformed: slot pairing must be a fixed-point-free involution")
    seen, stack = {0}, [0]
    while stack:
        c = stack.pop()
        for i in range(4):
            c2 = pairing[(c, i)][0]
            if c2 not in seen:
                seen.add(c2)
                stack.append(c2)
    if len(seen) != n:
        raise DiagramError("disconnected: the diagram graph must be connected")
    region_of_slot, faces = {}, []
    for start in slots:
        if start not in region_of_slot:
            faces.append(_face_walk(pairing, start))
            for h in faces[-1]:
                region_of_slot[h] = len(faces) - 1
    if len(faces) != n + 2:
        raise DiagramError(f"non-planar: {n} crossings with {len(faces)} regions "
                           f"(expected {n + 2} on the sphere)")
    strands = walked_strands(n, pairing)
    for strand in strands:
        kinds = [i for _c, i in strand]
        if any(a == b for a, b in zip(kinds, kinds[1:] + kinds[:1])):
            raise DiagramError("non-alternating: consecutive passages on a strand agree")
    edges = [frozenset((h, pairing[h])) for h in slots if h < pairing[h]]
    sides = {frozenset(region_of_slot[h] for h in e) for e in edges}
    prime = len(sides) == len(edges)
    reduced = all(len({c for c, _i in face}) == len(face) for face in faces)
    return dfs_colors(pairing, region_of_slot, len(faces)), strands, faces, edges, prime, reduced


def read_off(d):
    """d's region colors, strands, faces, edges, primeness and reducedness,
    the form `walked_diagram` returns."""
    return [R.color for R in d.regions], d.strands, [R.boundary for R in d.regions], d.edges, d.prime, d.reduced


def built_diagram(n, pairing):
    """What the constructor makes of a pairing, read off as `read_off` does."""
    return read_off(AlternatingDiagram(n, wires_of(pairing)))


def outcome(build, n, pairing):
    """build(n, pairing), or the message of the DiagramError it raises."""
    try:
        return build(n, pairing)
    except DiagramError as err:
        return str(err)


def edge_endpoints(d, eid):
    """The crossings at the two ends of edge eid, in the edge's slot order."""
    a, b = tuple(d.edges[eid])
    return a[0], b[0]


class Walked:
    """The region queries on the faces and colors of `walked_diagram`: a
    region's index is its place in the walk order, an edge's its place in
    the edge list, which is the order of the diagram's edge ids."""

    def __init__(self, d):
        self.pairing = d.pairing
        self.walked = walked_diagram(d.n, d.pairing)
        self.colors, _strands, self.faces, self.edges, _prime, _reduced = self.walked
        self.region = {h: r for r, face in enumerate(self.faces) for h in face}
        self.edge_of = {h: e for e, edge in enumerate(self.edges) for h in edge}

    def corner(self, c, k):
        """The region at the corner of crossing c between ports k and k+1:
        the face that enters c at port k leaves it at port k+1."""
        return self.region[(c, (k + 1) % 4)]

    def at_crossing(self, c, color):
        """The two regions of the color at the corners of c, in corner order."""
        found = [self.corner(c, k) for k in range(4) if self.colors[self.corner(c, k)] == color]
        if found[0] == found[1]:
            raise DiagramError("non-prime: the two same-color corners at a crossing coincide")
        return found[0], found[1]

    def region_edges(self, r):
        """The edges along region r, by their place in the edge list."""
        return frozenset(self.edge_of[h] for h in self.faces[r])

    def adjacent(self, r1, r2):
        """Do regions r1 and r2 share an edge?"""
        return not self.region_edges(r1).isdisjoint(self.region_edges(r2))

    def small_region(self, witness_color=WHITE):
        """(region, 'bigon'|'trigon') of the witness color with pairwise
        distinct neighbors, searched when the opposite color has 3 or 4
        regions (a bigon only for 3); None for 5 or more, DiagramError for
        fewer than 3 or when no such region exists."""
        other = BLACK if witness_color == WHITE else WHITE
        count = self.colors.count(other)
        if count < 3:
            raise DiagramError(
                f"only {count} {other} regions: torus-link form, not a hyperbolic candidate")
        if count > 4:
            return None
        for kind, size in (("bigon", 2), ("trigon", 3))[:1 if count == 3 else 2]:
            for r, face in enumerate(self.faces):
                neighbors = {self.region[self.pairing[h]] for h in face}
                if self.colors[r] == witness_color and len(face) == size == len(neighbors):
                    return r, kind
        raise DiagramError(
            "no qualifying small region found; this contradicts the structure of prime "
            "alternating diagrams of hyperbolic links and indicates a bug or bad input")


def _flype_disks(d, c):
    """Flype disks at c as (S, p, (f1, f2)): S is cut off by exactly four
    edges, the edges at the consecutive ports p, p+1 of c (c not in S) and
    the edges f1 < f2 away from c.

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
    disk with O(n) work per region.  The list is ordered by (len(S),
    sorted(S)), the order in which a search over all subsets of the other
    crossings, smallest first, meets them.
    """
    ends = [edge_endpoints(d, e) for e in range(len(d.edges))]
    nbrs = [[] for _ in range(d.n)]
    for e, (a, b) in enumerate(ends):
        nbrs[a].append((e, b))
        nbrs[b].append((e, a))

    def side(start, cut):
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for e, y in nbrs[x]:
                if e not in cut and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    found = {}
    edge, region = d._edge, d.slot_region
    region_edges = [frozenset(edge[h] for h in walk) for walk in d._walks]
    for p in range(4):
        e1, e2 = edge[4 * c + p], edge[4 * c + (p + 1) % 4]
        # e1 separates Ra from the corner region R0 of ports p, p+1; e2
        # separates R0 from Rb.  The disk boundary runs R0, Ra, Rx, Rb.
        ra = region_edges[region[4 * c + p]]
        rb = region_edges[region[4 * c + (p + 2) % 4]]
        start = d.pairing[(c, p)][0]
        for rx in region_edges:
            for f1 in ra & rx:
                if c in ends[f1]:
                    continue
                for f2 in rx & rb:
                    if c in ends[f2]:
                        continue
                    cut = {e1, e2, f1, f2}
                    S = side(start, cut)
                    if c not in S and all((ends[e][0] in S) != (ends[e][1] in S) for e in cut):
                        found.setdefault(frozenset(S), (p, (min(f1, f2), max(f1, f2))))
    return [(S, p, f) for S, (p, f) in sorted(found.items(), key=lambda item: (len(item[0]), sorted(item[0])))]

"""Oracles for the diagram layer, read only by the tests.

The construction checks in their order, with alternation checked by walking
every strand and the checkerboard coloring found by a depth-first
2-coloring of the region adjacency graph.  It is the reference for the
parity rules of `cuspcubes.diagram.AlternatingDiagram` (every edge joins an
even slot to an odd one; even faces are black) and for its strands.

`tuple_views` builds the edges, the regions, primeness and reducedness by
walking tuple slots (c, i) through the pairing dict, as the constructor
did before it worked on flat slot ids; `walked_views` adds them to what
`walked_diagram` returns, and `read_off` reads the same off a diagram.
`wires_of` turns a pairing dict into the wire list the constructor takes,
and `edge_of_slot` and `region_of_slot` give a diagram's edge and region
ids by tuple slot.

`edge_endpoints` and `edge_sides` read an edge's two crossings and the
regions on its two sides off a diagram.

`corner_region`, `regions_at_crossing`, `region_adjacent` and
`find_small_white_region` are the region queries on `Region` records, with
a region's edges read off its boundary, as `cuspcubes.diagram` had them
before the classifier and the polyhedra worked on region indices.

`_flype_disks` lists every flype disk at a crossing from the region
4-cycles.  It is the reference for the disks that `cuspcubes.diagram.flype`
flypes across, and the disk list of the eager flype search in the tests.

`_tail_flype` and `_spot_options` are the flype rewiring and its image
arcs on pairing dicts of tuple slots, with their helpers `_wire`,
`_face_walk`, `_joints` and `_mirror`, as `cuspcubes.diagram` had them
before it rewired wire lists of flat slot ids.
"""

from cuspcubes.diagram import AlternatingDiagram, BLACK, WHITE, DiagramError, Region, _check_size


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


def region_of_slot(d):
    """Region index by tuple slot (c, i)."""
    return {divmod(h, 4): r for h, r in enumerate(d.slot_region)}


def _wire(pairing, a, b):
    """Pair slots a and b: the edge between them."""
    pairing[a] = b
    pairing[b] = a


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
    """(strands, strand_of_passage): each strand a cycle of passages
    (c, i % 2), entering slot i and leaving through i + 2, walked from the
    least passage no earlier strand holds."""
    seen = set()
    strand_of_passage = {}
    strands = []
    for c0 in range(n):
        for i0 in (0, 1):
            if (c0, i0) in seen:
                continue
            strand = []
            h = (c0, i0)
            while True:
                c, i = h
                seen.update({(c, i), (c, (i + 2) % 4)})
                strand.append((c, i % 2))
                strand_of_passage[(c, i % 2)] = len(strands)
                h = pairing[(c, (i + 2) % 4)]
                if h == (c0, i0):
                    break
            strands.append(strand)
    return strands, strand_of_passage


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
    """(region colors, strands, strand_of_passage items) of the diagram, or
    DiagramError naming the first violated invariant among: malformed
    pairing, size, connectivity, sphericity, alternation along every strand
    and properness of the coloring."""
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
    region_of_slot = {}
    count = 0
    for start in slots:
        if start not in region_of_slot:
            for h in _face_walk(pairing, start):
                region_of_slot[h] = count
            count += 1
    if count != n + 2:
        raise DiagramError(f"non-planar: {n} crossings with {count} regions "
                           f"(expected {n + 2} on the sphere)")
    strands, strand_of_passage = walked_strands(n, pairing)
    for strand in strands:
        kinds = [i for _c, i in strand]
        if any(a == b for a, b in zip(kinds, kinds[1:] + kinds[:1])):
            raise DiagramError("non-alternating: consecutive passages on a strand agree")
    return dfs_colors(pairing, region_of_slot, count), strands, list(strand_of_passage.items())


def tuple_views(n, pairing):
    """(pairing, edges as tuples, edge_of_slot, region_of_slot, regions,
    prime, reduced) of a valid diagram's pairing, built on tuple slots: edges
    in order of their first slot, faces walked from their least slot by
    next(h) = rotate(twin(h)) and colored by its parity."""
    slots = [(c, i) for c in range(n) for i in range(4)]
    edges, edge_of_slot = [], {}
    for h in slots:
        if h not in edge_of_slot:
            k = pairing[h]
            edge_of_slot[h] = edge_of_slot[k] = len(edges)
            edges.append(frozenset((h, k)))
    region_of_slot, regions = {}, []
    for start in slots:
        if start in region_of_slot:
            continue
        walk = _face_walk(pairing, start)
        for h in walk:
            region_of_slot[h] = len(regions)
        regions.append(Region(index=len(regions), color=WHITE if start[1] & 1 else BLACK, boundary=walk))
    sides = set()
    for a, b in edges:
        ra, rb = region_of_slot[a], region_of_slot[b]
        sides.add((min(ra, rb), max(ra, rb)))
    prime = len(sides) == len(edges)
    reduced = all(len(R.distinct_crossings) == len(R.boundary) for R in regions)
    return (dict(pairing), [tuple(e) for e in edges], edge_of_slot, region_of_slot,
            regions, prime, reduced)


def walked_views(n, pairing):
    """`walked_diagram` and then `tuple_views` of the pairing, or the
    DiagramError of the first violated invariant."""
    return (*walked_diagram(n, pairing), tuple_views(n, pairing))


def read_off(d):
    """d's region colors, strands, each passage's strand index (in strand
    order) and views, the form `walked_views` returns.  The pairing is
    compared as a mapping: a diagram lists it in wire order."""
    views = (d.pairing, [tuple(e) for e in d.edges], edge_of_slot(d),
             region_of_slot(d), d.regions, d.prime, d.reduced)
    strand_of_passage = [(passage, k) for k, strand in enumerate(d.strands) for passage in strand]
    return [R.color for R in d.regions], d.strands, strand_of_passage, views


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


def edge_sides(d, eid):
    """Region indices on the two sides of edge eid."""
    a, b = tuple(d.edges[eid])
    return d.slot_region[4 * a[0] + a[1]], d.slot_region[4 * b[0] + b[1]]


def region_edges(d, r):
    """The edge ids along the boundary of region r of d, by its `Region` record."""
    return frozenset(d._edge[4 * c + i] for c, i in d.regions[r].boundary)


def corner_region(d, c, k):
    """Region at the corner of crossing c between ports k and k+1."""
    return d.regions[d.slot_region[4 * c + (k + 1) % 4]]


def regions_at_crossing(d, c, color):
    """The two same-color corner regions at c, in corner order; the
    coloring is proper, so the corners alternate colors."""
    found = [corner_region(d, c, k) for k in range(4) if corner_region(d, c, k).color == color]
    if found[0].index == found[1].index:
        raise DiagramError("non-prime: the two same-color corners at a crossing coincide")
    return found[0], found[1]


def region_adjacent(d, r1, r2):
    """Do two distinct regions, given by index, share at least one edge of
    the diagram?"""
    if r1 == r2:
        raise DiagramError("region_adjacent needs two distinct regions")
    return bool(region_edges(d, r1) & region_edges(d, r2))


def find_small_white_region(d, witness_color=WHITE):
    """(region, 'bigon'|'trigon') of the witness color with pairwise
    distinct neighbors, searched when the opposite color has 3 or 4
    regions (a bigon only for 3); None for 5 or more, DiagramError for
    fewer than 3 or when no such region exists."""
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
            nbrs = [d.slot_region[d._twin[h]] for h in d._walks[R.index]]
            if len(set(nbrs)) == size:
                return R, kind
    raise DiagramError(
        "no qualifying small region found; this contradicts the structure of prime "
        "alternating diagrams of hyperbolic links and indicates a bug or bad input"
    )


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
    for p in range(4):
        e1, e2 = edge[4 * c + p], edge[4 * c + (p + 1) % 4]
        # e1 separates Ra from the corner region R0 of ports p, p+1; e2
        # separates R0 from Rb.  The disk boundary runs R0, Ra, Rx, Rb.
        ra = region_edges(d, region[4 * c + p])
        rb = region_edges(d, region[4 * c + (p + 2) % 4])
        start = d.pairing[(c, p)][0]
        for Rx in d.regions:
            rx = region_edges(d, Rx.index)
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


def _joints(pairing, walk):
    """The walk slots by the crossings their edge joins, which are
    consecutive crossings along the face."""
    joints = {}
    for h in walk:
        joints.setdefault(frozenset((h[0], pairing[h][0])), []).append(h)
    return joints


def _mirror(h, L):
    c, i = h
    return (c, 3 - i) if c in L else h


def _tail_flype(d, c, S):
    """`cuspcubes.diagram._tail_flype` on tuple slots: (pairing, spot) of
    the flype of d that carries c across S, or None.  The pairing lists
    d's pairs in its order, each turned over when in S, then the spot and
    far pairs."""
    if c in S:
        return None
    eos = edge_of_slot(d)
    cut = {eos[(x, i)] for x in S for i in range(4) if d.pairing[(x, i)][0] not in S}
    ports = [i for i in range(4) if d.pairing[(c, i)][0] in S]
    if len(cut) != 4 or ports not in ([0, 1], [1, 2], [2, 3], [0, 3]):
        return None
    p = 3 if ports == [0, 3] else ports[0]
    f_ids = sorted(cut - {eos[(c, i)] for i in ports})

    def mu(h):
        return _mirror(h, S)

    fS = [mu(next(h for h in d.edges[f] if h[0] in S)) for f in f_ids]
    if fS[0][1] % 2 == 0:
        return None
    fR = [next(h for h in d.edges[f] if h[0] not in S) for f in f_ids]
    removed = {eos[(c, k)] for k in range(4)} | set(f_ids)
    pairing = {}
    for h, k in d.pairing.items():
        mh = mu(h)
        if mh not in pairing and eos[h] not in removed:
            _wire(pairing, mh, mu(k))
    spot = [(mu(d.pairing[(c, p)]), d.pairing[(c, (p + 2) % 4)]),
            (mu(d.pairing[(c, (p + 1) % 4)]), d.pairing[(c, (p + 3) % 4)])]
    at1, at3 = (fS[1], fR[1]) if p % 2 == 0 else (fR[1], fS[1])
    far = [(fS[0], (c, 0)), (fR[0], (c, 2)), (at1, (c, 1)), (at3, (c, 3))]
    for h, k in spot + far:
        _wire(pairing, h, k)
    return pairing, spot


def _spot_options(pairing, spot):
    """`cuspcubes.diagram._spot_options` read off a pairing dict before it
    is built: (walk, c1, c2, joint) for the face through both spot edges,
    walked from the spot slot, and each pair of distinct ends c1, c2 of the
    two edges, with `joint` the walk slots whose edge joins c1 and c2."""
    a, b = spot[0][0], spot[1][0]
    ends_a, ends_b = ([k[0] for k in frozenset(sorted((h, pairing[h])))] for h in (a, b))
    for walk in (_face_walk(pairing, a), _face_walk(pairing, pairing[a])):
        if b in walk or pairing[b] in walk:
            joints = _joints(pairing, walk)
            for c1 in ends_a:
                for c2 in ends_b:
                    if c1 != c2:
                        yield walk, c1, c2, joints.get(frozenset((c1, c2)), [])

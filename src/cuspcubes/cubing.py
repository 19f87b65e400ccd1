"""Non-positively curved cubed decomposition of an alternating link exterior.

The complex has one combinatorial 3-cube per strand passage of the diagram
(two per crossing).  A cube's outer face lies on the boundary torus around
its passage; its two vertical midsquares carry the checkerboard surfaces,
crossing along the cube's axis, which is half of the crossing arc.  Cubes
are glued bottom-to-bottom at each crossing and side-to-side across each
edge of the diagram (once for each of the edge's two flanking regions).
Everything here is combinatorial; no coordinates are stored.

Derived structure is computed by closing the gluings: two inner vertices,
one inner edge per region, two hyperplanes meeting along one axis class
per crossing, and geometric vertex links whose flagness witnesses
non-positive curvature.

Germs have dense ids.  Cube q = 2c + s (s = 0 under, 1 over) holds vertex
germs 8q + 2p + (0 "bc", 1 "tc") at port p, edge germs 12q + 3p + (0 "ve",
1 "be", 2 "te") and faces 6q + k (side k < 4, top 4, bottom 5).  Names such
as ("bc", c, "over", p) are decoded only for output.  The gluings are flat
int lists, built from the diagram's slot ids and `slot_region` list (so no
`Region` record): gluing i glues face fa[i] to fb[i] and germ va[4i + j] to
vb[4i + j], ea[4i + j] to eb[4i + j]; the first n glue cube bottoms.
`verify_npc` files each cube's corners and square corners under their
vertex classes and checks each link in one pass.  `corrupt(k)` returns a corrupted copy.  The emitted
complex is written by `write_complex`, pinned to json.dumps(to_json(), indent=2).
"""

from __future__ import annotations

import json
from collections import defaultdict

from .diagram import AlternatingDiagram, BLACK, WHITE


class CubingError(ValueError):
    pass


PASSAGES = ("under", "over")


def vertex_name(g: int) -> tuple:
    q, r = divmod(g, 8)
    return ("bc", "tc")[r & 1], q >> 1, PASSAGES[q & 1], r >> 1


def edge_name(g: int) -> tuple:
    q, r = divmod(g, 12)
    p, kind = divmod(r, 3)
    return ("ve", "be", "te")[kind], q >> 1, PASSAGES[q & 1], p


def _square_corner(k: int, i: int) -> tuple:
    """Corner i (0..3) of face k of a cube: its corner germ and its two edge
    germs along the face, as offsets within the cube.  A side face k < 4
    has corners at ports k and k + 1, on the bottom then on the top; the
    top (k = 4) or bottom (k = 5) face has corner i at port i."""
    if k < 4:
        kind, p = i // 2, (k + i % 2) % 4
        return 2 * p + kind, 3 * k + 1 + kind, 3 * p
    kind = 5 - k
    return 2 * i + kind, 3 * ((i - 1) % 4) + 1 + kind, 3 * i + 1 + kind


_SQUARE_CORNERS = tuple(tuple(_square_corner(k, i) for i in range(4)) for k in range(6))
# the edge germs at corner germ 2p + kind of a cube: the flat edges on
# either side of port p and the vertical edge at p
_CORNER_EDGES = tuple((3 * ((p - 1) % 4) + 1 + kind, 3 * p + 1 + kind, 3 * p)
                      for p in range(4) for kind in (0, 1))


class _UnionFind:
    """Union-find on the ids 0..size-1."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def union(self, pairs) -> None:
        """For each pair (a, b), put a's root under b's; finds halve paths."""
        p = self.parent
        for a, b in pairs:
            while p[a] != a:
                p[a] = a = p[p[a]]
            while p[b] != b:
                p[b] = b = p[p[b]]
            if a != b:
                p[a] = b

    def roots(self) -> list:
        """The roots in id order.  Every element's parent is left at its
        root, so `parent` is then the element -> class map."""
        parent = self.parent
        roots = []
        for x, root in enumerate(parent):
            if root == x:
                roots.append(x)
                continue
            while parent[root] != root:
                root = parent[root]
            parent[x] = root
        return roots


class CubedComplex:
    """Cubed decomposition of the exterior of a prime alternating diagram."""

    def __init__(self, d: AlternatingDiagram):
        from .diagram import is_prime, is_reduced
        if not is_prime(d):
            raise CubingError("the cubed decomposition requires a prime diagram")
        if not is_reduced(d):
            raise CubingError("the cubed decomposition requires a reduced diagram")
        self.diagram = d
        self.cubes = [(c, s) for c in range(d.n) for s in PASSAGES]
        self._build_gluings()
        self._close_classes()

    # -- gluing construction -----------------------------------------------

    def _build_gluings(self) -> None:
        d = self.diagram
        n, region = d.n, d.slot_region
        # gluing c < n: cube 2c + 1 (over) meets cube 2c (under) along their bottom faces
        fa, fb = [12 * c + 11 for c in range(n)], [12 * c + 5 for c in range(n)]
        va = [16 * c + 8 + 2 * p for c in range(n) for p in range(4)]
        vb = [16 * c + 2 * p for c in range(n) for p in range(4)]
        ea = [24 * c + 13 + 3 * k for c in range(n) for k in range(4)]
        eb = [24 * c + 1 + 3 * k for c in range(n) for k in range(4)]
        # The side gluings follow the iteration order of `d.edges` (frozensets)
        # and then of {r1, r2}: hash order, which the golden digests pin (see
        # the FOUND line on the gluing order in CHANGES.md).
        for (c1, p1), (c2, p2) in d.edges:
            q1, q2 = 2 * c1 + (p1 & 1), 2 * c2 + (p2 & 1)
            r1, r2 = region[4 * c1 + p1], region[4 * c2 + p2]
            for rid in {r1, r2}:
                # at each end, the corner k beside the port that lies in the
                # region, and the far port of the side face k.  The face
                # through a slot goes on at the slot after its twin, so the
                # corner after port p1 lies in r2 and the one after p2 in r1.
                k1 = p1 if rid == r2 else (p1 - 1) % 4
                k2 = p2 if rid == r1 else (p2 - 1) % 4
                far1 = k1 if k1 != p1 else (k1 + 1) % 4
                far2 = k2 if k2 != p2 else (k2 + 1) % 4
                port1, f1 = 8 * q1 + 2 * p1, 8 * q1 + 2 * far1
                port2, f2 = 8 * q2 + 2 * p2, 8 * q2 + 2 * far2
                flat1, flat2 = 12 * q1 + 3 * k1 + 1, 12 * q2 + 3 * k2 + 1
                fa.append(6 * q1 + k1)
                fb.append(6 * q2 + k2)
                va += (port1, f1, port1 + 1, f1 + 1)
                vb += (f2, port2, f2 + 1, port2 + 1)
                ea += (flat1, flat1 + 1, 12 * q1 + 3 * p1, 12 * q1 + 3 * far1)
                eb += (flat2, flat2 + 1, 12 * q2 + 3 * far2, 12 * q2 + 3 * p2)
        self.fa, self.fb, self.va, self.vb, self.ea, self.eb = fa, fb, va, vb, ea, eb

    def corrupt(self, k: int) -> CubedComplex:
        """Negative control: a copy of the complex, with its own partner
        lists, in which side gluing k is uncrossed (each cube's port corner
        meets the other's far corner, so ports meet ports) and the classes
        are closed again; verify_npc then fails at a located vertex, and self
        stays clean.  A bottom gluing (k < n) is copied as it is, so that
        control passes: perfbench/checks.py files its exit 0 as a known
        failure and perfbench's tests pin that, so a mend lands with a
        revision of the benchmark."""
        if not 0 <= k < len(self.fa):
            raise CubingError(f"no gluing {k}: indices run from 0 to {len(self.fa) - 1}")
        bad = object.__new__(CubedComplex)
        bad.__dict__.update(self.__dict__)
        if k >= self.diagram.n:
            i = 4 * k
            # vertex pairs 0, 1 and 2, 3 exchange partners, and edge pairs 2, 3
            bad.vb = vb = self.vb[:]
            vb[i:i + 4] = vb[i + 1], vb[i], vb[i + 3], vb[i + 2]
            bad.eb = eb = self.eb[:]
            eb[i + 2:i + 4] = eb[i + 3], eb[i + 2]
            bad._close_classes()
        return bad

    # -- class closure -------------------------------------------------------

    def _close_classes(self) -> None:
        n = self.diagram.n
        vtx, edg = _UnionFind(16 * n), _UnionFind(24 * n)
        vtx.union(zip(self.va, self.vb))
        edg.union(zip(self.ea, self.eb))
        vroots, eroots = vtx.roots(), edg.roots()
        # roots() leaves each germ's parent at its root: the germ -> class
        # maps.  A root has its class's kind.
        self._vroot, self._eroot = vtx.parent, edg.parent
        # inner vertices (bottom corners, even ids) first, each part by
        # name, which is decoded and made a string once per class
        rows = sorted((v & 1, str(name), v, name)
                      for v, name in zip(vroots, map(vertex_name, vroots)))
        self._vertex_ids = [v for _odd, _s, v, _name in rows]
        self._vertex_strs = [s for _odd, s, _v, _name in rows]
        self.inner_vertices = [name for odd, _s, _v, name in rows if not odd]
        self.boundary_vertices = [name for odd, _s, _v, name in rows if odd]

        # an edge germ's kind is its id mod 3: 0 "ve", 1 "be" (inner), 2 "te"
        self.vertical_edges, self.inner_edges, self.boundary_edges = kinds = [], [], []
        for root in eroots:
            kinds[root % 3].append(root)

    # -- reports ---------------------------------------------------------------

    @property
    def counts(self) -> dict:
        n = self.diagram.n
        return {
            "crossings": n,
            "cubes": len(self.cubes),
            "inner_vertices": len(self.inner_vertices),
            "boundary_vertices": len(self.boundary_vertices),
            "inner_edges": len(self.inner_edges),
            "vertical_edges": len(self.vertical_edges),
            "boundary_edges": len(self.boundary_edges),
            "boundary_squares": 2 * n,          # the top face of each cube
            "interior_squares": 5 * n,          # one per gluing (see build_cubing)
            # each color's 2n midsquares form one hyperplane: a bottom gluing
            # joins a crossing's over and under midsquares, an edge's side
            # gluing in its region of a color joins that color's midsquares at
            # its two ends, and the diagram is connected, so no color splits
            "hyperplanes": 2,
            "midsquares_per_hyperplane": {BLACK: 2 * n, WHITE: 2 * n},
            "crossing_lines": n,                # one per glued pair of bottom faces
        }

    def to_json(self) -> dict:
        counts, n = self.counts, self.diagram.n
        # each face's name as a list of strings, indexed by face id
        names = []
        for c in map(str, range(n)):
            for s in PASSAGES:
                names += (["side", c, s, "0"], ["side", c, s, "1"], ["side", c, s, "2"],
                          ["side", c, s, "3"], ["top", c, s], ["bottom", c, s])
        kinds = ["bottom"] * n + ["side"] * (4 * n)
        return {
            "cubes": [list(q) for q in self.cubes],
            "gluings": [{"kind": kind, "faces": [names[a], names[b]]}
                        for kind, a, b in zip(kinds, self.fa, self.fb)],
            "counts": counts,
            "hyperplanes": counts["midsquares_per_hyperplane"],
        }


def build_cubing(d: AlternatingDiagram) -> CubedComplex:
    """The cubed exterior of d, which must be prime and reduced.

    On such a diagram the closure of the gluings has two inner vertices,
    one inner edge per region, 2n vertical edges, 2n boundary vertices and
    4n boundary edges; the tests hold these closed forms over the corpus.
    Every interior face is glued exactly once: an edge has one side gluing
    per flanking region, and at each end the two flanking regions name the
    two side faces of that port's cube.  Gluings, corrupt ones included,
    pair germs of one kind only, so no class mixes kinds, and an inner edge
    class stays in the region whose corners it joins.  The hyperplanes are
    fixed by connectivity (see CubedComplex.counts), and the negative
    control is CubedComplex.corrupt.
    """
    return CubedComplex(d)


def verify_npc(cx: CubedComplex) -> dict:
    """Check every vertex link on edge class ids, in one pass per vertex
    class, and decode names only for the first problem of a failing vertex.
    Each cube files its eight corners, as (germ, left flat, right flat,
    vertical edge class), and the corners of the square classes it stands
    for, as (face, edge class, edge class), under their vertex classes;
    cubes and faces go in id order, so each class's lists are in germ and
    face order.  `_link_failure` then reads each link once.  The named
    links and the per-link oracles are in tests/cubing_oracles.py.
    Returns {"npc": bool, "vertices": [...], "failures": [...]}; a pass at
    every vertex establishes non-positive curvature."""
    n, vroot, eroot = cx.diagram.n, cx._vroot, cx._eroot
    # the faces that stand for a square class: a gluing's lesser face, or a
    # top face alone
    rep = [False] * (12 * n)
    for face in map(min, cx.fa, cx.fb):
        rep[face] = True
    rep[4::6] = [True] * (2 * n)
    corners = {v: [] for v in cx._vertex_ids}
    squares = {v: [] for v in cx._vertex_ids}
    for q in range(2 * n):
        g, face = 8 * q, 6 * q
        V, E = vroot[g:g + 8], eroot[12 * q:12 * q + 12]
        for v, (x, y, z) in zip(V, _CORNER_EDGES):
            corners[v].append((g, E[x], E[y], E[z]))
            g += 1
        for square in _SQUARE_CORNERS:
            if rep[face]:
                for corner, ea, eb in square:
                    squares[V[corner]].append((face, E[ea], E[eb]))
            face += 1
    entries, failures = [], []
    for v, name in zip(cx._vertex_ids, cx._vertex_strs):
        reason = _link_failure(corners[v], squares[v])
        kind = "boundary" if v & 1 else "inner"
        entries.append({"vertex": name, "kind": kind, "flag": reason is None})
        if reason is not None:
            failures.append({"vertex": name, "kind": kind, "reason": reason})
    return {"npc": not failures, "vertices": entries, "failures": failures}


def _link_failure(corners: list, squares: list):
    """The first problem of one vertex link, in the order: corners (a
    degenerate one, or one that repeats a triangle), a second square on an
    edge, a triangle with a missing edge, a clique that does not span; None
    when the link is flag.

    Gluings pair germs of one kind only, so a corner's vertical edge class
    is never one of its flat ones: the corner is degenerate exactly when its
    two flat classes agree, and its triangle is keyed (lesser flat, greater
    flat, vertical).  No square pinches (has both its edges at a corner in
    one class): those two edges are two of the three at the square's corner
    germ, which is filed under the same vertex and is then degenerate, so
    the pass stops there first.

    Cliques are counted as the link's edges arrive: a new edge ab closes a
    3-clique with each common neighbour of a and b, so each 3-clique is
    counted once, when its last edge arrives, and the link is flag iff that
    count equals the triangle count (every triangle is a 3-clique once no
    edge is missing).  Two adjacent common neighbours close a 4-clique,
    which cannot span; every 4-clique is seen when its last edge arrives."""
    triangles = {}                  # (a, b, c), a < b flat, c vertical -> its corner germ
    for g, a, b, c in corners:
        if a == b:
            _kind, c, s, p = vertex_name(g)
            return f"non-simplicial: degenerate corner of cube ({c},{s}) at port {p}"
        t = (a, b, c) if a < b else (b, a, c)
        if t in triangles:
            _kind, c, s, _p = vertex_name(g)
            return (f"non-simplicial: corner of cube ({c},{s}) repeats the simplex of "
                    f"{vertex_name(triangles[t])[1:]}")
        triangles[t] = g
    edges, adj = {}, defaultdict(set)   # (a, b), a < b -> its square class
    cliques, spans = 0, True
    for face, a, b in squares:
        pair = (a, b) if a < b else (b, a)
        if pair in edges:
            if edges[pair] != face:
                return f"non-simplicial: double edge between {sorted(str(edge_name(x)) for x in pair)}"
            continue
        edges[pair] = face
        na, nb = adj[a], adj[b]
        if not na.isdisjoint(nb):
            common = na & nb
            cliques += len(common)
            if spans and len(common) > 1:
                spans = all(common.isdisjoint(adj[c]) for c in common)
        na.add(b)
        nb.add(a)
    for a, b, c in triangles:
        na = adj[a]
        if b not in na or c not in na or c not in adj[b]:
            return "non-simplicial: triangle with a missing edge"
    return None if spans and cliques == len(triangles) else "non-flag clique"


def boundary_cubings(cx: CubedComplex) -> list[dict]:
    """The boundary tori, one per link component, as the cubing report's
    `boundary_tori` entries: component, square count, Euler characteristic
    and meridian loop count.

    Each boundary square is the outer face of one passage cube; squares
    group into tori by link component.  The diagonal of each square that
    joins the top corners at the ports transverse to its own strand closes
    up into a meridian loop around the strand (the gluings put its two
    corners in one vertex class), so a torus has a meridian loop per square.
    """
    vroot, eroot = cx._vroot, cx._eroot
    tori = []
    for comp, strand in enumerate(cx.diagram.strands):
        vclasses, eclasses = set(), set()
        # the top corners and top edges of passage (c, over)'s cube 2c + over
        for c, over in strand:
            v, e = 16 * c + 8 * over + 1, 24 * c + 12 * over + 2
            vclasses.update(vroot[v:v + 8:2])
            eclasses.update(eroot[e:e + 12:3])
        chi = len(vclasses) - len(eclasses) + len(strand)
        tori.append({"component": comp, "squares": len(strand), "euler": chi,
                     "meridian_loops": len(strand)})
    return tori


def write_complex(cx: CubedComplex, path) -> None:
    """Write cx.to_json() to path with the exact text of json.dumps(...,
    indent=2), but not through that dump, which runs in the json module's
    pure-Python encoder: one template per cube and per gluing, and
    json.dumps for the counts.  Passage and face names hold no character
    that JSON escapes; tests/test_golden.py pins the text."""
    data = cx.to_json()
    cubes = ",\n".join(f'    [\n      {c},\n      "{s}"\n    ]' for c, s in data["cubes"])
    sep = '",\n          "'
    gluings = ",\n".join(
        f'    {{\n      "kind": "{kind}",\n      "faces": [\n        [\n          "{sep.join(f1)}"\n'
        f'        ],\n        [\n          "{sep.join(f2)}"\n        ]\n      ]\n    }}'
        for kind, (f1, f2) in map(dict.values, data["gluings"]))
    tail = json.dumps({"counts": data["counts"], "hyperplanes": data["hyperplanes"]}, indent=2)
    with open(path, "w") as fh:             # tail[2:] drops the tail's opening "{\n"
        fh.write(f'{{\n  "cubes": [\n{cubes}\n  ],\n  "gluings": [\n{gluings}\n  ],\n{tail[2:]}')

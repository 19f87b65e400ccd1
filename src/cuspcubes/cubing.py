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
as ("bc", c, "over", p) are decoded only for output.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import chain

from .diagram import AlternatingDiagram, BLACK, WHITE, Region


class CubingError(ValueError):
    pass


OVER, UNDER = "over", "under"
PASSAGES = (UNDER, OVER)
# germ kind -> (germs per cube, id step per port, offset)
_LAYOUT = {"bc": (8, 2, 0), "tc": (8, 2, 1), "ve": (12, 3, 0), "be": (12, 3, 1),
           "te": (12, 3, 2), "side": (6, 1, 0), "top": (6, 0, 4), "bottom": (6, 0, 5)}


def germ_id(name: tuple) -> int:
    """The id of a vertex germ, an edge germ or a square face, by name."""
    per_cube, step, offset = _LAYOUT[name[0]]
    port = name[3] if len(name) > 3 else 0
    return (2 * name[1] + PASSAGES.index(name[2])) * per_cube + step * port + offset


def vertex_name(g: int) -> tuple:
    q, r = divmod(g, 8)
    return ("bc", "tc")[r & 1], q >> 1, PASSAGES[q & 1], r >> 1


def edge_name(g: int) -> tuple:
    q, r = divmod(g, 12)
    p, kind = divmod(r, 3)
    return ("ve", "be", "te")[kind], q >> 1, PASSAGES[q & 1], p


def face_name(f: int) -> tuple:
    q, k = divmod(f, 6)
    c, s = q >> 1, PASSAGES[q & 1]
    return ("side", c, s, k) if k < 4 else (("top", "bottom")[k - 4], c, s)


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


@dataclass(frozen=True)
class Gluing:
    """One identification of two square faces, with its germ matching."""

    kind: str                       # "bottom" or "side"
    faces: tuple                    # face ids
    vertex_pairs: tuple             # pairs of corner germ ids
    edge_pairs: tuple               # pairs of edge germ ids


@dataclass
class VertexLink:
    """Abstract simplicial complex of cube corners at one vertex."""

    vertex: object
    vertices: tuple
    edges: set                      # frozensets of 2 direction labels
    triangles: set                  # frozensets of 3 direction labels
    problems: list = field(default_factory=list)

    @property
    def simplicial(self) -> bool:
        return not self.problems


def is_flag(lk: VertexLink) -> bool:
    """Every pairwise-joined vertex set spans a simplex: `_flag` on the
    link's edges (the adjacency-walk oracle is in tests/cubing_oracles.py)."""
    if lk.problems:
        raise CubingError(f"link of {lk.vertex} is not simplicial: {lk.problems[0]}")
    return _flag([tuple(e) for e in lk.edges], len(lk.triangles))


def _flag(edges, triangles: int) -> bool:
    """Flagness of a simplicial 2-complex from its edges (pairs) and its
    triangle count, by counting cliques.  A triangle is a 3-clique whose
    third vertex is a common neighbour at each of its edges, so the sum over
    edges ab of |N(a) & N(b)| is 3 * triangles iff no 3-clique is empty; two
    adjacent common neighbours of an edge make a 4-clique, which cannot span."""
    adj = defaultdict(set)
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    cliques = 0
    for a, b in edges:
        common = adj[a] & adj[b]
        cliques += len(common)
        if len(common) > 1:
            for c in common:
                if not common.isdisjoint(adj[c]):
                    return False
    return cliques == 3 * triangles


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

    def classes(self) -> dict:
        """Root -> members, both in id order.  Every element's parent is
        left at its root, so `parent` is then the element -> class map."""
        out = {}
        parent = self.parent
        for x, root in enumerate(parent):
            while parent[root] != root:
                root = parent[root]
            parent[x] = root
            out.setdefault(root, []).append(x)
        return out


def _swap_partners(pairs: tuple) -> tuple:
    """Pairs 2i and 2i + 1 exchange their second members."""
    return tuple((a, pairs[i ^ 1][1]) for i, (a, _b) in enumerate(pairs))


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
        region_of_slot = d.region_of_slot
        # cube 2c + 1 (over) meets cube 2c (under) along their bottom faces
        gluings = [Gluing("bottom", (12 * c + 11, 12 * c + 5),
                          tuple((16 * c + 8 + 2 * p, 16 * c + 2 * p) for p in range(4)),
                          tuple((24 * c + 13 + 3 * k, 24 * c + 1 + 3 * k) for k in range(4)))
                   for c in range(d.n)]
        for eid, ((c1, p1), (c2, p2)) in enumerate(d.edges):
            q1, q2 = 2 * c1 + (p1 & 1), 2 * c2 + (p2 & 1)
            for rid in set(d.edge_sides(eid)):
                # at each end, the corner k beside the port that lies in the
                # region, and the far port of the side face k
                k1 = p1 if region_of_slot[(c1, (p1 + 1) % 4)] == rid else (p1 - 1) % 4
                k2 = p2 if region_of_slot[(c2, (p2 + 1) % 4)] == rid else (p2 - 1) % 4
                far1 = k1 if k1 != p1 else (k1 + 1) % 4
                far2 = k2 if k2 != p2 else (k2 + 1) % 4
                port1, f1 = 8 * q1 + 2 * p1, 8 * q1 + 2 * far1
                port2, f2 = 8 * q2 + 2 * p2, 8 * q2 + 2 * far2
                flat1, flat2 = 12 * q1 + 3 * k1 + 1, 12 * q2 + 3 * k2 + 1
                gluings.append(Gluing(
                    "side", (6 * q1 + k1, 6 * q2 + k2),
                    ((port1, f2), (f1, port2), (port1 + 1, f2 + 1), (f1 + 1, port2 + 1)),
                    ((flat1, flat2), (flat1 + 1, flat2 + 1),
                     (12 * q1 + 3 * p1, 12 * q2 + 3 * far2), (12 * q1 + 3 * far1, 12 * q2 + 3 * p2))))
        self.gluings = gluings

    def corrupt(self, k: int) -> CubedComplex:
        """Negative control: uncross side gluing k, which matches each
        cube's port corner with the other's far corner, so that ports meet
        ports, and close the classes again; verify_npc then fails at a
        located vertex.  A bottom gluing (k < n) is left as it is."""
        if not 0 <= k < len(self.gluings):
            raise CubingError(f"no gluing {k}: indices run from 0 to {len(self.gluings) - 1}")
        g = self.gluings[k]
        if g.kind == "side":
            self.gluings[k] = replace(
                g, vertex_pairs=_swap_partners(g.vertex_pairs),
                edge_pairs=g.edge_pairs[:2] + _swap_partners(g.edge_pairs[2:]))
            self._close_classes()
        return self

    # -- class closure -------------------------------------------------------

    def _close_classes(self) -> None:
        d, n = self.diagram, self.diagram.n
        vtx, edg = _UnionFind(16 * n), _UnionFind(24 * n)
        vtx.union(chain.from_iterable(g.vertex_pairs for g in self.gluings))
        edg.union(chain.from_iterable(g.edge_pairs for g in self.gluings))
        # each face lies in at most one gluing: a square class is a gluing's
        # two faces or a top face alone, named by its first face
        partner = [-1] * (12 * n)
        for a, b in (g.faces for g in self.gluings):
            partner[a], partner[b] = b, a
        vclasses, eclasses = vtx.classes(), edg.classes()
        # classes() leaves each germ's parent at its root: the germ -> class
        # maps.  A root has its class's kind, an inner edge root its region.
        vroot = self._vroot = vtx.parent
        self._eroot = edg.parent
        names = {v: vertex_name(v) for v in vclasses}
        # inner vertices (bottom corners, even ids) first, each part by name
        self._vertex_ids = sorted(vclasses, key=lambda v: (v & 1, str(names[v])))
        self.inner_vertices = [names[v] for v in self._vertex_ids if not v & 1]
        self.boundary_vertices = [names[v] for v in self._vertex_ids if v & 1]

        self.inner_edges, self.vertical_edges, self.boundary_edges = {}, [], []
        for root in eclasses:
            q, r = divmod(root, 12)
            if r % 3 == 1:
                self.inner_edges[root] = d.corner_region(q >> 1, r // 3).index
            else:
                (self.vertical_edges if r % 3 == 0 else self.boundary_edges).append(root)
        self.region_edge = {rid: root for root, rid in self.inner_edges.items()}

        # the corner germs and square corners at each vertex, for its link;
        # a square corner is filed with its class's face, germ and two edges
        links = self._links = {v: (members, []) for v, members in vclasses.items()}
        for face, other in enumerate(partner):
            if 0 <= other < face:
                continue                # filed under its partner
            q, k = divmod(face, 6)
            vbase, ebase = 8 * q, 12 * q
            for corner, ea, eb in _SQUARE_CORNERS[k]:
                links[vroot[vbase + corner]][1].append((face, vbase + corner, ebase + ea, ebase + eb))

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
        counts = self.counts
        return {
            "cubes": [list(q) for q in self.cubes],
            "gluings": [{"kind": g.kind, "faces": [list(map(str, face_name(f))) for f in g.faces]}
                        for g in self.gluings],
            "counts": counts,
            "hyperplanes": counts["midsquares_per_hyperplane"],
        }

    # -- vertex links -----------------------------------------------------------

    def vertices(self) -> list:
        return list(self.inner_vertices) + list(self.boundary_vertices)

    def vertex_link(self, v) -> VertexLink:
        """Simplicial complex of cube corners at a vertex class: `_link`
        with its vertex and directions named.  At the two inner vertices
        this is the dual of the diagram with the dual region around each
        crossing subdivided by a cone point."""
        edges, triangles, problems = self._link(germ_id(v))
        name = {x: edge_name(x) for s in (*triangles, *edges) for x in s}
        edges, triangles = ({frozenset(name[x] for x in s) for s in simplices}
                            for simplices in (edges, triangles))
        return VertexLink(v, tuple(sorted(name.values(), key=str)), edges, triangles, problems)

    def _link(self, v: int) -> tuple:
        """The link of vertex class v on edge class ids, from the corner
        germs and square corners that the closure filed under v: edges
        (a, b), a < b, -> square class, triangles (a, b, c), a < b < c, ->
        corner germ, and the problems in the order they were met."""
        eroot = self._eroot
        corners, square_corners = self._links[v]
        problems, triangles, edges = [], {}, {}
        for g in corners:
            base = 12 * (g >> 3)
            x, y, z = _CORNER_EDGES[g & 7]
            t = tuple(sorted((eroot[base + x], eroot[base + y], eroot[base + z])))
            if t[0] == t[1] or t[1] == t[2]:
                _kind, c, s, p = vertex_name(g)
                problems.append(f"degenerate corner of cube ({c},{s}) at port {p}")
                continue
            if t in triangles:
                _kind, c, s, _p = vertex_name(g)
                problems.append(f"corner of cube ({c},{s}) repeats the simplex of "
                                f"{vertex_name(triangles[t])[1:]}")
            triangles[t] = g
        for face, g, ea, eb in square_corners:
            a, b = eroot[ea], eroot[eb]
            if a == b:
                problems.append(f"square {face_name(face)} pinches at {vertex_name(g)}")
                continue
            pair = (a, b) if a < b else (b, a)
            if edges.get(pair, face) != face:
                problems.append(f"double edge between {sorted(str(edge_name(x)) for x in pair)}")
            edges[pair] = face
        missing = 0
        for a, b, c in triangles:
            missing += ((a, b) not in edges) + ((a, c) not in edges) + ((b, c) not in edges)
        problems += ["triangle with a missing edge"] * missing
        return edges, triangles, problems


def build_cubing(d: AlternatingDiagram) -> CubedComplex:
    """Construct the cubed exterior and check its structural laws.

    Raises if the closure of the gluings violates any of: two inner
    vertices, inner edges in bijection with regions, and one vertical edge
    per boundary vertex.  The construction rules out the rest.  Every
    interior face is glued exactly once: an edge has one side gluing per
    flanking region, and at each end the two flanking regions name the two
    side faces of that port's cube.  Gluings, corrupt ones included, pair
    germs of one kind only, so no class mixes kinds, and an inner edge
    class stays in the region whose corners it joins.  The hyperplanes are
    fixed by connectivity (see CubedComplex.counts), the boundary tori's
    Euler characteristics are left to boundary_cubings, and the negative
    control is CubedComplex.corrupt.
    """
    cx, c = CubedComplex(d), d.n
    counts = cx.counts
    checks = [("inner_vertices", 2), ("inner_edges", c + 2), ("vertical_edges", 2 * c),
              ("boundary_vertices", 2 * c), ("boundary_edges", 4 * c)]
    for key, want in checks:
        if counts[key] != want:
            raise CubingError(f"{key} = {counts[key]}, expected {want}")
    return cx


def verify_npc(cx: CubedComplex) -> dict:
    """Run the flag criterion, `_flag`'s clique count, over every vertex
    link on edge class ids, with no VertexLink built and names decoded for
    failing vertices only (oracles in tests/cubing_oracles.py).  Returns
    {"npc": bool, "vertices": [...], "failures": [...]}; a pass at every
    vertex establishes non-positive curvature."""
    entries, failures = [], []
    for v, name in zip(cx._vertex_ids, cx.vertices()):
        edges, triangles, problems = cx._link(v)
        if problems:
            ok, reason = False, f"non-simplicial: {problems[0]}"
        else:
            ok = _flag(edges, len(triangles))
            reason = None if ok else "non-flag clique"
        kind = "boundary" if v & 1 else "inner"
        entries.append({"vertex": str(name), "kind": kind, "flag": ok})
        if not ok:
            failures.append({"vertex": str(name), "kind": kind, "reason": reason})
    return {"npc": not failures, "vertices": entries, "failures": failures}


def link_angle_class(cx: CubedComplex, v, r1, r2) -> str:
    """'orthogonal' when the two region directions are joined in the link,
    'far' otherwise; defined at the two inner vertices."""
    rid1, rid2 = (r.index if isinstance(r, Region) else r for r in (r1, r2))
    if rid1 == rid2:
        raise CubingError("need two distinct regions")
    if v not in set(cx.inner_vertices):
        raise CubingError("angle classes are defined at the inner vertices")
    a, b = sorted((cx.region_edge[rid1], cx.region_edge[rid2]))
    return "orthogonal" if (a, b) in cx._link(germ_id(v))[0] else "far"


@dataclass
class BoundaryTorus:
    component: int
    squares: list
    euler: int
    meridian_diagonals: dict       # square -> (corner port a, corner port b)
    meridian_loops: int


def boundary_cubings(cx: CubedComplex) -> list[BoundaryTorus]:
    """Per-component boundary square complexes with meridian diagonals.

    Each boundary square is the outer face of one passage cube; squares
    group into tori by link component.  Exactly one diagonal of each
    square closes up into a loop around the strand (its two corners land
    on the same vertex class); these marked diagonals are the meridians.
    """
    d = cx.diagram
    vroot, eroot = cx._vroot, cx._eroot
    squares_of = [[] for _ in d.strands]
    for c in range(d.n):
        for idx, s in enumerate(PASSAGES):
            squares_of[d.strand_of_passage[(c, idx)]].append((c, s))
    tori = []
    for comp, squares in enumerate(squares_of):
        vclasses, eclasses, diag = set(), set(), {}
        for (c, s) in squares:
            q = 2 * c + (s == OVER)
            for p in range(4):
                vclasses.add(vroot[8 * q + 2 * p + 1])
                eclasses.add(eroot[12 * q + 3 * p + 2])
            # the meridian diagonal joins the top corners at the ports
            # transverse to the square's own strand; it closes into a loop
            p = 0 if s == OVER else 1
            if vroot[8 * q + 2 * p + 1] != vroot[8 * q + 2 * (p + 2) + 1]:
                raise CubingError(f"meridian diagonal of square ({c},{s}) does not close")
            diag[(c, s)] = (p, p + 2)
        chi = len(vclasses) - len(eclasses) + len(squares)
        tori.append(BoundaryTorus(comp, squares, chi, diag, len(diag)))
    return tori

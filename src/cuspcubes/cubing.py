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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

from .diagram import AlternatingDiagram, BLACK, WHITE, Region


class CubingError(ValueError):
    pass


OVER, UNDER = "over", "under"
PASSAGES = (UNDER, OVER)


def _passage_of_port(p: int) -> str:
    return UNDER if p % 2 == 0 else OVER


@dataclass(frozen=True)
class Gluing:
    """One identification of two square faces, with its germ matching."""

    kind: str                       # "bottom" or "side"
    faces: tuple
    vertex_pairs: tuple             # pairs of corner germs
    edge_pairs: tuple               # pairs of edge germs


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
    """Every pairwise-joined vertex set spans a simplex.

    The links of a cubed 3-complex are at most 2-dimensional, so a clique
    on 4 or more vertices can never span.  An edge therefore fails when a
    common neighbour of its ends misses the triangle with it, or is joined
    to another common neighbour.
    """
    if lk.problems:
        raise CubingError(f"link of {lk.vertex} is not simplicial: {lk.problems[0]}")
    adj = {v: set() for v in lk.vertices}
    for e in lk.edges:
        a, b = e
        adj[a].add(b)
        adj[b].add(a)
    for e in lk.edges:
        a, b = e
        common = adj[a] & adj[b]
        for c in common:
            if e | {c} not in lk.triangles or common & adj[c]:
                return False
    return True


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
        """Root -> members, both in first-seen order.  Every element's
        parent is left at its root, so `parent` is then the element ->
        class map."""
        out = {}
        parent = self.parent
        for x in parent:
            root = parent[x] = self.find(x)
            out.setdefault(root, []).append(x)
        return out


def _swap_partners(pairs: tuple) -> tuple:
    """Pairs 2i and 2i + 1 exchange their second members."""
    return tuple((a, pairs[i ^ 1][1]) for i, (a, _b) in enumerate(pairs))


def _square_corner(face: tuple, i: int) -> tuple:
    """Corner i (0..3) of a square face: its germ and its two edge germs
    along the face.  A side face k has corners at ports k and k + 1, on
    the bottom then on the top; a bottom or top face has corner i at port i.
    """
    c, s = face[1], face[2]
    if face[0] == "side":
        k = face[3]
        ck, flat = ("bc", "be") if i < 2 else ("tc", "te")
        p = (k + i % 2) % 4
        return (ck, c, s, p), (flat, c, s, k), ("ve", c, s, p)
    ck, flat = ("bc", "be") if face[0] == "bottom" else ("tc", "te")
    return (ck, c, s, i), (flat, c, s, (i - 1) % 4), (flat, c, s, i)


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

    def _corner_of_port(self, c: int, p: int, region: Region) -> int:
        """The corner k = p or p - 1 beside port p that lies in `region`,
        one of the two regions flanking the port's edge."""
        return p if self.diagram.corner_region(c, p).index == region.index else (p - 1) % 4

    def _build_gluings(self) -> None:
        d = self.diagram
        gluings: list[Gluing] = []
        for c in range(d.n):
            vertex_pairs = tuple((("bc", c, OVER, p), ("bc", c, UNDER, p)) for p in range(4))
            edge_pairs = tuple((("be", c, OVER, k), ("be", c, UNDER, k)) for k in range(4))
            gluings.append(Gluing("bottom", (("bottom", c, OVER), ("bottom", c, UNDER)),
                                  vertex_pairs, edge_pairs))
        for eid in range(len(d.edges)):
            (c1, p1), (c2, p2) = tuple(d.edges[eid])
            s1, s2 = _passage_of_port(p1), _passage_of_port(p2)
            for rid in set(d.edge_sides(eid)):
                R = d.regions[rid]
                k1 = self._corner_of_port(c1, p1, R)
                k2 = self._corner_of_port(c2, p2, R)
                far1 = k1 if k1 != p1 else (k1 + 1) % 4
                far2 = k2 if k2 != p2 else (k2 + 1) % 4
                vert = ((("bc", c1, s1, p1), ("bc", c2, s2, far2)),
                        (("bc", c1, s1, far1), ("bc", c2, s2, p2)),
                        (("tc", c1, s1, p1), ("tc", c2, s2, far2)),
                        (("tc", c1, s1, far1), ("tc", c2, s2, p2)))
                edge_pairs = ((("be", c1, s1, k1), ("be", c2, s2, k2)),
                              (("te", c1, s1, k1), ("te", c2, s2, k2)),
                              (("ve", c1, s1, p1), ("ve", c2, s2, far2)),
                              (("ve", c1, s1, far1), ("ve", c2, s2, p2)))
                gluings.append(Gluing("side", (("side", c1, s1, k1), ("side", c2, s2, k2)),
                                      vert, edge_pairs))
        self.gluings = gluings

    def corrupt(self, k: int) -> CubedComplex:
        """Negative control: uncross side gluing k, which matches each
        cube's port corner with the other's far corner, so that ports meet
        ports, and close the classes again; verify_npc then fails at a
        located vertex.  A bottom gluing (k < n) is left as it is.
        """
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
        d = self.diagram
        n = d.n
        vtx, edg, sqr = _UnionFind(), _UnionFind(), _UnionFind()
        for c in range(n):
            for s in PASSAGES:
                for p in range(4):
                    vtx.add(("bc", c, s, p))
                    vtx.add(("tc", c, s, p))
                    edg.add(("ve", c, s, p))
                    edg.add(("be", c, s, p))
                    edg.add(("te", c, s, p))
                    sqr.add(("side", c, s, p))
                sqr.add(("top", c, s))
                sqr.add(("bottom", c, s))
        for g in self.gluings:
            sqr.union(*g.faces)
            for a, b in g.vertex_pairs:
                vtx.union(a, b)
            for a, b in g.edge_pairs:
                edg.union(a, b)
        vclasses, eclasses = vtx.classes(), edg.classes()
        # classes() leaves each germ's parent at its root: the germ -> class maps
        self._vroot, self._eroot = vtx.parent, edg.parent
        self.inner_vertices = sorted(
            (root for root, members in vclasses.items() if members[0][0] == "bc"),
            key=lambda r: str(r))
        self.boundary_vertices = sorted(
            (root for root, members in vclasses.items() if members[0][0] == "tc"),
            key=lambda r: str(r))

        self.inner_edges = {}
        self.vertical_edges = []
        self.boundary_edges = []
        for root, members in eclasses.items():
            kind, c, _s, k = members[0]
            if kind == "be":
                self.inner_edges[root] = d.corner_region(c, k).index
            elif kind == "ve":
                self.vertical_edges.append(root)
            else:
                self.boundary_edges.append(root)
        self.region_edge = {rid: root for root, rid in self.inner_edges.items()}

        self.boundary_squares = [("top", c, s) for c in range(n) for s in PASSAGES]

        # the corner germs and the square corners at each vertex, for its
        # link; a square class is named by its first face, and a square
        # corner by that face and the corner's index on it
        links = self._links = {v: (vclasses[v], []) for v in self.vertices()}
        vroot = self._vroot
        interior = lines = 0
        for members in sqr.classes().values():
            face = members[0]
            interior += face[0] != "top" or len(members) > 1
            # the two half-axes of a crossing arc meet at its glued bottom faces
            lines += all(f[0] == "bottom" for f in members)
            for i in range(4):
                links[vroot[_square_corner(face, i)[0]]][1].append((face, i))
        self.interior_squares, self.crossing_lines = interior, lines

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
            "boundary_squares": len(self.boundary_squares),
            "interior_squares": self.interior_squares,
            # each color's 2n midsquares form one hyperplane: the bottom
            # gluing joins the over and under midsquares of a crossing, and
            # every edge has a side gluing in one region of each color, which
            # joins the midsquares of that color at its two ends; the
            # diagram is connected, so no color splits
            "hyperplanes": 2,
            "midsquares_per_hyperplane": {BLACK: 2 * n, WHITE: 2 * n},
            "crossing_lines": self.crossing_lines,
        }

    def to_json(self) -> dict:
        counts = self.counts
        return {
            "cubes": [list(q) for q in self.cubes],
            "gluings": [{"kind": g.kind, "faces": [list(map(str, f)) for f in g.faces]}
                        for g in self.gluings],
            "counts": counts,
            "hyperplanes": counts["midsquares_per_hyperplane"],
        }

    # -- vertex links -----------------------------------------------------------

    def vertices(self) -> list:
        return list(self.inner_vertices) + list(self.boundary_vertices)

    def vertex_link(self, v) -> VertexLink:
        """Simplicial complex of cube corners at a vertex class.

        For the two inner vertices this is the sphere obtained from the
        dual of the diagram by subdividing the dual region around each
        crossing, with one cone point per crossing.  It is built from the
        corner germs and square corners filed under v by the class closure.
        """
        eroot = self._eroot
        corners, square_corners = self._links[v]
        problems = []
        triangles = {}                  # simplex -> the corner it came from
        for ck, c, s, p in corners:
            flat = "be" if ck == "bc" else "te"
            dirs = {eroot[(flat, c, s, (p - 1) % 4)],
                    eroot[(flat, c, s, p)],
                    eroot[("ve", c, s, p)]}
            if len(dirs) != 3:
                problems.append(f"degenerate corner of cube ({c},{s}) at port {p}")
                continue
            t = frozenset(dirs)
            if t in triangles:
                problems.append(f"corner of cube ({c},{s}) repeats the simplex of {triangles[t]}")
            triangles[t] = (c, s, p)
        edges = {}                      # simplex -> the square class it came from
        for face, i in square_corners:
            corner, ea, eb = _square_corner(face, i)
            pair = frozenset((eroot[ea], eroot[eb]))
            if len(pair) != 2:
                problems.append(f"square {face} pinches at {corner}")
                continue
            if edges.get(pair, face) != face:
                problems.append(f"double edge between {sorted(map(str, pair))}")
            edges[pair] = face
        for t in triangles:
            problems += ["triangle with a missing edge"
                         for pair in combinations(t, 2) if frozenset(pair) not in edges]
        vertices = sorted({x for t in triangles for x in t} | {x for e in edges for x in e},
                          key=str)
        return VertexLink(v, tuple(vertices), set(edges), set(triangles), problems)

    def inner_link_vertex_of_region(self, v, rid: int):
        return self.region_edge[rid]


def build_cubing(d: AlternatingDiagram) -> CubedComplex:
    """Construct the cubed exterior and check its structural laws.

    Raises if the closure of the gluings violates any of: two inner
    vertices, inner edges in bijection with regions, one vertical edge per
    boundary vertex, and c axis classes.  The construction itself rules
    out what is not checked.  Every interior face is glued exactly once:
    an edge has one side gluing per flanking region, and at each end the
    two flanking regions name the two side faces of that port's cube.
    Gluings, corrupt ones included, pair germs of one kind only, so no
    vertex or edge class mixes kinds, and an inner edge class stays in the
    region whose corners it joins.  The two hyperplanes of 2c midsquares
    are fixed by connectivity (see CubedComplex.counts).  The Euler
    characteristic of each boundary torus is left to boundary_cubings.
    The negative control is CubedComplex.corrupt, applied to the checked
    complex.
    """
    cx = CubedComplex(d)
    c = d.n
    counts = cx.counts
    checks = [
        ("cubes", 2 * c), ("inner_vertices", 2), ("inner_edges", c + 2),
        ("boundary_squares", 2 * c), ("vertical_edges", 2 * c),
        ("boundary_vertices", 2 * c), ("boundary_edges", 4 * c),
        ("crossing_lines", c),
    ]
    for key, want in checks:
        if counts[key] != want:
            raise CubingError(f"{key} = {counts[key]}, expected {want}")
    return cx


def verify_npc(cx: CubedComplex) -> dict:
    """Run the flag criterion over every vertex link.

    Returns {"npc": bool, "vertices": [...], "failures": [...]}; a pass at
    every vertex establishes non-positive curvature.
    """
    entries = []
    failures = []
    inner = set(cx.inner_vertices)
    for v in cx.vertices():
        lk = cx.vertex_link(v)
        if lk.problems:
            ok = False
            reason = f"non-simplicial: {lk.problems[0]}"
        else:
            ok = is_flag(lk)
            reason = None if ok else "non-flag clique"
        kind = "inner" if v in inner else "boundary"
        entries.append({"vertex": str(v), "kind": kind, "flag": ok})
        if not ok:
            failures.append({"vertex": str(v), "kind": kind, "reason": reason})
    return {"npc": not failures, "vertices": entries, "failures": failures}


def link_angle_class(cx: CubedComplex, v, r1, r2) -> str:
    """'orthogonal' when the two region directions are joined in the link,
    'far' otherwise; defined at the two inner vertices."""
    rid1 = r1.index if isinstance(r1, Region) else r1
    rid2 = r2.index if isinstance(r2, Region) else r2
    if rid1 == rid2:
        raise CubingError("need two distinct regions")
    if v not in set(cx.inner_vertices):
        raise CubingError("angle classes are defined at the inner vertices")
    lk = cx.vertex_link(v)
    a = cx.inner_link_vertex_of_region(v, rid1)
    b = cx.inner_link_vertex_of_region(v, rid2)
    return "orthogonal" if frozenset((a, b)) in lk.edges else "far"


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
        for idx, s in ((0, UNDER), (1, OVER)):
            squares_of[d.strand_of_passage[(c, idx)]].append((c, s))
    tori = []
    for comp, squares in enumerate(squares_of):
        vclasses = set()
        eclasses = set()
        diag = {}
        loops = 0
        for (c, s) in squares:
            for p in range(4):
                vclasses.add(vroot[("tc", c, s, p)])
                eclasses.add(eroot[("te", c, s, p)])
            # the meridian diagonal joins the corners at the ports transverse
            # to the square's own strand; it closes into a loop around it
            p = 0 if s == OVER else 1
            a = vroot[("tc", c, s, p)]
            b = vroot[("tc", c, s, (p + 2) % 4)]
            if a != b:
                raise CubingError(
                    f"meridian diagonal of square ({c},{s}) does not close")
            diag[(c, s)] = (p, (p + 2) % 4)
            loops += 1
        chi = len(vclasses) - len(eclasses) + len(squares)
        tori.append(BoundaryTorus(comp, squares, chi, diag, loops))
    return tori

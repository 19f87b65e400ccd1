"""Oracles for the cubed complex, read only by the tests.

`vertex_links` builds every vertex link from the definition: it closes the
gluing lists of a complex over germ names with a union-find of its own,
and at each vertex class puts a triangle per cube corner (its three edge
classes) and an edge per corner of each square class (its two edge classes
along the square), listing every way the result fails to be a simplicial
complex.  `is_flag` is the flag condition on a link, `npc_report` the report
of `cuspcubes.cubing.verify_npc` from the two, and `link_angle_class` the
angle class of two regions at an inner vertex.  `germ_id` encodes a germ
name, `face_name` decodes a square face and `first_seen_germs` lists the
germ names of a complex in id order.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from cuspcubes.cubing import PASSAGES, CubingError

# germ kind -> (germs per cube, id step per port, offset)
_LAYOUT = {"bc": (8, 2, 0), "tc": (8, 2, 1), "ve": (12, 3, 0), "be": (12, 3, 1),
           "te": (12, 3, 2), "side": (6, 1, 0), "top": (6, 0, 4), "bottom": (6, 0, 5)}


def face_name(f: int) -> tuple:
    """The name of square face f, which `verify_npc` never prints: no
    square pinches (see `cuspcubes.cubing._link_failure`)."""
    q, k = divmod(f, 6)
    c, s = q >> 1, PASSAGES[q & 1]
    return ("side", c, s, k) if k < 4 else (("top", "bottom")[k - 4], c, s)


def germ_id(name: tuple) -> int:
    """The id of a vertex germ, an edge germ or a square face, by name."""
    per_cube, step, offset = _LAYOUT[name[0]]
    port = name[3] if len(name) > 3 else 0
    return (2 * name[1] + PASSAGES.index(name[2])) * per_cube + step * port + offset


@lru_cache
def first_seen_germs(n: int) -> tuple:
    """The vertex germs, edge germs and square faces of an n-crossing
    complex by name, each in the order a closure over names lists them,
    which is id order."""
    vertices, edges, faces = [], [], []
    for c in range(n):
        for s in PASSAGES:
            for p in range(4):
                vertices += [("bc", c, s, p), ("tc", c, s, p)]
                edges += [("ve", c, s, p), ("be", c, s, p), ("te", c, s, p)]
                faces.append(("side", c, s, p))
            faces += [("top", c, s), ("bottom", c, s)]
    return tuple(vertices), tuple(edges), tuple(faces)


def _closure(size: int, a: list, b: list) -> list:
    """The root of each id's class under the pairs zip(a, b), each pair
    putting the root of its first id under that of its second."""
    parent = list(range(size))
    for x, y in zip(a, b):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x != y:
            parent[x] = y
    for x in range(size):
        root = x
        while parent[root] != root:
            root = parent[root]
        parent[x] = root
    return parent


@lru_cache
def _layout(n: int) -> tuple:
    """The germ layout of an n-crossing complex: the edge germs at each
    vertex germ g, a corner of cube q = g // 8 at port p (the flat edges on
    either side of p, of the corner's own kind, bottom or top, and the
    vertical edge at p), and the corners of each square face f, as (corner
    germ, its two edge germs along the face): a side face k < 4 has its
    bottom then top corners at ports k and k + 1, a top or bottom face its
    corners at ports 0..3."""
    corner_edges = []
    for g in range(16 * n):
        q, r = divmod(g, 8)
        p, kind = divmod(r, 2)
        e = 12 * q
        corner_edges.append((e + 3 * ((p - 1) % 4) + 1 + kind, e + 3 * p + 1 + kind, e + 3 * p))
    square_corners = []
    for f in range(12 * n):
        q, k = divmod(f, 6)
        v, e = 8 * q, 12 * q
        if k < 4:
            square_corners.append(tuple((v + 2 * p + kind, e + 3 * k + 1 + kind, e + 3 * p)
                                        for kind in (0, 1) for p in (k, (k + 1) % 4)))
        else:
            kind = 5 - k                    # top corners on the top face
            square_corners.append(tuple((v + 2 * p + kind, e + 3 * ((p - 1) % 4) + 1 + kind, e + 3 * p + 1 + kind)
                                        for p in range(4)))
    return tuple(corner_edges), tuple(square_corners)


@dataclass
class VertexLink:
    """Abstract simplicial complex of cube corners at one vertex: its
    vertices are edge classes, by the id of their root."""

    vertex: tuple                   # the vertex class, by the name of its root
    edges: set                      # pairs of edge classes, the lesser first
    triangles: set                  # triples of edge classes, in increasing order
    problems: list = field(default_factory=list)
    folds: int = 0                  # square corners that give their square's edge again

    @property
    def vertices(self) -> tuple:
        return tuple(sorted({x for s in (*self.triangles, *self.edges) for x in s}))


def vertex_links(cx) -> dict:
    """Vertex class name -> link, from the gluing lists of cx closed by a
    union-find of this module: the square classes at each vertex are filed
    whole, and each link finds the class of every corner of every square it
    touches.  Problems come in the order met: corners in id order, then
    square corners by square class, then missing edges.  At the two inner
    vertices the link is the dual of the diagram with the dual region around
    each crossing subdivided by a cone point."""
    n = cx.diagram.n
    vnames, enames, fnames = first_seen_germs(n)       # the germ of id g is names[g]
    corner_edges, square_corners = _layout(n)
    vroot = _closure(16 * n, cx.va, cx.vb)
    eroot = _closure(24 * n, cx.ea, cx.eb)
    triangle = [tuple(sorted([eroot[x], eroot[y], eroot[z]])) for x, y, z in corner_edges]
    germs = {v: ([], []) for v in vroot}    # vertex class -> (corners, square corners)
    for g, v in enumerate(vroot):
        germs[v][0].append(g)
    squares = set()
    for face, root in enumerate(_closure(12 * n, cx.fa, cx.fb)):
        if root not in squares:             # each square class by its first face
            squares.add(root)
            for g, ea, eb in square_corners[face]:
                germs[vroot[g]][1].append((face, g, eroot[ea], eroot[eb]))

    links = {}
    for v, (corners, faces) in germs.items():
        problems, folds, triangles, edges = [], 0, {}, {}
        for g in corners:
            t = triangle[g]
            if t[0] == t[1] or t[1] == t[2]:
                _kind, c, s, p = vnames[g]
                problems.append(f"degenerate corner of cube ({c},{s}) at port {p}")
                continue
            if t in triangles:
                _kind, c, s, _p = vnames[g]
                problems.append(f"corner of cube ({c},{s}) repeats the simplex of {vnames[triangles[t]][1:]}")
            triangles[t] = g
        for face, g, a, b in faces:
            pair = (a, b) if a < b else (b, a)
            if a == b:
                problems.append(f"square {fnames[face]} pinches at {vnames[g]}")
                continue
            seen = edges.get(pair, face)
            if seen != face:
                problems.append(f"double edge between {sorted(str(enames[x]) for x in pair)}")
            elif pair in edges:
                folds += 1
            edges[pair] = face
        missing = sum(pair not in edges for t in triangles for pair in combinations(t, 2))
        problems += ["triangle with a missing edge"] * missing
        links[vnames[v]] = VertexLink(vnames[v], set(edges), set(triangles), problems, folds)
    return links


def is_flag(edges, triangles) -> bool:
    """Every set of pairwise joined vertices spans a simplex: each 3-clique,
    an edge with a common neighbour of its ends, is a triangle, and no
    3-clique has a common neighbour, which would make a 4-clique that a
    complex of at most two dimensions cannot span.  edges and triangles
    are collections of vertex pairs and triples."""
    triangles = {frozenset(t) for t in triangles}
    adj = defaultdict(set)
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    for a, b in edges:
        common = adj[a] & adj[b]
        for c in common:
            if frozenset((a, b, c)) not in triangles or not common.isdisjoint(adj[c]):
                return False
    return True


def npc_report(cx) -> dict:
    """The report of `verify_npc`, link by link: each vertex class, inner
    ones (bottom corners) first and each part by name, fails at the first
    problem of its link or, when it has none, unless the link is flag."""
    entries, failures = [], []
    links = vertex_links(cx)
    for v in sorted(links, key=lambda v: (v[0] == "tc", str(v))):
        lk = links[v]
        if lk.problems:
            reason = f"non-simplicial: {lk.problems[0]}"
        else:
            reason = None if is_flag(lk.edges, lk.triangles) else "non-flag clique"
        kind = "boundary" if v[0] == "tc" else "inner"
        entries.append({"vertex": str(v), "kind": kind, "flag": reason is None})
        if reason is not None:
            failures.append({"vertex": str(v), "kind": kind, "reason": reason})
    return {"npc": not failures, "vertices": entries, "failures": failures}


def region_edge(cx) -> dict[int, int]:
    """The inner edge class of each region, by region index.  An inner edge
    root 12q + 3k + 1 joins the corners at port k of crossing q >> 1, and
    corner k lies in the region of slot k + 1."""
    region, edge = cx.diagram.slot_region, {}
    for root in cx.inner_edges:
        q, k = root // 12, root % 12 // 3
        edge[region[4 * (q >> 1) + (k + 1) % 4]] = root
    return edge


def link_angle_class(cx, link: VertexLink, r1, r2) -> str:
    """'orthogonal' when the directions of regions r1 and r2, by index, are
    joined in the link of an inner vertex of cx, 'far' otherwise."""
    if r1 == r2:
        raise CubingError("need two distinct regions")
    if link.vertex not in set(cx.inner_vertices):
        raise CubingError("angle classes are defined at the inner vertices")
    edge = region_edge(cx)
    return "orthogonal" if tuple(sorted((edge[r1], edge[r2]))) in link.edges else "far"

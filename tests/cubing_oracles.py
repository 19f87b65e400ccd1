"""Oracles for the vertex links and the flag check, read only by the tests:
the link of a vertex class on edge class ids (`id_link`, from the corner
germs and square corners that `filed_germs` files under each class), the
clique-count flag check on its edges (`clique_flag`) and the report that
both give (`linked_verify`), the reference for the fused per-vertex pass of
`cuspcubes.cubing.verify_npc`; the same link with frozenset simplices and
the flag check as a walk over an adjacency dict that looks every common
neighbour's triangle up.  The named forms live here too: `VertexLink`,
`vertex_link` and `is_flag` on germ names, `germ_id`, which encodes a name,
`face_name`, which decodes a square face, and `link_angle_class`.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations

from cuspcubes.cubing import (_CORNER_EDGES, _SQUARE_CORNERS, PASSAGES, CubingError, edge_name,
                              vertex_name)

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


def filed_germs(cx) -> dict:
    """Vertex class -> (its corner germs, its square corners), in id order.
    A square class is a gluing's two faces, named by the lesser, or a top
    face alone; each of its corners is filed under the class of its corner
    germ as (face, corner germ, and the two edge germs along the face)."""
    vroot = cx._vroot
    partner = [-1] * (12 * cx.diagram.n)
    for a, b in zip(cx.fa, cx.fb):
        partner[a], partner[b] = b, a
    filed = {}
    for g, v in enumerate(vroot):
        filed.setdefault(v, ([], []))[0].append(g)
    for face, other in enumerate(partner):
        if 0 <= other < face:
            continue                # filed under its partner
        q, k = divmod(face, 6)
        vbase, ebase = 8 * q, 12 * q
        for corner, ea, eb in _SQUARE_CORNERS[k]:
            filed[vroot[vbase + corner]][1].append((face, vbase + corner, ebase + ea, ebase + eb))
    return filed


def id_link(cx, v: int, filed=None) -> tuple:
    """The link of vertex class v on edge class ids, from the corner germs
    and square corners filed under v: edges (a, b), a < b, -> square class,
    triangles (a, b, c), a < b < c, -> corner germ, and every problem in the
    order it was met."""
    eroot = cx._eroot
    corners, square_corners = (filed or filed_germs(cx))[v]
    problems, triangles, edges = [], {}, {}
    for g in corners:
        base = 12 * (g >> 3)
        x, y, z = _CORNER_EDGES[g & 7]
        a, b, c = sorted((eroot[base + x], eroot[base + y], eroot[base + z]))
        if a == b or b == c:
            _kind, c, s, p = vertex_name(g)
            problems.append(f"degenerate corner of cube ({c},{s}) at port {p}")
            continue
        t = (a, b, c)
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


def clique_flag(edges, triangles: int) -> bool:
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
        k = len(common)
        cliques += k
        if k == 2:
            c, e = common
            if c in adj[e]:
                return False
        elif k > 2:
            for c in common:
                if not common.isdisjoint(adj[c]):
                    return False
    return cliques == 3 * triangles


def linked_verify(cx) -> dict:
    """The report of `verify_npc`, link by link: each vertex class, inner
    (even ids) first and each part by name, fails at the first problem of
    its `id_link` or, when it has none, unless `clique_flag` passes."""
    filed = filed_germs(cx)
    entries, failures = [], []
    for v in sorted(filed, key=lambda v: (v & 1, str(vertex_name(v)))):
        edges, triangles, problems = id_link(cx, v, filed)
        if problems:
            ok, reason = False, f"non-simplicial: {problems[0]}"
        else:
            ok = clique_flag(edges, len(triangles))
            reason = None if ok else "non-flag clique"
        name, kind = str(vertex_name(v)), "boundary" if v & 1 else "inner"
        entries.append({"vertex": name, "kind": kind, "flag": ok})
        if not ok:
            failures.append({"vertex": name, "kind": kind, "reason": reason})
    return {"npc": not failures, "vertices": entries, "failures": failures}


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


def vertex_link(cx, v) -> VertexLink:
    """Simplicial complex of cube corners at a vertex class: `id_link` with
    its vertex and directions named.  At the two inner vertices this is the
    dual of the diagram with the dual region around each crossing
    subdivided by a cone point."""
    edges, triangles, problems = id_link(cx, cx._vroot[germ_id(v)])
    name = {x: edge_name(x) for s in (*triangles, *edges) for x in s}
    edges, triangles = ({frozenset(name[x] for x in s) for s in simplices}
                        for simplices in (edges, triangles))
    return VertexLink(v, tuple(sorted(name.values(), key=str)), edges, triangles, problems)


def is_flag(lk: VertexLink) -> bool:
    """Every pairwise-joined vertex set spans a simplex: `clique_flag` on
    the link's edges."""
    if lk.problems:
        raise CubingError(f"link of {lk.vertex} is not simplicial: {lk.problems[0]}")
    return clique_flag([tuple(e) for e in lk.edges], len(lk.triangles))


def region_edge(cx) -> dict[int, int]:
    """The inner edge class of each region, by region index.  An inner edge
    root 12q + 3k + 1 joins the corners at port k of crossing q >> 1, and
    corner k lies in the region of slot k + 1."""
    region, edge = cx.diagram.slot_region, {}
    for root in cx.inner_edges:
        q, k = root // 12, root % 12 // 3
        edge[region[4 * (q >> 1) + (k + 1) % 4]] = root
    return edge


def link_angle_class(cx, v, r1, r2) -> str:
    """'orthogonal' when the directions of regions r1 and r2, by index, are
    joined in the link, 'far' otherwise; defined at the two inner vertices."""
    if r1 == r2:
        raise CubingError("need two distinct regions")
    if v not in set(cx.inner_vertices):
        raise CubingError("angle classes are defined at the inner vertices")
    edge = region_edge(cx)
    a, b = sorted((edge[r1], edge[r2]))
    return "orthogonal" if (a, b) in id_link(cx, cx._vroot[germ_id(v)])[0] else "far"


def frozenset_link(cx, v: int, filed=None) -> VertexLink:
    """The link of vertex class v with edge class ids for directions,
    built from the corner germs and square corners filed under v, with
    frozenset simplices."""
    eroot = cx._eroot
    corners, square_corners = (filed or filed_germs(cx))[v]
    problems = []
    triangles = {}                  # simplex -> the corner germ it came from
    for g in corners:
        base = 12 * (g >> 3)
        x, y, z = _CORNER_EDGES[g & 7]
        t = frozenset((eroot[base + x], eroot[base + y], eroot[base + z]))
        if len(t) != 3:
            _kind, c, s, p = vertex_name(g)
            problems.append(f"degenerate corner of cube ({c},{s}) at port {p}")
            continue
        if t in triangles:
            _kind, c, s, _p = vertex_name(g)
            problems.append(f"corner of cube ({c},{s}) repeats the simplex of "
                            f"{vertex_name(triangles[t])[1:]}")
        triangles[t] = g
    edges = {}                      # simplex -> the square class it came from
    for face, g, ea, eb in square_corners:
        pair = frozenset((eroot[ea], eroot[eb]))
        if len(pair) != 2:
            problems.append(f"square {face_name(face)} pinches at {vertex_name(g)}")
            continue
        if edges.get(pair, face) != face:
            problems.append(f"double edge between {sorted(str(edge_name(x)) for x in pair)}")
        edges[pair] = face
    problems += ["triangle with a missing edge"] * sum(
        frozenset(pair) not in edges for t in triangles for pair in combinations(t, 2))
    return VertexLink(v, tuple(set().union(*triangles, *edges)), set(edges), set(triangles),
                      problems)


def walked_is_flag(lk: VertexLink) -> bool:
    """Every pairwise-joined vertex set spans a simplex: an edge fails when
    a common neighbour of its ends misses the triangle with it, or is
    joined to another common neighbour (a clique on 4 vertices, which a
    link of at most 2 dimensions cannot span)."""
    if lk.problems:
        raise CubingError(f"link of {lk.vertex} is not simplicial: {lk.problems[0]}")
    adj = {v: set() for v in lk.vertices}
    for a, b in lk.edges:
        adj[a].add(b)
        adj[b].add(a)
    for a, b in lk.edges:
        common = adj[a] & adj[b]
        for c in common:
            if frozenset((a, b, c)) not in lk.triangles or not common.isdisjoint(adj[c]):
                return False
    return True

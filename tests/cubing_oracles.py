"""Oracles for the vertex links and the flag check, read only by the tests:
the link of a vertex class as frozensets of edge class ids, and the flag
check as a walk over an adjacency dict that looks every common neighbour's
triangle up.  `cuspcubes.cubing` builds the same links on id tuples and
decides flagness by counting cliques; these are the references for both.
The named forms live here too: `VertexLink`, `vertex_link` and `is_flag`
on germ names, `germ_id`, which encodes a name, and `link_angle_class`.
"""

from dataclasses import dataclass, field
from itertools import combinations

from cuspcubes.cubing import (_CORNER_EDGES, PASSAGES, CubingError, _flag, edge_name, face_name,
                              vertex_name)
from cuspcubes.diagram import Region

# germ kind -> (germs per cube, id step per port, offset)
_LAYOUT = {"bc": (8, 2, 0), "tc": (8, 2, 1), "ve": (12, 3, 0), "be": (12, 3, 1),
           "te": (12, 3, 2), "side": (6, 1, 0), "top": (6, 0, 4), "bottom": (6, 0, 5)}


def germ_id(name: tuple) -> int:
    """The id of a vertex germ, an edge germ or a square face, by name."""
    per_cube, step, offset = _LAYOUT[name[0]]
    port = name[3] if len(name) > 3 else 0
    return (2 * name[1] + PASSAGES.index(name[2])) * per_cube + step * port + offset


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
    """Simplicial complex of cube corners at a vertex class: `_link` with
    its vertex and directions named.  At the two inner vertices this is the
    dual of the diagram with the dual region around each crossing
    subdivided by a cone point."""
    edges, triangles, problems = cx._link(germ_id(v))
    name = {x: edge_name(x) for s in (*triangles, *edges) for x in s}
    edges, triangles = ({frozenset(name[x] for x in s) for s in simplices}
                        for simplices in (edges, triangles))
    return VertexLink(v, tuple(sorted(name.values(), key=str)), edges, triangles, problems)


def is_flag(lk: VertexLink) -> bool:
    """Every pairwise-joined vertex set spans a simplex: `cubing._flag` on
    the link's edges."""
    if lk.problems:
        raise CubingError(f"link of {lk.vertex} is not simplicial: {lk.problems[0]}")
    return _flag([tuple(e) for e in lk.edges], len(lk.triangles))


def link_angle_class(cx, v, r1, r2) -> str:
    """'orthogonal' when the two region directions are joined in the link,
    'far' otherwise; defined at the two inner vertices."""
    rid1, rid2 = (r.index if isinstance(r, Region) else r for r in (r1, r2))
    if rid1 == rid2:
        raise CubingError("need two distinct regions")
    if v not in set(cx.inner_vertices):
        raise CubingError("angle classes are defined at the inner vertices")
    a, b = sorted((cx.region_edge[rid1], cx.region_edge[rid2]))
    return "orthogonal" if (a, b) in cx._link(germ_id(v))[0] else "far"


def frozenset_link(cx, v: int) -> VertexLink:
    """The link of vertex class v with edge class ids for directions,
    built from the corner germs and square corners that the class closure
    filed under v, with frozenset simplices."""
    eroot = cx._eroot
    corners, square_corners = cx._links[v]
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

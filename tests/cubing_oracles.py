"""Oracles for the vertex links and the flag check, read only by the tests:
the link of a vertex class as frozensets of edge class ids, and the flag
check as a walk over an adjacency dict that looks every common neighbour's
triangle up.  `cuspcubes.cubing` builds the same links on id tuples and
decides flagness by counting cliques; these are the references for both.
"""

from itertools import combinations

from cuspcubes.cubing import _CORNER_EDGES, CubingError, VertexLink, edge_name, face_name, vertex_name


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

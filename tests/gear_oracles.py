"""Oracle for the gear edge classes, read only by the tests: the closure of
the gear identifications by union-find, the reference for the closed form
that `cuspcubes.diagram.arc_crossing` and the polyhedra module state, and
the edge gluings that a built pair's transfer shift states, to be compared
with it.
"""

from cuspcubes.cubing import _UnionFind
from cuspcubes.diagram import BLACK
from diagram_oracles import edge_endpoints


def edge_arc_classes(d, mirror=False):
    """Partition of signed edges (sign, edge id) under the gear identifications.

    Each region's boundary cycle in one copy of the diagram sphere is glued
    to the other copy rotated by one edge, clockwise on black regions and
    anticlockwise on white ones (the mirror flag flips both).  Returns
    (members, crossing) per class, the crossing being the common end of all
    four members at which the positive-copy members take the over-ports
    (under-ports under the mirror flag); a class without exactly one such
    crossing fails the assertion.
    """
    n_edges = len(d.edges)
    uf = _UnionFind(2 * n_edges)        # signed edge (1, e) is id e, (-1, e) is n_edges + e
    for R in d.regions:
        walk = [d._edge[4 * c + i] for c, i in R.boundary]
        m = len(walk)
        shift = 1 if (R.color == BLACK) != mirror else -1
        uf.union((walk[j], n_edges + walk[(j + shift) % m]) for j in range(m))
    uf.roots()
    classes = {}                        # root -> members, both in id order
    for x, root in enumerate(uf.parent):
        classes.setdefault(root, []).append(x)
    out = []
    for ids in classes.values():
        members = [(1, x) if x < n_edges else (-1, x - n_edges) for x in ids]
        common = set.intersection(*(set(edge_endpoints(d, e)) for _s, e in members))

        def pos_ports(cand):
            return tuple(sorted(i for s, e in members if s == 1 for (x, i) in d.edges[e] if x == cand))

        want = (0, 2) if mirror else (1, 3)
        chosen = [cand for cand in common if pos_ports(cand) == want]
        assert len(chosen) == 1, "gear class has no unambiguous crossing"
        out.append((members, chosen[0]))
    return out


def closed_form_classes(d, mirror=False):
    """Crossing -> its class as the closed form states it."""
    pos, neg = ((0, 2), (1, 3)) if mirror else ((1, 3), (0, 2))
    return {x: {(1, d._edge[4 * x + i]) for i in pos} | {(-1, d._edge[4 * x + i]) for i in neg}
            for x in range(d.n)}


def transfer_pairs(d, pp):
    """(region, positive edge, negative edge) for each gluing that the pair's
    transfer shift states: w[j] with w[j + shift] along the region's walk w."""
    for R in d.regions:
        walk = [d._edge[4 * c + i] for c, i in R.boundary]
        shift = pp.transfer_shift(R.color)
        for j, e in enumerate(walk):
            yield R, e, walk[(j + shift) % len(walk)]

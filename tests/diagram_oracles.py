"""Oracle for the diagram constructor, read only by the tests: the
construction checks in their order, with alternation checked by walking
every strand and the checkerboard coloring found by a depth-first
2-coloring of the region adjacency graph.  It is the reference for the
parity rules of `cuspcubes.diagram.AlternatingDiagram` (every edge joins an
even slot to an odd one; even faces are black) and for its strands.
"""

from cuspcubes.diagram import (AlternatingDiagram, BLACK, WHITE, DiagramError, _check_size,
                               _face_walk)


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


def read_off(d):
    """d's region colors, strands and strand_of_passage items (in its
    iteration order), the form `walked_diagram` returns."""
    return [R.color for R in d.regions], d.strands, list(d.strand_of_passage.items())


def built_diagram(n, pairing):
    """What the constructor makes of a pairing, read off as `read_off` does."""
    return read_off(AlternatingDiagram(n, pairing))


def outcome(build, n, pairing):
    """build(n, pairing), or the message of the DiagramError it raises."""
    try:
        return build(n, pairing)
    except DiagramError as err:
        return str(err)

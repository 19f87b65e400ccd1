"""Oracle for the circle-pattern layout, read only by the tests: Tutte's
barycentric relaxation run for all of its 200 Jacobi sweeps over
crossing-keyed dicts, the reference for `cuspcubes.polyhedra._tutte_layout`,
which stops early at an exact fixed point or 2-cycle.
"""

from cuspcubes.diagram import AlternatingDiagram


def _tutte_layout(d: AlternatingDiagram, outer_region: int | None = None) -> dict[int, tuple[float, float]]:
    """Planar positions for the crossings: pin the outer region's crossings
    on a circle and place the rest at the average of their neighbors."""
    import math

    if outer_region is None:
        outer_region = max(range(len(d.regions)), key=lambda i: len(d.regions[i].boundary))
    outer = d.regions[outer_region]
    ring = []
    for c, _i in outer.boundary:
        if c not in ring:
            ring.append(c)
    pos: dict[int, tuple[float, float]] = {}
    for j, c in enumerate(ring):
        ang = 2 * math.pi * j / len(ring)
        pos[c] = (math.cos(ang), math.sin(ang))
    inner = [c for c in range(d.n) if c not in pos]
    if not inner:
        return pos
    nbrs = {c: [] for c in inner}
    for c in inner:
        for i in range(4):
            nbrs[c].append(d.pairing[(c, i)][0])
    guess = {c: (0.0, 0.0) for c in inner}
    for _ in range(200):
        nxt = {}
        for c in inner:
            xs = [(pos.get(w) or guess[w])[0] for w in nbrs[c]]
            ys = [(pos.get(w) or guess[w])[1] for w in nbrs[c]]
            nxt[c] = (sum(xs) / 4, sum(ys) / 4)
        guess = nxt
    pos.update(guess)
    return pos


def first_repeat(d: AlternatingDiagram) -> tuple[int, int] | None:
    """The first sweep of the relaxation above whose state equals an earlier
    one, with the period of the repeat, or None if none of the 200 sweeps
    repeats; every state is kept."""
    import math

    outer = d.regions[max(range(len(d.regions)), key=lambda i: len(d.regions[i].boundary))]
    ring = list(dict.fromkeys(c for c, _i in outer.boundary))
    pos = {c: (math.cos(2 * math.pi * j / len(ring)), math.sin(2 * math.pi * j / len(ring)))
           for j, c in enumerate(ring)}
    inner = [c for c in range(d.n) if c not in pos]
    guess = {c: (0.0, 0.0) for c in inner}
    seen = [guess]
    for done in range(1, 201):
        guess = {c: tuple(sum([(pos.get(w) or guess[w])[k] for w in
                               (d.pairing[(c, i)][0] for i in range(4))]) / 4 for k in (0, 1))
                 for c in inner}
        if guess in seen:
            return done, len(seen) - seen.index(guess)
        seen.append(guess)
    return None

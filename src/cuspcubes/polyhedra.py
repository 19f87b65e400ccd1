"""Checkerboard ideal polyhedral decomposition of an alternating link complement.

Two copies of the diagram ball are glued face-to-face by the gear rule:
each region's face of the positive copy meets the same region's face of
the negative copy after a rotation by one edge, clockwise on black regions
and anticlockwise on white ones (a global mirror flag flips both).  The
induced edge identifications tie the sphere edges into classes of four,
one class per crossing arc, in closed form: the class of crossing x is
e(x, 1), e(x, 3) in the positive copy and e(x, 0), e(x, 2) in the negative
one, e(x, i) the edge at slot i of x, with the two pairs swapped under the
mirror flag (`diagram.arc_crossing`).  Half-space combinatorics reduce to
region adjacency in the diagram (the far half-spaces of two region planes
are disjoint exactly when no edge has the two regions on its sides).  What
is left to the glued pair is what the mirror flag decides: the order of
the wing pair at a crossing and the direction of the shift across a face,
both read off region indices and slot parity.
"""

from __future__ import annotations

from .diagram import AlternatingDiagram, BLACK, WHITE, is_prime


class PolyhedraError(ValueError):
    pass


class IdealPolyhedronPair:
    """The glued pair of checkerboard ideal polyhedra of a prime diagram."""

    def __init__(self, d: AlternatingDiagram, mirror: bool = False):
        if not is_prime(d):
            raise PolyhedraError("the checkerboard decomposition needs a prime diagram")
        self.diagram = d
        self.mirror = mirror

    def wings(self, c: int, color: str) -> tuple[int, int]:
        """The two same-color regions at crossing c, by index, the wings of
        the strand rotation there; they are distinct on prime reduced
        diagrams.  The corner after port k is the region of slot k + 1, and
        the lower corner comes first: slots 2, 0 (even, black) or 1, 3
        (odd, white).  The mirror flag flips the order.
        """
        if color not in (BLACK, WHITE):
            raise PolyhedraError("color must be black or white")
        region, h = self.diagram.slot_region, 4 * c
        pair = (region[h + 2], region[h]) if color == BLACK else (region[h + 1], region[h + 3])
        return pair[::-1] if self.mirror else pair

    def transfer_shift(self, color: str) -> int:
        """The gear rotation across a face of the given color: along its
        boundary walk w, positive-copy edge w[j] is glued to negative-copy
        edge w[j + shift]; +1 on black faces and -1 on white ones, flipped
        by the mirror flag."""
        return 1 if (color == BLACK) != self.mirror else -1


def build_polyhedra(d: AlternatingDiagram, mirror: bool = False) -> IdealPolyhedronPair:
    """Glue the two copies of the diagram ball by the gear rule."""
    return IdealPolyhedronPair(d, mirror)


# ---------------------------------------------------------------------------
# Circle pattern drawing
# ---------------------------------------------------------------------------

def _tutte_layout(d: AlternatingDiagram, outer_region: int) -> dict[int, tuple[float, float]]:
    """Planar positions for the crossings: pin the outer region's crossings
    on a circle and place the rest at the average of their neighbors.

    The relaxation is 200 Jacobi sweeps from the origin.  It stops early
    when a sweep gives back the state of one sweep before (a fixed point)
    or of two sweeps before (a 2-cycle, whose parity then picks the state),
    so every coordinate is the float that all 200 sweeps give."""
    import math

    ring = list(dict.fromkeys(c for c, _i in d.regions[outer_region].boundary))
    at = {c: j for j, c in enumerate(ring)}
    for c in range(d.n):
        at.setdefault(c, len(at))
    # The flat state holds the ring's pinned positions first, then the inner
    # crossings; each inner crossing's neighbours are indices into it.
    pinned = len(ring)
    nbrs = [[at[d.pairing[(c, i)][0]] for i in range(4)] for c in list(at)[pinned:]]

    def sweep(xs, ys):
        return (xs[:pinned] + [sum([xs[a], xs[b], xs[c], xs[e]]) / 4 for a, b, c, e in nbrs],
                ys[:pinned] + [sum([ys[a], ys[b], ys[c], ys[e]]) / 4 for a, b, c, e in nbrs])

    angles = [2 * math.pi * j / pinned for j in range(pinned)]
    state = ([math.cos(a) for a in angles] + [0.0] * len(nbrs),
             [math.sin(a) for a in angles] + [0.0] * len(nbrs))
    back = None
    for done in range(1, 201):
        new = sweep(*state)
        if new == state:
            break
        if new == back:
            if (200 - done) % 2 == 0:
                state = new
            break
        back, state = state, new
    xs, ys = state
    return {c: (xs[j], ys[j]) for c, j in at.items()}


def circle_pattern_svg(d: AlternatingDiagram) -> str:
    """Draw one circle per region, near its boundary crossings, black and
    white layered, on a 480-pixel square with the largest region outside;
    purely illustrative."""
    import math

    size = 480
    outer_region = max(range(len(d.regions)), key=lambda i: len(d.regions[i].boundary))
    pos = _tutte_layout(d, outer_region)
    pad = 0.35
    xs = [p[0] for p in pos.values()]
    ys = [p[1] for p in pos.values()]
    lo = min(min(xs), min(ys)) - pad
    hi = max(max(xs), max(ys)) + pad

    def to_px(x, y):
        sx = (x - lo) / (hi - lo) * size
        sy = (y - lo) / (hi - lo) * size
        return sx, sy

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    for h, k in sorted(d.pairing.items()):
        if h > k:
            continue
        x1, y1 = to_px(*pos[h[0]])
        x2, y2 = to_px(*pos[k[0]])
        parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                     f'stroke="#bbbbbb" stroke-width="1"/>')
    scale = size / (hi - lo)
    for R in d.regions:
        cs = list(R.distinct_crossings)
        px = [pos[c][0] for c in cs]
        py = [pos[c][1] for c in cs]
        if R.index == outer_region:
            cx_, cy_ = (lo + hi) / 2, (lo + hi) / 2
            rad = (hi - lo) / 2 * 0.98 * scale
            sx, sy = to_px(cx_, cy_)
        else:
            cx_, cy_ = sum(px) / len(px), sum(py) / len(py)
            rad = max(math.hypot(x - cx_, y - cy_) for x, y in zip(px, py))
            rad = max(rad, 0.12) * 1.08 * scale
            sx, sy = to_px(cx_, cy_)
        color = "black" if R.color == BLACK else "#d07000"
        parts.append(f'<circle cx="{sx:.1f}" cy="{sy:.1f}" r="{rad:.1f}" fill="none" '
                     f'stroke="{color}" stroke-width="1.6" opacity="0.85"/>')
    parts.append("</svg>")
    return "\n".join(parts)

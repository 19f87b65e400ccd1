"""Classification of meridian pairs presented by proper arcs in the exterior.

A proper arc is given combinatorially: a crossing arc, an arc inside one
region joining two of its crossings, or an arc transverse to the diagram
with the word of edges it crosses.  For standard two-bridge diagrams the
crossing arcs of the two end twist regions are the tunnels, whose pairs
generate the whole group; every other essential class yields a rank-two
free, geometrically finite group, and the verdict carries a witness: two
pairs of same-color wing regions with pairwise distinct members plus a
spare region certifying that the four wing disks leave the sphere
uncovered.

The classifiers return each verdict as the JSON dict that `cuspcubes
decide` prints, shaped as docs/schemas/decide.verdict.v1.json describes:
"verdict" (one of the five constants below) and "notes", then "tunnel",
"witness", "flype" and "witness_diagram" where they apply.
"""

from __future__ import annotations

from .diagram import (AlternatingDiagram, BLACK, WHITE, CrossingArc,
                      InRegionArc, TransverseArc, TwoBridgeDiagram,
                      crossings_adjacent_on_region, find_small_white_region, flype,
                      is_prime, is_reduced, two_bridge_diagram)
from .polyhedra import IdealPolyhedronPair, build_polyhedra


class DecideError(ValueError):
    pass


INESSENTIAL = "Inessential"
GENERATES_LINK_GROUP = "GeneratesLinkGroup"
FREE_GEOMETRICALLY_FINITE = "FreeGeometricallyFinite"
CROSSING_ARC_NOT_COVERED = "CrossingArcNotCovered"
CROSSING_ARC_EQUIVALENT = "CrossingArcEquivalent"


# ---------------------------------------------------------------------------
# Spare regions
# ---------------------------------------------------------------------------

def witness_spare_region(d: AlternatingDiagram, wings: tuple[int, ...], color: str,
                         pp: IdealPolyhedronPair) -> dict:
    """Produce the fifth-region certificate for the wing regions, given by
    index, of the glued pair pp of diagram d.

    With five or more regions of the wing color, any unused one works:
    same-color regions are never adjacent, since every edge separates a
    black region from a white one ("kind": "direct"; its plane's far
    half-space avoids all four wing half-spaces).  With exactly four, a
    small opposite-color region with pairwise distinct neighbors
    ("via_region", a "via_kind" bigon or trigon) transfers the wing planes
    across its face, freeing a non-adjacent region ("kind": "transfer");
    with three (possible only for three distinct wings) the small region is
    a bigon.  Fewer than three are refused by `find_small_white_region`,
    which counts the same regions.  A same-color region is adjacent to the
    small one only across one of its two or three edges, so with three
    regions and a bigon, or four and a bigon or trigon, one region is free.
    Regions of a color are those of the slots of its parity, even for black.
    """
    region = d.slot_region
    same = sorted(set(region[0::2] if color == BLACK else region[1::2]))
    if not set(wings) <= set(same):
        raise DecideError("wing regions must all have the witness color")
    others = [r for r in same if r not in wings]
    if len(same) >= 5:
        if not others:
            raise DecideError(f"the wings use all {len(same)} regions of the witness color; "
                              "no spare region is left")
        return {"kind": "direct", "region": others[0],
                "note": "same color as the wings, hence adjacent to none of them; "
                        "its plane's far side misses all four wing half-spaces"}
    opposite = WHITE if color == BLACK else BLACK
    small, kind = find_small_white_region(d, witness_color=opposite)
    # the two ends of a wire lie in the regions on the two sides of its edge
    sides = [(region[a], region[b]) for a, b in d.wires]
    near = {r for pair in sides if small in pair for r in pair}
    candidates = [r for r in same if r not in near]
    return {"kind": "transfer", "region": candidates[0],
            "note": f"the {kind} face shifts neighbor planes by one between the two copies; "
                    f"region {candidates[0]} is not adjacent to it, so its far disk in the "
                    f"neighboring copy avoids all four wings",
            "via_region": small, "via_kind": kind,
            "transfer_shift": pp.transfer_shift(opposite)}


def _build_witness(d: AlternatingDiagram, pp: IdealPolyhedronPair, c1: int, c2: int,
                   color: str, case: str) -> dict:
    ids = pp.wings(c1, color) + pp.wings(c2, color)
    if len(set(ids)) != 4:
        raise DecideError(
            f"wing regions {ids} at crossings {c1}, {c2} are not pairwise distinct; "
            "the arc data is not in reduced position")
    spare = witness_spare_region(d, ids, color, pp)
    return {"color": color, "wings": {"first": list(ids[:2]), "second": list(ids[2:])},
            "endpoints": [c1, c2], "spare": spare, "case": case}


# ---------------------------------------------------------------------------
# Arc reduction
# ---------------------------------------------------------------------------

def _reduce_edge_word(word: tuple[int, ...]) -> tuple[int, ...]:
    """Bigon reduction: cancel immediately repeated edge crossings, in one
    stack pass.  Each letter is its own inverse, so the result is the one
    reduced word; reaching the true minimal position is not claimed.
    """
    out: list[int] = []
    for e in word:
        if out and out[-1] == e:
            out.pop()
        else:
            out.append(e)
    return tuple(out)


def _hyperbolic_candidate(d: AlternatingDiagram) -> None:
    blacks = len(set(d.slot_region[0::2]))
    whites = d.n + 2 - blacks
    if blacks < 3 or whites < 3:
        raise DecideError(
            f"{blacks} black / {whites} white regions: torus-link form, "
            "not a hyperbolic alternating link")


# ---------------------------------------------------------------------------
# Classifiers
# ---------------------------------------------------------------------------

def classify_alternating_pair(d: AlternatingDiagram, arc, mirror: bool = False) -> dict:
    """Classify the meridian pair of a combinatorial proper arc.

    Crossing arcs of a general diagram are outside this classifier's scope
    and reported as such; in-region arcs with endpoints adjacent along the
    region are crossing arcs in disguise and reported likewise.  Everything
    else essential yields a free, geometrically finite verdict with a
    verified wing witness: in-region arcs with separated endpoints directly,
    transverse arcs after greedy reduction of their edge word.
    """
    if not is_prime(d) or not is_reduced(d):
        raise DecideError("classification requires a prime reduced alternating diagram")
    _hyperbolic_candidate(d)
    pp = build_polyhedra(d, mirror)
    region = d.slot_region

    if isinstance(arc, CrossingArc):
        if not (0 <= arc.crossing < d.n):
            raise DecideError(f"no crossing {arc.crossing}")
        return {"verdict": CROSSING_ARC_NOT_COVERED,
                "notes": ["crossing arcs of general alternating diagrams are not decided here; "
                          "for standard two-bridge diagrams use the twist-sequence classifier"]}

    if isinstance(arc, InRegionArc):
        if not (0 <= arc.region < d.n + 2):
            raise DecideError(f"no region {arc.region}")
        for c in (arc.c1, arc.c2):
            # c >= n needs no test of its own: its slot slice is empty
            if not (c >= 0 and arc.region in region[4 * c:4 * c + 4]):
                raise DecideError(f"crossing {c} is not on the boundary of region {arc.region}")
        if crossings_adjacent_on_region(d, arc.region, arc.c1, arc.c2):
            return {"verdict": CROSSING_ARC_EQUIVALENT,
                    "notes": ["the endpoints are adjacent along the region boundary, so the arc "
                              "is parallel to an edge and its pair is a crossing-arc pair"]}
        # a region is black when its slots are even; the wings take the other color
        color = BLACK if region.index(arc.region) & 1 else WHITE
        witness = _build_witness(d, pp, arc.c1, arc.c2, color, "in-region")
        return {"verdict": FREE_GEOMETRICALLY_FINITE, "notes": [], "witness": witness}

    if isinstance(arc, TransverseArc):
        for c in (arc.c1, arc.c2):
            if not (0 <= c < d.n):
                raise DecideError(f"no crossing {c}")
        for e in arc.edge_word:
            if not (0 <= e < 2 * d.n):
                raise DecideError(f"no edge {e}")
        word = _reduce_edge_word(arc.edge_word)
        if not word:
            if arc.c1 == arc.c2:
                return {"verdict": INESSENTIAL,
                        "notes": ["empty reduced word with equal endpoints"]}
            common = set(region[4 * arc.c1:4 * arc.c1 + 4]) & set(region[4 * arc.c2:4 * arc.c2 + 4])
            if not common:
                raise DecideError(
                    "empty reduced word but the endpoints share no region; malformed arc")
            shared = min(common)
            # an edge joins c1 and c2 along every region that holds both, or
            # along none: if edge e does, between regions X and Y, a third
            # region R holding both lies opposite X at each (it has X's
            # color), so the edges between Y and R at c1 and at c2 share
            # both their regions, and primeness makes them one edge of R
            if crossings_adjacent_on_region(d, shared, arc.c1, arc.c2):
                return {"verdict": CROSSING_ARC_EQUIVALENT,
                        "notes": ["after reduction the arc lies along a region edge"]}
            return classify_alternating_pair(d, InRegionArc(shared, arc.c1, arc.c2), mirror)
        try:
            witness = _build_witness(d, pp, arc.c1, arc.c2, BLACK, "transverse")
            return {"verdict": FREE_GEOMETRICALLY_FINITE, "notes": [], "witness": witness}
        except DecideError as err:
            return {"verdict": FREE_GEOMETRICALLY_FINITE,
                    "notes": ["witness withheld: " + str(err),
                              "greedy reduction may not reach the minimal position; the "
                              "class is still not a crossing arc, so the conclusion stands"]}

    raise DecideError(f"unknown arc specification: {arc!r}")


def classify_2bridge_pair(tb, arc, mirror: bool = False) -> dict:
    """Classify a meridian pair on a standard two-bridge diagram.

    Crossing arcs in the first and last twist regions are the upper and
    lower tunnels and generate the whole link group.  A crossing arc in an
    interior region is flyped until its image separates inside a region,
    then classified there; the verdict adds the flype trace and the flyped
    diagram, whose regions the witness names.  Other arcs classify directly.
    """
    if not isinstance(tb, TwoBridgeDiagram):          # a TwoBridgeDiagram is a tuple too
        if not isinstance(tb, (tuple, list)):
            raise DecideError("need a twist sequence or a standard two-bridge diagram")
        tb = two_bridge_diagram(tb)
    d = tb.diagram
    n = len(tb.seq)

    if isinstance(arc, CrossingArc):
        c = arc.crossing
        if not (0 <= c < d.n):
            raise DecideError(f"no crossing {c}")
        i = tb.twist_region_of[c]
        if i == 1:
            return {"verdict": GENERATES_LINK_GROUP,
                    "notes": ["crossing arc in the first twist region is the upper tunnel"],
                    "tunnel": "upper"}
        if i == n:
            return {"verdict": GENERATES_LINK_GROUP,
                    "notes": ["crossing arc in the last twist region is the lower tunnel"],
                    "tunnel": "lower"}
        fr = flype(tb, i, c)
        # at most two flypes across the tail of the diagram carry the arc to
        # an image arc whose endpoints are not adjacent along its region, so
        # the in-region case gives a free verdict
        inner = classify_alternating_pair(fr.diagram, fr.arc, mirror)
        return {**inner, "flype": fr.trace, "witness_diagram": fr.diagram.to_json()}

    return classify_alternating_pair(d, arc, mirror)

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (integer or rational arithmetic); the stated runtime
budgets are asserted.  Run with `pytest tests/test_acceptance.py -v -s` to
see the per-criterion lines.
"""

import time
from math import gcd

from cuspcubes.cubing import boundary_cubings, build_cubing, verify_npc
from cuspcubes.decide import FREE_GEOMETRICALLY_FINITE, GENERATES_LINK_GROUP, classify_2bridge_pair
from cuspcubes.diagram import AlternatingDiagram, CrossingArc, arc_crossing, two_bridge_diagram
from cuspcubes.farey import (INFINITY, ZERO, Slope, covering_slope, farey_distance,
                             rational_p3_hyperbolic, two_bridge_hyperbolic)
from cuspcubes.pingpong import (COMMUTING, FREE_CERTIFIED, INCONCLUSIVE, MAX_WORD_LENGTH,
                                MobiusMap, free_word_sanity, pingpong_certificate)
from cuspcubes.polyhedra import build_polyhedra
from conftest import diagram_corpus, twist_sequences
from diagram_oracles import Walked
from cubing_oracles import link_angle_class, vertex_links
from farey_oracles import covering_slope_search_oracle, differ_by_integer
from gear_oracles import closed_form_classes, edge_arc_classes, transfer_pairs


def _report(n, label, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {n:2d}: {status} - {label} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {n} failed"
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget ({elapsed:.2f}s)"


def reduced_interior_slopes(pmax):
    for p in range(2, pmax + 1):
        for q in range(1, p):
            if gcd(q, p) == 1:
                yield Slope(q, p)
                yield Slope(-q, p)


def test_criterion_1_covering_slope_distance_law():
    t0 = time.time()
    checked = 0
    ok = True
    for r in reduced_interior_slopes(30):
        rt = covering_slope(r)
        lhs = farey_distance(INFINITY, rt)
        rhs = 2 * min(farey_distance(INFINITY, r), farey_distance(ZERO, r))
        if lhs != rhs:
            ok = False
            break
        checked += 1
    _report(1, f"distance law for the covering slope, {checked} slopes with p <= 30",
            ok, time.time() - t0, 5)


def test_criterion_2_covering_slope_congruence():
    t0 = time.time()
    checked = 0
    ok = True
    for p in range(1, 51):
        for q in range(-2 * p - 1, 2 * p + 2):
            if q == 0 or gcd(abs(q), p) != 1:
                continue
            r = Slope(q, p)
            if r in (ZERO, INFINITY):
                continue
            rt = covering_slope(r)
            if (rt.q * rt.q - 1) % (2 * rt.p) != 0:
                ok = False
                break
            checked += 1
    _report(2, f"covering congruence q~^2 = 1 mod 2p~, {checked} slopes with p <= 50",
            ok, time.time() - t0, 5)


def test_criterion_3_covering_slope_search_oracle():
    t0 = time.time()
    checked = 0
    ok = True
    for p in range(1, 21):
        for q in range(-p - 1, p + 2):
            if q == 0 or gcd(abs(q), p) != 1:
                continue
            r = Slope(q, p)
            if r in (ZERO, INFINITY):
                continue
            eta = covering_slope_search_oracle(r)
            if eta.det != 1 or eta.act(-r) != INFINITY:
                ok = False
                break
            if not differ_by_integer(covering_slope(r), eta.act(r)):
                ok = False
                break
            checked += 1
    _report(3, f"independent word-search characterization, {checked} slopes with p <= 20",
            ok, time.time() - t0, 30)


def test_criterion_4_hyperbolicity_desk_checks():
    t0 = time.time()
    ok = (two_bridge_hyperbolic(Slope(2, 5))
          and not two_bridge_hyperbolic(Slope(1, 3))
          and all(not rational_p3_hyperbolic(Slope(1 * (1 if n > 0 else -1), abs(n)))
                  for n in range(-10, 11) if n != 0))
    _report(4, "two-bridge and projective hyperbolicity desk checks",
            ok, time.time() - t0, 1)


def _acceptance_diagrams():
    diagrams = [("seq" + "_".join(map(str, s)), two_bridge_diagram(s).diagram)
                for s in twist_sequences(12)]
    pd_corpus = list(diagram_corpus().items())
    assert len(pd_corpus) >= 10
    return diagrams, pd_corpus


def test_criterion_5_cubing_counts():
    t0 = time.time()
    diagrams, pd_corpus = _acceptance_diagrams()
    ok = True
    for name, d in diagrams + pd_corpus:
        c = d.n
        cx = build_cubing(d)
        counts = cx.counts
        tori = boundary_cubings(cx)
        if not (counts["cubes"] == 2 * c and counts["inner_vertices"] == 2
                and counts["inner_edges"] == c + 2
                and counts["boundary_squares"] == 2 * c
                and all(t["euler"] == 0 for t in tori)):
            ok = False
            break
    _report(5, f"cubing counts over {len(diagrams)} twist sequences and "
               f"{len(pd_corpus)} corpus diagrams", ok, time.time() - t0, 10)


def test_criterion_6_npc_verification():
    t0 = time.time()
    _, pd_corpus = _acceptance_diagrams()
    ok = all(verify_npc(build_cubing(d))["npc"] for _n, d in pd_corpus)
    corrupted = 0
    if ok:
        fig8 = two_bridge_diagram((2, 2)).diagram
        tref = AlternatingDiagram.from_pd([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])
        for d in (fig8, tref):
            base = build_cubing(d)
            for k in range(d.n, 5 * d.n):
                if corrupted >= 12:
                    continue
                rep = verify_npc(base.corrupt(k))
                if rep["npc"] or not rep["failures"][0]["vertex"]:
                    ok = False
                    break
                corrupted += 1
    _report(6, f"flag criterion passes on the corpus; {corrupted} corrupted "
               "complexes all fail with a located vertex", ok and corrupted >= 10,
            time.time() - t0, 30)


def test_criterion_7_adjacency_law():
    t0 = time.time()
    _, pd_corpus = _acceptance_diagrams()
    ok = True
    pairs = 0
    for _name, d in pd_corpus:
        cx = build_cubing(d)
        links, walked = vertex_links(cx), Walked(d)
        for R1 in d.regions:
            for R2 in d.regions:
                if R1.index >= R2.index:
                    continue
                # the half-spaces are disjoint exactly when the regions are not adjacent
                adjacent = walked.adjacent(R1.index, R2.index)
                for v in cx.inner_vertices:
                    want = "orthogonal" if adjacent else "far"
                    if link_angle_class(cx, links[v], R1.index, R2.index) != want:
                        ok = False
                        break
                pairs += 1
    _report(7, f"half-space law and angle classes agree on {pairs} region pairs",
            ok, time.time() - t0, 10)


def test_criterion_8_gear_rule_integrity():
    t0 = time.time()
    _, pd_corpus = _acceptance_diagrams()
    ok = True
    pairs = 0
    for _name, d in pd_corpus:
        classes = edge_arc_classes(d)
        if len(classes) != d.n:
            ok = False
            break
        for members, crossing in classes:
            if sorted(s for s, _e in members) != [-1, -1, 1, 1]:
                ok = False
                break
            if any(arc_crossing(d, e) != crossing for s, e in members if s == 1):
                ok = False
                break
        # along each boundary walk w, positive w[j] and negative w[j + shift]
        # lie in one closed-form class
        for mirror in (False, True):
            crossing_of = {member: x for x, members in closed_form_classes(d, mirror).items()
                           for member in members}
            for _R, pos, neg in transfer_pairs(d, build_polyhedra(d, mirror)):
                ok = ok and crossing_of[(1, pos)] == crossing_of[(-1, neg)]
                pairs += 1
    _report(8, "each crossing arc covered twice per copy; face transfers "
               f"keep the gear classes on {pairs} edge pairs", ok, time.time() - t0, 5)


def test_criterion_9_pingpong_certificates():
    t0 = time.time()
    m1 = MobiusMap.from_entries(1, 0, 4, 1)
    m2 = MobiusMap.from_entries(9, -16, 4, -7)
    cert = pingpong_certificate(m1, m2)
    ok = cert["verdict"] == FREE_CERTIFIED
    if ok:
        wings = sorted(bf["neg"]["center"] for bf in cert["butterflies"])
        ok = wings == [["-1/4", "0"], ["7/4", "0"]]
    ok = ok and free_word_sanity(m1, m2, MAX_WORD_LENGTH)
    ok = ok and pingpong_certificate(m1, MobiusMap.from_entries(1, 0, 4, 1))["verdict"] == COMMUTING
    ok = ok and pingpong_certificate(
        MobiusMap.from_entries(1, 0, 1, 1),
        MobiusMap.from_entries(2, -1, 1, 0))["verdict"] == INCONCLUSIVE
    _report(9, f"certified / commuting / inconclusive verdicts with words up to {MAX_WORD_LENGTH}",
            ok, time.time() - t0, 30)


def test_criterion_10_decision_procedure():
    t0 = time.time()
    ok = True
    arcs = 0
    for seq in twist_sequences(10, 4):
        tb = two_bridge_diagram(seq)
        for c in range(tb.diagram.n):
            i = tb.twist_region_of[c]
            verdict = classify_2bridge_pair(tb, CrossingArc(c))
            if i == 1:
                good = (verdict["verdict"] == GENERATES_LINK_GROUP
                        and verdict["tunnel"] == "upper")
            elif i == len(seq):
                good = (verdict["verdict"] == GENERATES_LINK_GROUP
                        and verdict["tunnel"] == "lower")
            else:
                w = verdict.get("witness")
                wings = w and w["wings"]["first"] + w["wings"]["second"]
                good = (verdict["verdict"] == FREE_GEOMETRICALLY_FINITE
                        and w is not None and len(set(wings)) == 4)
                if good:
                    # the half-space law: disjoint exactly when not adjacent,
                    # in the diagram rebuilt from the verdict's JSON
                    walked = Walked(AlternatingDiagram.from_json(verdict["witness_diagram"]))
                    spare = w["spare"]
                    if spare["kind"] == "direct":
                        good = not any(walked.adjacent(spare["region"], wing) for wing in wings)
                    else:
                        good = not walked.adjacent(spare["region"], spare["via_region"])
            if not good:
                ok = False
                break
            arcs += 1
        if not ok:
            break
    _report(10, f"trichotomy with verified witnesses over {arcs} crossing arcs",
            ok, time.time() - t0, 30)

"""Output checks that use only facts the benchmark computes itself.

``check(op, code, out)`` compares one operation's exit code with the one
the benchmark expects and its output with the invariants below.  An
operation fails when it raises, returns an unexpected exit code, or breaks
an invariant.  Where the CLI gives its answer in the exit code (cubing,
the farey classifiers, covering-slope and pingpong exit 0 or 1 by
verdict), a 0 or 1 that contradicts the benchmark's own verdict is a wrong
answer like a broken invariant, and so is a verdict field in the output
that contradicts it.  Only other exit codes, and ``cubing --corrupt K``
with K < n exiting 0 (a known defect: such a K corrupts nothing), count
as exit failures rather than wrong answers.

The invariants, by subcommand:

* cubing: cubes = 2n, inner_vertices = 2, inner_edges = n+2,
  boundary_edges = 4n, hyperplanes = 2, npc true, every torus has Euler
  characteristic 0; an emitted complex lists 2n cubes; ``--corrupt K``
  must exit 1 for every gluing index K.
* decide: end twist regions give GeneratesLinkGroup with the upper or
  lower tunnel, interior ones a free verdict; every witness names four
  pairwise-distinct wing regions, and a direct spare region is none of them.
* farey: hyperbolic iff p >= 3 and q is not +-1 mod p (projective: p >= 2
  and |q| >= 2); two-bridge equivalence by the Schubert congruences;
  q~^2 = 1 mod 2p~ for the covering slope; a continued fraction evaluates
  back to its slope; distance 0, 1 and 2 from 1/0 by their closed forms.
* pingpong: the verdict the benchmark computed for the pair; FreeCertified
  disks re-checked for disjoint interiors from the emitted center and
  radius2 with Fraction arithmetic.
* svg: one circle per region, n + 2 of them.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from workloads import interiors_disjoint, slope_from_cf


class Wrong(Exception):
    """An output that contradicts an invariant."""


def _need(cond, msg):
    if not cond:
        raise Wrong(msg)


def check(op: dict, code: int, out: str) -> tuple[tuple[str, str] | None, dict]:
    """Return (failure, facts); failure is None or (kind, description)
    with kind "exit" for an unexpected exit code and "wrong" for an output
    that breaks an invariant."""
    spec = op["check"]
    kind = spec["type"]
    facts: dict = {}
    if kind == "cubing_corrupt":
        facts["corrupt_ops"] = 1
        facts["corrupt_detected"] = int(code == 1)
    verdict_codes = kind in _EXPECT
    expected = _EXPECT[kind](spec) if verdict_codes else 0
    if code != expected:
        if not verdict_codes or code not in (0, 1):
            return ("exit", f"exit {code}, expected {expected}"), facts
        if kind == "cubing_corrupt" and spec["k"] < spec["n"]:
            return ("exit", f"exit {code}, expected {expected} (K < n corrupts nothing)"), facts
    try:
        _CHECKS[kind](spec, out, facts)
    except Wrong as err:
        return ("wrong", str(err)), facts
    except (ValueError, KeyError, TypeError, IndexError, OSError) as err:
        return ("wrong", f"unreadable output: {type(err).__name__}: {err}"), facts
    if code != expected:
        return ("wrong", f"exit {code} contradicts the output, expected {expected}"), facts
    return None, facts


# ---------------------------------------------------------------------------
# cubing
# ---------------------------------------------------------------------------

def _cubing_counts(o: dict, n: int) -> None:
    want = {"crossings": n, "cubes": 2 * n, "inner_vertices": 2, "inner_edges": n + 2,
            "boundary_edges": 4 * n, "hyperplanes": 2}
    for key, value in want.items():
        _need(o[key] == value, f"{key} = {o[key]}, expected {value}")
    _need(o["npc"] is True and not o["failures"], "npc verdict is not true")
    _need(o["boundary_tori"], "no boundary tori")
    for t in o["boundary_tori"]:
        _need(t["euler"] == 0, f"torus {t['component']} has Euler characteristic {t['euler']}")


def _check_cubing(spec, out, facts):
    o = json.loads(out)
    _cubing_counts(o, spec["n"])
    if "emit" in spec:
        _need(o.get("complex_written") == spec["emit"], "complex_written missing")
        cx = json.loads(Path(spec["emit"]).read_text())
        _need(len(cx["cubes"]) == 2 * spec["n"], f"emitted complex has {len(cx['cubes'])} cubes")


def _check_corrupt(spec, out, facts):
    o = json.loads(out)
    _need(o["npc"] is False and o["failures"], "exit 1 without an npc failure")


def _check_corpus(spec, out, facts):
    results = json.loads(out)["results"]
    _need(len(results) == len(spec["sizes"]), f"{len(results)} results for {len(spec['sizes'])} files")
    for res in results:
        _cubing_counts(res, spec["sizes"][int(res["file"][1:-5])])


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------

def _check_witness(o: dict, facts: dict) -> None:
    if o["verdict"] != "FreeGeometricallyFinite":
        return
    facts["free"] = 1
    w = o.get("witness")
    if w is None:
        return
    facts["witnessed"] = 1
    wings = w["wings"]["first"] + w["wings"]["second"]
    _need(len(wings) == 4 and len(set(wings)) == 4, f"wing regions {wings} repeat")
    if w["spare"]["kind"] == "direct":
        _need(w["spare"]["region"] not in wings, "the direct spare region is a wing")


def _check_decide_tb(spec, out, facts):
    o = json.loads(out)
    region, last = spec["region"], spec["regions"]
    if region in (1, last):
        tunnel = "upper" if region == 1 else "lower"
        _need(o["verdict"] == "GeneratesLinkGroup" and o.get("tunnel") == tunnel,
              f"end region A{region} gave {o['verdict']} {o.get('tunnel')}")
    else:
        _need(o["verdict"] == "FreeGeometricallyFinite",
              f"interior region A{region} gave {o['verdict']}")
    _check_witness(o, facts)


def _check_decide_pd(spec, out, facts):
    o = json.loads(out)
    allowed = {"FreeGeometricallyFinite", "CrossingArcEquivalent", "Inessential"}
    _need(o["verdict"] in allowed, f"verdict {o['verdict']} for a {spec['arc']} arc")
    _check_witness(o, facts)
    if spec["arc"] == "in-region" and "witness" in o:
        _need(o["witness"]["endpoints"] == spec["endpoints"], "witness endpoints differ from the arc")


# ---------------------------------------------------------------------------
# farey
# ---------------------------------------------------------------------------

def _slope(text: str) -> tuple[int, int]:
    """(q, p) with p >= 0; 1/0 is infinity."""
    q, _, p = text.partition("/")
    q, p = int(q), int(p or 1)
    return (1, 0) if p == 0 else (q, p)


def _two_bridge_hyperbolic(q, p) -> bool:
    return p >= 3 and q % p not in (1, p - 1)


def _check_farey_dist(spec, out, facts):
    o = json.loads(out)
    d = o["distance"]
    (q1, p1), (q2, p2) = _slope(spec["r"]), _slope(spec["s"])
    det = abs(q1 * p2 - q2 * p1)
    _need(isinstance(d, int) and d >= 0, f"distance {d!r}")
    _need((d == 0) == (det == 0), f"distance {d} between {spec['r']} and {spec['s']}")
    _need((d == 1) == (det == 1), f"distance {d} but |det| = {det}")
    if p1 == 0:
        want = 0 if p2 == 0 else 1 if p2 == 1 else 2 if not _two_bridge_hyperbolic(q2, p2) else None
        _need(want is None and d >= 3 or d == want, f"distance {d} from 1/0 to {spec['s']}")


def _check_farey_cf(spec, out, facts):
    o = json.loads(out)
    q, p = _slope(spec["r"])
    _need(slope_from_cf(o["integer_part"], o["terms"]) == Fraction(q, p),
          "continued fraction does not evaluate to the slope")
    _need(all(t >= 1 for t in o["terms"]), "non-positive continued fraction term")


def _check_farey_cover(spec, out, facts):
    o = json.loads(out)
    q, p = _slope(o["r_tilde"])
    _need(p >= 1 and (q * q - 1) % (2 * p) == 0, f"covering slope {o['r_tilde']} fails q^2 = 1 mod 2p")
    _need(o["congruence"] is True, "congruence flag is not true")


def _two_bridge_equivalent(spec) -> bool:
    (q1, p1), (q2, p2) = _slope(spec["r"]), _slope(spec["s"])
    if p1 != p2 or p1 == 0:
        return (q1, p1) == (q2, p2)
    inv = pow(q1, -1, p1) if p1 > 1 else 0
    residues = {q1 % p1, inv % p1}
    if not spec["oriented"]:
        residues |= {-q1 % p1, -inv % p1}
    return q2 % p1 in residues


def _check_farey_2bridge(spec, out, facts):
    o = json.loads(out)
    want = _two_bridge_equivalent(spec)
    _need(o["equivalent"] is want, f"equivalent = {o['equivalent']}, congruences say {want}")
    if want:
        _need("witness" in o, "equivalence without a witness")


def _p3_equivalent(spec) -> bool:
    (q1, p1), (q2, p2) = _slope(spec["r"]), _slope(spec["s"])
    r, s = Fraction(q1, p1), Fraction(q2, p2)
    return s in ({r, -1 / r} if spec["oriented"] else {r, -r, 1 / r, -1 / r})


def _check_farey_p3(spec, out, facts):
    want = _p3_equivalent(spec)
    _need(json.loads(out)["equivalent"] is want, f"equivalent is not {want}")


def _hyperbolic(spec) -> bool:
    q, p = _slope(spec["r"])
    return p >= 2 and abs(q) >= 2 if spec["p3"] else _two_bridge_hyperbolic(q, p)


def _check_farey_hyp(spec, out, facts):
    want = _hyperbolic(spec)
    _need(json.loads(out)["hyperbolic"] is want, f"hyperbolic is not {want} for {spec['r']}")


# ---------------------------------------------------------------------------
# pingpong and svg
# ---------------------------------------------------------------------------

def _disk(obj) -> tuple:
    re, im = obj["center"]
    return (Fraction(re), Fraction(im)), Fraction(obj["radius2"])


def _check_pingpong(spec, out, facts):
    o = json.loads(out)
    want = spec["verdict"]
    _need(o["verdict"] == want, f"verdict {o['verdict']}, expected {want}")
    if want == "FreeCertified" and spec["mode"] == "exact":
        disks = [_disk(bf[side]) for bf in o["butterflies"] for side in ("neg", "pos")]
        _need(len(disks) == 4, f"{len(disks)} disks")
        for i in range(4):
            for j in range(i + 1, 4):
                _need(interiors_disjoint(disks[i], disks[j]), f"disks {i} and {j} overlap")
        if spec["words"]:
            _need(o.get("checked_words") == spec["words"] and o.get("no_trivial_word") is True,
                  "word check missing or failed")
            facts["words"] = 2 * (3 ** spec["words"] - 1)


def _check_svg(spec, out, facts):
    o = json.loads(out)
    text = Path(spec["path"]).read_text()
    circles = text.count("<circle")
    _need(o["circles"] == circles == spec["n"] + 2,
          f"{o['circles']} circles reported, {circles} drawn, {spec['n'] + 2} regions")


# Exit codes of the subcommands that answer with 0 or 1.
_EXPECT = {
    "cubing": lambda spec: 0,
    "cubing_corpus": lambda spec: 0,
    "cubing_corrupt": lambda spec: 1,
    "farey_cover": lambda spec: 0,
    "farey_2bridge": lambda spec: 0 if _two_bridge_equivalent(spec) else 1,
    "farey_p3": lambda spec: 0 if _p3_equivalent(spec) else 1,
    "farey_hyp": lambda spec: 0 if _hyperbolic(spec) else 1,
    "pingpong": lambda spec: 0 if spec["verdict"] == "FreeCertified" else 1,
}

_CHECKS = {
    "cubing": _check_cubing, "cubing_corrupt": _check_corrupt, "cubing_corpus": _check_corpus,
    "decide_tb": _check_decide_tb, "decide_pd": _check_decide_pd,
    "farey_dist": _check_farey_dist, "farey_cf": _check_farey_cf,
    "farey_cover": _check_farey_cover, "farey_2bridge": _check_farey_2bridge,
    "farey_p3": _check_farey_p3, "farey_hyp": _check_farey_hyp,
    "pingpong": _check_pingpong, "svg": _check_svg,
}

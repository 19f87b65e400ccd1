"""Command line surface: batch classification, verification, artifact emission.

Subcommands: farey (slope arithmetic and link classification), cubing
(build and verify the cubed exterior), decide (meridian-pair verdicts),
pingpong (free-group certificates for matrix pairs), svg (circle-pattern
drawing).  All output is JSON on stdout; --pretty indents it.  Exit code 0
means the requested check passed.  CUSPCUBES_MODE=exact|float selects the
arithmetic path for pingpong.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

from . import farey as F
from . import cubing as CB
from . import decide as DC
from . import pingpong as PP
from . import polyhedra as PH
from .diagram import (AlternatingDiagram, CrossingArc, DiagramError, InRegionArc,
                      TransverseArc, two_bridge_diagram)


def _emit(obj, pretty: bool) -> None:
    print(json.dumps(obj, indent=2 if pretty else None, sort_keys=pretty))


def _load_diagram(args):
    if getattr(args, "two_bridge", None):
        seq = tuple(int(x) for x in args.two_bridge.split(","))
        return two_bridge_diagram(seq)
    if getattr(args, "pd", None):
        with open(args.pd) as fh:
            data = json.load(fh)
        return AlternatingDiagram.from_json(data)
    raise DiagramError("provide --two-bridge A1,A2,... or --pd FILE")


def _plain_diagram(args):
    d = _load_diagram(args)
    return d.diagram if hasattr(d, "diagram") else d


# ---------------------------------------------------------------------------
# farey
# ---------------------------------------------------------------------------

def cmd_farey(args) -> int:
    sub = args.subcommand
    if sub == "dist":
        r, s = F.parse_slope(args.r), F.parse_slope(args.s)
        _emit({"r": str(r), "s": str(s), "distance": F.farey_distance(r, s)}, args.pretty)
        return 0
    if sub == "cf":
        r = F.parse_slope(args.r)
        cf = F.cf_expand(r)
        _emit({"r": str(r), "integer_part": cf.a0, "terms": list(cf.terms),
               "value": str(F.cf_value(cf))}, args.pretty)
        return 0
    if sub == "covering-slope":
        r = F.parse_slope(args.r)
        rt = F.covering_slope(r)
        congruence = (rt.q * rt.q - 1) % (2 * rt.p) == 0
        _emit({"r": str(r), "r_tilde": str(rt), "congruence": congruence}, args.pretty)
        return 0 if congruence else 1
    if sub == "classify-2bridge":
        r, s = F.parse_slope(args.r), F.parse_slope(args.s)
        eq, xi = F.two_bridge_equivalent(r, s, args.oriented)
        out = {"r": str(r), "s": str(s), "oriented": args.oriented, "equivalent": eq}
        if xi is not None:
            out["witness"] = xi.to_json()
        _emit(out, args.pretty)
        return 0 if eq else 1
    if sub == "classify-p3":
        r, s = F.parse_slope(args.r), F.parse_slope(args.s)
        eq = F.rational_p3_classify(r, s, args.oriented)
        _emit({"r": str(r), "s": str(s), "oriented": args.oriented, "equivalent": eq},
              args.pretty)
        return 0 if eq else 1
    if sub == "hyperbolic":
        r = F.parse_slope(args.r)
        if args.p3:
            hyp = F.rational_p3_hyperbolic(r)
        else:
            hyp = F.two_bridge_hyperbolic(r)
        _emit({"r": str(r), "projective": args.p3, "hyperbolic": hyp}, args.pretty)
        return 0 if hyp else 1
    raise DiagramError(f"unknown farey subcommand {sub}")


# ---------------------------------------------------------------------------
# cubing
# ---------------------------------------------------------------------------

def _cubing_report(cx, with_tori: bool = True) -> dict:
    rep = CB.verify_npc(cx)
    tori = CB.boundary_cubings(cx) if with_tori else []
    out = dict(cx.counts)
    out["npc"] = rep["npc"]
    out["failures"] = rep["failures"]
    out["boundary_tori"] = [
        {"component": t.component, "squares": len(t.squares), "euler": t.euler,
         "meridian_loops": t.meridian_loops} for t in tori]
    return out


def cmd_cubing(args) -> int:
    if args.corpus:
        return _run_corpus(args, lambda d: _cubing_report(CB.build_cubing(d, mirror=args.mirror)))
    cx = CB.build_cubing(_plain_diagram(args), mirror=args.mirror)
    if args.corrupt is not None:
        cx.corrupt(args.corrupt)
    out = _cubing_report(cx, with_tori=args.corrupt is None)
    if args.emit_complex:
        Path(args.emit_complex).write_text(json.dumps(cx.to_json(), indent=2))
        out["complex_written"] = args.emit_complex
    _emit(out, args.pretty)
    return 0 if out["npc"] else 1


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------

def _parse_arc(args, tb_or_d):
    if args.crossing_arc:
        spec = args.crossing_arc
        if ":" in spec:                       # A2:0 means k-th crossing of region 2
            region, k = spec.split(":")
            i = int(region.lstrip("Aa"))
            if not hasattr(tb_or_d, "crossings_in"):
                raise DiagramError("twist-region arcs need a --two-bridge diagram")
            members = tb_or_d.crossings_in(i)
            if not members or int(k) >= len(members):
                raise DiagramError(f"twist region A{i} has no crossing #{k}")
            return CrossingArc(members[int(k)])
        return CrossingArc(int(spec.lstrip("c")))
    if args.in_region:
        rs, c1, c2 = args.in_region.split(":")
        return InRegionArc(int(rs.lstrip("Rr")), int(c1.lstrip("c")), int(c2.lstrip("c")))
    if args.transverse:
        c1, c2, word = args.transverse.split(":")
        edges = tuple(int(x.lstrip("e")) for x in word.split(",")) if word else ()
        return TransverseArc(int(c1.lstrip("c")), int(c2.lstrip("c")), edges)
    raise DiagramError("provide --crossing-arc, --in-region, or --transverse")


def cmd_decide(args) -> int:
    obj = _load_diagram(args)
    arc = _parse_arc(args, obj)
    if hasattr(obj, "diagram"):
        verdict = DC.classify_2bridge_pair(obj, arc, mirror=args.mirror)
    else:
        verdict = DC.classify_alternating_pair(obj, arc)
    _emit(verdict.to_json(), args.pretty)
    return 0


# ---------------------------------------------------------------------------
# pingpong
# ---------------------------------------------------------------------------

def _parse_matrix(text):
    data = json.loads(text)
    if not (isinstance(data, list) and len(data) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in data)):
        raise PP.PingPongError("matrix must be [[a,b],[c,d]]")
    return data


def _float_real(x) -> float:
    """A JSON number or a rational string such as "-3/4", as a float."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return float(x)
    if isinstance(x, str):
        try:
            return float(Fraction(x))
        except (ValueError, ZeroDivisionError):
            pass
    raise PP.PingPongError(f"not a real number: {x!r}")


def _float_entry(e) -> complex:
    """A matrix entry, real or an [re, im] pair, as a complex float."""
    if isinstance(e, list):
        if len(e) != 2:
            raise PP.PingPongError(f"complex entries are [re, im] pairs, got {e!r}")
        return complex(_float_real(e[0]), _float_real(e[1]))
    return complex(_float_real(e), 0.0)


def cmd_pingpong(args) -> int:
    mode = args.mode or os.environ.get("CUSPCUBES_MODE", "exact")
    PP.check_word_length(args.words)
    if mode == "float" and args.words:
        raise PP.PingPongError("--words needs exact mode: the word check is exact only")
    m1raw, m2raw = _parse_matrix(args.m1), _parse_matrix(args.m2)
    if mode == "float":
        def to_c(rows):
            return [[_float_entry(e) for e in row] for row in rows]
        cert = PP.pingpong_certificate_float(to_c(m1raw), to_c(m2raw), tol=args.tolerance)
        out = cert.to_json()
        _emit(out, args.pretty)
        return 0 if cert.verdict == PP.FREE_CERTIFIED else 1
    m1 = PP.MobiusMap.from_json(m1raw)
    m2 = PP.MobiusMap.from_json(m2raw)
    cert = PP.pingpong_certificate(m1, m2)
    out = cert.to_json()
    if args.words and cert.verdict == PP.FREE_CERTIFIED:
        ok = PP.free_word_sanity(m1, m2, args.words)
        out["checked_words"] = args.words
        out["no_trivial_word"] = ok
        if not ok:
            _emit(out, args.pretty)
            return 1
    _emit(out, args.pretty)
    return 0 if cert.verdict == PP.FREE_CERTIFIED else 1


# ---------------------------------------------------------------------------
# svg
# ---------------------------------------------------------------------------

def cmd_svg(args) -> int:
    d = _plain_diagram(args)
    svg = PH.circle_pattern_svg(d)
    Path(args.output).write_text(svg)
    _emit({"written": args.output, "circles": svg.count("<circle")}, args.pretty)
    return 0


# ---------------------------------------------------------------------------
# corpus fan-out
# ---------------------------------------------------------------------------

def _run_corpus(args, worker) -> int:
    paths = sorted(Path(args.corpus).glob("*.json"))
    if not paths:
        print(f"no .json diagrams under {args.corpus}", file=sys.stderr)
        return 1

    def one(path):
        with open(path) as fh:
            d = AlternatingDiagram.from_json(json.load(fh))
        return {"file": path.name, **worker(d)}

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(one, paths))
    _emit({"corpus": str(args.corpus), "results": results}, args.pretty)
    return 0 if all(r.get("npc", True) for r in results) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it."""
    ap = argparse.ArgumentParser(prog="cuspcubes")
    ap.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = ap.add_subparsers(dest="command", required=True)

    import re
    slope_token = re.compile(r"^-\d+(/\d+)?$")

    fa = sub.add_parser("farey", help="slope arithmetic and classification")
    fsub = fa.add_subparsers(dest="subcommand", required=True)
    farey_parsers = []
    p = fsub.add_parser("dist"); p.add_argument("r"); p.add_argument("s"); farey_parsers.append(p)
    p = fsub.add_parser("cf"); p.add_argument("r"); farey_parsers.append(p)
    p = fsub.add_parser("covering-slope"); p.add_argument("r"); farey_parsers.append(p)
    p = fsub.add_parser("classify-2bridge")
    p.add_argument("r"); p.add_argument("s"); p.add_argument("--oriented", action="store_true")
    farey_parsers.append(p)
    p = fsub.add_parser("classify-p3")
    p.add_argument("r"); p.add_argument("s"); p.add_argument("--oriented", action="store_true")
    farey_parsers.append(p)
    p = fsub.add_parser("hyperbolic"); p.add_argument("r"); p.add_argument("--p3", action="store_true")
    farey_parsers.append(p)
    for p in farey_parsers:
        p._negative_number_matcher = slope_token      # let slopes like -5/2 through
    fa.set_defaults(func=cmd_farey)

    cb = sub.add_parser("cubing", help="build and verify the cubed exterior")
    cb.add_argument("--two-bridge"); cb.add_argument("--pd")
    cb.add_argument("--corpus", help="directory of diagram JSON files")
    cb.add_argument("--jobs", type=int, default=4)
    cb.add_argument("--emit-complex", metavar="OUT")
    cb.add_argument("--corrupt", type=int, default=None, metavar="K",
                    help="rewire the K-th gluing (0 <= K < 5n) for negative testing")
    cb.add_argument("--mirror", action="store_true")
    cb.set_defaults(func=cmd_cubing)

    dc = sub.add_parser("decide", help="classify a meridian pair")
    dc.add_argument("--two-bridge"); dc.add_argument("--pd")
    dc.add_argument("--crossing-arc", metavar="A2:0 or c3")
    dc.add_argument("--in-region", metavar="R3:c0:c2")
    dc.add_argument("--transverse", metavar="c0:c2:e1,e2")
    dc.add_argument("--mirror", action="store_true")
    dc.set_defaults(func=cmd_decide)

    pp = sub.add_parser("pingpong", help="free-group certificate for a matrix pair")
    pp.add_argument("m1", help='JSON matrix, entries rational or [re, im]')
    pp.add_argument("m2")
    pp.add_argument("--words", type=int, default=0, metavar="N",
                    help="also check that no reduced word of length 1..N is the identity "
                         f"(N <= {PP.MAX_WORD_LENGTH})")
    pp.add_argument("--mode", choices=("exact", "float"))
    pp.add_argument("--tolerance", type=float, default=1e-12)
    pp.set_defaults(func=cmd_pingpong)

    sv = sub.add_parser("svg", help="circle pattern drawing")
    sv.add_argument("--two-bridge"); sv.add_argument("--pd")
    sv.add_argument("-o", "--output", required=True)
    sv.set_defaults(func=cmd_svg)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DiagramError, CB.CubingError, PH.PolyhedraError, DC.DecideError,
            PP.PingPongError, F.FareyError, OSError, json.JSONDecodeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

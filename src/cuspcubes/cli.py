"""Command line surface: batch classification, verification, artifact emission.

Subcommands: farey (slope arithmetic and link classification), cubing
(build and verify the cubed exterior), decide (meridian-pair verdicts),
pingpong (free-group certificates for matrix pairs), svg (circle-pattern
drawing).  All output is JSON on stdout; --pretty indents it.  Exit code 0
means the requested check passed.  pingpong --mode exact|float selects its
arithmetic path (exact by default).  Each cmd_* imports the modules it
uses, so that a process loads only what its subcommand needs.  An argv
that opens with its full chain of command words is read against a table
of the leaf parser of that chain; an argv that the table cannot settle,
and any other, takes argparse's full nested parse.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys


def _emit(obj, pretty: bool) -> None:
    print(json.dumps(obj, indent=2 if pretty else None, sort_keys=pretty))


def _json_loads(text: str, what: str):
    """json.loads, refusing JSON nested past the interpreter's recursion
    limit as malformed."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"malformed: JSON nested too deeply in {what}") from None


def two_bridge_diagram(seq):
    """diagram.two_bridge_diagram, looked up on each call; _load_diagram
    calls it through this global, which perfbench/tracing.py rebinds."""
    from .diagram import two_bridge_diagram
    return two_bridge_diagram(seq)


def _int_after(letters: str = ""):
    """The reader of a field that is -?[0-9]+, after one of letters when
    there are any."""
    form = re.compile((f"[{letters}]" if letters else "") + "(-?[0-9]+)")

    def read(field: str) -> int:
        match = form.fullmatch(field)
        if match is None:
            raise ValueError(field)
        return int(match[1])
    return read


# the readers of arc-spec and --two-bridge fields, built once
_INT, _A_INT, _C_INT, _R_INT, _E_INT = map(_int_after, ("", "Aa", "c", "Rr", "e"))


def _load_diagram(args):
    """(two-bridge diagram or None, diagram) of --two-bridge or --pd, one
    of which argparse requires."""
    if args.two_bridge is not None:
        try:
            seq = tuple(map(_INT, args.two_bridge.split(",")))
        except ValueError:
            raise ValueError(f"--two-bridge expects A1,A2,..., got {args.two_bridge!r}") from None
        tb = two_bridge_diagram(seq)
        return tb, tb.diagram
    from .diagram import AlternatingDiagram
    with open(args.pd) as fh:
        data = _json_loads(fh.read(), args.pd)
    return None, AlternatingDiagram.from_json(data)


# ---------------------------------------------------------------------------
# farey
# ---------------------------------------------------------------------------

def cmd_farey(args) -> int:
    from . import farey as F
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
    r = F.parse_slope(args.r)                   # hyperbolic, the last of argparse's choices
    hyp = (F.rational_p3_hyperbolic if args.p3 else F.two_bridge_hyperbolic)(r)
    _emit({"r": str(r), "projective": args.p3, "hyperbolic": hyp}, args.pretty)
    return 0 if hyp else 1


# ---------------------------------------------------------------------------
# cubing
# ---------------------------------------------------------------------------

def _cubing_report(cx, with_tori: bool = True) -> dict:
    from .cubing import boundary_cubings, verify_npc
    rep = verify_npc(cx)
    out = dict(cx.counts)
    out["npc"] = rep["npc"]
    out["failures"] = rep["failures"]
    out["boundary_tori"] = boundary_cubings(cx) if with_tori else []
    return out


def cmd_cubing(args) -> int:
    from . import cubing as CB
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.corpus is not None:
        # these would be silently dropped; --pd and --two-bridge share
        # --corpus's exclusive group
        for flag in ("corrupt", "emit_complex"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--corpus cannot be combined with --{flag.replace('_', '-')}")
        from pathlib import Path
        from .diagram import AlternatingDiagram
        if not args.corpus:                 # Path('') is the working directory
            raise ValueError("--corpus expects a directory, got ''")
        paths = sorted(Path(args.corpus).glob("*.json"))
        if not paths:
            raise ValueError(f"no .json diagrams under {args.corpus}")
        results = []
        for path in paths:
            with open(path) as fh:
                d = AlternatingDiagram.from_json(_json_loads(fh.read(), path.name))
            results.append({"file": path.name, **_cubing_report(CB.build_cubing(d))})
        _emit({"corpus": str(args.corpus), "results": results}, args.pretty)
        return 0 if all(r["npc"] for r in results) else 1
    if args.corrupt is not None and args.emit_complex is not None:
        # the file would pair the clean gluings with the corrupted counts
        raise ValueError("--corrupt cannot be combined with --emit-complex")
    cx = CB.build_cubing(_load_diagram(args)[1])
    if args.corrupt is not None:
        cx = cx.corrupt(args.corrupt)
    out = _cubing_report(cx, with_tori=args.corrupt is None)
    if args.emit_complex is not None:
        CB.write_complex(cx, args.emit_complex)
        out["complex_written"] = args.emit_complex
    _emit(out, args.pretty)
    return 0 if out["npc"] else 1


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------

def _edge_word(field: str) -> tuple[int, ...]:
    return tuple(map(_E_INT, field.split(","))) if field else ()


def _spec_fields(flag: str, form: str, spec: str, parsers) -> list:
    """The ':'-separated fields of an arc spec, each read by its parser; a
    spec of another shape is refused with the flag and its form."""
    fields = spec.split(":")
    try:
        if len(fields) == len(parsers):
            return [parse(field) for parse, field in zip(parsers, fields)]
    except ValueError:
        pass
    raise ValueError(f"{flag} expects {form}, got {spec!r}")


def _parse_arc(args, tb):
    """The arc of the one arc flag that argparse requires; A<i>:<k> names
    the k-th crossing of twist region A_i of tb, the two-bridge diagram
    (None for --pd)."""
    from .diagram import CrossingArc, InRegionArc, TransverseArc
    if args.crossing_arc is not None:
        spec = args.crossing_arc
        form = "A<i>:<k> or c<i>"
        if ":" in spec:                       # A2:0 means k-th crossing of region 2
            i, k = _spec_fields("--crossing-arc", form, spec, (_A_INT, _INT))
            if tb is None:
                raise ValueError("twist-region arcs need a --two-bridge diagram")
            members = tb.crossings_in(i)
            if not members:
                raise ValueError(f"no twist region A{i}: the sequence has {len(tb.seq)} twist regions")
            if not 0 <= k < len(members):
                raise ValueError(f"twist region A{i} has no crossing #{k}")
            return CrossingArc(members[k])
        return CrossingArc(*_spec_fields("--crossing-arc", form, spec, (_C_INT,)))
    if args.in_region is not None:
        return InRegionArc(*_spec_fields("--in-region", "R<k>:c<i>:c<j>", args.in_region,
                                         (_R_INT, _C_INT, _C_INT)))
    return TransverseArc(*_spec_fields("--transverse", "c<i>:c<j>:e<a>,...", args.transverse,
                                       (_C_INT, _C_INT, _edge_word)))


def cmd_decide(args) -> int:
    from . import decide as DC
    tb, d = _load_diagram(args)
    arc = _parse_arc(args, tb)
    if tb is not None:
        out = DC.classify_2bridge_pair(tb, arc, mirror=args.mirror)
    else:
        out = DC.classify_alternating_pair(d, arc, mirror=args.mirror)
    _emit(out, args.pretty)
    return 0


# ---------------------------------------------------------------------------
# pingpong
# ---------------------------------------------------------------------------

def _parse_matrix(text):
    data = _json_loads(text, "a matrix")
    if not (isinstance(data, list) and len(data) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in data)):
        raise ValueError("matrix must be [[a,b],[c,d]]")
    return data


def cmd_pingpong(args) -> int:
    from . import pingpong as PP
    PP.check_word_length(args.words)
    if args.mode == "float" and args.words:
        raise ValueError("--words needs exact mode: the word check is exact only")
    if args.mode == "exact" and args.tolerance is not None:
        raise ValueError("--tolerance needs float mode: exact mode has no tolerance")
    m1raw, m2raw = _parse_matrix(args.m1), _parse_matrix(args.m2)
    if args.mode == "float":
        def to_c(rows):
            return [[PP.float_entry(e) for e in row] for row in rows]
        tol = {} if args.tolerance is None else {"tol": args.tolerance}
        out = PP.pingpong_certificate_float(to_c(m1raw), to_c(m2raw), **tol)
        _emit(out, args.pretty)
        return 0 if out["verdict"] == PP.FREE_CERTIFIED else 1
    m1 = PP.MobiusMap.from_json(m1raw)
    m2 = PP.MobiusMap.from_json(m2raw)
    out = PP.pingpong_certificate(m1, m2)
    ok = out["verdict"] == PP.FREE_CERTIFIED
    if args.words and ok:
        out["checked_words"] = args.words
        out["no_trivial_word"] = ok = PP.free_word_sanity(m1, m2, args.words)
    _emit(out, args.pretty)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# svg
# ---------------------------------------------------------------------------

def cmd_svg(args) -> int:
    from . import polyhedra as PH
    svg = PH.circle_pattern_svg(_load_diagram(args)[1])
    with open(args.output, "w") as fh:
        fh.write(svg)
    _emit({"written": args.output, "circles": svg.count("<circle")}, args.pretty)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_diagram_flags(parser: argparse.ArgumentParser):
    """--two-bridge and --pd, of which argparse requires exactly one; their
    group, for a further input."""
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--two-bridge")
    group.add_argument("--pd")
    return group


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it."""
    ap = argparse.ArgumentParser(prog="cuspcubes")
    ap.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = ap.add_subparsers(dest="command", required=True)

    slope_token = re.compile(r"^-\d+(/-?\d+)?$")

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
        p._negative_number_matcher = slope_token      # let slopes like -5/2 and -5/-2 through
    fa.set_defaults(func=cmd_farey)

    cb = sub.add_parser("cubing", help="build and verify the cubed exterior")
    _add_diagram_flags(cb).add_argument("--corpus", help="directory of diagram JSON files")
    cb.add_argument("--jobs", type=int, default=4,
                    help="no effect: corpus files run in file order")
    cb.add_argument("--emit-complex", metavar="OUT")
    cb.add_argument("--corrupt", type=int, default=None, metavar="K",
                    help="rewire the K-th gluing (0 <= K < 5n) for negative testing")
    cb.add_argument("--mirror", action="store_true", help="no effect on cubing")
    cb.set_defaults(func=cmd_cubing)

    dc = sub.add_parser("decide", help="classify a meridian pair")
    _add_diagram_flags(dc)
    arcs = dc.add_mutually_exclusive_group(required=True)
    arcs.add_argument("--crossing-arc", metavar="A2:0 or c3")
    arcs.add_argument("--in-region", metavar="R3:c0:c2")
    arcs.add_argument("--transverse", metavar="c0:c2:e1,e2")
    dc.add_argument("--mirror", action="store_true")
    dc.set_defaults(func=cmd_decide)

    pp = sub.add_parser("pingpong", help="free-group certificate for a matrix pair")
    pp.add_argument("m1", help='JSON matrix, entries rational or [re, im]')
    pp.add_argument("m2")
    # 12 is pingpong.MAX_WORD_LENGTH, written out so that the parser loads no module
    pp.add_argument("--words", type=int, default=0, metavar="N",
                    help="when the verdict is FreeCertified, also check that no reduced "
                         "word of length 1..N is the identity (N <= 12)")
    pp.add_argument("--mode", choices=("exact", "float"), default="exact")
    pp.add_argument("--tolerance", type=float, default=None,
                    help="float mode only (default 1e-12)")
    pp.set_defaults(func=cmd_pingpong)

    sv = sub.add_parser("svg", help="circle pattern drawing")
    _add_diagram_flags(sv)
    sv.add_argument("-o", "--output", required=True)
    sv.set_defaults(func=cmd_svg)
    return ap


@functools.lru_cache(maxsize=1)
def _leaf_routes(parser: argparse.ArgumentParser) -> dict:
    """The command-word tree of parser: a word maps to the tree of the
    words after it, and a full chain ends in the _leaf_table of its leaf
    parser, filled with the entries that the parsers above it put in the
    namespace: their defaults and the chosen words."""
    def walk(parser, filled):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            return _leaf_table(parser, filled)
        (sub,) = subs
        filled = {**filled, **parser._defaults,
                  **{a.dest: a.default for a in parser._actions
                     if argparse.SUPPRESS not in (a.dest, a.default)}}
        return {word: walk(leaf, {**filled, sub.dest: word}) for word, leaf in sub.choices.items()}
    return walk(parser, {})


def _leaf_table(leaf: argparse.ArgumentParser, filled: dict):
    """What _walk reads of leaf: the namespace that leaf.parse_known_args
    fills from filled and the defaults, the type of each store and
    store_true action, these by option string, the positionals, the
    required actions and groups, each action's exclusive group, and the
    matcher of negative numbers (None when an option starts like one)."""
    base = {**leaf._defaults, **{a.dest: a.default for a in reversed(leaf._actions)
                                 if argparse.SUPPRESS not in (a.dest, a.default)}, **filled}
    base.update({a.dest: leaf._get_value(a, a.default) for a in leaf._actions  # type reads str defaults
                 if isinstance(a.default, str) and base.get(a.dest) is a.default})
    types = {a: leaf._registry_get("type", a.type, a.type) for a in leaf._actions
             if (type(a), a.nargs) in ((argparse._StoreAction, None), (argparse._StoreTrueAction, 0))}
    negative = not leaf._has_negative_number_optionals and not any(
        s[1:2].isdigit() for s in leaf._option_string_actions)
    return (base, types, {s: a for a in types for s in a.option_strings},
            [a for a in leaf._actions if not a.option_strings],
            {x for x in leaf._actions + leaf._mutually_exclusive_groups if x.required},
            {a: g for g in leaf._mutually_exclusive_groups for a in g._group_actions},
            leaf._negative_number_matcher if negative else None)


def _walk(table, rest: list[str]):
    """leaf.parse_known_args(rest, filled)'s namespace, read by the table
    alone, or None at the first token that it cannot settle: any but an
    exact store or store_true option string, a value that starts with '-'
    and is no negative number, a failed type or choice, a second action of
    one exclusive group, a surplus positional; or a missing required action
    or group.  `chosen` maps each group read, and each ungrouped action, to
    the action read for it."""
    ns, types, options, positionals, required, groups, negative = table
    ns, chosen, tokens, fill = dict(ns), {}, iter(rest), iter(positionals)

    def value(token):
        return token is not None and (token[:1] != "-" or bool(negative and negative.match(token)))
    for token in tokens:
        action = options.get(token)
        if action is None:
            action = next(fill, None) if value(token) else None
        elif action.nargs is None and not value(token := next(tokens, None)):
            return None
        if action not in types or chosen.setdefault(groups.get(action, action), action) is not action:
            return None
        try:
            ns[action.dest] = action.const if action.nargs == 0 else types[action](token)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and ns[action.dest] not in action.choices:
            return None
    return argparse.Namespace(**ns) if required <= chosen.keys() else None


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), read by _walk when argv opens with a
    full chain of command words and the walk settles the rest; any other
    argv takes the full parse."""
    parser = build_parser()
    route, rest = _leaf_routes(parser), argv
    while isinstance(route, dict) and rest:
        route, rest = route.get(rest[0]), rest[1:]
    args = _walk(route, rest) if isinstance(route, tuple) else None
    return parser.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

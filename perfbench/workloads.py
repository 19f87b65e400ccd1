"""Seeded inputs for the four benchmark workloads.

Inputs come in two parts.  ``make_pool`` runs once per run, in the
benchmark's parent process, and writes the diagram files an operation may
name (PD-code JSON) together with a manifest describing them.  ``make_round``
turns the manifest, the seed and a round number into one round of
operations; the worker calls it lazily, between operations, so a run never
runs out of inputs however fast the program gets.

Every round of a workload has the same composition: the same number of
operations of each crossing count and of each kind (subcommand, option,
word length); cubing-ladder rotates which sizes take which option from
round to round.  The seed picks the concrete diagrams, arcs, slopes and
matrices of each size and kind, and the order of the round.  Runs therefore differ in their inputs
but not in the mix they measure, and a run that stops at a round boundary
measures whole rounds only.

Each operation is a dict: ``argv`` for ``cuspcubes.cli.main``, ``check``
with the facts the output checker needs (expected counts, the intended
verdict class), and ``cls``, the cost class used by the reports.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("cubing-ladder", "decide-arcs", "pingpong-words", "quick-cli")

# Percentile reported as op_tail_ms, fixed per workload so that runs and
# commits compare the same statistic: the highest of 50/75/90/95/99 that
# leaves at least ten samples beyond it in a 20-second run of the seed
# commit, except on quick-cli.  There p99 lies above every cost class, in
# the tail of scheduling delays, and spread by 0.13-0.21 of its median over
# ten seeds; p98 lies inside the svg class (one operation in 32).  The
# report states the sample count beyond it.
TAIL_PERCENTILE = {"cubing-ladder": 75, "decide-arcs": 90,
                   "pingpong-words": 75, "quick-cli": 98}

LADDER_SIZES = (10, 20, 40, 80, 160)
# Per round every size gets one pair of paths from this table, rotated by
# size and round, so each round holds four plain, two --mirror, two
# --emit-complex and two --corrupt operations.
LADDER_PATHS = (("plain", "plain"), ("plain", "mirror"), ("plain", "emit"),
                ("mirror", "corrupt_low"), ("emit", "corrupt_high"))
LADDER_FAMILIES = ("tb", "twist", "pretzel")

# Named two-bridge sequences of decide-arcs; the 25-crossing (5,5,5,5,5),
# whose middle arc takes about 87 s, would not fit in one run.
HEAVY = ((2, 16, 2), (4, 4, 4, 4, 4), (5, 5, 5, 5))
HEAVY_MIDDLE = (2, 3, 3)              # the region whose flype search is slow
MID = (2, 12, 2)
SMALL = (2, 8, 2)
# Seeded twist sequences of decide-arcs as (twist regions, crossings): the
# sizes are fixed, so every round has the same flype sizes, and the seed
# picks the sequence of that size.
RANDOM_SEQUENCES = ((4, 8), (5, 12))
# Crossing counts of the four diagrams of each cubing --corpus directory.
CORPUS_SIZES = {"small": (10, 12, 12, 14), "large": (20, 22, 24, 26)}


# ---------------------------------------------------------------------------
# Diagram helpers
# ---------------------------------------------------------------------------

def random_twist_sequence(rng: random.Random, n: int, regions: int) -> tuple[int, ...]:
    """Twist sequence with n crossings and the given number of twist regions."""
    seq = [2] + [1] * (regions - 2) + [2]
    for _ in range(n - sum(seq)):
        seq[rng.randrange(regions)] += 1
    return tuple(seq)


def random_pretzel(rng: random.Random, n: int, strips: int = 3) -> tuple[int, ...]:
    twists = [2] * strips
    for _ in range(n - sum(twists)):
        twists[rng.randrange(strips)] += 1
    return tuple(twists)


def _write_pd(path: Path, d) -> None:
    path.write_text(json.dumps({"pd": [list(x) for x in d.pd_code()]}))


def _pd_entry(path: Path, d, name: str) -> dict:
    _write_pd(path, d)
    return {"file": str(path), "name": name, "n": d.n,
            "edges": len(d.edges),
            "regions": [sorted(R.distinct_crossings) for R in d.regions]}


# ---------------------------------------------------------------------------
# Pool: files written once per run
# ---------------------------------------------------------------------------

def make_pool(workload: str, seed: int, workdir: Path) -> dict:
    """Write the diagram files of one run and return their manifest."""
    from cuspcubes.diagram import pretzel_diagram, two_bridge_diagram

    rng = random.Random(f"{seed}:{workload}:pool")
    workdir.mkdir(parents=True, exist_ok=True)
    pool: dict = {"workload": workload, "seed": seed, "workdir": str(workdir)}

    if workload == "cubing-ladder":
        ladder = {}
        for n in LADDER_SIZES:
            entries = {"tb": [_pd_entry(workdir / f"tb{n}.json",
                                        two_bridge_diagram((2,) + (1,) * (n - 4) + (2,)).diagram,
                                        f"tb{n}")]}
            entries["twist"] = []
            entries["pretzel"] = []
            for v in range(2):
                seq = random_twist_sequence(rng, n, rng.randint(3, min(8, n - 2)))
                entries["twist"].append(_pd_entry(workdir / f"twist{n}_{v}.json",
                                                  two_bridge_diagram(seq).diagram, str(seq)))
                tw = random_pretzel(rng, n)
                entries["pretzel"].append(_pd_entry(workdir / f"pretzel{n}_{v}.json",
                                                    pretzel_diagram(*tw), f"pretzel{tw}"))
            ladder[str(n)] = entries
        pool["ladder"] = ladder
        # two corpora per round: 10-14 crossings per file, cheaper than an n=40
        # operation, and 20-26, dearer; one on each side puts the median
        # operation in the middle of the n=40 class
        pool["corpora"] = {}
        for label, sizes in CORPUS_SIZES.items():
            corpora = []
            for k in range(3):
                cdir = workdir / f"corpus-{label}{k}"
                cdir.mkdir(exist_ok=True)
                for j, n in enumerate(sizes):
                    if j % 2:
                        d = pretzel_diagram(*random_pretzel(rng, n))
                    else:
                        d = two_bridge_diagram(random_twist_sequence(rng, n, rng.randint(3, 5))).diagram
                    _write_pd(cdir / f"d{j}.json", d)
                corpora.append({"dir": str(cdir), "sizes": list(sizes)})
            pool["corpora"][label] = corpora
        pool["emit_path"] = str(workdir / "complex.json")
    elif workload == "decide-arcs":
        pool["pretzels"] = [
            _pd_entry(workdir / f"pretzel{n}.json", pretzel_diagram(*tw), f"pretzel{tw}")
            for n, tw in ((n, random_pretzel(rng, n)) for n in (8, 9, 10, 11))]
    elif workload == "quick-cli":
        pool["svg_pd"] = [
            _pd_entry(workdir / f"svg{v}.json", pretzel_diagram(*tw), f"pretzel{tw}")
            for v, tw in enumerate(random_pretzel(rng, 8) for _ in range(3))]
        pool["svg_path"] = str(workdir / "figure.svg")
    elif workload != "pingpong-words":
        raise ValueError(f"unknown workload {workload!r}")
    return pool


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def make_round(pool: dict, r: int) -> list[dict]:
    """Round r of the run described by pool: a shuffled list of operations."""
    workload = pool["workload"]
    rng = random.Random(f"{pool['seed']}:{workload}:round{r}")
    ops = _ROUNDS[workload](pool, r, rng)
    rng.shuffle(ops)
    return ops


def _ladder_round(pool, r, rng):
    ops = []
    for i, n in enumerate(LADDER_SIZES):
        for slot, path in enumerate(LADDER_PATHS[(i + r) % len(LADDER_PATHS)]):
            family = LADDER_FAMILIES[(i + r + slot) % len(LADDER_FAMILIES)]
            entry = rng.choice(pool["ladder"][str(n)][family])
            argv = ["cubing", "--pd", entry["file"]]
            check = {"type": "cubing", "n": n}
            if path == "mirror":
                argv.append("--mirror")
            elif path == "emit":
                argv += ["--emit-complex", pool["emit_path"]]
                check["emit"] = pool["emit_path"]
            elif path.startswith("corrupt"):
                # gluings 0..n-1 glue cube bottoms, n..5n-1 cube sides
                k = rng.randrange(n) if path == "corrupt_low" else rng.randrange(n, 5 * n)
                argv += ["--corrupt", str(k)]
                check = {"type": "cubing_corrupt", "n": n, "k": k}
            ops.append({"argv": argv, "check": check, "cls": f"n{n}:{path}", "n": n})
    for label, corpora in pool["corpora"].items():
        corpus = corpora[r % len(corpora)]
        ops.append({"argv": ["cubing", "--corpus", corpus["dir"], "--jobs", "2"],
                    "check": {"type": "cubing_corpus", "sizes": corpus["sizes"]},
                    "cls": f"corpus:{label}"})
    return ops


def _tb_arc(seq, region, rng, kind):
    k = rng.randrange(seq[region - 1])
    argv = ["decide", "--two-bridge", ",".join(map(str, seq)), "--crossing-arc", f"A{region}:{k}"]
    if rng.random() < 0.5:
        argv.append("--mirror")
    if region in (1, len(seq)):
        kind = "tunnel"
    return {"argv": argv, "cls": f"n{sum(seq)}:{kind}", "n": sum(seq),
            "check": {"type": "decide_tb", "regions": len(seq), "region": region}}


def _decide_round(pool, r, rng):
    ops = []
    for seq, mid in zip(HEAVY, HEAVY_MIDDLE):
        ops.append(_tb_arc(seq, mid, rng, "slow"))
        ops.append(_tb_arc(seq, 1, rng, "tunnel"))
        ops.append(_tb_arc(seq, len(seq), rng, "tunnel"))
    # the other interior regions of the named sequences: (4,4,4,4,4) alternates
    # A2 and A4 so that slow arcs stay the majority of the 20-crossing flypes
    ops.append(_tb_arc(HEAVY[1], 2 if r % 2 == 0 else 4, rng, "fast"))
    ops.append(_tb_arc(HEAVY[2], 2, rng, "fast"))
    for _ in range(2):
        ops.append(_tb_arc(MID, 2, rng, "mid"))
    for region in (1, 2, 3):
        ops.append(_tb_arc(SMALL, region, rng, "small"))
    for regions, n in RANDOM_SEQUENCES:
        seq = random_twist_sequence(rng, n, regions)
        for region in range(1, regions + 1):
            ops.append(_tb_arc(seq, region, rng, "small"))
    for p in pool["pretzels"] * 2:
        regions = [(i, cs) for i, cs in enumerate(p["regions"]) if len(cs) >= 2]
        ri, cs = rng.choice(regions)
        c1, c2 = rng.sample(cs, 2)
        ops.append({"argv": ["decide", "--pd", p["file"], "--in-region", f"R{ri}:c{c1}:c{c2}"],
                    "cls": f"n{p['n']}:in-region", "n": p["n"],
                    "check": {"type": "decide_pd", "arc": "in-region", "endpoints": [c1, c2]}})
    for p in pool["pretzels"] * 2:
        c1, c2 = rng.sample(range(p["n"]), 2)
        word = rng.sample(range(p["edges"]), rng.choice((1, 2)))
        spec = f"c{c1}:c{c2}:" + ",".join(f"e{e}" for e in word)
        ops.append({"argv": ["decide", "--pd", p["file"], "--transverse", spec],
                    "cls": f"n{p['n']}:transverse", "n": p["n"],
                    "check": {"type": "decide_pd", "arc": "transverse"}})
    return ops


# ---------------------------------------------------------------------------
# Parabolic pairs
# ---------------------------------------------------------------------------

def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _ginv(a):
    n = a[0] * a[0] + a[1] * a[1]
    return (a[0] / n, -a[1] / n)


def parabolic(c, s):
    """[[1+cs, -cs^2], [c, 1-cs]] over Q(i): parabolic, fixing s, det 1."""
    cs = _gmul(c, s)
    cs2 = _gmul(cs, s)
    return [[(1 + cs[0], cs[1]), (-cs2[0], -cs2[1])], [c, (1 - cs[0], -cs[1])]]


def isometric_disks(c, s):
    """Centers s -+ 1/c and squared radius 1/|c|^2 of the two isometric disks."""
    ic = _ginv(c)
    r2 = 1 / (c[0] * c[0] + c[1] * c[1])
    return [((s[0] - ic[0], s[1] - ic[1]), r2), ((s[0] + ic[0], s[1] + ic[1]), r2)]


def interiors_disjoint(d1, d2) -> bool:
    """Exact: |c1 - c2| >= r1 + r2, decided on squares."""
    (z1, r1), (z2, r2) = d1, d2
    dist2 = (z1[0] - z2[0]) ** 2 + (z1[1] - z2[1]) ** 2
    gap = dist2 - r1 - r2
    return gap >= 0 and gap * gap >= 4 * r1 * r2


def pair_verdict(c1, s1, c2, s2) -> str:
    if s1 == s2:
        return "Commuting"
    disks = isometric_disks(c1, s1) + isometric_disks(c2, s2)
    ok = all(interiors_disjoint(disks[i], disks[j])
             for i in range(4) for j in range(i + 1, 4))
    return "FreeCertified" if ok else "Inconclusive"


def _margin(c1, s1, c2, s2) -> float:
    """Smallest ratio distance / (r1 + r2) over the cross pairs of disks."""
    out = []
    for z1, r1 in isometric_disks(c1, s1):
        for z2, r2 in isometric_disks(c2, s2):
            d = float((z1[0] - z2[0]) ** 2 + (z1[1] - z2[1]) ** 2) ** 0.5
            out.append(d / (float(r1) ** 0.5 + float(r2) ** 0.5))
    return min(out)


def _scalar(rng, kind):
    """(c, s) of one map.  Within a kind all choices have entries of the same
    size, so that the cost of a word check depends on its length, not on
    the seed."""
    F = Fraction

    def pm(*xs):
        return rng.choice(xs) * rng.choice((1, -1))

    if kind == "int":
        return (F(rng.choice((3, 4))), F(0)), (F(pm(1, 2, 3)), F(0))
    if kind == "rat":
        return (F(rng.choice((5, 7)), 2), F(0)), (F(pm(1, 3, 5, 7), 2), F(0))
    if kind == "dyadic":
        return (F(rng.choice((5, 7, 9)), 4), F(0)), (F(pm(1, 3, 5), 2), F(0))
    # gauss: |c|^2 = 5 and s with both parts +-1 or +-2
    c = rng.choice(((2, 1), (2, -1), (1, 2), (1, -2)))
    return (F(c[0]), F(c[1])), (F(pm(1, 2)), F(pm(1, 2)))


def random_pair(rng: random.Random, kind: str, verdict: str):
    """Parameters (c1, s1, c2, s2) whose pair has the wanted verdict, with
    a margin that keeps the floating-point path on the same side."""
    while True:
        c1, s1 = _scalar(rng, kind)
        c2, s2 = _scalar(rng, kind)
        if verdict == "Commuting":
            s2 = s1
            if c1 != c2:
                return c1, s1, c2, s2
            continue
        if s1 == s2 or pair_verdict(c1, s1, c2, s2) != verdict:
            continue
        m = _margin(c1, s1, c2, s2)
        if (verdict == "FreeCertified" and m >= 1.05) or (verdict == "Inconclusive" and m <= 0.9):
            return c1, s1, c2, s2


def _exact_json(m, kind):
    if kind == "gauss":
        return json.dumps([[[str(re), str(im)] for re, im in row] for row in m])
    return json.dumps([[str(re) for re, _im in row] for row in m])


def _float_json(m, kind):
    if kind == "gauss":
        return json.dumps([[[int(re), int(im)] for re, im in row] for row in m])
    return json.dumps([[float(re) for re, _im in row] for row in m])


def pingpong_op(rng, kind, verdict, words=0, mode="exact"):
    c1, s1, c2, s2 = random_pair(rng, kind, verdict)
    enc = _float_json if mode == "float" else _exact_json
    argv = ["pingpong", enc(parabolic(c1, s1), kind), enc(parabolic(c2, s2), kind)]
    if words:
        argv += ["--words", str(words)]
    if mode == "float":
        argv += ["--mode", "float"]
    cls = f"{kind}:L{words}" if verdict == "FreeCertified" and words else f"{kind}:{verdict}"
    return {"argv": argv, "cls": cls,
            "check": {"type": "pingpong", "verdict": verdict, "words": words, "mode": mode}}


def _pingpong_round(pool, r, rng):
    ops = []
    for kind in ("int", "rat", "gauss"):
        for words in (6, 6, 7, 7):
            ops.append(pingpong_op(rng, kind, "FreeCertified", words))
        ops.append(pingpong_op(rng, kind, "Inconclusive", rng.choice((6, 7))))
        ops.append(pingpong_op(rng, kind, "Commuting", rng.choice((6, 7))))
    ops.append(pingpong_op(rng, "gauss", "FreeCertified", 8))
    return ops


# ---------------------------------------------------------------------------
# Slopes
# ---------------------------------------------------------------------------

def slope_from_cf(a0: int, terms) -> Fraction:
    x = Fraction(0)
    for t in reversed(terms):
        x = 1 / (t + x)
    return a0 + x


def random_slope(rng: random.Random, digits: int, large: tuple[int, int] | None = None) -> Fraction:
    """A non-integer slope whose denominator has at least ``digits`` digits,
    built from its continued fraction.

    Terms are 1-9, so the geodesic recursion stays shallow; ``large`` puts
    one term drawn from that range at a random position.
    """
    terms = []
    while True:
        terms.append(rng.randint(1, 9))
        x = slope_from_cf(0, terms)
        if x.denominator >= max(2, 10 ** (digits - 1)):
            break
    if large:
        terms[rng.randrange(len(terms))] = rng.randint(*large)
        x = slope_from_cf(0, terms)
    return rng.randint(-9, 9) + x


def fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def equivalent_slope(rng: random.Random, r: Fraction, oriented: bool) -> Fraction:
    """A slope two-bridge equivalent to r by the Schubert congruences."""
    p, q = r.denominator, r.numerator
    choices = [q % p, pow(q, -1, p)]
    if not oriented:
        choices += [-q % p, -pow(q, -1, p) % p]
    return Fraction(rng.choice(choices) + p * rng.randint(-3, 3), p)


def _quick_round(pool, r, rng):
    ops = []
    uses = iter(range(10 ** 6))

    def slope():
        # the k-th slope of round r has 1 + (r + k) % 12 digits and, one time
        # in four, a partial quotient of 50-400: fixed shares in every round
        k = next(uses)
        return random_slope(rng, 1 + (r + k) % 12, (50, 400) if (r + k) % 4 == 0 else None)

    def farey(argv, check, cls=None):
        ops.append({"argv": ["farey"] + argv, "check": check, "cls": cls or f"farey:{argv[0]}"})

    for _ in range(2):
        x = slope()
        farey(["dist", "1/0", fmt(x)], {"type": "farey_dist", "r": "1/0", "s": fmt(x)})
        x, y = slope(), slope()
        farey(["dist", fmt(x), fmt(y)], {"type": "farey_dist", "r": fmt(x), "s": fmt(y)})
    for _ in range(3):
        x = slope()
        farey(["cf", fmt(x)], {"type": "farey_cf", "r": fmt(x)})
        x = slope()
        farey(["covering-slope", fmt(x)], {"type": "farey_cover", "r": fmt(x)})
        x, other, oriented = slope(), slope(), rng.random() < 0.5
        y = equivalent_slope(rng, x, oriented) if rng.random() < 0.5 else other
        farey(["classify-2bridge", fmt(x), fmt(y)] + (["--oriented"] if oriented else []),
              {"type": "farey_2bridge", "r": fmt(x), "s": fmt(y), "oriented": oriented})
        x, other, oriented = slope(), slope(), rng.random() < 0.5
        y = rng.choice((x, -x, 1 / x, -1 / x)) if rng.random() < 0.5 else other
        farey(["classify-p3", fmt(x), fmt(y)] + (["--oriented"] if oriented else []),
              {"type": "farey_p3", "r": fmt(x), "s": fmt(y), "oriented": oriented})
    for p3 in (False, False, True, True):
        x = slope()
        farey(["hyperbolic", fmt(x)] + (["--p3"] if p3 else []),
              {"type": "farey_hyp", "r": fmt(x), "p3": p3})
    # one partial quotient of several thousand: deeper than the interpreter's
    # recursion limit for the recursive geodesic length in farey
    x = random_slope(rng, 1 + r % 12, (3000, 20000))
    farey(["dist", "1/0", fmt(x)], {"type": "farey_dist", "r": "1/0", "s": fmt(x)}, "farey:deep")
    x = random_slope(rng, 1 + (r + 6) % 12, (3000, 20000))
    farey(["hyperbolic", fmt(x)], {"type": "farey_hyp", "r": fmt(x), "p3": False}, "farey:deep")

    for kind in ("int", "rat", "gauss"):
        ops.append(pingpong_op(rng, kind, "FreeCertified"))
        ops.append(pingpong_op(rng, kind, ("Inconclusive", "Commuting")[r % 2]))
    for kind in ("int", "dyadic", "gauss"):
        ops.append(pingpong_op(rng, kind, ("FreeCertified", "Inconclusive")[r % 2], mode="float"))
    for op in ops:
        if op["argv"][0] == "pingpong":
            op["cls"] = "pingpong:" + op["check"]["mode"]
    p = rng.choice(pool["svg_pd"])
    ops.append({"argv": ["svg", "--pd", p["file"], "-o", pool["svg_path"]],
                "check": {"type": "svg", "n": p["n"], "path": pool["svg_path"]}, "cls": "svg"})
    return ops


_ROUNDS = {"cubing-ladder": _ladder_round, "decide-arcs": _decide_round,
           "pingpong-words": _pingpong_round, "quick-cli": _quick_round}

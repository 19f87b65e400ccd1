"""cuspcubes benchmark: closed-loop CLI workloads with output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
The run writes the seeded input files under ``.perfbench_work/`` and spawns
a worker (``worker.py``): a fresh interpreter with one closed-loop client
that calls ``cuspcubes.cli.main`` for each operation until the first round
boundary after S seconds.  ``setup_s`` is the median time from spawning a
worker to its ``ready`` line over ten spawns; ``peak_rss_mb`` is the
worker's peak resident set size after its first 2000 operations.

The speed of the shared host drifts by up to 2x over seconds and minutes,
for all code alike, which left run-to-run spreads of 0.2-0.45 in raw
times.  The worker therefore times a fixed calibration task between
operations, and every end-to-end time is reported at one reference speed,
at which that task takes REF_CALIBRATION_S: each latency is multiplied by
REF_CALIBRATION_S over the calibrations timed around it, and each set-up
sample by the calibration timed just before it.  The report line keeps the
unscaled values and the run's median scale.
Per-layer times are not scaled.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` a first, untraced worker runs for S/2 seconds and a
second, traced worker replays the same rounds, and the last line carries
the per-layer metrics from the spans of the second.  The line before it is
a report: git sha, Python version, nproc, seed, tracing overhead, failures
by cause, the tail percentile and its sample counts, and (traced) the
scaling table of ``verify_npc`` and flype against crossing count.

``correct`` is false when an output broke an invariant or a verdict exit
code contradicted the benchmark's own verdict (a wrong answer, see
``checks.py``).  Operations that raised or returned another unexpected exit
code count in ``failed``, and the report names their causes.  Their share is the
per-layer metric ``failed_share``: it is 0 on two workloads, and an
end-to-end metric must never be 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 9
# Reference speed: the worker's calibration task takes this long.  Every
# time in the end-to-end metrics is scaled to it (see scaled_latencies).
REF_CALIBRATION_S = 0.010
WORKER_TIMEOUT_S = 160
# Crossing counts seen fewer times (the corpus files) stay out of the
# scaling table, whose growth exponents they would only add noise to.
SCALING_MIN_SAMPLES = 3


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------

def spawn(pool_path: Path, result_path: Path, seconds: float, rounds: int, trace: bool):
    """Run one worker; return (set-up seconds, result dict or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(pool_path), str(result_path),
           str(seconds), str(rounds), "1" if trace else "0"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        proc.communicate(timeout=WORKER_TIMEOUT_S)
        code = proc.returncode
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    if seconds <= 0 and rounds <= 0:
        return setup, None
    return setup, json.loads(result_path.read_text())


def timed_spawn(pool_path: Path, result_path: Path, seconds: float):
    """An untraced worker run preceded by a calibration: ((set-up seconds,
    calibration seconds), result)."""
    from worker import calibrate
    cal = calibrate()
    setup, result = spawn(pool_path, result_path, seconds, 0, False)
    return (setup, cal), result


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values, p):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = p / 100 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def share(num, den):
    return num / den if den else 0.0


def outcome(result: dict) -> dict:
    records = result["records"]
    failed = [r for r in records if r["failure"]]
    causes = Counter(f"{r['cls']}: {r['failure'][0]} {r['failure'][1]}" for r in failed)
    return {"attempted": len(records), "failed": len(failed),
            "wrong": sum(r["failure"][0] == "wrong" for r in failed),
            "failures": dict(causes.most_common()),
            "failure_examples": [[a.replace(f"{ROOT}/", "") for a in r["argv"]] for r in failed[:3]]}


def scaled_latencies(result: dict) -> list[float]:
    """Latencies at the reference speed: each one times REF_CALIBRATION_S
    over the median of the two calibrations timed before it and the two
    after it (one calibration alone is too short to pin the speed of an
    operation that runs for seconds)."""
    cal = result["calibration_s"]
    return [r["latency"] * REF_CALIBRATION_S / statistics.median(cal[max(0, r["cal"] - 1):r["cal"] + 3])
            for r in result["records"]]


def end_to_end(workload: str, result: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    from workloads import TAIL_PERCENTILE
    records = result["records"]
    lat = scaled_latencies(result)
    raw = [r["latency"] for r in records]
    ok = sum(1 for r in records if not r["failure"])
    p = TAIL_PERCENTILE[workload]
    tail = percentile(lat, p)
    metrics = {
        "ops_per_s": (ok / sum(lat), "1/s"),
        "op_p50_ms": (1000 * percentile(lat, 50), "ms"),
        "op_tail_ms": (1000 * tail, "ms"),
        "setup_s": (statistics.median(t * REF_CALIBRATION_S / c for t, c in setup), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    by_cls = defaultdict(list)
    for r in records:
        by_cls[r["cls"]].append(r["latency"])
    extra = {"rounds": result["rounds"], "busy_s": result["busy_s"],
             "time_scale": REF_CALIBRATION_S / statistics.median(result["calibration_s"]),
             "unscaled": {"ops_per_s": ok / result["busy_s"], "op_p50_ms": 1000 * percentile(raw, 50),
                          "op_tail_ms": 1000 * percentile(raw, p),
                          "setup_s": statistics.median(t for t, _c in setup)},
             "tail_percentile": p, "samples": len(lat),
             "samples_beyond_tail": sum(1 for x in lat if x > tail),
             "setup_and_calibration_s": setup,
             "class_median_ms": {c: round(1000 * statistics.median(v), 3)
                                 for c, v in sorted(by_cls.items())},
             "class_ops_per_round": {c: len(v) / result["rounds"] for c, v in sorted(by_cls.items())}}
    return metrics, extra


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def layer_metrics(result: dict) -> tuple[dict, dict]:
    spans = result["spans"]
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)

    def covered(i):
        """Length of the union of the children's intervals of span i."""
        total, end = 0.0, -math.inf
        for a, b in sorted((spans[j][1], spans[j][2]) for j in children[i]):
            a = max(a, end)
            if b > a:
                total += b - a
                end = b
        return total

    def outermost(i):
        name, parent = spans[i][0], spans[i][3]
        while parent is not None:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    busy, calls, self_s, errors = Counter(), Counter(), Counter(), Counter()
    by_n = defaultdict(list)
    attr_sum = Counter()
    for i, (name, t0, t1, _parent, _op, attrs) in enumerate(spans):
        if _op < 0:
            continue
        self_s[name] += (t1 - t0) - covered(i)
        if outermost(i):
            busy[name] += t1 - t0
            calls[name] += 1
            if "error" in attrs:
                errors[(name, attrs["error"])] += 1
        if "n" in attrs:
            by_n[name, attrs["n"]].append(t1 - t0)
        for key in ("links", "steps"):
            attr_sum[name, key] += attrs.get(key, 0)

    facts = Counter()
    for r in result["records"]:
        facts.update(r["facts"])
    failed = sum(1 for r in result["records"] if r["failure"])

    def s_at(name, n):
        return median_or_zero(by_n.get((name, n), []))

    s80, s160 = s_at("cubing.verify_npc", 80), s_at("cubing.verify_npc", 160)
    words = facts["words"]
    m = {
        "cubing.verify_npc.busy_s": (busy["cubing.verify_npc"], "s"),
        "cubing.verify_npc.links": (attr_sum["cubing.verify_npc", "links"], "count"),
        "cubing.verify_npc.s_n80": (s80, "s"),
        "cubing.verify_npc.s_n160": (s160, "s"),
        "cubing.verify_npc.growth": (math.log2(s160 / s80) if s80 and s160 else 0.0, "log2"),
        "cubing.build_cubing.busy_s": (busy["cubing.build_cubing"], "s"),
        "cubing.boundary_cubings.busy_s": (busy["cubing.boundary_cubings"], "s"),
        "cubing.to_json.busy_s": (busy["cubing.to_json"], "s"),
        "cubing.corrupt_detected_share": (share(facts["corrupt_detected"], facts["corrupt_ops"]), "ratio"),
        "diagram.load.busy_s": (busy["diagram.load"], "s"),
        "diagram.flype.calls": (calls["diagram.flype"], "count"),
        "diagram.flype.busy_s": (busy["diagram.flype"], "s"),
        "diagram.flype.trial_diagrams": (result["counts"].get("diagram.flype.trial_diagrams", 0), "count"),
        "diagram.flype.steps": (attr_sum["diagram.flype", "steps"], "count"),
        "diagram.flype.s_n12": (s_at("diagram.flype", 12), "s"),
        "diagram.flype.s_n16": (s_at("diagram.flype", 16), "s"),
        "diagram.flype.s_n20": (s_at("diagram.flype", 20), "s"),
        "diagram.checks.busy_s": (busy["diagram.checks"], "s"),
        "decide.classify.self_s": (self_s["decide.classify"], "s"),
        "decide.witness_spare_region.busy_s": (busy["decide.witness_spare_region"], "s"),
        "polyhedra.build_polyhedra.calls": (calls["polyhedra.build_polyhedra"], "count"),
        "polyhedra.build_polyhedra.busy_s": (busy["polyhedra.build_polyhedra"], "s"),
        "decide.witnessed_share": (share(facts["witnessed"], facts["free"]), "ratio"),
        "pingpong.free_word_sanity.busy_s": (busy["pingpong.free_word_sanity"], "s"),
        "pingpong.words_checked": (words, "count"),
        "pingpong.words_per_s": (share(words, busy["pingpong.free_word_sanity"]), "1/s"),
        "pingpong.certificate.busy_s": (busy["pingpong.certificate"], "s"),
        "pingpong.certificate_float.busy_s": (busy["pingpong.certificate_float"], "s"),
        "polyhedra.svg.busy_s": (busy["polyhedra.svg"], "s"),
        "farey.calls": (calls["farey"], "count"),
        "farey.busy_s": (busy["farey"], "s"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
        "farey.recursion_errors": (errors["farey", "RecursionError"], "count"),
        "cli.main.errors": (sum(v for (name, _e), v in errors.items() if name == "cli.main"), "count"),
        "failed_share": (share(failed, len(result["records"])), "ratio"),
    }
    extra = {
        "witnessed": [facts["witnessed"], facts["free"]],
        "corrupt_detected": [facts["corrupt_detected"], facts["corrupt_ops"]],
        "words_checked_note": "computed as 2*(3^L-1) per FreeCertified op with --words L",
        "busy_s": {k: round(v, 6) for k, v in sorted(busy.items())},
        "self_s": {k: round(v, 6) for k, v in sorted(self_s.items())},
        "scaling": {"verify_npc": scaling(by_n, "cubing.verify_npc"),
                    "flype": scaling(by_n, "diagram.flype")},
    }
    return m, extra


def scaling(by_n, name):
    """Median seconds per crossing count with at least SCALING_MIN_SAMPLES
    calls, with two growth rates against the next smaller count: the power-law exponent log(t2/t1) / log(n2/n1) and
    the doublings per added crossing log2(t2/t1) / (n2 - n1)."""
    rows = []
    for n in sorted(k for (nm, k) in by_n if nm == name and len(by_n[nm, k]) >= SCALING_MIN_SAMPLES):
        t = statistics.median(by_n[name, n])
        row = {"n": n, "samples": len(by_n[name, n]), "median_s": t}
        if rows and rows[-1]["median_s"] > 0 and t > 0:
            prev = rows[-1]
            row["exponent"] = math.log(t / prev["median_s"]) / math.log(n / prev["n"])
            row["doublings_per_crossing"] = math.log2(t / prev["median_s"]) / (n - prev["n"])
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    sys.path[:0] = [str(HERE)]
    from workloads import WORKLOADS, make_pool

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cuspcubes" / "__init__.py").is_file():
        print(f"error: no cuspcubes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        pool = make_pool(args.workload, args.seed, workdir)
        pool_path = workdir / "pool.json"
        pool_path.write_text(json.dumps(pool))
        result_path = workdir / "result.json"
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "git_sha": git_sha(),
                  "python": platform.python_version(), "nproc": os.cpu_count()}
        if args.trace:
            _, plain = spawn(pool_path, result_path, args.seconds / 2, 0, False)
            _, traced = spawn(pool_path, result_path, 0, plain["rounds"], True)
            metrics, extra = layer_metrics(traced)
            overhead = sum(scaled_latencies(traced)) / sum(scaled_latencies(plain)) - 1
            metrics["trace.overhead"] = (overhead, "ratio")
            report["tracing_overhead"] = overhead
            report.update(outcome(traced))
            report.update(extra)
            wrong = outcome(plain)["wrong"] + report["wrong"]
        else:
            # set-up spawns before and after the measured one, so that the
            # median spans the run's stretch of machine load, not one moment;
            # each is paired with a calibration timed just before it
            setup = [timed_spawn(pool_path, result_path, 0)[0] for _ in range(SETUP_SPAWNS // 2)]
            first, result = timed_spawn(pool_path, result_path, args.seconds)
            setup.append(first)
            setup += [timed_spawn(pool_path, result_path, 0)[0]
                      for _ in range(SETUP_SPAWNS - SETUP_SPAWNS // 2)]
            metrics, extra = end_to_end(args.workload, result, setup)
            report["tracing_overhead"] = "not traced (--trace 0)"
            report.update(outcome(result))
            report.update(extra)
            wrong = report["wrong"]
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    final = {"correct": wrong == 0, "attempted": report["attempted"], "failed": report["failed"],
             "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(report))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

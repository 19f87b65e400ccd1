"""One benchmark client: a fresh interpreter running operations in a closed loop.

    python3 worker.py POOL.json RESULT.json SECONDS ROUNDS TRACE

The worker imports ``cuspcubes`` from the checkout's ``src``, reads the
pool manifest written by ``run.py``, prints ``ready`` and then runs
rounds of operations, each one a ``cuspcubes.cli.main(argv)`` call with
stdout and stderr captured, the next sent only after the previous one
returned.  It stops at the first round boundary SECONDS after the first
operation, or after ROUNDS rounds when ROUNDS > 0.  Each output is checked
after its latency is taken.  With TRACE=1 the layer spans of ``tracing.py``
are recorded.  The result file holds one record per operation (with the
index of the calibration timed before it; the next one is timed after
it), the calibration times, the spans and the peak resident set size
after the first RSS_AFTER_OPS operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Peak RSS is read after this many operations (or at the end of a shorter
# run): a fixed amount of work, so that a run which completes more
# operations in its seconds, and so fills farey's unbounded cache further,
# does not report more memory for being faster.
RSS_AFTER_OPS = 2000
# The host's speed drifts by up to 2x over seconds and minutes, for all
# code alike.  A fixed calibration task, timed between operations every
# CALIBRATE_EVERY_S busy seconds, lets run.py scale each latency to one
# reference speed.
CALIBRATE_EVERY_S = 0.25


def calibration_task():
    """Fixed pure-Python work in the package's mix: Fraction arithmetic,
    tuple keys and dict updates."""
    acc = Fraction(0)
    table = {}
    for i in range(1500):
        x = Fraction(i % 17 + 1, i % 13 + 2)
        acc = (acc + x * x) % 7
        key = (i % 61, i % 59)
        table[key] = table.get(key, 0) + i
        if len(table) > 100:
            del table[next(iter(table))]
    return acc, len(table)


def calibrate() -> float:
    t0 = time.perf_counter()
    calibration_task()
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    pool_path, result_path, seconds, rounds, trace = argv
    seconds, rounds, trace = float(seconds), int(rounds), trace == "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    from cuspcubes import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"cuspcubes imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    pool = json.loads(Path(pool_path).read_text())
    print("ready", flush=True)
    if seconds <= 0 and rounds <= 0:
        return 0

    import checks
    import workloads
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    records = []
    peak_rss_kb = None
    busy = since_calibration = 0.0
    calibrations = [calibrate()]
    start = time.perf_counter()
    r = 0
    while r < rounds if rounds > 0 else (r == 0 or time.perf_counter() - start < seconds):
        for op in workloads.make_round(pool, r):
            out, err = io.StringIO(), io.StringIO()
            raised = None
            code = None
            if tracer:
                tracer.op = len(records)
                root = tracer.open("cli.main")
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(op["argv"]))
            except (Exception, SystemExit) as exc:      # a traceback or an argparse exit
                raised = type(exc).__name__
            latency = time.perf_counter() - t0
            if tracer:
                tracer.close(root, **({"error": raised} if raised else {}))
            busy += latency
            since_calibration += latency
            cal = len(calibrations) - 1
            if since_calibration >= CALIBRATE_EVERY_S:
                calibrations.append(calibrate())
                since_calibration = 0.0
            if raised:
                failure, facts = ("raised", raised), {}
            else:
                failure, facts = checks.check(op, code, out.getvalue())
            records.append({"round": r, "cls": op["cls"], "n": op.get("n"), "type": op["check"]["type"],
                            "latency": latency, "cal": cal,
                            "code": code, "failure": failure, "facts": facts,
                            "argv": op["argv"] if failure else None})
            if len(records) == RSS_AFTER_OPS:
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        r += 1
    calibrations.append(calibrate())
    result = {"rounds": r, "busy_s": busy, "wall_s": time.perf_counter() - start,
              "calibration_s": calibrations,
              "peak_rss_kb": peak_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "records": records,
              "spans": tracer.spans if tracer else [], "counts": tracer.counts if tracer else {}}
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

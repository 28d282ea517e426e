#!/usr/bin/env python3
"""Time each stage of `isoclinic pipeline` over a ladder of orders and write the readings as JSON.

The stages are `field` and the nine `cli.STAGES`.  Each run clears the
field cache and builds the field with its own `gf.make_field` call, the
`field` stage, which the pipeline then finds in the cache.  It then walks
`cli.iter_pipeline`: each other stage is one step of that generator, read
between the steps, so nothing in the package is patched or timed.  A stage
covers the work done from the end of the previous stage to its own row;
the field's lazily cached arrays fall into the first stage that reads them.

For each q of the ladder, in ascending order, the file holds the median
seconds of each stage and of the whole run over the repeats, and the peak
RSS (`ru_maxrss`, whole MB) of one child process
`python -m isoclinic pipeline --k K`, read by scripts/rss_guard.py as CI
reads it, so no earlier q and no allocator state of this process sets it.
Linux carries the peak RSS of the spawning process into the child's
ru_maxrss at exec; rss_guard.py is the spawner, small beside any child.
One more run at the largest q is traced with `tracemalloc` (this process
only) for the peak of traced memory during each stage.  The numpy and
Python versions and the CPU count are recorded beside them.  The script
exits 1 unless every stage of every run passes and every child exits 0.

    python3 scripts/bench_stages.py --out BENCH_18.json
    python3 scripts/bench_stages.py --q-max 25 --repeats 1 --out /tmp/stages.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from isoclinic import cli, gf

LADDER = (5, 9, 25, 121, 241, 529, 729, 2197, 4913)


def run(k: int, start, stop) -> tuple[dict, bool]:
    """Each stage's reading in one pipeline run at order k on a fresh field, and whether every stage passed.

    start() is called before each stage and stop(its result) after it; the
    reading is what stop returns.  No stage after the first FAIL runs.
    """
    gf.make_field.cache_clear()
    info = cli.classify_order(k)
    mark = start()
    gf.make_field(info.p, info.alpha)
    readings = {"field": stop(mark)}
    mark = start()
    for name, ok, _ in cli.iter_pipeline(k, 1e-9):
        readings[name] = stop(mark)
        mark = start()
    return readings, ok  # iter_pipeline stops after the first FAIL, so the last row holds the verdict


def child_rss_mb(k: int) -> tuple[float, bool]:
    """ru_maxrss in whole MB of one child `python -m isoclinic pipeline --k k`, and whether it exited 0.

    The child runs under scripts/rss_guard.py with no limit, the reader CI
    uses, so also under -W error: rss_guard.py is a small process that
    spawns the child and reads its rusage, so the child carries
    rss_guard.py's peak, not this process's, and the reading is the
    ru_maxrss of its report line.
    """
    guard = [sys.executable, os.path.join(os.path.dirname(__file__), "rss_guard.py"), "inf", "pipeline", "--k", str(k)]
    proc = subprocess.run(guard, capture_output=True, text=True)  # the pipeline report is dropped
    return float(proc.stdout.rsplit("ru_maxrss ", 1)[1].split()[0]), proc.returncode == 0


def timed(q: int, repeats: int) -> tuple[dict, bool]:
    """Median seconds per stage and of the whole run at order q over repeats runs, and whether all passed."""
    seconds: dict[str, list[float]] = defaultdict(list)
    totals, passed = [], True
    for _ in range(repeats):
        start = time.perf_counter()
        readings, ok = run((q + 1) // 2, time.perf_counter, lambda mark: time.perf_counter() - mark)
        totals.append(time.perf_counter() - start)
        passed &= ok
        for name, value in readings.items():
            seconds[name].append(value)
    medians = {name: statistics.median(values) for name, values in seconds.items()}
    return {"seconds": medians, "total_s": statistics.median(totals)}, passed


def traced_peaks(q: int) -> tuple[dict, bool]:
    """The peak of traced memory in MB during each stage of one run at order q, and whether it passed."""
    tracemalloc.start()
    try:
        return run((q + 1) // 2, tracemalloc.reset_peak, lambda _: tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q-max", type=int, default=max(LADDER), help="run the ladder orders up to this q")
    ap.add_argument("--repeats", type=int, default=5, help="runs per order; each stage reports its median")
    ap.add_argument("--out", default=None, help="output path; stdout when omitted")
    args = ap.parse_args()
    ladder = [q for q in LADDER if q <= args.q_max]
    if not ladder or args.repeats < 1:
        ap.error(f"need --q-max >= {min(LADDER)} and --repeats >= 1")

    orders, passed = [], True
    for q in ladder:
        reading, ok = timed(q, args.repeats)
        rss_mb, child_ok = child_rss_mb((q + 1) // 2)
        ok &= child_ok
        passed &= ok
        orders.append({"q": q, "k": (q + 1) // 2, **reading, "ru_maxrss_mb": rss_mb})
        print(f"q = {q}: {reading['total_s']:.4f} s{'' if ok else ' FAIL'}", file=sys.stderr)
    peaks, ok = traced_peaks(ladder[-1])
    passed &= ok
    doc = {
        "script": "scripts/bench_stages.py",
        "repeats": args.repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "passed": passed,
        "orders": orders,
        "traced": {"q": ladder[-1], "peak_mb": peaks},
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

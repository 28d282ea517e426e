#!/usr/bin/env python3
"""Time each stage of `isoclinic pipeline` over a ladder of orders and write the readings as JSON.

A stage is one of the functions that `cli._chain` calls to build or check
an object, plus `make_field`, which `cli.run_pipeline` calls first.  Each
is wrapped in the `isoclinic.cli` namespace only, so a call that the
program makes from inside another module is timed as part of its caller.
The field cache is cleared before every run, so each run builds its field.

For each q of the ladder, in ascending order, the file holds the median
seconds of each stage and of the whole `run_pipeline` call over the
repeats, and the peak RSS (`ru_maxrss`, whole MB) of one child process
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
from unittest.mock import patch

import numpy as np

from isoclinic import cli, gf

LADDER = (5, 9, 25, 121, 241, 529, 729, 2197, 4913)
FUNCTIONS = (
    "make_field",
    "build_conference",
    "verify_counts",
    "conference_residual",
    "build_seidel",
    "seidel_square_residual",
    "spectrum",
    "equivalence_witnesses",
    "planes_from_seidel",
    "orthonormality_residual",
    "isoclinic_residual",
    "ls_bound",
    "double",
    "hadamard_residual",
)


def wrapped(before, after):
    """A patch of each of FUNCTIONS in isoclinic.cli that calls before(name), the function, then after(name)."""

    def wrap(name, fn):
        def stage(*args, **kwargs):
            before(name)
            try:
                return fn(*args, **kwargs)
            finally:
                after(name)

        return stage

    return patch.multiple(cli, **{name: wrap(name, getattr(cli, name)) for name in FUNCTIONS})


def run(k: int) -> bool:
    """One pipeline run at order k on a fresh field; whether every stage passed."""
    gf.make_field.cache_clear()
    rows = cli.run_pipeline(k, 1e-9)
    return len(rows) == len(cli.STAGES) and all(ok for _, ok, _ in rows)


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
    starts: dict[str, float] = {}
    seconds: dict[str, list[float]] = defaultdict(list)
    totals, passed = [], True

    def before(name):
        starts[name] = time.perf_counter()

    def after(name):
        seconds[name].append(time.perf_counter() - starts[name])

    with wrapped(before, after):
        for _ in range(repeats):
            start = time.perf_counter()
            passed &= run((q + 1) // 2)
            totals.append(time.perf_counter() - start)
    medians = {name: statistics.median(seconds[name]) for name in FUNCTIONS if seconds[name]}
    return {"seconds": medians, "total_s": statistics.median(totals)}, passed


def traced_peaks(q: int) -> tuple[dict, bool]:
    """The peak of traced memory in MB during each stage of one run at order q, and whether it passed."""
    peaks: dict[str, float] = {}

    def before(name):
        tracemalloc.reset_peak()

    def after(name):
        peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20

    tracemalloc.start()
    try:
        with wrapped(before, after):
            passed = run((q + 1) // 2)
    finally:
        tracemalloc.stop()
    return {name: peaks[name] for name in FUNCTIONS if name in peaks}, passed


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

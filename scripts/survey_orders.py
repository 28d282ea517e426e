#!/usr/bin/env python3
"""Survey a range of orders: classify each k and verify the admissible ones.

For every admissible k, `isoclinic.cli.run_pipeline` runs the full chain and
the value each residual row was judged on is tabulated, so a clean run
prints a table of numbers near machine epsilon.  A stage the run did not
reach, or a row with no residual, prints `-`.

    python3 scripts/survey_orders.py --k-min 3 --k-max 51
"""

from __future__ import annotations

import argparse
import time

from isoclinic import classify_order, cli

# the residual rows of run_pipeline the table shows, with their column heads and widths
COLUMNS = (
    ("conference-residual", "|CC*-(q-1)I|", 12),
    ("seidel-square", "|S^2-(q-1)I|", 12),
    ("plane-extraction", "orth", 9),
    ("isoclinic", "iso", 9),
    ("hadamard", "hadamard", 9),
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k-min", type=int, default=3)
    ap.add_argument("--k-max", type=int, default=51)
    ap.add_argument("--skip-open", action="store_true", help="do not list open/excluded orders")
    args = ap.parse_args()

    header = f"{'k':>3} {'q':>4} {'status':<10} {'counts':<6} " + " ".join(f"{h:>{w}}" for _, h, w in COLUMNS)
    print(header)
    print("-" * len(header))
    start = time.perf_counter()
    for k in range(args.k_min, args.k_max + 1):
        info = classify_order(k)
        if info.status != "admissible":
            if not args.skip_open:
                print(f"{k:>3} {info.q:>4} {info.status:<10} {info.reason}")
            continue
        rows = {row.name: row for row in cli.run_pipeline(k, 1e-9)}
        counts = rows["conference-exact-counts"]  # the first stage, always reached
        values = [rows[name].value if name in rows else None for name, _, _ in COLUMNS]
        cells = " ".join(f"{'-' if v is None else format(v, '.2e'):>{w}}" for v, (_, _, w) in zip(values, COLUMNS))
        print(f"{k:>3} {info.q:>4} {info.status:<10} {'exact' if counts.ok else 'FAIL':<6} {cells}")
    print(f"total {time.perf_counter() - start:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

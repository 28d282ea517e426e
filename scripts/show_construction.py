#!/usr/bin/env python3
"""Walk through the construction at one order and print every layer.

Shows the field data, the critical scalar and the symbolic exponent
pattern E[i, j] = chi(a_i - a_j), then the report of `isoclinic pipeline`
at that order, whose exit code it returns: the exact count triple, the
Seidel spectrum, the plane tuple with its count bound and the doubling.

    python3 scripts/show_construction.py --k 3
"""

from __future__ import annotations

import argparse
import math

from isoclinic import classify_order, cli, critical_angle, critical_omega, make_field

SIGN = {0: ".", 1: "+", -1: "-"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=3)
    args = ap.parse_args()

    info = classify_order(args.k)
    if info.status == "admissible":  # the pipeline refuses any other k
        k, q = info.k, info.q
        field = make_field(info.p, info.alpha)
        print(f"k = {k}, q = 2k-1 = {q} = {info.p}^{info.alpha}, modulus {field.modulus}")
        theta = critical_angle(k)
        print(f"theta = {theta:.6f} rad = {math.degrees(theta):.2f} deg, cos(2 theta) = {(2 - k) / (k - 1):+.6f}")
        print(f"omega = exp(i theta) = {critical_omega(k):.6f}")
        print("\nexponent pattern (. zero, +/- for omega^{+1,-1}):")
        for row in field.chi_differences:
            print("  " + "".join(SIGN[int(e)] for e in row))
        print()
    return cli.main(["pipeline", "--k", str(args.k)])


if __name__ == "__main__":
    raise SystemExit(main())

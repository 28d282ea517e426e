#!/usr/bin/env python3
"""Walk through the construction at one order and print every layer.

Shows the field data, the symbolic exponent pattern, the critical scalar,
the Seidel spectrum and the extracted plane tuple with its count bound.

    python3 scripts/show_construction.py --k 3
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from isoclinic import (
    build_conference,
    build_seidel,
    classify_order,
    conference_residual,
    critical_angle,
    critical_omega,
    gram_counts,
    isoclinic_residual,
    ls_bound,
    make_field,
    orthonormality_residual,
    planes_from_seidel,
    spectrum,
)

SIGN = {0: ".", 1: "+", -1: "-"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=3)
    args = ap.parse_args()

    info = classify_order(args.k)
    if info.status != "admissible":
        print(f"k={args.k} (q={info.q}) is {info.status}: {info.reason}", file=sys.stderr)
        return 2
    k, q = info.k, info.q
    field = make_field(info.p, info.alpha)
    print(f"k = {k}, q = 2k-1 = {q} = {info.p}^{info.alpha}, modulus {field.modulus}")

    theta = critical_angle(k)
    omega = critical_omega(k)
    print(f"theta = {theta:.6f} rad = {math.degrees(theta):.2f} deg, cos(2 theta) = {(2 - k) / (k - 1):+.6f}")
    print(f"omega = exp(i theta) = {omega:.6f}")

    C = build_conference(field, omega)
    print("\nexponent pattern (. zero, +/- for omega^{+1,-1}):")
    for row in C.exponents:
        print("  " + "".join(SIGN[int(e)] for e in row))
    counts = gram_counts(C)
    triple = counts.entry(0, 1)
    differs = (np.stack([counts.r, counts.s, counts.t]) != np.array(triple)[:, None, None]).any(axis=0)
    np.fill_diagonal(differs, False)
    if differs.any():
        i, j = (int(x) for x in np.argwhere(differs)[0])
        print(f"count triple {counts.entry(i, j)} at ({i}, {j}) differs from {triple} at (0, 1)", file=sys.stderr)
        return 1
    print(f"every off-diagonal count triple: {triple}")
    print(f"numeric residual |C C* - (q-1) I|_max = {conference_residual(C):.2e}")

    S = build_seidel(field)
    pairs = spectrum(S)
    print(f"\nSeidel matrix: {2 * q} x {2 * q}, spectrum " + ", ".join(f"{v:+.4f} (x{m})" for v, m in pairs))

    pt = planes_from_seidel(S)
    bc = ls_bound(q, pt.lam, q)
    print(f"plane tuple: {pt.n} planes in R^{pt.r}, lambda = {pt.lam}")
    print(f"orthonormality {orthonormality_residual(pt):.2e}, isoclinic {isoclinic_residual(pt):.2e}")
    print(f"count bound at this lambda: {bc.bound} -> attained exactly: {bc.tight}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Self-test of the independent checkers: each corrupted input must be rejected.

    python3 perfbench/selftest.py        (from the repository root)

Exits 0 when the checkers accept the clean q = 13 construction and reject
each of the three corrupted copies: a flipped exponent, a perturbed Seidel
block and a dropped plane.  run.py runs the same test in every run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

Q, P, ALPHA = 13, 13, 1


def failures() -> list[str]:
    """Descriptions of every clean input rejected and every corrupted input accepted."""
    import checks
    from isoclinic.conference import build_conference, critical_omega
    from isoclinic.gf import make_field
    from isoclinic.planes import planes_from_seidel
    from isoclinic.seidel import build_seidel

    field = make_field(P, ALPHA)
    C = build_conference(field, critical_omega((Q + 1) // 2))
    S = build_seidel(field)
    pt = planes_from_seidel(S)
    rng = np.random.default_rng(0)

    flipped = checks.flip_exponent(C.exponents)
    perturbed = checks.rotate_block(S.dense)
    dropped = pt.basis[:, :-2]

    cases = [
        ("clean exponents", lambda E: (checks.check_exponents(E, Q, P, ALPHA), checks.check_counts(E, Q)), C.exponents, False),
        ("flipped exponent (Euler, row counts)", lambda E: checks.check_exponents(E, Q, P, ALPHA), flipped, True),
        ("flipped exponent (exact counts)", lambda E: checks.check_counts(E, Q), flipped, True),
        ("clean Seidel matrix", lambda M: checks.check_seidel(M, Q), S.dense, False),
        ("perturbed Seidel block", lambda M: checks.check_seidel(M, Q), perturbed, True),
        ("clean planes", lambda B: checks.check_planes(B, S.dense, Q, pt.lam, rng), pt.basis, False),
        ("dropped plane", lambda B: checks.check_planes(B, S.dense, Q, pt.lam, rng), dropped, True),
    ]  # fmt: skip
    out = []
    for label, check, data, corrupted in cases:
        try:
            check(data)
        except checks.CheckFailed as exc:
            if not corrupted:
                out.append(f"{label} rejected: {exc}")
        else:
            if corrupted:
                out.append(f"{label} accepted")
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    problems = failures()
    for line in problems:
        print(f"selftest: {line}")
    print("selftest: " + ("FAIL" if problems else "ok: every corrupted input was rejected"))
    sys.exit(1 if problems else 0)

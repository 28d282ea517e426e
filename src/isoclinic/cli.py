"""Command-line interface.

Subcommands:
    generate   build a matrix family member and export it
    verify     re-check an exported record numerically (and exactly)
    enumerate  classify orders k as admissible / open / excluded
    pipeline   run the full construction and verification chain for one k

Exit codes: 0 success, 1 verification failure, 2 inadmissible parameters,
3 I/O error, 4 parse error or precondition violation.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction

import numpy as np

from .conference import (
    UNIT_TOL,
    ConferenceMatrix,
    _values_from_exponents,
    build_conference,
    conference_residual,
    critical_angle,
    critical_omega,
    equivalence_witnesses,
    verify_counts,
)
from .errors import IsoclinicError, RecordParseError
from .export import KINDS, ExportRecord, read_record, record_pieces, write_record
from .gf import GaloisField, developed_column, make_field
from .hadamard import HadamardMatrix, double, hadamard_residual
from .orders import OrderInfo, classify_order
from .planes import (
    PlaneTuple,
    _isoclinic_deviation,
    build_gram,
    isoclinic_residual,
    ls_bound,
    orthonormality_residual,
    planes_from_seidel,
)
from .seidel import SeidelMatrix, _blocks, build_seidel, seidel_square_residual, spectrum

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARAMS = 2
EXIT_IO = 3
EXIT_PARSE = 4


def _admissible(k: int, info: OrderInfo | None = None) -> OrderInfo:
    """The classification of k (info, when given); ValueError unless k is admissible."""
    info = classify_order(k) if info is None else info
    if info.status != "admissible":
        raise ValueError(f"k={k} is not admissible: {info.reason}")
    return info


def build_record(kind: str, k: int, info: OrderInfo | None = None) -> ExportRecord:
    """Build the requested family member at the critical scalar for order k."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    info = _admissible(k, info)
    field = make_field(info.p, info.alpha)
    theta = critical_angle(k)
    omega0 = critical_omega(k)
    meta = {
        "p": info.p,
        "alpha": info.alpha,
        "modulus": list(field.modulus),
        "omega": [omega0.real, omega0.imag],
        "omega_branch": "principal",
        "cos_2theta": (2.0 - k) / (k - 1.0),
    }
    if kind == "conference":
        C = build_conference(field, omega0)
        return ExportRecord("conference", C.q, k, theta, C.values, C.exponents, meta)
    if kind == "seidel":
        S = build_seidel(field)
        return ExportRecord("seidel", 2 * S.q, k, theta, S.dense, None, meta)
    if kind == "gram":
        A = build_gram(build_seidel(field))
        meta["lambda"] = [1, 2 * k - 2]
        return ExportRecord("gram", A.shape[0], k, theta, A, None, meta)
    if kind == "planes":
        pt = planes_from_seidel(build_seidel(field))
        meta["lambda"] = [pt.lam.numerator, pt.lam.denominator]
        meta["planes"] = pt.n
        return ExportRecord("planes", pt.r, k, theta, pt.basis, None, meta)
    # hadamard
    H = double(build_conference(field, omega0))
    return ExportRecord("hadamard", H.n2, k, theta, H.values, None, meta)


class _ExactUnavailable(Exception):
    pass


def _metadata_omega(meta: dict) -> complex:
    """The record's unit scalar omega, 1 when absent."""
    pair = meta.get("omega", [1.0, 0.0])
    numbers = isinstance(pair, list) and len(pair) == 2 and all(type(x) in (int, float) for x in pair)
    try:
        omega = complex(*pair) if numbers else complex(math.nan)
    except OverflowError:  # an int beyond the float range
        omega = complex(math.nan)
    if abs(abs(omega) ** 2 - 1.0) <= UNIT_TOL:  # false for nan and inf parts
        return omega
    raise RecordParseError(f"metadata omega must be a pair of finite numbers on the unit circle, got {pair!r}")


def _metadata_lambda(meta: dict) -> Fraction:
    """The planes record's exact isoclinism parameter lambda."""
    pair = meta.get("lambda")
    if isinstance(pair, list) and len(pair) == 2 and all(type(x) is int for x in pair) and pair[1] != 0:
        if abs(Fraction(*pair)) <= sys.float_info.max:  # the residuals read lambda as a float
            return Fraction(*pair)
        raise RecordParseError(f"metadata lambda must lie within the float range, got {pair!r}")
    raise RecordParseError(f"metadata lambda must be two integers with a nonzero denominator, got {pair!r}")


def _row(name: str, value: float, limit: float, detail: str = "{:.3e}") -> tuple[str, bool, str]:
    """A threshold row (name, ok, detail): value <= limit passes, so a nan fails; detail formats value."""
    return name, value <= limit, detail.format(value)


def _asymmetry(M: np.ndarray, m: int) -> float:
    """Max-abs entry of M[:, :m] - M[:m]^T: the asymmetry of M read on its m leading columns.

    At m = n this is the whole M - M^T.  When M is group-developed, M[i, j]
    = f(a_i - a_j), column 0 against row 0 holds every f(x) - f(-x), so
    m = 1 reads the same maximum; in 2 x 2 blocks g(a_i - a_j), m = 2
    (block column 0 against block row 0) holds every g(x) - g(-x)^T.
    """
    return float(np.abs(M[:, :m] - M[:m].T).max())


def _record_checks(record: ExportRecord, tol: float, exact: bool) -> list[tuple[str, bool, str]]:
    """Kind-appropriate checks as (name, ok, detail) rows.

    Every form row reads the m leading rows of the entries, or m / 2
    leading block rows, with one m per record taken from the form check
    the record passes through: m = 1 for a conference record whose values,
    and exponents when present, are group-developed (gf.developed_column),
    m = 2 for a seidel or gram record that is block group-developed, and
    every row otherwise.  A group-developed matrix holds every distinct
    entry, or block, in row 0, or block row 0, so both reads give the same
    row; at m = n each read is the whole matrix.
    """
    kind = record.kind
    # conference and planes records have order q = 2k - 1, the others 2q
    if kind in ("conference", "planes"):
        formula, expected = "2k-1", 2 * record.k - 1
    else:
        formula, expected = "2(2k-1)", 4 * record.k - 2
    same = record.order == expected
    checks = [("order", same, f"{record.order} {'=' if same else '!='} {formula} = {expected}")]
    if kind == "conference":
        omega = _metadata_omega(record.metadata)
        values = record.entries.astype(np.complex128, copy=False)
        C = ConferenceMatrix(k=record.k, exponents=record.exponents, values=values)
        checks.append(_row("conference-residual", conference_residual(C), tol))
        # row 0 of a group-developed C, with its exponents when present, holds every distinct entry; the
        # residual above has checked the form of the values already, and C keeps both verdicts
        m = 1 if C.column is not None and (C.exponents is None or C.exponent_column is not None) else C.q
        checks.append(_row("zero-diagonal", float(np.abs(values.diagonal()).max()), tol))
        off = ~np.eye(m, C.q, dtype=bool)
        checks.append(_row("unimodular", float(np.abs(np.abs(values[:m][off]) - 1.0).max(initial=0.0)), tol))
        checks.append(_row("symmetry", _asymmetry(values, m), tol))
        if C.exponents is not None:
            dev = float(np.abs(values[:m] - _values_from_exponents(C.exponents[:m], omega)).max())
            checks.append(_row("exponent-values", dev, tol))
        if exact:
            if record.exponents is None:
                raise _ExactUnavailable("exact layer unavailable: record has no exponent matrix")
            ok = verify_counts(C)
            checks.append(("exact-counts", ok, "match" if ok else "counts differ"))
        return checks
    if exact:
        raise _ExactUnavailable("exact layer unavailable: only conference records carry one")
    # the parser gives seidel, gram and planes records real float64 entries of even order or width
    if kind == "seidel":
        S = SeidelMatrix(k=record.k, dense=record.entries)
        checks.append(_row("seidel-square", seidel_square_residual(S), tol))
        # block row 0 (rows 0 and 1) of a block group-developed S holds every distinct block
        m = 2 if S.block_column is not None else 2 * S.q
        checks.append(_row("symmetry", _asymmetry(S.dense, m), tol))
        blocks = _blocks(S.dense[:m])
        checks.append(_row("zero-diagonal-blocks", float(np.abs(blocks.diagonal()).max()), tol))
        # B B^T = I for every off-diagonal block B
        gram = np.einsum("ijab,ijcb->ijac", blocks, blocks)
        off = ~np.eye(m // 2, S.q, dtype=bool)
        checks.append(_row("orthogonal-blocks", float(np.abs(gram[off] - np.eye(2)).max(initial=0.0)), tol))
        return checks
    if kind == "gram":
        A = record.entries
        # block row 0 (rows 0 and 1) of a block group-developed A, and so of A^2, holds every distinct block
        m = 2 if developed_column(A, 2) is not None else A.shape[0]
        checks.append(_row("symmetry", _asymmetry(A, m), tol))
        idem = float(np.abs(A[:m] @ A - 2.0 * A[:m]).max())
        checks.append(_row("eigenvalues-0-2", idem, max(tol, 1e-10) * A.shape[0], "|A^2-2A| = {:.3e}"))
        diag = float(np.abs(np.einsum("iiab->iab", _blocks(A[:m, :m])) - np.eye(2)).max())
        checks.append(_row("unit-diagonal-blocks", diag, tol))
        # A_ij^T A_ij = lambda I for i < j, at the lambda of the record's k
        lam = Fraction(1, 2 * record.k - 2)
        iso = _isoclinic_deviation(_blocks(A[:m]), lam)
        checks.append(_row("isoclinic-blocks", iso, tol, f"{{:.3e}} at lambda = {lam}"))
        return checks
    if kind == "planes":
        pt = PlaneTuple(lam=_metadata_lambda(record.metadata), basis=record.entries)
        checks.append(_row("orthonormal-pairs", orthonormality_residual(pt), tol))
        checks.append(_row("isoclinic", isoclinic_residual(pt), tol))
        # 2k - 1 planes in R^(2k - 1): as many planes as dimensions, and that
        # count attains the exact bound at this lambda
        checks.append(("plane-count", pt.n == pt.r, f"n = {pt.n}, r = {pt.r}"))
        try:
            bc = ls_bound(pt.r, pt.lam, pt.n)
        except ValueError as exc:  # r < 4 or lambda outside (0, 1): no bound applies
            checks.append(("count-bound-tight", False, str(exc)))
        else:
            checks.append(("count-bound-tight", bc.tight, f"v = {pt.n}, bound {bc.bound}"))
        return checks
    # hadamard
    H = HadamardMatrix(values=record.entries.astype(np.complex128, copy=False))
    checks.append(_row("hadamard-residual", hadamard_residual(H), tol))
    # the record claims to be the doubling of a conference matrix C, which is symmetric with zero diagonal;
    # the residual above has checked that form already and H keeps the verdict
    form = H.doubling_of is not None
    shape = "H = [[C+I, C~-I], [C-I, -C~-I]]"
    checks.append(("doubling-form", form, shape if form else f"no symmetric C with zero diagonal gives {shape}"))
    return checks


STAGES = (
    "conference-exact-counts",
    "conference-residual",
    "seidel-square",
    "spectrum",
    "equivalence-witnesses",
    "plane-extraction",
    "isoclinic",
    "count-bound-tight",
    "hadamard",
)


def _chain(field: GaloisField, k: int, tol: float):
    """Yield the (name, ok, detail) row of each stage of STAGES in turn."""
    counts, residual, square, spectral, witnesses, extraction, isoclinic, bound, hadamard = STAGES
    q = field.q
    C = build_conference(field, critical_omega(k))
    ok = verify_counts(C)
    kk = (k - 1) // 2
    yield counts, ok, f"(r,s,t) = ({k - 2},{kk},{kk}) at every off-diagonal" if ok else "counts differ"
    yield _row(residual, conference_residual(C), tol)
    S = build_seidel(field)
    yield _row(square, seidel_square_residual(S), tol)
    pairs = spectrum(S)
    yield spectral, all(m == q for _, m in pairs), " ".join(f"{v:+.6f} x{m}" for v, m in pairs)
    equivalence_witnesses(field)
    yield witnesses, True, "permutation and all-i scaling verified"
    pt = planes_from_seidel(S)
    del S  # no later stage reads it, so the plane residuals do not hold it beside their products
    yield _row(extraction, orthonormality_residual(pt), tol, "orthonormality {:.3e}")
    yield _row(isoclinic, isoclinic_residual(pt), tol, f"{{:.3e}} at lambda = {pt.lam}")
    bc = ls_bound(q, pt.lam, q)
    yield bound, bc.tight, f"v = {q} = bound {bc.bound}"
    del pt  # no later stage reads it, so the 2q x 2q H of the doubling does not sit beside it
    H = double(C)
    del C  # H does not keep it, so the hadamard residual does not hold C beside H
    yield _row(hadamard, hadamard_residual(H), tol, f"order {H.n2}, residual {{:.3e}}")


def run_pipeline(k: int, tol: float) -> list[tuple[str, bool, str]]:
    """Construction and verification chain for one admissible k, up to its first FAIL.

    ValueError, before any field is built, unless k is admissible.
    """
    info = _admissible(k)
    chain = _chain(make_field(info.p, info.alpha), k, tol)
    rows: list[tuple[str, bool, str]] = []
    for name in STAGES:
        try:
            rows.append(next(chain))
        except IsoclinicError as exc:  # raised by the work of this stage
            rows.append((name, False, f"{type(exc).__name__}: {exc}"))
        if not rows[-1][1]:
            break
    return rows


def _report(rows: list[tuple[str, bool, str]], width: int) -> bool:
    """Print each (name, ok, detail) row with its name padded to width; whether every row passed."""
    for name, ok, detail in rows:
        print(f"{name:<{width}} {'PASS' if ok else 'FAIL':<4} {detail}")
    return all(ok for _, ok, _ in rows)


def cmd_generate(args) -> int:
    info = classify_order(args.k)
    if info.status != "admissible":
        print(f"k={args.k} (q={info.q}) is not admissible: {info.reason}", file=sys.stderr)
        return EXIT_PARAMS
    record = build_record(args.kind, args.k, info)
    if args.out is None:
        sys.stdout.writelines(record_pieces(record, args.format))
        return EXIT_OK
    try:
        write_record(record, args.out, args.format)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        record = read_record(args.path)
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return EXIT_IO
    except RecordParseError as exc:
        print(f"cannot parse {args.path}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"kind {record.kind} order {record.order} k {record.k}")
    try:
        # a nan, inf or overflowing entry shows as a FAIL row, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            checks = _record_checks(record, args.tol, args.exact)
    except _ExactUnavailable as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE
    except RecordParseError as exc:
        print(f"malformed record: {exc}", file=sys.stderr)
        return EXIT_PARSE
    ok = _report(checks, 22)
    print(f"result {'PASS' if ok else 'FAIL'} (tol {args.tol:g})")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_enumerate(args) -> int:
    if not 3 <= args.k_min <= args.k_max:
        print(f"need 3 <= k-min <= k-max, got {args.k_min}..{args.k_max}", file=sys.stderr)
        return EXIT_PARAMS
    tally = {"admissible": 0, "open": 0, "excluded": 0}
    for k in range(args.k_min, args.k_max + 1):
        if args.odd_only and k % 2 == 0:
            continue
        info = classify_order(k)
        tally[info.status] += 1
        if info.status == "admissible":
            print(f"k={info.k:<3d} q={info.q:<4d} ADMISSIBLE p={info.p} alpha={info.alpha}")
        else:
            print(f"k={info.k:<3d} q={info.q:<4d} {info.status.upper():<10s} {info.reason}")
    print(f"admissible {tally['admissible']} open {tally['open']} excluded {tally['excluded']}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    info = classify_order(args.k)
    if info.status != "admissible":
        print(f"k={args.k} (q={info.q}) is not admissible: {info.reason}", file=sys.stderr)
        return EXIT_PARAMS
    stages = run_pipeline(args.k, args.tol)
    if not _report(stages, 24):  # run_pipeline stops at the first FAIL
        print(f"pipeline failed at stage {stages[-1][0]}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


@functools.cache  # parse_args returns a fresh Namespace, so one parser serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoclinic",
        description="Conference matrices, Seidel matrices and equi-isoclinic plane tuples "
        "of odd prime-power order.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a family member and export it")
    g.add_argument("--kind", choices=KINDS, default="conference")
    g.add_argument("--k", type=int, required=True, help="order parameter; q = 2k - 1")
    g.add_argument(
        "--format",
        choices=("text", "json", "json-like"),
        default="json",
        help="output serialization (json-like is an alias for json)",
    )
    g.add_argument("--out", default=None, help="output path; stdout when omitted")

    v = sub.add_parser("verify", help="re-check an exported record")
    v.add_argument("path")
    v.add_argument("--tol", type=float, default=1e-9)
    v.add_argument("--exact", action="store_true", help="also run the integer count certificate")

    e = sub.add_parser("enumerate", help="classify orders as admissible / open / excluded")
    e.add_argument("--k-min", type=int, default=3)
    e.add_argument("--k-max", type=int, default=51)
    e.add_argument("--odd-only", action="store_true")

    pl = sub.add_parser("pipeline", help="full construction + verification chain for one k")
    pl.add_argument("--k", type=int, required=True)
    pl.add_argument("--tol", type=float, default=1e-9)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "format", None) == "json-like":
        args.format = "json"
    handlers = {
        "generate": cmd_generate,
        "verify": cmd_verify,
        "enumerate": cmd_enumerate,
        "pipeline": cmd_pipeline,
    }
    try:
        return handlers[args.command](args)
    except RecordParseError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO
    except IsoclinicError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())

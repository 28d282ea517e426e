"""The three workloads: what one pass runs, how it is set up, and how its outputs are checked.

A pass is one round of the same operations.  The seed fixes the order of
the operations in each pass, the warm-up matrix and the sample of plane
pairs the checks use; the orders, kinds and formats are fixed.  The
malformed records do not depend on the seed, so they fail the same way in
every run.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
from collections import defaultdict
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from isoclinic import cli
from isoclinic.conference import critical_angle
from isoclinic.errors import IsoclinicError
from isoclinic.export import KINDS, ExportRecord, parse, serialize

import checks
import tracing

TOL = 1e-9  # the CLI's default --tol
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
FORGED_SEED = 2014  # fixed: the forged record is the same in every run


class _Discard(io.TextIOBase):
    def write(self, s: str) -> int:
        return len(s)


class Op:
    """One timed call.  call() returns True on success, else a reason.

    after(), when given, runs right after the call, outside its time.
    """

    def __init__(self, label: str, span: str, call, after=None):
        self.label = label
        self.span = span
        self.call = call
        self.after = after
        self.error: str | None = None

    def run(self, tracer=None) -> bool:
        try:
            with tracer.span(self.span) if tracer is not None else nullcontext():
                outcome = self.call()
        except Exception as exc:  # a traceback from the program counts as a failed call
            outcome = f"{type(exc).__name__}: {exc}"
        if outcome is True:
            return True
        self.error = outcome
        return False


def _cli(argv: list[str], expected: int):
    sink = _Discard()

    def call():
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(argv)
        return code == expected or f"exit code {code}, expected {expected}"

    return call


class Workload:
    name = ""
    orders: tuple[tuple[int, int, int], ...] = ()  # (q, p, alpha)

    def prepare(self, workdir: Path) -> None:
        """Make the inputs that every pass reuses."""

    def recording(self, rng: np.random.Generator):
        """Context for the one pass whose outputs the checks read, if they read any."""
        return nullcontext()

    def ops(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def after_pass(self) -> None:
        """Untimed bookkeeping after each pass."""

    def check(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    @property
    def warm_size(self) -> int:
        return 2 * max(q for q, _, _ in self.orders)


def _verdicts(stages) -> list[tuple[str, bool]]:
    return [(name, ok) for name, ok, _detail in stages]


# The objects run_pipeline builds and the program functions its stages draw
# their verdicts from, recorded as the cli module calls them, with the
# module that defines each.
RECORDED = {
    ("conference", "build_conference"): "build_conference",
    ("seidel", "build_seidel"): "build_seidel",
    ("planes", "planes_from_seidel"): "planes_from_seidel",
    ("hadamard", "double"): "double",
    ("conference", "verify_counts"): "verify_counts",
    ("conference", "conference_residual"): "conference_residual",
    ("seidel", "seidel_square_residual"): "seidel_square_residual",
    ("seidel", "spectrum"): "spectrum",
    ("planes", "orthonormality_residual"): "orthonormality_residual",
    ("planes", "isoclinic_residual"): "isoclinic_residual",
    ("planes", "ls_bound"): "ls_bound",
    ("hadamard", "hadamard_residual"): "hadamard_residual",
}


class Pipeline(Workload):
    """run_pipeline at each order; one pass of a run records what it built and concluded.

    Right after each call of that pass, outside its time, the objects the
    call built go through every independent check, and each stage verdict
    is held against the benchmark's own.
    """

    def __init__(self, name: str, orders):
        self.name = name
        self.orders = tuple(orders)
        self.calls: dict[str, list] | None = None  # name -> [(fn, args, result)] while recording
        self.rng: np.random.Generator | None = None  # the sample of plane pairs the checks use
        self.checked: set[int] = set()
        self.problems: list[str] = []

    @contextmanager
    def recording(self, rng):
        def record(fn, name):
            def recorded(*args):
                result = fn(*args)
                self.calls[name].append((fn, args, result))
                return result

            return recorded

        self.calls = defaultdict(list)
        self.rng = rng
        try:
            with tracing.patched(record, RECORDED, modules=("isoclinic.cli",)):
                yield
        finally:
            self.calls = None

    def _op(self, q: int, p: int, alpha: int) -> Op:
        k = (q + 1) // 2

        def call():
            verdicts = _verdicts(cli.run_pipeline(k, TOL))
            return verdicts == [(n, True) for n in STAGES] or f"stages {verdicts}"

        def after():
            if self.calls is None:
                return
            calls, self.calls = self.calls, defaultdict(list)
            try:
                _check_pipeline(q, p, alpha, calls, self.rng)
            except checks.CheckFailed as exc:
                self.problems.append(f"q={q}: {exc}")
            self.checked.add(q)

        return Op(f"pipeline q={q}", "cli.pipeline", call, after)

    def ops(self, rng):
        ops = [self._op(*order) for order in self.orders]
        rng.shuffle(ops)
        return ops

    def check(self, rng):
        if self.problems:
            more = f" (and {len(self.problems) - 1} more orders)" if len(self.problems) > 1 else ""
            raise checks.CheckFailed(self.problems[0] + more)
        unchecked = sorted({q for q, _, _ in self.orders} - self.checked)
        if unchecked:
            raise checks.CheckFailed(f"no recorded pass at q = {unchecked}")


def _one_call(calls, name: str):
    if len(calls[name]) != 1:
        raise checks.CheckFailed(f"run_pipeline called {name} {len(calls[name])} times, expected once")
    return calls[name][0]


def _program_verdict(verdict, fn, obj) -> bool:
    """What a stage concludes from fn(obj); a raised IsoclinicError fails the stage."""
    try:
        return verdict(fn(obj))
    except IsoclinicError:
        return False


def _check_pipeline(q: int, p: int, alpha: int, calls, rng: np.random.Generator) -> None:
    """Check the objects one run_pipeline call built and the verdicts its stages drew.

    Each verdict must agree with the benchmark's own check of the same
    object, and the same program function must reject a corrupted copy, so
    a checker that passes everything fails here.
    """
    built = ("build_conference", "build_seidel", "planes_from_seidel", "double")
    C, S, pt, H = (_one_call(calls, name)[2] for name in built)
    checks.check_construction(C, S, pt, H, q, p, alpha, rng)

    def residual(r):
        return r <= TOL

    def multiplicities(pairs):
        return all(m == q for _, m in pairs)

    lam = pt.lam
    rotated = replace(S, dense=checks.rotate_block(S.dense))
    scaled = replace(pt, basis=checks.scale_last_plane(pt.basis))
    cases = [
        # function, verdict drawn from its result, the benchmark's verdict, clean object, corrupted copy
        ("verify_counts", bool, lambda c: checks.holds(checks.check_counts, c.exponents, q),
         C, replace(C, exponents=checks.flip_exponent(C.exponents))),
        ("conference_residual", residual, lambda c: checks.holds(checks.check_conference, c.values, q),
         C, replace(C, values=checks.scale_pair(C.values))),
        ("seidel_square_residual", residual, lambda s: checks.holds(checks.check_seidel, s.dense, q), S, rotated),
        ("spectrum", multiplicities, lambda s: checks.holds(checks.check_spectrum, s.dense, q), S, rotated),
        ("orthonormality_residual", residual, lambda t: checks.orthonormality_dev(t.basis) <= TOL, pt, scaled),
        ("isoclinic_residual", residual, lambda t: checks.isoclinic_dev(t.basis, lam) <= TOL, pt, scaled),
        ("hadamard_residual", residual, lambda h: checks.holds(checks.check_hadamard, h.values, q),
         H, replace(H, values=checks.turn_entry(H.values))),
    ]  # fmt: skip
    for name, verdict, ours, clean, corrupted in cases:
        fn, args, result = _one_call(calls, name)
        if args[0] is not clean:
            raise checks.CheckFailed(f"{name} checked another object than the one run_pipeline built")
        if verdict(result) != ours(clean):
            raise checks.CheckFailed(f"{name} concluded {verdict(result)} on the built object, against {ours(clean)}")
        if ours(corrupted):
            raise checks.CheckFailed(f"the benchmark's check behind {name} accepts a corrupted copy")
        if _program_verdict(verdict, fn, corrupted):
            raise checks.CheckFailed(f"{name} accepts a corrupted copy")
    fn, args, result = _one_call(calls, "ls_bound")
    checks.check_bound(q, lam)
    if args != (q, lam, q) or result.bound != q or not result.tight:
        raise checks.CheckFailed(f"ls_bound{args} gave {result}, expected bound {q}, tight")
    if fn(q, lam, q - 1).tight:
        raise checks.CheckFailed(f"ls_bound calls v = {q - 1} tight at bound {q}")


LARGE = ((529, 23, 2), (729, 3, 6))
LADDER = (
    (5, 5, 1), (9, 3, 2), (13, 13, 1), (17, 17, 1), (25, 5, 2),
    (29, 29, 1), (37, 37, 1), (41, 41, 1), (49, 7, 2), (53, 53, 1),
    (61, 61, 1), (73, 73, 1), (81, 3, 4), (89, 89, 1), (97, 97, 1),
    (101, 101, 1), (109, 109, 1), (113, 113, 1), (121, 11, 2), (125, 5, 3),
)  # fmt: skip


class Records(Workload):
    """generate every kind in both formats at q = 61, then verify each file and three malformed ones."""

    name = "records"
    orders = ((61, 61, 1),)
    formats = ("json", "text")

    def prepare(self, workdir):
        self.k = (self.orders[0][0] + 1) // 2
        self.files = {(kind, fmt): workdir / f"{kind}.{fmt}" for kind in KINDS for fmt in self.formats}
        self.digests: dict[tuple[str, str], set[str]] = {key: set() for key in self.files}
        self.malformed = _malformed_records(workdir)

    def ops(self, rng):
        k = str(self.k)
        generate = [
            Op(f"generate {kind} {fmt}", "cli.generate",
               _cli(["generate", "--kind", kind, "--k", k, "--format", fmt, "--out", str(path)], 0))
            for (kind, fmt), path in self.files.items()
        ]  # fmt: skip
        verify = [
            Op(f"verify {kind} {fmt}", "cli.verify",
               _cli(["verify", str(path)] + (["--exact"] if kind == "conference" else []), 0))
            for (kind, fmt), path in self.files.items()
        ]  # fmt: skip
        verify += [Op(label, "cli.verify", _cli(argv, expected)) for label, argv, expected in self.malformed]
        rng.shuffle(generate)
        rng.shuffle(verify)
        return generate + verify

    def after_pass(self):
        for key, path in self.files.items():
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
            self.digests[key].add(digest.hexdigest())

    def check(self, rng):
        q, p, alpha = self.orders[0]
        for key, seen in self.digests.items():
            if len(seen) != 1:
                raise checks.CheckFailed(f"{key}: fresh generations differ in bytes ({len(seen)} digests)")
        built = {kind: cli.build_record(kind, self.k) for kind in KINDS}
        C, S = built["conference"], built["seidel"].entries
        checks.check_exponents(C.exponents, q, p, alpha)
        checks.check_counts(C.exponents, q)
        checks.check_conference(C.entries, q)
        checks.check_seidel(S, q)
        checks.check_gram(built["gram"].entries, S, q)
        lam = Fraction(*built["planes"].metadata["lambda"])
        checks.check_planes(built["planes"].entries, S, q, lam, rng)
        checks.check_bound(q, lam)
        checks.check_hadamard(built["hadamard"].entries, q)
        for (kind, fmt), path in self.files.items():
            record = parse(path.read_text(encoding="utf-8"))
            checks.check_same_bits(record.entries, built[kind].entries, f"{kind} {fmt} entries")
            if kind == "conference":
                checks.check_same_bits(record.exponents, built[kind].exponents, f"{kind} {fmt} exponents")


def _malformed_records(workdir: Path) -> list[tuple[str, list[str], int]]:
    """Three records that verify must reject with its documented exit code.

    Each is (label, argv, expected exit code).  All three are built at q = 13
    from fixed inputs.
    """
    q, k = 13, 7
    base = cli.build_record("conference", k)
    rng = np.random.default_rng(FORGED_SEED)
    Q, R = np.linalg.qr(rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)))
    unitary = Q * (R.diagonal() / np.abs(R.diagonal()))
    # sqrt(q-1) U passes C C* = (q-1) I but is not a conference matrix:
    # its diagonal is nonzero, its entries are not unimodular, it is not symmetric
    forged = ExportRecord("conference", q, k, critical_angle(k), math.sqrt(q - 1) * unitary, None, dict(base.metadata))
    wide = base.exponents.astype(np.int64)
    wide[0, 1] = wide[1, 0] = 300  # outside int8
    out_of_range = ExportRecord("conference", q, k, base.theta, base.entries, wide, dict(base.metadata))
    mismatched = ExportRecord("conference", 9, k, base.theta, base.entries, base.exponents, dict(base.metadata))
    # documented exit codes: 1 verification failure, 4 parse error
    cases = [
        ("verify forged conference", forged, [], 1),
        ("verify out-of-range exponents", out_of_range, ["--exact"], 4),
        ("verify mismatched order", mismatched, [], 4),
    ]
    out = []
    for label, record, flags, expected in cases:
        path = workdir / (label.replace(" ", "-") + ".json")
        path.write_text(serialize(record, "json"), encoding="utf-8")
        out.append((label, ["verify", str(path)] + flags, expected))
    return out


WORKLOADS = {
    "pipeline-large": lambda: Pipeline("pipeline-large", LARGE),
    "pipeline-ladder": lambda: Pipeline("pipeline-ladder", LADDER),
    "records": Records,
}

"""End-to-end command-line tests driven through main(argv)."""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoclinic import (
    ExportRecord,
    HadamardMatrix,
    NotSymmetrizable,
    build_conference,
    build_gram,
    build_seidel,
    cli,
    critical_omega,
    extract_bases,
    make_field,
    normalize,
    parse,
    serialize,
)
from isoclinic.cli import EXIT_IO, EXIT_OK, EXIT_PARAMS, EXIT_PARSE, EXIT_VERIFY, build_record, main
from isoclinic.conference import critical_angle
from isoclinic.export import KINDS
from isoclinic.gf import developed_column

OPEN_K = [11, 17, 23, 29, 33, 35, 39, 43, 47]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("kind", ["conference", "seidel", "gram", "planes", "hadamard"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_generate_then_verify(tmp_path, capsys, kind, fmt):
    out = tmp_path / f"{kind}.{fmt}"
    code, _, _ = run(capsys, ["generate", "--kind", kind, "--k", "5", "--format", fmt, "--out", str(out)])
    assert code == EXIT_OK
    code, stdout, _ = run(capsys, ["verify", str(out)])
    assert code == EXIT_OK
    assert "result PASS" in stdout
    assert f"kind {kind}" in stdout


def test_generate_stdout_parses(capsys):
    code, stdout, _ = run(capsys, ["generate", "--kind", "conference", "--k", "3"])
    assert code == EXIT_OK
    record = parse(stdout)
    assert record.kind == "conference" and record.order == 5


@pytest.mark.parametrize("kind", ["conference", "seidel", "gram", "planes", "hadamard"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_generate_writes_the_same_bytes_to_stdout_as_to_out(tmp_path, capsys, kind, fmt):
    out = tmp_path / f"{kind}.{fmt}"
    run(capsys, ["generate", "--kind", kind, "--k", "7", "--format", fmt, "--out", str(out)])
    code, stdout, _ = run(capsys, ["generate", "--kind", kind, "--k", "7", "--format", fmt])
    assert code == EXIT_OK
    assert stdout == out.read_text(encoding="utf-8") == serialize(build_record(kind, 7), fmt)


def test_generate_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, ["generate", "--kind", "seidel", "--k", "7", "--out", str(a)])
    run(capsys, ["generate", "--kind", "seidel", "--k", "7", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_json_like_alias(tmp_path, capsys):
    a, b = tmp_path / "a.out", tmp_path / "b.out"
    run(capsys, ["generate", "--k", "3", "--format", "json", "--out", str(a)])
    run(capsys, ["generate", "--k", "3", "--format", "json-like", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_generate_even_k_rejected(capsys):
    code, _, stderr = run(capsys, ["generate", "--k", "4"])
    assert code == EXIT_PARAMS
    assert "not admissible" in stderr and "2k != 2 (mod 4)" in stderr


def test_generate_open_k_rejected(capsys):
    code, _, stderr = run(capsys, ["generate", "--k", "11"])
    assert code == EXIT_PARAMS
    assert "not an odd prime power" in stderr


def test_generate_unwritable_out(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "x.json"
    code, _, stderr = run(capsys, ["generate", "--k", "3", "--out", str(out)])
    assert code == EXIT_IO
    assert "cannot write" in stderr


def test_verify_exact_passes(tmp_path, capsys):
    out = tmp_path / "c.json"
    run(capsys, ["generate", "--kind", "conference", "--k", "5", "--out", str(out)])
    code, stdout, _ = run(capsys, ["verify", str(out), "--exact"])
    assert code == EXIT_OK
    assert "exact-counts" in stdout and "result PASS" in stdout


def flipped_exponent_pair(k):
    """The conference record of k with E[0, 1] = E[1, 0] negated and its values omega0**e of the flipped e."""
    record = build_record("conference", k)
    exponents, entries = record.exponents.copy(), record.entries.copy()
    exponents[0, 1] = exponents[1, 0] = -exponents[0, 1]
    entries[0, 1] = entries[1, 0] = critical_omega(k) ** int(exponents[0, 1])
    return replace(record, exponents=exponents, entries=entries)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_exact_fails_a_flipped_exponent_pair(tmp_path, capsys, fmt):
    out = tmp_path / f"flipped.{fmt}"
    out.write_text(serialize(flipped_exponent_pair(3), fmt))
    code, stdout, _ = run(capsys, ["verify", str(out), "--exact"])
    assert code == EXIT_VERIFY
    assert "exact-counts           FAIL counts differ\n" in stdout
    code, stdout, _ = run(capsys, ["verify", str(out)])
    assert code == EXIT_VERIFY and "exact-counts" not in stdout


def test_verify_exact_needs_exponents(tmp_path, capsys):
    out = tmp_path / "c.json"
    run(capsys, ["generate", "--kind", "conference", "--k", "5", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["exponents"] = None
    out.write_text(json.dumps(doc))
    code, _, stderr = run(capsys, ["verify", str(out), "--exact"])
    assert code == EXIT_PARSE
    assert "exact layer unavailable" in stderr


def test_verify_exact_wrong_kind(tmp_path, capsys):
    out = tmp_path / "g.json"
    run(capsys, ["generate", "--kind", "gram", "--k", "3", "--out", str(out)])
    code, _, stderr = run(capsys, ["verify", str(out), "--exact"])
    assert code == EXIT_PARSE
    assert "exact layer unavailable" in stderr


def test_verify_detects_corruption(tmp_path, capsys):
    out = tmp_path / "c.json"
    run(capsys, ["generate", "--kind", "conference", "--k", "3", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["entries"][0][1] = [2.5, 0.0]
    out.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, ["verify", str(out)])
    assert code == EXIT_VERIFY
    assert "result FAIL" in stdout


def _malformed_record(case):
    q, k = 13, 7
    if case == "forged-seidel":
        # sqrt(2k-2) (I - 2 v v^T) is symmetric with S^2 = (2k-2) I, but its
        # diagonal blocks are not zero and its blocks are not orthogonal
        v = np.random.default_rng(2014).standard_normal(2 * q)
        v /= np.linalg.norm(v)
        forged = math.sqrt(2 * k - 2) * (np.eye(2 * q) - 2.0 * np.outer(v, v))
        base = build_record("seidel", k)
        return ExportRecord("seidel", 2 * q, k, base.theta, forged, None, base.metadata), [], EXIT_VERIFY
    if case == "mislabeled-seidel":
        # the q = 5 Seidel matrix under the label k = 7, whose order would be 26
        base = build_record("seidel", 3)
        mislabeled = ExportRecord("seidel", base.order, k, critical_angle(k), base.entries, None, base.metadata)
        return mislabeled, [], EXIT_VERIFY
    if case == "non-isoclinic-gram":
        # planes 2t and 2t + 1 are both the coordinate plane {e_2t, e_2t+1} for
        # t < 5, planes 10, 11, 12 the three coordinate planes of {e10, e11, e12}:
        # A = X^T X is symmetric with A^2 = 2A and identity diagonal blocks, but
        # planes 0 and 1 coincide, so their B^T B is I, not I / (2k - 2)
        planes = [(2 * t, 2 * t + 1) for t in range(5) for _ in range(2)] + [(10, 11), (10, 12), (11, 12)]
        X = np.zeros((q, 2 * q))
        for i, (a, b) in enumerate(planes):
            X[a, 2 * i] = X[b, 2 * i + 1] = 1.0
        base = build_record("gram", k)
        return ExportRecord("gram", 2 * q, k, base.theta, X.T @ X, None, base.metadata), [], EXIT_VERIFY
    if case == "fourier-hadamard":
        # the order-26 Fourier matrix is a complex Hadamard matrix, but not the
        # doubling of a conference matrix of order 13
        idx = np.arange(2 * q)
        F = np.exp(2j * np.pi * np.outer(idx, idx) / (2 * q))
        base = build_record("hadamard", k)
        return ExportRecord("hadamard", 2 * q, k, base.theta, F, None, base.metadata), [], EXIT_VERIFY
    base = build_record("conference", k)
    if case == "exponent-two":
        # in the int8 range but outside {-1, 0, 1}: rejected before the exponent values are looked up
        odd = base.exponents.copy()
        odd[0, 1], odd[1, 0] = 2, -2
        return ExportRecord("conference", q, k, base.theta, base.entries, odd, base.metadata), [], EXIT_PARSE
    if case == "forged":
        # sqrt(q-1) U satisfies C C* = (q-1) I, but its diagonal is nonzero,
        # its entries are not unimodular and it is not symmetric
        rng = np.random.default_rng(2014)
        Q, R = np.linalg.qr(rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)))
        U = Q * (R.diagonal() / np.abs(R.diagonal()))
        return ExportRecord("conference", q, k, base.theta, math.sqrt(q - 1) * U, None, base.metadata), [], EXIT_VERIFY
    if case == "out-of-range-exponents":
        wide = base.exponents.astype(np.int64)
        wide[0, 1] = wide[1, 0] = 300
        return ExportRecord("conference", q, k, base.theta, base.entries, wide, base.metadata), ["--exact"], EXIT_PARSE
    # header order 9 against 13 x 13 entries
    return ExportRecord("conference", 9, k, base.theta, base.entries, base.exponents, base.metadata), [], EXIT_PARSE


def _bad_metadata(case):
    # metadata the checks read, made unusable; each must be a parse error
    record = build_record("planes" if case.startswith("lambda") else "conference", 3)
    if case == "omega-not-a-pair":
        record.metadata["omega"] = "xy"
    elif case == "omega-zero":
        record.metadata["omega"] = [0.0, 0.0]
    elif case == "metadata-not-an-object":
        record.metadata = 5
    elif case == "lambda-missing":
        del record.metadata["lambda"]
    else:
        record.metadata["lambda"] = [1, 0]
    return record, [], EXIT_PARSE


FORGED = ["non-isoclinic-gram", "fourier-hadamard"]  # well-formed records that verify must refuse
MALFORMED = ["forged", "out-of-range-exponents", "exponent-two", "mismatched-order", "forged-seidel"]
MALFORMED += ["mislabeled-seidel", *FORGED]
BAD_METADATA = ["omega-not-a-pair", "omega-zero", "lambda-missing", "metadata-not-an-object", "lambda-zero-denominator"]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("case", MALFORMED + BAD_METADATA)
def test_verify_malformed_record_exit_code(tmp_path, case, fmt):
    record, flags, expected = _bad_metadata(case) if case in BAD_METADATA else _malformed_record(case)
    out = tmp_path / f"{case}.{fmt}"
    out.write_text(serialize(record, fmt))
    proc = subprocess.run(
        [sys.executable, "-m", "isoclinic", "verify", str(out), *flags],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_forged_conference_names_failed_checks(tmp_path, capsys):
    record, _, _ = _malformed_record("forged")
    out = tmp_path / "forged.json"
    out.write_text(serialize(record, "json"))
    code, stdout, _ = run(capsys, ["verify", str(out)])
    assert code == EXIT_VERIFY
    assert "conference-residual    PASS" in stdout
    for name in ("zero-diagonal", "unimodular", "symmetry"):
        assert f"{name:<22} FAIL" in stdout, name


def test_verify_forged_seidel_names_failed_checks(tmp_path, capsys):
    record, _, _ = _malformed_record("forged-seidel")
    out = tmp_path / "forged.json"
    out.write_text(serialize(record, "json"))
    code, stdout, _ = run(capsys, ["verify", str(out)])
    assert code == EXIT_VERIFY
    for name, verdict in (
        ("order", "PASS"),
        ("seidel-square", "PASS"),
        ("symmetry", "PASS"),
        ("zero-diagonal-blocks", "FAIL"),
        ("orthogonal-blocks", "FAIL"),
    ):
        assert f"{name:<22} {verdict}" in stdout, name


@pytest.mark.parametrize(
    "case,rows",
    [
        (
            "non-isoclinic-gram",
            [
                ("order", "PASS"),
                ("symmetry", "PASS"),
                ("eigenvalues-0-2", "PASS"),
                ("unit-diagonal-blocks", "PASS"),
                ("isoclinic-blocks", "FAIL 9.167e-01 at lambda = 1/12"),
            ],
        ),
        ("fourier-hadamard", [("order", "PASS"), ("hadamard-residual", "PASS"), ("doubling-form", "FAIL")]),
    ],
)
def test_verify_forged_gram_and_hadamard_name_failed_checks(tmp_path, capsys, case, rows):
    record, _, _ = _malformed_record(case)
    out = tmp_path / f"{case}.json"
    out.write_text(serialize(record, "json"))
    code, stdout, _ = run(capsys, ["verify", str(out)])
    assert code == EXIT_VERIFY
    for name, verdict in rows:
        assert f"{name:<22} {verdict}" in stdout, name


@pytest.mark.parametrize("kind,row", [("gram", "isoclinic-blocks"), ("hadamard", "doubling-form")])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_generated_gram_and_hadamard_pass_the_new_rows(tmp_path, capsys, kind, row, fmt):
    for k in (3, 7, 13):
        out = tmp_path / f"{kind}{k}.{fmt}"
        out.write_text(serialize(build_record(kind, k), fmt))
        code, stdout, _ = run(capsys, ["verify", str(out)])
        assert code == EXIT_OK
        assert f"{row:<22} PASS" in stdout


@pytest.mark.parametrize("kind,residual", [("conference", "conference_residual"), ("hadamard", "hadamard_residual")])
def test_verify_checks_the_parsed_complex_entries_without_a_copy(monkeypatch, kind, residual):
    # the parser gives complex128 entries, and the matrix the checks read is that array itself
    record = parse(serialize(build_record(kind, 61), "json"))
    read = []
    check = getattr(cli, residual)
    monkeypatch.setattr(cli, residual, lambda M: read.append(M) or check(M))
    assert all(ok for _, ok, _ in cli._record_checks(record, 1e-9, False))
    assert len(read) == 1 and read[0].values is record.entries


def gram_row_value(monkeypatch, A, k):
    """The value the eigenvalues-0-2 row of a gram record with entries A reads."""
    values = {}
    row = cli._row

    def recording_row(name, value, *rest):
        values[name] = value
        return row(name, value, *rest)

    monkeypatch.setattr(cli, "_row", recording_row)
    record = ExportRecord("gram", A.shape[0], k, critical_angle(k), A, None, build_record("gram", k).metadata)
    assert all(ok for _, ok, _ in cli._record_checks(record, 1e-9, False))
    return values["eigenvalues-0-2"]


@pytest.mark.parametrize("k", [3, 5, 13, 61, 97])  # q = 5, 9, 25, 121, 193
def test_verify_gram_reads_two_rows_on_the_developed_form_and_every_row_off_it(monkeypatch, k):
    info = cli.classify_order(k)
    S = build_seidel(make_field(info.p, info.alpha))
    # the canonical A is block group-developed: rows 0 and 1 of A^2 - 2A hold every distinct entry
    A = build_gram(S)
    assert gram_row_value(monkeypatch, A, k) == float(np.abs(A[:2] @ A - 2.0 * A[:2]).max())
    # normalize(S) has no such form, and the row is the full product, bit for bit
    N = build_gram(normalize(S))
    assert gram_row_value(monkeypatch, N, k) == float(np.abs(N @ N - 2.0 * N).max())


def _developed_forgeries(k):
    """Group-developed conference and seidel records, built from field arrays, that fail a form row.

    The conference record's generator entry c(x0) is turned by 0.01 rad and
    c(-x0) is not, so C is no longer symmetric; the seidel record's generator
    blocks g(x0) and g(-x0) are scaled by 1.01, so they are no longer orthogonal.
    """
    info = cli.classify_order(k)
    field = make_field(info.p, info.alpha)
    index, x0, q = field.digit_differences, 1, field.q
    c = build_conference(field, critical_omega(k)).values[:, 0].copy()
    c[x0] *= np.exp(0.01j)
    g = build_seidel(field).blocks[:, 0].copy()  # g[x] is block (x, 0), g(a_x)
    g[[x0, index[0, x0]]] *= 1.01  # a_0 - a_x0 = -a_x0
    S = g[index].transpose(0, 2, 1, 3).reshape(2 * q, 2 * q)
    return replace(build_record("conference", k), entries=c[index]), replace(build_record("seidel", k), entries=S)


def _swap_1_2(M, block):
    """M under the simultaneous swap of its indices 1 and 2, or of its block indices for block = 2."""
    index = np.arange(M.shape[0])
    index[block : 3 * block] = np.roll(index[block : 3 * block], block)
    return M[np.ix_(index, index)]


# rows whose value is a BLAS product: its roundoff digits depend on the kernel, and a matrix-vector
# product of column 0 sums in another order than the matrix-matrix product of every column
PRODUCT_ROWS = ("conference-residual", "seidel-square", "eigenvalues-0-2", "hadamard-residual")


@pytest.mark.parametrize("k", [3, 5, 7, 13, 61])  # q = 5, 9, 13, 25, 121
def test_verify_reads_the_same_rows_on_row_0_as_on_every_row(k):
    forged_c, forged_s = _developed_forgeries(k)
    for record in [build_record(kind, k) for kind in ("conference", "seidel", "gram")] + [forged_c, forged_s]:
        block = 1 if record.kind == "conference" else 2
        exponents = None if record.exponents is None else _swap_1_2(record.exponents, 1)
        swapped = replace(record, entries=_swap_1_2(record.entries, block), exponents=exponents)
        # the record passes the form check and its rows read m = block rows; the swap keeps every deviation
        # of the record but fails the form check, so its copy's rows read every row
        assert developed_column(record.entries, block) is not None
        assert developed_column(swapped.entries, block) is None
        rows, every_row = cli._record_checks(record, 1e-9, False), cli._record_checks(swapped, 1e-9, False)
        assert [row[:2] for row in rows] == [row[:2] for row in every_row]
        assert [row for row in rows if row[0] not in PRODUCT_ROWS] == [
            row for row in every_row if row[0] not in PRODUCT_ROWS
        ]
    if k == 61:
        assert ("symmetry", False, "1.000e-02") in cli._record_checks(forged_c, 1e-9, False)
        assert ("orthogonal-blocks", False, "2.010e-02") in cli._record_checks(forged_s, 1e-9, False)


@pytest.mark.parametrize("k", [3, 5, 13, 61])  # q = 5, 9, 25, 121
def test_the_doubling_reads_the_symmetry_of_a_developed_c_on_column_0(tmp_path, capsys, k):
    # H by the block formula from the group-developed C whose c(x0) is turned and c(-x0) is not: every
    # block relation of the doubling holds and only the symmetry of C fails, read on column 0 against row 0
    forged_c, _ = _developed_forgeries(k)
    C, eye, q = forged_c.entries, np.eye(forged_c.order), forged_c.order
    H = np.block([[C + eye, C.conj() - eye], [C - eye, -C.conj() - eye]])
    assert developed_column(C) is not None and HadamardMatrix(values=H).doubling_of is None
    record = replace(build_record("hadamard", k), entries=H)
    out = tmp_path / "turned-generator-hadamard.json"
    out.write_text(serialize(record, "json"))
    code, stdout, _ = run(capsys, ["verify", str(out)])
    assert code == EXIT_VERIFY and f"{'doubling-form':<22} FAIL" in stdout
    # the swap of indices 1 and 2 in both block halves keeps the doubling, and C's asymmetry, but fails
    # the form check of C, so the copy's symmetry is read on every column
    index = np.arange(2 * q)
    index[[1, 2, q + 1, q + 2]] = [2, 1, q + 2, q + 1]
    swapped = replace(record, entries=H[np.ix_(index, index)])
    assert developed_column(_swap_1_2(C, 1)) is None
    rows, every_row = cli._record_checks(record, 1e-9, False), cli._record_checks(swapped, 1e-9, False)
    assert [row[:2] for row in rows] == [row[:2] for row in every_row]
    assert ("hadamard-residual", False) in [row[:2] for row in rows]
    assert [row for row in rows if row[0] not in PRODUCT_ROWS] == [
        row for row in every_row if row[0] not in PRODUCT_ROWS
    ]


@pytest.mark.parametrize("k", [3, 61])
def test_verify_reads_every_row_when_only_the_values_are_developed(k):
    # group-developed values with exponents that are not, flipped at (2, 3) and (3, 2) only: row 0 of E
    # agrees with the values, so only the every-row read finds the pair
    record = build_record("conference", k)
    record.exponents = record.exponents.copy()
    record.exponents[[2, 3], [3, 2]] *= -1
    assert developed_column(record.entries) is not None and developed_column(record.exponents) is None
    assert ("exponent-values", False) in [row[:2] for row in cli._record_checks(record, 1e-9, False)]


@pytest.mark.parametrize("kind,bound", [("conference", 1.6), ("seidel", 1.5), ("gram", 1.5)])
def test_verify_checks_of_a_developed_record_trace_little_beyond_its_entries(kind, bound):
    # every form row reads the m leading rows of a group-developed record, so no check holds a copy of
    # the whole entries; at q = 729 the peak is the banded form check (gf.developed_column)
    record = build_record(kind, 365)
    tracemalloc.start()
    try:
        rows = cli._record_checks(record, 1e-9, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(ok for _, ok, _ in rows)
    assert peak <= bound * record.entries.nbytes


def test_verify_order_row_names_the_expected_order(tmp_path, capsys):
    record, _, _ = _malformed_record("mislabeled-seidel")
    out = tmp_path / "s.json"
    out.write_text(serialize(record, "json"))
    code, stdout, _ = run(capsys, ["verify", str(out)])
    assert code == EXIT_VERIFY
    assert f"{'order':<22} FAIL 10 != 2(2k-1) = 26" in stdout


@pytest.mark.parametrize(
    "kind,order", [("conference", 9), ("seidel", 18), ("gram", 18), ("planes", 9), ("hadamard", 18)]
)
def test_verify_order_row_passes_for_every_kind(tmp_path, capsys, kind, order):
    out = tmp_path / f"{kind}.json"
    out.write_text(serialize(build_record(kind, 5), "json"))
    code, stdout, _ = run(capsys, ["verify", str(out)])
    assert code == EXIT_OK
    formula = "2k-1" if kind in ("conference", "planes") else "2(2k-1)"
    assert f"{'order':<22} PASS {order} = {formula} = {order}" in stdout


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_accepts_planes_in_the_eigh_gauge(tmp_path, capsys, fmt):
    # records written before the character-sum extraction carry the basis
    # of the dense eigh of the Gram matrix; they are as valid as the new ones
    record = build_record("planes", 7)
    S = build_seidel(make_field(13))
    old = extract_bases(build_gram(S), S.q, Fraction(1, 12)).basis
    assert not np.array_equal(old, record.entries)
    record.entries = old
    out = tmp_path / f"p.{fmt}"
    out.write_text(serialize(record, fmt))
    code, stdout, _ = run(capsys, ["verify", str(out)])
    assert code == EXIT_OK
    assert "result PASS" in stdout


def test_verify_exponents_disagreeing_with_values(tmp_path, capsys):
    # C(1/omega0) is a conference matrix in its own right; only the
    # exponent layer of C(omega0) attached to it gives it away
    record = build_record("conference", 5)
    record.entries = record.entries.conj()
    out = tmp_path / "c.json"
    out.write_text(serialize(record, "json"))
    code, stdout, _ = run(capsys, ["verify", str(out)])
    assert code == EXIT_VERIFY
    assert f"{'exponent-values':<22} FAIL" in stdout
    assert f"{'symmetry':<22} PASS" in stdout


def test_verify_json_type_swap_is_parse_error(tmp_path):
    # a complex pair with a third number used to be read as its first two
    doc = json.loads(serialize(build_record("conference", 3), "json"))
    doc["entries"][0][1].append(0.0)
    out = tmp_path / "c.json"
    out.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "isoclinic", "verify", str(out)], capture_output=True, text=True)
    assert proc.returncode == EXIT_PARSE, proc.stderr
    assert "Traceback" not in proc.stderr and "cannot parse" in proc.stderr


def test_verify_non_ascii_separator_is_parse_error(tmp_path):
    # an entry row separated by em spaces (U+2003) used to read as the same row
    lines = serialize(build_record("seidel", 3), "text").split("\n")
    i = lines.index("entries") + 1
    lines[i] = lines[i].replace(" ", "\u2003")
    out = tmp_path / "s.txt"
    out.write_text("\n".join(lines), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "isoclinic", "verify", str(out)], capture_output=True, text=True)
    assert proc.returncode == EXIT_PARSE, proc.stderr
    assert "Traceback" not in proc.stderr and "cannot parse" in proc.stderr


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_planes_with_a_plane_dropped(tmp_path, capsys, fmt):
    # the remaining q - 1 planes are still orthonormal and equi-isoclinic,
    # but fewer than r and short of the bound
    record = build_record("planes", 3)
    record.entries = record.entries[:, :-2]
    record.metadata["planes"] -= 1
    out = tmp_path / f"p.{fmt}"
    out.write_text(serialize(record, fmt))
    code, stdout, _ = run(capsys, ["verify", str(out)])
    assert code == EXIT_VERIFY
    for name, verdict in (
        ("orthonormal-pairs", "PASS"),
        ("isoclinic", "PASS"),
        ("plane-count", "FAIL"),
        ("count-bound-tight", "FAIL"),
    ):
        assert f"{name:<22} {verdict}" in stdout, name


def test_verify_planes_lambda_without_a_bound(tmp_path, capsys):
    record = build_record("planes", 3)
    record.metadata["lambda"] = [3, 2]  # outside (0, 1): ls_bound is undefined
    out = tmp_path / "p.json"
    out.write_text(serialize(record, "json"))
    code, stdout, _ = run(capsys, ["verify", str(out)])
    assert code == EXIT_VERIFY
    assert f"{'count-bound-tight':<22} FAIL lambda must lie" in stdout


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, 1e308])
def test_verify_nonfinite_entry_fails_without_warnings(tmp_path, kind, value):
    # inf - inf, inf * 0 and 1e308 * 1e308 show as FAIL rows, not as numpy warnings
    record = build_record(kind, 3)
    record.entries[0, 1] = value
    out = tmp_path / f"{kind}.txt"
    out.write_text(serialize(record, "text"))
    proc = subprocess.run([sys.executable, "-m", "isoclinic", "verify", str(out)], capture_output=True, text=True)
    assert proc.returncode == EXIT_VERIFY, proc.stderr
    assert " FAIL " in proc.stdout and "result FAIL" in proc.stdout
    assert "Warning" not in proc.stderr, proc.stderr


HUGE = 10**400  # an int that no float holds
# (kind, header k, metadata lambda or None, flags, exit code); the checks read k and lambda as floats
OVERFLOW_CASES = [pytest.param(kind, HUGE, None, [], EXIT_PARSE, id=f"{kind}-huge-k") for kind in KINDS]
OVERFLOW_CASES += [
    pytest.param("conference", HUGE, None, ["--exact"], EXIT_PARSE, id="conference-huge-k-exact"),
    pytest.param("planes", 3, [HUGE, 1], [], EXIT_PARSE, id="planes-huge-lambda"),
    # past 2^53 but within the float range, and a lambda that rounds to 0.0: FAIL rows, as before
    pytest.param("seidel", 10**30, None, [], EXIT_VERIFY, id="seidel-k-1e30"),
    pytest.param("conference", 10**30, None, ["--exact"], EXIT_VERIFY, id="conference-k-1e30-exact"),
    pytest.param("planes", 3, [1, HUGE], [], EXIT_VERIFY, id="planes-tiny-lambda"),
]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("kind,k,lam,flags,expected", OVERFLOW_CASES)
def test_verify_numbers_past_the_float_range(tmp_path, kind, k, lam, flags, expected, fmt):
    record = build_record(kind, 3)
    record.k = k
    if lam is not None:
        record.metadata["lambda"] = lam
    out = tmp_path / f"{kind}.{fmt}"
    out.write_text(serialize(record, fmt))
    proc = subprocess.run([sys.executable, "-m", "isoclinic", "verify", str(out), *flags], capture_output=True, text=True)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    if expected == EXIT_VERIFY:
        assert " FAIL " in proc.stdout and "result FAIL" in proc.stdout


@functools.cache
def _fuzz_base(source, k, fmt):
    # source is a kind, built at order k, or the name of a forged record at k = 7
    record = _malformed_record(source)[0] if source in FORGED else build_record(source, k)
    return serialize(record, fmt).encode()


FUZZ_BASES = [(kind, k, fmt) for kind in KINDS for k in (3, 7) for fmt in ("json", "text")]
FUZZ_BASES += [(case, 7, fmt) for case in FORGED for fmt in ("json", "text")]
FUZZ_TOKENS = ["", "x", "nan", "-inf", "1e400", "-0.0", "99999999999999999999999", "1.5", "7", "-3",
               "null", "true", '"1"', "[]", "{}", "[1,", "]", "\u00e9"]  # fmt: skip
FUZZ_VALUES = ["1.5", None, True, False, [], [1.0], [1.0, 2.0, 3.0], {}, 10**400, -0.0, math.nan, math.inf]


@st.composite
def mutated_records(draw):
    """A q = 5 or q = 13 record, or a forged q = 13 record, serialized, with one mutation."""
    kind, k, fmt = draw(st.sampled_from(FUZZ_BASES))
    data = _fuzz_base(kind, k, fmt)
    how = draw(st.sampled_from(["truncate", "byte", "token", "type-swap", "shape"]))
    if how == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if how == "byte":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1 :]
    if how == "token":
        parts = re.split(rb"(\s+)", data)
        i = 2 * draw(st.integers(0, len(parts) // 2))
        parts[i] = draw(st.sampled_from(FUZZ_TOKENS)).encode()
        return b"".join(parts)
    doc = json.loads(_fuzz_base(kind, k, "json"))
    size = len(doc["entries"])
    if how == "type-swap":
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, len(doc["entries"][0]) - 1))
        value = draw(st.sampled_from(FUZZ_VALUES))
        if doc["complex"] and draw(st.booleans()):
            doc["entries"][i][j][draw(st.integers(0, 1))] = value
        else:
            doc["entries"][i][j] = value
        return json.dumps(doc).encode()
    # a wrong shape in the header: order in JSON, rows or cols in text
    wrong = draw(st.integers(-2, 2 * size + 2))
    if fmt == "json":
        doc["order"] = wrong
        return json.dumps(doc).encode()
    key = draw(st.sampled_from([b"rows", b"cols", b"order"]))
    return re.sub(rb"^" + key + rb" \d+$", key + b" %d" % wrong, data, count=1, flags=re.M)


@settings(deadline=None, max_examples=150)
@given(data=mutated_records(), exact=st.booleans())
def test_verify_fuzz_ends_in_documented_exit_code(tmp_path_factory, data, exact):
    path = tmp_path_factory.mktemp("fuzz") / "record"
    path.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", str(path)] + (["--exact"] if exact else []))
    assert code in (EXIT_OK, EXIT_VERIFY, EXIT_IO, EXIT_PARSE)


def test_verify_odd_order_gram_is_parse_error(tmp_path, capsys):
    # the diagonal blocks pair up rows and columns, so the order must be even
    record = build_record("gram", 3)
    for order in (1, 9):
        odd = ExportRecord("gram", order, 3, record.theta, record.entries[:order, :order], None, record.metadata)
        out = tmp_path / f"g{order}.json"
        out.write_text(serialize(odd, "json"))
        code, _, stderr = run(capsys, ["verify", str(out)])
        assert code == EXIT_PARSE
        assert "even" in stderr


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("kind", ["seidel", "gram", "planes"])
def test_verify_real_kind_with_complex_entries_is_parse_error(tmp_path, kind, fmt):
    # a cast to float64 would drop the imaginary parts with only a ComplexWarning, and PASS every row
    record = build_record(kind, 7)
    record.entries = record.entries + 0.5j
    out = tmp_path / f"{kind}.{fmt}"
    out.write_text(serialize(record, fmt))
    for flags in ([], ["-W", "error"]):
        argv = [sys.executable, *flags, "-m", "isoclinic", "verify", str(out)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == EXIT_PARSE, proc.stderr
        assert "Traceback" not in proc.stderr and f"{kind} entries must be real" in proc.stderr


def test_verify_garbage_file(tmp_path, capsys):
    out = tmp_path / "junk.txt"
    out.write_text("this is not a record\n")
    code, _, stderr = run(capsys, ["verify", str(out)])
    assert code == EXIT_PARSE
    assert "cannot parse" in stderr


def test_verify_missing_file(tmp_path, capsys):
    code, _, stderr = run(capsys, ["verify", str(tmp_path / "nope.json")])
    assert code == EXIT_IO
    assert "cannot read" in stderr


def test_enumerate_full_range(capsys):
    code, stdout, _ = run(capsys, ["enumerate", "--k-min", "3", "--k-max", "51", "--odd-only"])
    assert code == EXIT_OK
    opens = []
    admissible = 0
    for line in stdout.splitlines():
        if line.startswith("k="):
            if "OPEN" in line:
                opens.append(int(line.split()[0][2:]))
            elif "ADMISSIBLE" in line:
                admissible += 1
    assert opens == OPEN_K
    assert admissible == 16
    assert "admissible 16 open 9 excluded 0" in stdout


def test_enumerate_includes_even_without_flag(capsys):
    code, stdout, _ = run(capsys, ["enumerate", "--k-min", "3", "--k-max", "6"])
    assert code == EXIT_OK
    assert "k=4" in stdout and "EXCLUDED" in stdout


def test_enumerate_bad_range(capsys):
    code, _, stderr = run(capsys, ["enumerate", "--k-min", "10", "--k-max", "5"])
    assert code == EXIT_PARAMS
    assert "k-min" in stderr


def test_pipeline_passes(capsys):
    code, stdout, _ = run(capsys, ["pipeline", "--k", "3"])
    assert code == EXIT_OK
    lines = [ln for ln in stdout.splitlines() if " PASS " in ln or ln.endswith("PASS")]
    for name in (
        "conference-exact-counts",
        "conference-residual",
        "seidel-square",
        "spectrum",
        "equivalence-witnesses",
        "plane-extraction",
        "isoclinic",
        "count-bound-tight",
        "hadamard",
    ):
        assert any(name in ln for ln in lines), name


def test_pipeline_attributes_an_error_to_the_stage_that_raised(monkeypatch):
    def refuse(field):
        raise NotSymmetrizable("refused")

    monkeypatch.setattr(cli, "build_seidel", refuse)
    rows = cli.run_pipeline(3, 1e-9)
    assert [name for name, _, _ in rows] == list(cli.STAGES[:3])
    assert [ok for _, ok, _ in rows[:2]] == [True, True]
    assert rows[-1] == ("seidel-square", False, "NotSymmetrizable: refused")


def test_pipeline_stops_after_the_first_fail(monkeypatch, capsys):
    monkeypatch.setattr(cli, "spectrum", lambda S: [(2.0, S.q + 1), (-2.0, S.q - 1)])
    rows = cli.run_pipeline(3, 1e-9)
    assert [name for name, _, _ in rows] == list(cli.STAGES[:4])
    assert rows[-1][:2] == ("spectrum", False)
    code, _, stderr = run(capsys, ["pipeline", "--k", "3"])
    assert code == EXIT_VERIFY
    assert "pipeline failed at stage spectrum" in stderr


# the construction functions and the checks whose results the stages report
PIPELINE_CALLS = (
    "build_conference", "build_seidel", "planes_from_seidel", "double",
    "verify_counts", "conference_residual", "seidel_square_residual", "spectrum",
    "orthonormality_residual", "isoclinic_residual", "ls_bound", "hadamard_residual",
)  # fmt: skip


@pytest.mark.parametrize("k", [3, 5, 7, 9, 13, 15])  # q = 5 ... 29
def test_pipeline_checks_each_object_it_built_once(monkeypatch, k):
    calls = {name: [] for name in PIPELINE_CALLS}

    def recorder(fn, name):
        def recorded(*args):
            result = fn(*args)
            calls[name].append((args, result))
            return result

        return recorded

    for name in PIPELINE_CALLS:
        monkeypatch.setattr(cli, name, recorder(getattr(cli, name), name))
    rows = cli.run_pipeline(k, 1e-9)
    assert [(name, ok) for name, ok, _ in rows] == [(name, True) for name in cli.STAGES]
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(PIPELINE_CALLS, 1)
    ((_, C),), ((_, S),), ((_, pt),), ((_, H),) = (calls[n] for n in PIPELINE_CALLS[:4])
    built_from = {
        "double": C, "verify_counts": C, "conference_residual": C,
        "planes_from_seidel": S, "seidel_square_residual": S, "spectrum": S,
        "orthonormality_residual": pt, "isoclinic_residual": pt, "hadamard_residual": H,
    }  # fmt: skip
    for name, obj in built_from.items():
        assert calls[name][0][0][0] is obj, name
    q = 2 * k - 1
    assert calls["ls_bound"][0][0] == (q, pt.lam, q)


def test_pipeline_frees_the_seidel_matrix_and_the_planes_before_doubling(monkeypatch):
    # no stage after the bound reads S or the planes, so the 2q x 2q H is not built beside them
    refs, alive = [], []
    build_seidel, planes_from_seidel, double = cli.build_seidel, cli.planes_from_seidel, cli.double

    def kept(fn):
        def built(arg):
            obj = fn(arg)
            refs.append(weakref.ref(obj))
            return obj

        return built

    def doubled(C):
        alive.extend(ref() is not None for ref in refs)
        return double(C)

    monkeypatch.setattr(cli, "build_seidel", kept(build_seidel))
    monkeypatch.setattr(cli, "planes_from_seidel", kept(planes_from_seidel))
    monkeypatch.setattr(cli, "double", doubled)
    rows = cli.run_pipeline(7, 1e-9)
    assert [(name, ok) for name, ok, _ in rows] == [(name, True) for name in cli.STAGES]
    assert alive == [False, False]


def test_pipeline_frees_the_seidel_matrix_before_the_plane_residuals(monkeypatch):
    # no stage after the plane extraction reads S, so the residuals' products are not formed beside it
    refs, alive = [], []
    build_seidel, orthonormality_residual = cli.build_seidel, cli.orthonormality_residual

    def kept(field):
        S = build_seidel(field)
        refs.append(weakref.ref(S))
        return S

    def checked(pt):
        alive.extend(ref() is not None for ref in refs)
        return orthonormality_residual(pt)

    monkeypatch.setattr(cli, "build_seidel", kept)
    monkeypatch.setattr(cli, "orthonormality_residual", checked)
    rows = cli.run_pipeline(7, 1e-9)
    assert [(name, ok) for name, ok, _ in rows] == [(name, True) for name in cli.STAGES]
    assert alive == [False]


def test_pipeline_rejects_inadmissible(capsys):
    code, _, stderr = run(capsys, ["pipeline", "--k", "4"])
    assert code == EXIT_PARAMS
    assert "not admissible" in stderr


@pytest.mark.parametrize("k", [2, 4, 8])
def test_run_pipeline_and_build_record_refuse_an_inadmissible_k(monkeypatch, k):
    # both raise the one admissibility error before any field is built
    monkeypatch.setattr(cli, "make_field", lambda *args: pytest.fail("a field was built"))
    message = f"k={k} is not admissible: {cli.classify_order(k).reason}"
    with pytest.raises(ValueError) as pipeline:
        cli.run_pipeline(k, 1e-9)
    with pytest.raises(ValueError) as record:
        build_record("seidel", k)
    assert str(pipeline.value) == str(record.value) == message


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "isoclinic", "enumerate", "--k-min", "3", "--k-max", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ADMISSIBLE" in proc.stdout


def test_verify_names_the_same_bad_token_under_any_hash_seed(tmp_path):
    # the exponent-two text record has two bad tokens, 2 before -2 in file order
    record, flags, expected = _malformed_record("exponent-two")
    out = tmp_path / "exponent-two.text"
    out.write_text(serialize(record, "text"))
    stderr = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "isoclinic", "verify", str(out), *flags],
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == expected
        stderr.append(proc.stderr)
    assert stderr[0] == stderr[1]
    assert stderr[0].endswith(b"malformed exponent token '2'\n")


def test_build_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_cached_parser_does_not_leak_exact(tmp_path, capsys):
    conference, seidel = tmp_path / "c.json", tmp_path / "s.json"
    run(capsys, ["generate", "--kind", "conference", "--k", "3", "--out", str(conference)])
    run(capsys, ["generate", "--kind", "seidel", "--k", "3", "--out", str(seidel)])
    assert run(capsys, ["verify", str(conference), "--exact"])[0] == EXIT_OK
    # --exact on a seidel record exits 4
    assert run(capsys, ["verify", str(seidel)])[0] == EXIT_OK


def test_cached_parser_does_not_leak_format(capsys):
    for argv in (["--format", "json-like"], []):
        code, stdout, _ = run(capsys, ["generate", "--k", "3", *argv])
        assert code == EXIT_OK
        assert json.loads(stdout)["kind"] == "conference"


def test_cached_parser_does_not_leak_tol(tmp_path, capsys):
    out = tmp_path / "c.json"
    run(capsys, ["generate", "--kind", "conference", "--k", "7", "--out", str(out)])
    code, stdout, _ = run(capsys, ["verify", str(out), "--tol", "1e-300"])
    assert code == EXIT_VERIFY and "(tol 1e-300)" in stdout
    code, stdout, _ = run(capsys, ["verify", str(out)])
    assert code == EXIT_OK and "(tol 1e-09)" in stdout


def test_cached_parser_usage_error_repeats(capsys):
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["generate"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "--k" in errors[0]


# The whole report of each command, with every residual masked: its digits come from BLAS summation
# order, which differs from one machine to another.  The names, column widths, verdicts and detail
# text are pinned.
RESIDUAL = re.compile(r"\d\.\d{3}e[+-]\d{2}")

VERIFY_REPORTS = {
    "conference": """\
kind conference order 61 k 31
order                  PASS 61 = 2k-1 = 61
conference-residual    PASS <r>
zero-diagonal          PASS <r>
unimodular             PASS <r>
symmetry               PASS <r>
exponent-values        PASS <r>
exact-counts           PASS match
result PASS (tol 1e-09)
""",
    "seidel": """\
kind seidel order 122 k 31
order                  PASS 122 = 2(2k-1) = 122
seidel-square          PASS <r>
symmetry               PASS <r>
zero-diagonal-blocks   PASS <r>
orthogonal-blocks      PASS <r>
result PASS (tol 1e-09)
""",
    "gram": """\
kind gram order 122 k 31
order                  PASS 122 = 2(2k-1) = 122
symmetry               PASS <r>
eigenvalues-0-2        PASS |A^2-2A| = <r>
unit-diagonal-blocks   PASS <r>
isoclinic-blocks       PASS <r> at lambda = 1/60
result PASS (tol 1e-09)
""",
    "planes": """\
kind planes order 61 k 31
order                  PASS 61 = 2k-1 = 61
orthonormal-pairs      PASS <r>
isoclinic              PASS <r>
plane-count            PASS n = 61, r = 61
count-bound-tight      PASS v = 61, bound 61
result PASS (tol 1e-09)
""",
    "hadamard": """\
kind hadamard order 122 k 31
order                  PASS 122 = 2(2k-1) = 122
hadamard-residual      PASS <r>
doubling-form          PASS H = [[C+I, C~-I], [C-I, -C~-I]]
result PASS (tol 1e-09)
""",
}

PIPELINE_REPORTS = {
    3: """\
conference-exact-counts  PASS (r,s,t) = (1,1,1) at every off-diagonal
conference-residual      PASS <r>
seidel-square            PASS <r>
spectrum                 PASS +2.000000 x5 -2.000000 x5
equivalence-witnesses    PASS permutation and all-i scaling verified
plane-extraction         PASS orthonormality <r>
isoclinic                PASS <r> at lambda = 1/4
count-bound-tight        PASS v = 5 = bound 5
hadamard                 PASS order 10, residual <r>
""",
    13: """\
conference-exact-counts  PASS (r,s,t) = (11,6,6) at every off-diagonal
conference-residual      PASS <r>
seidel-square            PASS <r>
spectrum                 PASS +4.898979 x25 -4.898979 x25
equivalence-witnesses    PASS permutation and all-i scaling verified
plane-extraction         PASS orthonormality <r>
isoclinic                PASS <r> at lambda = 1/24
count-bound-tight        PASS v = 25 = bound 25
hadamard                 PASS order 50, residual <r>
""",
    41: """\
conference-exact-counts  PASS (r,s,t) = (39,20,20) at every off-diagonal
conference-residual      PASS <r>
seidel-square            PASS <r>
spectrum                 PASS +8.944272 x81 -8.944272 x81
equivalence-witnesses    PASS permutation and all-i scaling verified
plane-extraction         PASS orthonormality <r>
isoclinic                PASS <r> at lambda = 1/80
count-bound-tight        PASS v = 81 = bound 81
hadamard                 PASS order 162, residual <r>
""",
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("kind", KINDS)
def test_verify_report_layout_is_pinned(tmp_path, capsys, kind, fmt):
    path = tmp_path / f"{kind}.{fmt}"
    assert run(capsys, ["generate", "--kind", kind, "--k", "31", "--format", fmt, "--out", str(path)]) == (EXIT_OK, "", "")
    code, stdout, stderr = run(capsys, ["verify", str(path)] + (["--exact"] if kind == "conference" else []))
    assert (code, RESIDUAL.sub("<r>", stdout), stderr) == (EXIT_OK, VERIFY_REPORTS[kind], "")


@pytest.mark.parametrize("k", sorted(PIPELINE_REPORTS))
def test_pipeline_report_layout_is_pinned(capsys, k):
    code, stdout, stderr = run(capsys, ["pipeline", "--k", str(k)])
    assert (code, RESIDUAL.sub("<r>", stdout), stderr) == (EXIT_OK, PIPELINE_REPORTS[k], "")

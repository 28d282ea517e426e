"""Each matrix object is checked once: form checks and residuals are kept on it.

Counters are monkeypatched over the module functions that do the work, so
a second computation on the same object shows as a second call.  The other
half of the rule is that a new object starts with nothing kept: a corrupted
copy made with dataclasses.replace after a clean check still fails every
check.
"""

from __future__ import annotations

import math
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from isoclinic import (
    HadamardMatrix,
    NotConference,
    NotInvolutory,
    SeidelMatrix,
    build_conference,
    build_gram,
    build_seidel,
    cli,
    conference_residual,
    critical_omega,
    double,
    hadamard_residual,
    make_field,
    normalize,
    planes_from_seidel,
    plane_symmetry,
    scale_row_col,
    seidel_square_residual,
    spectrum,
)
from isoclinic import conference, gf, hadamard, planes, seidel

FIELDS = [(5, 1), (3, 2), (5, 3)]
TOL = 1e-9


def count_calls(monkeypatch, module, name: str) -> list:
    """Replace module.name, wherever the package binds it, by a wrapper that appends its first argument to the returned list."""
    fn = getattr(module, name)
    seen: list = []

    def counted(*args, **kwargs):
        seen.append(args[0])
        return fn(*args, **kwargs)

    package = [m for n, m in sys.modules.items() if n == "isoclinic" or n.startswith("isoclinic.")]
    for mod in [module] + package:
        if getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return seen


def capture(monkeypatch, name: str) -> list:
    """Record what cli.name returns, so the objects run_pipeline built can be inspected."""
    fn = getattr(cli, name)
    built: list = []

    def recorded(*args):
        built.append(fn(*args))
        return built[-1]

    monkeypatch.setattr(cli, name, recorded)
    return built


def canonical(p, alpha):
    f = make_field(p, alpha)
    return f, build_conference(f, critical_omega((f.q + 1) // 2)), build_seidel(f)


@pytest.mark.parametrize("p,alpha", FIELDS)
def test_pipeline_checks_each_object_once(monkeypatch, p, alpha):
    transforms = count_calls(monkeypatch, planes, "_character_transform")
    eighs = count_calls(monkeypatch, np.linalg, "eigh")
    developed = count_calls(monkeypatch, gf, "developed_column")
    products = count_calls(monkeypatch, conference, "_gram_deviation")
    doubled = count_calls(monkeypatch, hadamard, "_doubled")
    conferences = count_calls(monkeypatch, conference, "build_conference")
    table_bases = count_calls(monkeypatch, planes, "_table_basis")
    built = [capture(monkeypatch, name) for name in ("build_conference", "build_seidel", "planes_from_seidel", "double")]
    rows = cli.run_pipeline((p**alpha + 1) // 2, TOL)
    (C,), (S,), (pt,), (H,) = built
    assert [(name, ok) for name, ok, _ in rows] == [(name, True) for name in cli.STAGES]
    assert transforms == [S]
    assert len(eighs) == 1
    # one C: the witnesses read E, and H keeps no C, so the hadamard stage reads the C copied out of H
    assert len(conferences) == 1
    # the form of E for the counts, then the form of C for column 0 of C C*, the conference residual
    # that the gate of double reads; then S in 2 x 2 blocks, once for seidel-square, spectrum and the
    # planes; then H's four blocks as one stack, whose verdict the C copied out of H keeps as its column,
    # once for its symmetry and for hadamard_residual
    assert len(developed) == 4 and developed[0] is C.exponents and developed[1] is C.values
    assert developed[2] is S.dense and np.shares_memory(developed[3], H.values)
    assert developed[3].shape == (2, 2, S.q, S.q)
    assert np.shares_memory(H.doubling_of.column, H.doubling_of.values)
    assert len(products) == 2 and products[0] is C and products[1] is H.doubling_of
    assert len(doubled) == 1 and np.array_equal(H.doubling_of.values, C.values)
    # one Gram product of the planes, block row 0 of X^T X, read by both plane residuals; the
    # table basis is formed twice on one character table, to build X and for its one form check
    assert len(table_bases) == 2 and table_bases[0] is table_bases[1] is pt.table
    assert pt.gram_rows.shape == (2, 2 * S.q)


@pytest.mark.parametrize("p,alpha", FIELDS)
def test_pipeline_builds_one_character_table(monkeypatch, p, alpha):
    tables = count_calls(monkeypatch, planes, "_character_table")
    built = capture(monkeypatch, "planes_from_seidel")
    cli.run_pipeline((p**alpha + 1) // 2, TOL)
    (pt,) = built
    f = make_field(p, alpha)
    # the transform builds it, and the tuple keeps it for the form check of both plane residuals
    assert tables == [f] and pt.gram_rows.shape == (2, 2 * f.q)
    # a new tuple builds the table again from its shape, and reads a changed basis on every row
    X = pt.basis.copy()
    X[:, -2:] *= 1.01
    scaled = replace(pt, basis=X)
    assert scaled.table is not pt.table and np.array_equal(scaled.table, pt.table) and tables == [f, f]
    assert scaled.gram_rows.shape == (2 * f.q, 2 * f.q)
    # no table for a shape other than (q, 2q) with q an odd prime power: every row is read
    for basis in (np.zeros((f.q, 2 * f.q + 2)), np.zeros((6, 12))):
        other = replace(pt, basis=basis)
        assert other.table is None and other.gram_rows.shape == (basis.shape[1], basis.shape[1])
    assert tables == [f, f]


def test_square_residual_forms_the_full_product_once_on_the_dense_path(monkeypatch):
    _, _, S = canonical(5, 2)
    T = normalize(S)
    mu = math.sqrt(2 * T.k - 2)
    squares = count_calls(monkeypatch, seidel, "_square_residual")
    columns = count_calls(monkeypatch, gf, "developed_column")
    residual = seidel_square_residual(T)
    assert residual == float(np.abs(T.dense @ T.dense - (2 * T.k - 2) * np.eye(2 * T.q)).max()) <= TOL
    assert spectrum(T) == [(mu, T.q), (-mu, T.q)]
    assert planes_from_seidel(T).r == T.q
    assert squares == [T] and len(columns) == 1 and np.shares_memory(columns[0], T.dense)


def test_conference_residual_forms_the_full_product_once_on_the_dense_path(monkeypatch):
    _, C, _ = canonical(5, 2)
    scaled = scale_row_col(C, 3, 1j)
    products = count_calls(monkeypatch, conference, "_gram_deviation")
    assert conference_residual(scaled) <= TOL
    H = double(scaled)
    assert products == [scaled]
    assert hadamard_residual(H) <= TOL


def test_each_plane_extraction_computes_the_character_transform(monkeypatch):
    # nothing keeps the transform: planes_from_seidel is its one reader
    _, _, S = canonical(5, 2)
    transforms = count_calls(monkeypatch, planes, "_character_transform")
    first, second = planes_from_seidel(S), planes_from_seidel(S)
    assert transforms == [S, S]
    assert first.basis.tobytes() == second.basis.tobytes()


def test_verify_checks_a_hadamard_record_once(monkeypatch, tmp_path, capsys):
    path = tmp_path / "hadamard.json"
    assert cli.main(["generate", "--kind", "hadamard", "--k", "7", "--out", str(path)]) == cli.EXIT_OK
    doubled = count_calls(monkeypatch, hadamard, "_doubled")
    assert cli.main(["verify", str(path)]) == cli.EXIT_OK
    assert "doubling-form          PASS" in capsys.readouterr().out
    assert len(doubled) == 1


def test_verify_checks_the_form_of_a_conference_record_once(monkeypatch, tmp_path, capsys):
    path = tmp_path / "conference.json"
    assert cli.main(["generate", "--kind", "conference", "--k", "31", "--out", str(path)]) == cli.EXIT_OK
    columns = count_calls(monkeypatch, gf, "developed_column")
    assert cli.main(["verify", str(path), "--exact"]) == cli.EXIT_OK
    assert "exact-counts           PASS" in capsys.readouterr().out
    # the residual checks the form of the complex values, and C keeps it for the m of the form rows; the
    # exact counts check the form of the int8 exponents, and C keeps that verdict for the form rows too
    assert len([M for M in columns if np.iscomplexobj(M)]) == 1
    assert len([M for M in columns if M.dtype == np.int8]) == 1


def scale_difference_class(f, V, factor=1.01):
    """V with every entry at a_i - a_j in {x, -x}, x = a_1, scaled: still group-developed and symmetric."""
    sub = f.digit_differences
    V = V.copy()
    V[(sub == 1) | (sub == sub[0, 1])] *= factor
    return V


def rotated_dense(S, phi=0.01):
    """S.dense with its (0, 1) block pair turned by phi; no longer S^2 = mu^2 I."""
    dense = S.dense.copy()
    angle = math.atan2(dense[0, 3], dense[0, 2]) + phi
    dense[0:2, 2:4] = plane_symmetry(angle)
    dense[2:4, 0:2] = plane_symmetry(angle).T
    return dense


@pytest.mark.parametrize("p,alpha", FIELDS)
def test_a_corrupted_copy_of_a_checked_conference_matrix_fails(p, alpha):
    f, C, _ = canonical(p, alpha)
    assert conference_residual(C) <= TOL
    double(C)
    bad = replace(C, exponents=None, values=scale_difference_class(f, C.values))
    assert conference_residual(bad) > 1e-3
    with pytest.raises(NotConference):
        double(bad)


@pytest.mark.parametrize("p,alpha", FIELDS)
def test_a_corrupted_copy_of_a_checked_seidel_matrix_fails(p, alpha):
    _, _, S = canonical(p, alpha)
    assert seidel_square_residual(S) <= TOL
    assert all(m == S.q for _, m in spectrum(S))
    planes_from_seidel(S)
    build_gram(S)
    bad = replace(S, dense=rotated_dense(S))
    assert seidel_square_residual(bad) > 1e-3
    for check in (spectrum, planes_from_seidel, build_gram):
        with pytest.raises(NotInvolutory):
            check(bad)


@pytest.mark.parametrize("p,alpha", FIELDS)
def test_a_corrupted_copy_of_a_checked_hadamard_matrix_fails(p, alpha):
    _, C, _ = canonical(p, alpha)
    H = double(C)
    assert hadamard_residual(H) <= TOL and H.doubling_of is not None
    turned = H.values.copy()
    turned[0, 0] *= np.exp(0.01j)  # still unimodular
    bad = replace(H, values=turned)
    assert hadamard_residual(bad) > 1e-3
    assert bad.doubling_of is None


# entries of H off column 0 of their block, (1, 2) of the block: V01 alone, V11 alone, then V00 and V10
# together, which keeps V00 = V10 + 2I off the diagonal
OFF_COLUMN_0 = {"V01": [(0, 1)], "V11": [(1, 1)], "V00 and V10": [(0, 0), (1, 0)]}


@pytest.mark.parametrize("blocks", OFF_COLUMN_0)
@pytest.mark.parametrize("p,alpha", FIELDS)
def test_the_doubling_form_reads_every_column_of_every_block(p, alpha, blocks):
    # each forgery leaves column 0 of every block as it was, so only the form check of the block stack,
    # not column 0 of the blocks or the form of V10 alone, sees that the blocks are no doubling
    _, C, _ = canonical(p, alpha)
    q = C.q
    V = double(C).values.copy()
    v = C.values[1, 2] * np.exp(0.01j)
    doubled = {(0, 0): v, (0, 1): v.conjugate(), (1, 0): v, (1, 1): -v.conjugate()}  # block (a, b) of C[1, 2] = v
    for a, b in OFF_COLUMN_0[blocks]:
        V[a * q + 1, b * q + 2] = doubled[a, b]
    assert np.array_equal(V[:, [0, q]], double(C).values[:, [0, q]])
    forged = HadamardMatrix(values=V)
    assert hadamard._doubled(V) is None and forged.doubling_of is None
    assert hadamard_residual(forged) == hadamard._dense_residual(forged) > 1e-3


@pytest.mark.parametrize("p,alpha", FIELDS)
def test_the_doubling_does_not_keep_c_alive(p, alpha):
    _, C, _ = canonical(p, alpha)
    ref = weakref.ref(C)
    H = double(C)
    del C
    assert ref() is None  # no reference cycle either: reference counting alone frees C
    assert hadamard_residual(H) <= TOL


@pytest.mark.parametrize("p,alpha", FIELDS)
def test_the_doubling_residual_reads_the_deviation_of_c_bit_for_bit(p, alpha):
    _, C, _ = canonical(p, alpha)
    for c in (C, scale_row_col(C, 3, 1j)):  # one column of C C* and every column
        H = double(c)
        dev = conference._gram_deviation(c)
        unimod = float(np.abs(np.abs(H.values[: c.q, : dev.shape[1]]) - 1.0).max())
        want = max(unimod, 2.0 * float(np.abs(dev.real).max()), 2.0 * float(np.abs(dev.imag).max()))
        assert hadamard_residual(H).hex() == want.hex()


def test_the_involution_guard_raises_on_every_use(monkeypatch):
    # 1.01 S keeps the group-developed form, but every eigenvalue is 1.01 mu
    _, _, S = canonical(3, 2)
    scaled = SeidelMatrix(k=S.k, dense=1.01 * S.dense)
    transforms = count_calls(monkeypatch, planes, "_character_transform")
    squares = count_calls(monkeypatch, seidel, "_square_residual")
    for _ in range(2):
        with pytest.raises(NotInvolutory, match="S\\^2"):
            spectrum(scaled)
    with pytest.raises(NotInvolutory, match="S\\^2"):
        planes_from_seidel(scaled)
    # the guard reads the residual scaled keeps, and raises before any transform
    assert squares == [scaled] and transforms == []

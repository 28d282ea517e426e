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
from dataclasses import replace

import numpy as np
import pytest

from isoclinic import (
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
    table_checks = count_calls(monkeypatch, planes, "_is_table_basis")
    built = [capture(monkeypatch, name) for name in ("build_conference", "build_seidel", "planes_from_seidel", "double")]
    rows = cli.run_pipeline((p**alpha + 1) // 2, TOL)
    (C,), (S,), (pt,), (H,) = built
    assert [(name, ok) for name, ok, _ in rows] == [(name, True) for name in cli.STAGES]
    assert transforms == [S]
    assert len(eighs) == 1
    # one C: the witnesses read E, and the hadamard stage reads the C that H was doubled from
    assert len(conferences) == 1 and H.source is C
    # the form of E for the counts, then column 0 of C C* once: the gate of double and
    # hadamard_residual read the deviation the conference-residual stage kept; then the
    # (a, b, i, j) block view of S, once for seidel-square, spectrum and the planes
    assert len(developed) == 3 and developed[0] is C.exponents and developed[1] is C.values
    assert developed[2].shape == (2, 2, S.q, S.q) and np.shares_memory(developed[2], S.dense)
    assert len(products) == 1 and products[0] is C.values
    assert len(doubled) <= 1 and H.doubling_of is C.values
    # one Gram product of the planes, block row 0 of X^T X, read by both plane residuals
    assert table_checks == [pt.basis] and pt.gram_rows.shape == (2, 2 * S.q)


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
    assert products == [scaled.values]
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


def scale_difference_class(f, V, factor=1.01):
    """V with every entry at a_i - a_j in {x, -x}, x = a_1, scaled: still group-developed and symmetric."""
    sub = f.digit_differences()
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
    assert bad.source is C  # a stale hint: the form check, not the source, decides
    assert hadamard_residual(bad) > 1e-3
    assert bad.doubling_of is None


def sourceless(H):
    return hadamard.HadamardMatrix(values=H.values)


@pytest.mark.parametrize("p,alpha", FIELDS)
def test_the_source_path_gives_the_sourceless_residual_bit_for_bit(p, alpha):
    _, C, _ = canonical(p, alpha)
    for c in (C, scale_row_col(C, 3, 1j)):  # one column of C C* and every column
        H = double(c)
        assert H.source is c and H.doubling_of is c.values
        bare = sourceless(H)
        assert hadamard_residual(H).hex() == hadamard_residual(bare).hex()
        assert bare.doubling_of is not c.values and np.array_equal(bare.doubling_of, c.values)


@pytest.mark.parametrize("p,alpha", FIELDS)
def test_a_stale_source_with_a_valid_form_is_not_read(monkeypatch, p, alpha):
    # H is the exact doubling of another C than its source: the C copied out of H is read
    _, C, _ = canonical(p, alpha)
    other = double(scale_row_col(C, 3, 1j))
    stale = replace(double(C), values=other.values)
    assert stale.source is C
    assert np.array_equal(stale.doubling_of, other.doubling_of) and stale.doubling_of is not C.values
    products = count_calls(monkeypatch, conference, "_gram_deviation")
    assert hadamard_residual(stale).hex() == hadamard_residual(sourceless(other)).hex()
    assert len(products) == 2 and all(V is not C.values for V in products)


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

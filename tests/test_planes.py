"""Plane extraction, isoclinism verification, and the exact count bound."""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoclinic import (
    InvalidOrder,
    NotInvolutory,
    RankMismatch,
    SeidelMatrix,
    build_gram,
    build_seidel,
    extract_bases,
    isoclinic_residual,
    ls_bound,
    make_field,
    normalize,
    orthonormality_residual,
    PlaneTuple,
    permute_blocks,
    planes_from_seidel,
)
from isoclinic import planes, seidel


def test_gram_structure_k3():
    S = build_seidel(make_field(5))
    A = build_gram(S)
    vals = np.linalg.eigvalsh(A)
    assert np.abs(vals[:5]).max() <= 1e-8
    assert np.abs(vals[5:] - 2.0).max() <= 1e-8
    eye = np.eye(2)
    for i in range(5):
        assert np.array_equal(A[2 * i : 2 * i + 2, 2 * i : 2 * i + 2], eye)
    assert np.abs(A @ A - 2.0 * A).max() <= 1e-12


def test_gram_offdiagonal_blocks_scale():
    # off-diagonal blocks B satisfy B^T B = lambda I with lambda = 1/(2k-2)
    S = build_seidel(make_field(3, 2))
    A = build_gram(S)
    lam = 1.0 / 8.0
    B = A[0:2, 2:4]
    assert np.abs(B.T @ B - lam * np.eye(2)).max() <= 1e-12


@pytest.mark.parametrize("p,alpha", [(5, 1), (3, 2), (13, 1)])
def test_extract_factorization(p, alpha):
    q = p**alpha
    S = build_seidel(make_field(p, alpha))
    A = build_gram(S)
    pt = extract_bases(A, q, Fraction(1, 2 * S.k - 2))
    assert pt.basis.shape == (q, 2 * q)
    assert pt.r == q and pt.n == q
    assert np.abs(pt.basis.T @ pt.basis - A).max() <= 1e-9


def test_extract_rejects_wrong_rank():
    with pytest.raises(RankMismatch):
        extract_bases(np.eye(10), 5, Fraction(1, 4))
    S = build_seidel(make_field(5))
    with pytest.raises(RankMismatch):
        extract_bases(build_gram(S), 6, Fraction(1, 4))


def test_extract_deterministic():
    S = build_seidel(make_field(5))
    A = build_gram(S)
    a = extract_bases(A, 5, Fraction(1, 4))
    b = extract_bases(A, 5, Fraction(1, 4))
    assert np.array_equal(a.basis, b.basis)


def reference_extract_bases(gram, r):
    """Eigenvector-by-eigenvector gauge loop; an oracle for extract_bases."""
    vals, vecs = np.linalg.eigh(gram)
    keep = np.nonzero(vals > 1.0)[0][::-1]
    basis = np.empty((r, gram.shape[0]))
    for row, idx in enumerate(keep):
        v = vecs[:, idx]
        nz = np.nonzero(np.abs(v) > 1e-12)[0]
        if len(nz) and v[nz[0]] < 0:
            v = -v
        basis[row] = math.sqrt(vals[idx]) * v
    return basis


@pytest.mark.parametrize("p,alpha", [(5, 1), (3, 2), (13, 1), (5, 2), (3, 4)])
def test_extract_matches_gauge_loop_reference_bitwise(p, alpha):
    S = build_seidel(make_field(p, alpha))
    lam = Fraction(1, 2 * S.k - 2)
    A = build_gram(S)
    # two zero rows and columns in front: every kept eigenvector then starts
    # with two entries below the 1e-12 threshold, which the gauge must skip
    padded = np.zeros((2 * S.q + 2, 2 * S.q + 2))
    padded[2:, 2:] = A
    for gram in (A, padded):
        basis = extract_bases(gram, S.q, lam).basis
        assert basis.flags.c_contiguous
        assert np.array_equal(basis.view(np.uint64), reference_extract_bases(gram, S.q).view(np.uint64))


@pytest.mark.parametrize("p,alpha", [(5, 1), (3, 2), (13, 1)])
def test_planes_are_equi_isoclinic(p, alpha):
    q = p**alpha
    k = (q + 1) // 2
    pt = planes_from_seidel(build_seidel(make_field(p, alpha)))
    assert pt.lam == Fraction(1, 2 * k - 2)
    assert orthonormality_residual(pt) <= 1e-10
    assert isoclinic_residual(pt) <= 1e-10
    assert np.linalg.matrix_rank(pt.basis) == q


EPS = float(np.finfo(float).eps)


def row_read_bound(q):
    """The gap the planes docstring states between the row-0 and the every-row reading of either residual."""
    return (4 * q + 81) * EPS


def rows_read(pt):
    """m, the number of block rows of basis^T basis that the residuals of pt read."""
    return len(pt.gram_rows) // 2


def reference_orthonormality_residual(pt, rows=None):
    """Plane-by-plane loop over the first rows planes (all by default); an oracle for the block-Gram residual."""
    return max(float(np.abs(pt.plane(i).T @ pt.plane(i) - np.eye(2)).max()) for i in range(rows or pt.n))


def reference_isoclinic_residual(pt, rows=None):
    """Pair-by-pair loop over the pairs i < j with i among the first rows planes; an oracle for the block-Gram residual."""
    lam = float(pt.lam)
    worst = 0.0
    for i in range(rows or pt.n):
        for j in range(i + 1, pt.n):
            b = pt.plane(i).T @ pt.plane(j)
            worst = max(worst, float(np.abs(b.T @ b - lam * np.eye(2)).max()))
    return worst


@pytest.mark.parametrize("p,alpha", [(5, 1), (3, 2), (13, 1), (5, 2), (3, 4), (5, 3)])
def test_residuals_match_pair_loop_reference(p, alpha):
    pt = planes_from_seidel(build_seidel(make_field(p, alpha)))
    basis = pt.basis.copy()
    basis[:, -2:] *= 1.01  # the last plane is neither orthonormal nor isoclinic to the others
    scaled = replace(pt, basis=basis)
    assert (rows_read(pt), rows_read(scaled)) == (1, pt.n)
    for residual, reference in (
        (orthonormality_residual, reference_orthonormality_residual),
        (isoclinic_residual, reference_isoclinic_residual),
    ):
        # the table basis is read on plane 0 and its pairs, and agrees with every pair within the stated bound
        assert abs(residual(pt) - reference(pt, rows=1)) <= 1e-15
        assert abs(residual(pt) - reference(pt)) <= row_read_bound(pt.n)
        assert residual(pt) <= 1e-10
        assert abs(residual(scaled) - reference(scaled)) <= 1e-15
        assert residual(scaled) > 1e-4 and reference(scaled) > 1e-4


def test_pairwise_angles_are_equal():
    # every pair of planes meets at the two equal angles arccos sqrt(lambda)
    pt = planes_from_seidel(build_seidel(make_field(5)))
    expected = math.sqrt(float(pt.lam))
    for i in range(pt.n):
        for j in range(i + 1, pt.n):
            sv = np.linalg.svd(pt.plane(i).T @ pt.plane(j), compute_uv=False)
            assert np.abs(sv - expected).max() <= 1e-9


def test_random_planes_are_not_isoclinic():
    # control: generic orthonormal plane pairs fail the scalar-product law
    rng = np.random.default_rng(0)
    q1 = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    q2 = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    G = (q1.T @ q2).T @ (q1.T @ q2)
    best_scalar = G.trace() / 2.0
    assert np.abs(G - best_scalar * np.eye(2)).max() >= 0.01


def test_ls_bound_examples():
    bound, tight = ls_bound(5, Fraction(1, 4), 5)
    assert bound == 5 and tight
    bound, tight = ls_bound(4, Fraction(1, 3), 4)
    assert bound == 4 and tight
    # not attained: one plane fewer than the bound
    bound, tight = ls_bound(5, Fraction(1, 4), 4)
    assert bound == 5 and not tight
    # vacuous regime r * lam >= 2
    bound, tight = ls_bound(5, Fraction(1, 2), 100)
    assert bound == math.inf and not tight
    bound, tight = ls_bound(4, Fraction(1, 2), 4)
    assert bound == math.inf and not tight


def test_ls_bound_family_identity():
    # at r = 2k-1 and lam = 1/(2k-2) the bound is exactly r, attained
    for k in range(3, 52, 2):
        r = 2 * k - 1
        bound, tight = ls_bound(r, Fraction(1, 2 * k - 2), r)
        assert bound == r and tight


def test_ls_bound_validation():
    with pytest.raises(ValueError):
        ls_bound(3, Fraction(1, 4), 3)
    with pytest.raises(ValueError):
        ls_bound(5, Fraction(0), 5)
    with pytest.raises(ValueError):
        ls_bound(5, Fraction(7, 4), 5)


@settings(deadline=None, max_examples=200)
@given(
    r=st.integers(4, 40),
    num=st.integers(1, 30),
    den=st.integers(2, 60),
)
def test_ls_bound_floor_consistency(r, num, den):
    lam = Fraction(num, den)
    if not 0 < lam < 1:
        return
    bound, tight = ls_bound(r, lam, 1)
    if bound == math.inf:
        assert not tight
        return
    v = math.floor(bound)
    _, tight_at_floor = ls_bound(r, lam, v)
    # tight at the floor exactly when the bound is an integer
    assert tight_at_floor == (bound == v)
    assert not ls_bound(r, lam, v + 1)[1]


FAST_PATH_FIELDS = [(5, 1), (3, 2), (13, 1), (5, 2), (3, 4), (5, 3)]


def _gram_target(S):
    return np.eye(2 * S.q) + S.dense / math.sqrt(2 * S.k - 2)


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_character_planes_match_eigh_extraction(p, alpha):
    S = build_seidel(make_field(p, alpha))
    assert planes._character_transform(S) is not None
    lam = Fraction(1, 2 * S.k - 2)
    fast = planes_from_seidel(S)
    dense = extract_bases(build_gram(S), S.q, lam)
    assert (fast.r, fast.n, fast.lam) == (dense.r, dense.n, dense.lam)
    assert fast.basis.shape == dense.basis.shape and fast.basis.flags.c_contiguous
    for pt in (fast, dense):
        assert np.abs(pt.basis.T @ pt.basis - _gram_target(S)).max() <= 1e-14
    assert orthonormality_residual(fast) <= 1e-14
    assert isoclinic_residual(fast) <= 1e-14
    # the gauge: row 0 is b = 0, whose +mu eigenvector of diag(mu, -mu) is (1, 0)
    assert np.abs(fast.basis[0, 1::2]).max() <= 1e-15
    assert np.abs(fast.basis[0, 0::2] - math.sqrt(2.0 / S.q)).max() <= 1e-15
    assert np.array_equal(planes_from_seidel(S).basis, fast.basis)


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_planes_fall_back_when_not_group_developed(p, alpha):
    S = build_seidel(make_field(p, alpha))
    lam = Fraction(1, 2 * S.k - 2)
    sigma = np.random.default_rng(S.q).permutation(S.q)
    for T in (normalize(S), permute_blocks(S, sigma)):
        assert planes._character_transform(T) is None
        got = planes_from_seidel(T).basis
        assert np.array_equal(got, extract_bases(build_gram(T), T.q, lam).basis)
        assert np.abs(got.T @ got - _gram_target(T)).max() <= 1e-12
    dense = S.dense.copy()
    angle = math.atan2(dense[0, 3], dense[0, 2]) + 0.01
    c, s = math.cos(angle), math.sin(angle)
    dense[0:2, 2:4] = dense[2:4, 0:2] = [[c, s], [s, -c]]
    with pytest.raises(NotInvolutory):
        planes_from_seidel(SeidelMatrix(k=S.k, dense=dense))


def reference_einsum_orthonormality_residual(pt, rows):
    """The diagonal blocks P_i^T P_i, i < rows, from one einsum; an oracle for the batched product."""
    planes = pt.basis.reshape(pt.r, pt.n, 2)[:, :rows]
    blocks = np.einsum("xia,xib->iab", planes, planes, optimize=True)
    return float(np.abs(blocks - np.eye(2)).max(initial=0.0))


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS + [(11, 2)])
def test_orthonormality_residual_matches_einsum_reference_exactly(p, alpha):
    S = build_seidel(make_field(p, alpha))
    pt = planes_from_seidel(S)
    dense = extract_bases(build_gram(S), S.q, pt.lam)
    basis = pt.basis.copy()
    basis[:, -2:] *= 1.01
    for tup, rows in ((pt, 1), (dense, S.q), (replace(pt, basis=basis), S.q)):
        assert rows_read(tup) == rows
        assert orthonormality_residual(tup) == reference_einsum_orthonormality_residual(tup, rows)
    assert orthonormality_residual(replace(pt, basis=basis)) > 1e-3


def reference_gather_isoclinic_residual(pt, rows):
    """The pair gather and batched contraction over the pairs i < j, i < rows; an oracle for the strided block-entry kernel."""
    i, j = np.triu_indices(rows, 1, pt.n)
    gram = pt.basis[:, : 2 * rows].T @ pt.basis  # block rows 0..rows-1 of basis^T basis
    b = seidel._blocks(gram)[i, j]  # b[m] = P_i^T P_j for the m-th pair
    btb = np.einsum("mab,mac->mbc", b, b)
    return float(np.abs(btb - float(pt.lam) * np.eye(2)).max(initial=0.0))


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_isoclinic_residual_matches_gather_reference_exactly(p, alpha):
    S = build_seidel(make_field(p, alpha))
    pt = planes_from_seidel(S)
    dense = extract_bases(build_gram(S), S.q, pt.lam)
    basis = pt.basis.copy()
    basis[:, -2:] *= 1.01
    for tup, rows in ((pt, 1), (dense, S.q), (replace(pt, basis=basis), S.q)):
        assert rows_read(tup) == rows
        assert isoclinic_residual(tup) == reference_gather_isoclinic_residual(tup, rows)


def test_isoclinic_deviation_reads_only_the_blocks_above_the_diagonal():
    # every block is (5/8) I, so B^T B = (25/64) I exactly; the diagonal blocks are never read
    n, lam = 5, Fraction(25, 64)
    blocks = np.zeros((n, n, 2, 2))
    blocks[...] = 0.625 * np.eye(2)
    blocks[range(n), range(n)] = 7.0
    assert planes._isoclinic_deviation(blocks, lam) == 0.0
    # columns (5/8, 0) and (3/8, 1/2): both of squared norm 25/64, with scalar product 15/64
    skew = np.array([[0.625, 0.375], [0.0, 0.5]])
    blocks[3, 1] = skew
    assert planes._isoclinic_deviation(blocks, lam) == 0.0
    blocks[1, 3] = skew
    assert planes._isoclinic_deviation(blocks, lam) == 15 / 64
    blocks[0, 4] = 2.0 * np.eye(2)  # B^T B = 4 I: the diagonal entries deviate by 4 - 25/64
    assert planes._isoclinic_deviation(blocks, lam) == 4.0 - 25 / 64
    assert planes._isoclinic_deviation(np.zeros((1, 1, 2, 2)), lam) == 0.0


def test_build_gram_rejects_a_nan_entry():
    S = build_seidel(make_field(5))
    dense = S.dense.copy()
    dense[0, 2] = dense[2, 0] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(NotInvolutory):
            build_gram(SeidelMatrix(k=S.k, dense=dense))


def test_a_plane_tuple_reads_r_and_n_from_its_basis():
    # n = 6 planes in R^5 come with the 5 x 12 basis, so the residuals read 6 planes
    pt = planes_from_seidel(build_seidel(make_field(5)))
    other = replace(pt, basis=np.zeros((5, 12)))
    assert (other.r, other.n) == (5, 6)
    assert orthonormality_residual(other) == 1.0
    assert isoclinic_residual(other) == float(pt.lam)
    with pytest.raises(TypeError):
        PlaneTuple(r=5, n=6, lam=pt.lam, basis=pt.basis)  # counts that could disagree with the basis are no fields


def test_a_plane_basis_must_be_2d_with_an_even_number_of_columns():
    pt = planes_from_seidel(build_seidel(make_field(5)))
    for basis in (pt.basis[:, :9], pt.basis[0], pt.basis[None]):
        with pytest.raises(InvalidOrder):
            PlaneTuple(lam=pt.lam, basis=basis)
    with pytest.raises(InvalidOrder):
        replace(pt, basis=pt.basis[:, :7])


def every_row_reading(monkeypatch, pt):
    """Both residuals of pt's basis read on every block row: the oracle of the row read."""
    with monkeypatch.context() as m:
        m.setattr(planes, "_is_table_basis", lambda basis: False)
        tup = replace(pt)
        assert rows_read(tup) == pt.n
        return orthonormality_residual(tup), isoclinic_residual(tup)


def previous_residuals(pt):
    """The residuals as every basis was read before the row read: batched diagonal blocks and the full Gram."""
    planes_ = pt.basis.reshape(pt.r, pt.n, 2)
    diagonal = planes_.transpose(1, 2, 0) @ planes_.transpose(1, 0, 2)
    orth = float(np.abs(diagonal - np.eye(2)).max(initial=0.0))
    return orth, planes._isoclinic_deviation(seidel._blocks(pt.basis.T @ pt.basis), pt.lam)


def addition_law_error(p):
    """max |c_j c_k + s_j s_k - c_(j-k)| over the p-entry cos and sin table, exact on the table values."""
    angle = 2.0 * math.pi / p * np.arange(p)
    c = [Fraction(float(x)) for x in np.cos(angle)]
    s = [Fraction(float(x)) for x in np.sin(angle)]
    return float(max(abs(c[j] * c[k] + s[j] * s[k] - c[(j - k) % p]) for j in range(p) for k in range(p)))


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS + [(3, 6)])
def test_row_read_agrees_with_the_every_row_read_within_the_stated_bound(monkeypatch, p, alpha):
    f = make_field(p, alpha)
    pt = planes_from_seidel(build_seidel(f))
    assert rows_read(pt) == 1
    assert addition_law_error(p) <= 40 * EPS
    # delta: two entries of X^T X at one difference a_i - a_j, against block row 0
    blocks = seidel._blocks(pt.basis.T @ pt.basis)
    delta = float(np.abs(blocks - blocks[0][f.digit_differences().T]).max())
    assert delta <= (2 * f.q + 40) * EPS
    orth, iso = every_row_reading(monkeypatch, pt)
    assert abs(orthonormality_residual(pt) - orth) <= delta + EPS
    assert abs(isoclinic_residual(pt) - iso) <= 2 * delta + EPS
    assert max(abs(orthonormality_residual(pt) - orth), abs(isoclinic_residual(pt) - iso)) <= row_read_bound(f.q)


class MatmulShapes(np.ndarray):
    """An array that appends the operand shapes of every matmul it enters to `shapes`."""

    shapes: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.shapes.append(tuple(x.shape for x in inputs))
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_the_table_basis_forms_one_block_row_of_the_gram(monkeypatch, p, alpha):
    S = build_seidel(make_field(p, alpha))
    pt = planes_from_seidel(S)
    q = S.q
    shapes = []
    monkeypatch.setattr(MatmulShapes, "shapes", shapes)
    for tup in (pt, extract_bases(build_gram(S), q, pt.lam)):
        tup = replace(tup, basis=tup.basis.view(MatmulShapes))
        orthonormality_residual(tup)
        isoclinic_residual(tup)
    # one product per tuple, shared by both residuals: no 2q x 2q X^T X on the table basis
    assert shapes == [((2, q), (q, 2 * q)), ((2 * q, q), (q, 2 * q))]


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_other_valid_bases_are_read_on_every_row_and_pass(p, alpha):
    S = build_seidel(make_field(p, alpha))
    pt = planes_from_seidel(S)
    rng = np.random.default_rng(S.q)
    Q = np.linalg.qr(rng.standard_normal((S.q, S.q)))[0]
    bases = (
        extract_bases(build_gram(S), S.q, pt.lam).basis,
        pt.basis[rng.permutation(S.q)],
        Q @ pt.basis,
    )
    for basis in bases:
        tup = replace(pt, basis=basis)
        assert rows_read(tup) == S.q
        assert orthonormality_residual(tup) <= 1e-12 and isoclinic_residual(tup) <= 1e-12
        # the every-row read gives what every basis read before, bit for bit
        got = (orthonormality_residual(tup), isoclinic_residual(tup))
        assert [x.hex() for x in got] == [x.hex() for x in previous_residuals(tup)]


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_a_forged_table_basis_is_read_on_every_row_and_fails(p, alpha):
    pt = planes_from_seidel(build_seidel(make_field(p, alpha)))
    q, m = pt.n, (pt.n + 1) // 2
    sin_row = pt.basis.copy()
    sin_row[m] *= 1.01  # the first sin row no longer shares the w of its cos row
    entry = pt.basis.copy()
    entry[q - 1, 2 * q - 1] += 1e-3
    # the sin rows read 0 on block column 0, so block column 0 and block row 0 of X^T X are those of pt:
    # a check on block column 0 alone, or a read of block row 0 alone, would pass the first forgery
    assert np.array_equal(sin_row[:, :2], pt.basis[:, :2])
    assert np.array_equal(sin_row[:, :2].T @ sin_row, pt.basis[:, :2].T @ pt.basis)
    for basis in (sin_row, entry):
        tup = replace(pt, basis=basis)
        assert rows_read(tup) == q
        assert max(orthonormality_residual(tup), isoclinic_residual(tup)) > 1e-7
        got = (orthonormality_residual(tup), isoclinic_residual(tup))
        assert [x.hex() for x in got] == [x.hex() for x in previous_residuals(tup)]

"""Seidel block matrices: reflection algebra, square identity, transports."""

from __future__ import annotations

import cmath
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoclinic import (
    InvalidOrder,
    InvalidShift,
    NotInvolutory,
    NotSymmetrizable,
    NotUnimodular,
    SeidelMatrix,
    build_conference,
    build_gram,
    build_seidel,
    critical_angle,
    critical_omega,
    from_conference,
    make_field,
    normalize,
    permute,
    permute_blocks,
    plane_rotation,
    plane_symmetry,
    planes_from_seidel,
    rotation_sum,
    scale_row_col,
    seidel_square_residual,
    spectrum,
    transport_scaling,
)
from isoclinic import planes, seidel

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@settings(deadline=None, max_examples=200)
@given(a=angles, b=angles)
def test_reflection_product_is_rotation(a, b):
    # s_a s_b = r_{a-b} and r_a r_b = r_{a+b}
    assert np.abs(plane_symmetry(a) @ plane_symmetry(b) - plane_rotation(a - b)).max() <= 1e-14
    assert np.abs(plane_rotation(a) @ plane_rotation(b) - plane_rotation(a + b)).max() <= 1e-14


@settings(deadline=None, max_examples=200)
@given(theta=angles, eta=angles)
def test_rotation_conjugation_shifts_reflection(theta, eta):
    lhs = plane_rotation(eta / 2) @ plane_symmetry(theta) @ plane_rotation(-eta / 2)
    assert np.abs(lhs - plane_symmetry(theta + eta)).max() <= 1e-14


def test_opposite_rotations_sum_to_scalar():
    for theta in (0.0, 0.3, critical_angle(5), 1.4):
        total = plane_rotation(2 * theta) + plane_rotation(-2 * theta)
        assert np.abs(total - 2 * math.cos(2 * theta) * np.eye(2)).max() <= 1e-15


def test_build_seidel_k3_structure():
    S = build_seidel(make_field(5))
    assert S.dense.shape == (10, 10)
    assert abs(critical_angle(S.k) - math.pi / 3) < 1e-15
    assert np.array_equal(S.dense, S.dense.T)
    assert S.q == 5 and S.k == 3
    for i in range(5):
        assert np.array_equal(S.block(i, i), np.zeros((2, 2)))
    # chi(0 - 1) = chi(4) = +1, so block (0, 1) is the reflection at +theta
    assert np.abs(S.block(0, 1) - plane_symmetry(critical_angle(S.k))).max() == 0.0
    assert np.trace(S.dense) == 0.0


def reference_seidel_dense(field):
    # the construction entry by entry: angle theta * chi(a_i - a_j), the
    # block [[cos, sin], [sin, -cos]] off the diagonal, zero on it
    q = field.q
    theta = critical_angle((q + 1) // 2)
    chi = np.zeros((q, q))
    for i, a in enumerate(field.elements):
        for j, b in enumerate(field.elements):
            if i != j:
                chi[i, j] = field.chi(field.sub(a, b))
    ang = theta * chi
    c, s = np.cos(ang), np.sin(ang)
    dense = np.zeros((2 * q, 2 * q))
    for i in range(q):
        for j in range(q):
            if i != j:
                dense[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = [[c[i, j], s[i, j]], [s[i, j], -c[i, j]]]
    return dense


@pytest.mark.parametrize("p,alpha", [(5, 1), (3, 2), (13, 1), (5, 2), (3, 4), (5, 3)])
def test_build_seidel_matches_entrywise_reference(p, alpha):
    f = make_field(p, alpha)
    assert np.array_equal(build_seidel(f).dense, reference_seidel_dense(f))


def test_blocks_view():
    S = build_seidel(make_field(5))
    assert S.blocks.shape == (5, 5, 2, 2)
    assert np.array_equal(S.blocks[2, 3], S.block(2, 3))


def test_build_rejects_q_3_mod_4():
    with pytest.raises(NotSymmetrizable):
        build_seidel(make_field(7))


@pytest.mark.parametrize("p,alpha", [(5, 1), (3, 2), (13, 1), (5, 2)])
def test_square_identity(p, alpha):
    S = build_seidel(make_field(p, alpha))
    assert seidel_square_residual(S) <= 1e-11


def test_square_detects_perturbation():
    S = build_seidel(make_field(5))
    dense = S.dense.copy()
    wrong = plane_symmetry(-critical_angle(S.k))
    dense[0:2, 2:4] = wrong
    dense[2:4, 0:2] = wrong
    bad = SeidelMatrix(k=3, dense=dense)
    assert seidel_square_residual(bad) >= 0.1


def test_rotation_sum_vanishes_at_critical_angle():
    for p, alpha in [(5, 1), (3, 2), (13, 1)]:
        f = make_field(p, alpha)
        theta = critical_angle((f.q + 1) // 2)
        for b in f.elements[1:]:
            assert np.abs(rotation_sum(f, theta, b)).max() <= 1e-10


def test_rotation_sum_at_zero_angle_counts_terms():
    f = make_field(5)
    assert np.array_equal(rotation_sum(f, 0.0, f.element(1)), 3.0 * np.eye(2))


def test_rotation_sum_matches_scalar_formula():
    # the sum is (k - 2 + (k - 1) cos(2 theta)) I for every nonzero shift
    f = make_field(3, 2)
    k = 5
    for theta in (0.7, 1.3):
        expected = (k - 2 + (k - 1) * math.cos(2 * theta)) * np.eye(2)
        for b in f.elements[1:]:
            assert np.abs(rotation_sum(f, theta, b) - expected).max() <= 1e-12


def test_rotation_sum_rejects_zero_shift():
    f = make_field(5)
    with pytest.raises(InvalidShift):
        rotation_sum(f, 0.5, f.zero)


def test_spectrum_k3():
    S = build_seidel(make_field(5))
    pairs = spectrum(S)
    assert pairs == [(2.0, 5), (-2.0, 5)]


@pytest.mark.parametrize("p,alpha", [(3, 2), (13, 1), (5, 2)])
def test_spectrum_multiplicities(p, alpha):
    q = p**alpha
    S = build_seidel(make_field(p, alpha))
    pairs = spectrum(S)
    mu = math.sqrt(2 * S.k - 2)
    assert [v for v, _ in pairs] == [mu, -mu]
    assert [m for _, m in pairs] == [q, q]


def test_spectrum_rejects_non_involutory():
    S = build_seidel(make_field(5))
    dense = S.dense.copy()
    dense[0, 2] += 0.5
    dense[2, 0] += 0.5
    with pytest.raises(NotInvolutory):
        spectrum(SeidelMatrix(k=3, dense=dense))


def test_normalize_first_block_row_and_column():
    for p, alpha in [(5, 1), (3, 2)]:
        S = build_seidel(make_field(p, alpha))
        N = normalize(S)
        eye = np.eye(2)
        for j in range(1, S.q):
            assert np.abs(N.block(0, j) - eye).max() <= 1e-14
            assert np.abs(N.block(j, 0) - eye).max() <= 1e-14
        assert np.abs(N.dense - N.dense.T).max() <= 1e-14
        assert seidel_square_residual(N) <= 1e-11
        assert spectrum(N) == spectrum(S)
        again = normalize(N)
        assert np.abs(again.dense - N.dense).max() <= 1e-12


def test_transport_scaling_is_orthogonal_conjugation():
    S = build_seidel(make_field(3, 2))
    moved = transport_scaling(S, 4, 1.1)
    assert seidel_square_residual(moved) <= 1e-11
    assert np.abs(moved.dense - moved.dense.T).max() <= 1e-14
    untouched = transport_scaling(S, 4, 0.0)
    assert np.array_equal(untouched.dense, S.dense)
    with pytest.raises(IndexError):
        transport_scaling(S, 9, 0.3)


def test_transport_matches_conference_scaling():
    # scaling a conference row/column by e^(i eta) maps, block-wise, to the
    # rotation transport with parameter 2 eta: each touched reflection gains
    # the full phase eta while r_{eta} acts from one side only
    for p, alpha in [(5, 1), (3, 2)]:
        f = make_field(p, alpha)
        k = (f.q + 1) // 2
        C = build_conference(f, critical_omega(k))
        S = build_seidel(f)
        for index, eta in [(0, 0.37), (2, -1.2), (f.q - 1, 2.9)]:
            left = from_conference(scale_row_col(C, index, cmath.exp(1j * eta)))
            right = transport_scaling(S, index, 2.0 * eta)
            assert np.abs(left.dense - right.dense).max() <= 1e-12


def test_from_conference_matches_build():
    for p, alpha in [(5, 1), (3, 2)]:
        f = make_field(p, alpha)
        C = build_conference(f, critical_omega((f.q + 1) // 2))
        assert np.abs(from_conference(C).dense - build_seidel(f).dense).max() <= 1e-14


def test_from_conference_accepts_scaled_input():
    f = make_field(5)
    C = scale_row_col(build_conference(f, critical_omega(3)), 1, cmath.exp(0.9j))
    S = from_conference(C)
    assert seidel_square_residual(S) <= 1e-11


def test_from_conference_rejects_non_unimodular():
    from isoclinic import ConferenceMatrix

    C = build_conference(make_field(5), critical_omega(3))
    values = C.values.copy()
    values[0, 1] *= 2.0
    bad = ConferenceMatrix(k=3, exponents=None, values=values)
    with pytest.raises(NotUnimodular):
        from_conference(bad)


def test_permute_blocks_functorial():
    rng = np.random.default_rng(23)
    f = make_field(3, 2)
    C = build_conference(f, critical_omega(5))
    sigma = rng.permutation(9).tolist()
    left = from_conference(permute(C, sigma))
    right = permute_blocks(from_conference(C), sigma)
    assert np.abs(left.dense - right.dense).max() == 0.0


# dense and copy-based forms of the block operations, kept as oracles for the
# block-view code in seidel.py


def reference_reflection_blocks(ang):
    """Fill a (q, q, 2, 2) block array from q^2 cos and sin calls, then copy it into the interleaved dense layout."""
    q = ang.shape[0]
    c, s = np.cos(ang), np.sin(ang)
    blocks = np.empty((q, q, 2, 2))
    blocks[..., 0, 0] = c
    blocks[..., 0, 1] = s
    blocks[..., 1, 0] = s
    blocks[..., 1, 1] = -c
    idx = np.arange(q)
    blocks[idx, idx] = 0.0
    return blocks.swapaxes(1, 2).reshape(2 * q, 2 * q)


def reference_normalize(S):
    """Q S Q^T with the dense block-diagonal Q = diag(I, S[0, 1], ..., S[0, q-1])."""
    n = 2 * S.q
    Q = np.zeros((n, n))
    Q[0:2, 0:2] = np.eye(2)
    for j in range(1, S.q):
        Q[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = S.block(0, j)
    return Q @ S.dense @ Q.T


def reference_transport_scaling(S, index, eta):
    """Q S Q^T with the dense Q equal to I except r_{eta/2} at block (index, index)."""
    Q = np.eye(2 * S.q)
    Q[2 * index : 2 * index + 2, 2 * index : 2 * index + 2] = plane_rotation(eta / 2.0)
    return Q @ S.dense @ Q.T


def reference_permute_blocks(S, sigma):
    q = S.q
    pair = np.arange(2)
    b = S.dense.reshape(q, 2, q, 2)
    return b[np.ix_(np.asarray(sigma), pair, np.asarray(sigma), pair)].reshape(2 * q, 2 * q)


BLOCK_FIELDS = [(5, 1), (3, 2), (13, 1), (5, 2), (3, 4), (5, 3)]


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("p,alpha", BLOCK_FIELDS)
def test_block_fill_matches_copy_reference_bitwise(p, alpha):
    f = make_field(p, alpha)
    S = build_seidel(f)
    assert np.array_equal(bits(S.dense), bits(reference_reflection_blocks(critical_angle(S.k) * f.chi_differences())))
    C = scale_row_col(build_conference(f, critical_omega(S.k)), 1, cmath.exp(0.9j))
    ang = np.angle(C.values)
    assert np.array_equal(bits(from_conference(C).dense), bits(reference_reflection_blocks(ang)))


@pytest.mark.parametrize("p,alpha", BLOCK_FIELDS)
def test_block_operations_match_dense_references(p, alpha):
    S = build_seidel(make_field(p, alpha))
    q = S.q
    sigma = np.random.default_rng(q).permutation(q)
    permuted = permute_blocks(S, sigma)
    assert np.array_equal(permuted.dense, reference_permute_blocks(S, sigma))
    for T in (S, permuted, transport_scaling(S, 0, 0.8)):
        assert np.abs(normalize(T).dense - reference_normalize(T)).max() <= 1e-15
    for index, eta in [(0, 0.37), (q // 2, -1.2), (q - 1, 2.9)]:
        moved = transport_scaling(S, index, eta).dense
        assert np.abs(moved - reference_transport_scaling(S, index, eta)).max() <= 1e-15
        assert np.array_equal(transport_scaling(S, index, 0.0).dense, S.dense)


def test_transport_scaling_rewrites_only_its_block_row_and_column():
    S = build_seidel(make_field(3, 2))
    index = 4
    moved = transport_scaling(S, index, 1.1)
    outside = np.ones((S.q, S.q), dtype=bool)
    outside[index] = False
    outside[:, index] = False
    assert np.array_equal(bits(moved.blocks[outside]), bits(S.blocks[outside]))
    assert not np.array_equal(moved.blocks[index, index + 1], S.blocks[index, index + 1])
    assert not np.array_equal(moved.blocks[index + 1, index], S.blocks[index + 1, index])
    # the index is taken as a Python slice bound
    assert np.array_equal(transport_scaling(S, True, 0.4).dense, transport_scaling(S, 1, 0.4).dense)
    with pytest.raises(TypeError):
        transport_scaling(S, 1.5, 0.4)


def test_build_seidel_peak_memory_at_q729():
    # the result is one 2q x 2q array (17 MB); filling a block array and
    # copying it into the dense layout would hold two at once
    f = make_field(3, 6)
    f.chi_differences()
    dense_bytes = 8 * (2 * f.q) ** 2
    tracemalloc.start()
    try:
        build_seidel(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * dense_bytes, f"peak {peak / 2**20:.1f} MB"


FAST_PATH_FIELDS = [(5, 1), (3, 2), (13, 1), (5, 2), (3, 4), (5, 3)]


def rotate_block(S, phi=0.01):
    """S with its (0, 1) block pair turned by phi; symmetric, zero diagonal blocks, no longer S^2 = mu^2 I."""
    dense = S.dense.copy()
    angle = math.atan2(dense[0, 3], dense[0, 2]) + phi
    dense[0:2, 2:4] = plane_symmetry(angle)
    dense[2:4, 0:2] = plane_symmetry(angle).T
    return SeidelMatrix(k=S.k, dense=dense)


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_spectrum_transform_matches_trace_path(p, alpha):
    S = build_seidel(make_field(p, alpha))
    transform = planes._character_transform(S)
    assert transform is not None
    table, vals, _ = transform
    m = (S.q + 1) // 2
    assert vals.shape == (m, 2) and table.shape == (S.q, S.q)
    mu = math.sqrt(2 * S.k - 2)
    assert np.abs(np.abs(vals) - mu).max() <= 1e-12
    # g^(0) = diag(mu, -mu); row 0 of the table, b = 0, is a row of ones
    assert np.array_equal(table[0], np.ones(S.q))
    assert np.abs(table[0] @ S.blocks[:, 0].reshape(S.q, 4) - [mu, 0.0, 0.0, -mu]).max() <= 1e-12
    assert spectrum(S) == [(mu, S.q), (-mu, S.q)]


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_spectrum_falls_back_when_not_group_developed(p, alpha):
    S = build_seidel(make_field(p, alpha))
    sigma = np.random.default_rng(S.q).permutation(S.q)
    mu = math.sqrt(2 * S.k - 2)
    for T in (normalize(S), permute_blocks(S, sigma)):
        assert planes._character_transform(T) is None
        assert spectrum(T) == [(mu, S.q), (-mu, S.q)]
    rotated = rotate_block(S)
    assert planes._character_transform(rotated) is None
    with pytest.raises(NotInvolutory):
        spectrum(rotated)


def test_involution_guard_rejects_a_group_developed_non_involution():
    # 1.01 S keeps the group-developed form, but every eigenvalue is 1.01 mu
    S = build_seidel(make_field(3, 2))
    scaled = SeidelMatrix(k=S.k, dense=1.01 * S.dense)
    for check in (spectrum, planes_from_seidel, build_gram):
        with pytest.raises(NotInvolutory, match="S\\^2"):
            check(scaled)
    # the transform only computes the blocks; the verdict is the guard's
    transform = planes._character_transform(scaled)
    assert transform is not None
    assert np.abs(np.abs(transform[1]) - 1.01 * math.sqrt(2 * S.k - 2)).max() <= 1e-12


def test_spectrum_and_planes_accept_a_valid_matrix_at_q_1889():
    # the transform blocks of this S read |lambda^2 - mu^2| above 1e-10, the roundoff of their
    # q-term sums, while its S^2 residual is about 5e-13: only the S^2 residual is gated
    S = build_seidel(make_field(1889))
    mu = math.sqrt(2 * S.k - 2)
    assert seidel_square_residual(S) <= 1e-11
    assert spectrum(S) == [(mu, S.q), (-mu, S.q)]
    pt = planes_from_seidel(S)
    assert (pt.r, pt.n) == (S.q, S.q)


def test_transform_needs_a_prime_power_order_and_a_matching_shape():
    assert planes._character_transform(SeidelMatrix(k=3, dense=np.zeros((12, 12)))) is None


def reference_square_residual(S):
    """The full 2q x 2q product S^2; an oracle for the block-row residual."""
    return float(np.abs(S.dense @ S.dense - (2 * S.k - 2) * np.eye(2 * S.q)).max())


def turn_difference_class(f, S, phi=0.01):
    """S with every block at a_i - a_j in {x, -x}, x = a_1, turned by phi: still block group-developed.

    g(x) = g(-x) for q = 1 (mod 4), so the class shares one reflection s_a,
    replaced by s_(a + phi).
    """
    sub = f.digit_differences()
    dense = S.dense.copy()
    blocks = seidel._blocks(dense)
    angle = math.atan2(blocks[1, 0, 0, 1], blocks[1, 0, 0, 0]) + phi
    blocks[(sub == 1) | (sub == sub[0, 1])] = plane_symmetry(angle)
    return SeidelMatrix(k=S.k, dense=dense)


def swap_one_and_two(q):
    """The transposition of the indices 1 and 2; not affine, as an additive map that fixes 0, a_3, ..., a_(q-1) is the identity."""
    return [0, 2, 1] + list(range(3, q))


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_block_row_square_residual_matches_full_product(p, alpha):
    f = make_field(p, alpha)
    S = build_seidel(f)
    entries = S.block_column
    assert entries is not None and entries.shape == (2, 2, S.q)
    assert np.array_equal(entries.transpose(2, 0, 1), S.blocks[:, 0])
    fast, dense = seidel_square_residual(S), reference_square_residual(S)
    assert fast <= 1e-11
    assert abs(fast - dense) <= 1e-12


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_block_row_square_residual_rejects_a_turned_difference_class(p, alpha):
    f = make_field(p, alpha)
    bad = turn_difference_class(f, build_seidel(f))
    assert bad.block_column is not None
    fast, dense = seidel_square_residual(bad), reference_square_residual(bad)
    assert fast > 1e-3 and dense > 1e-3
    assert abs(fast - dense) <= 1e-12
    with pytest.raises(NotInvolutory):
        spectrum(bad)


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_square_residual_is_the_full_product_off_the_developed_form(p, alpha):
    f = make_field(p, alpha)
    S = build_seidel(f)
    for T in (normalize(S), permute_blocks(S, swap_one_and_two(S.q)), rotate_block(S)):
        assert T.block_column is None
        assert seidel_square_residual(T) == reference_square_residual(T)
    # an affine relabelling x -> g x + 1 keeps the form
    sigma = [f.index(f.add(f.mul(a, f.first_nonsquare()), f.one)) for a in f.elements]
    assert permute_blocks(S, sigma).block_column is not None


class MatmulShapes(np.ndarray):
    """An array that appends the operand shapes of every matmul it enters to `shapes`."""

    shapes: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.shapes.append(tuple(x.shape for x in inputs))
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_square_residual_reads_two_rows_of_a_group_developed_s(monkeypatch, p, alpha):
    S = build_seidel(make_field(p, alpha))
    n = 2 * S.q
    shapes = []
    monkeypatch.setattr(MatmulShapes, "shapes", shapes)
    for T in (S, normalize(S)):
        seidel._square_residual(SeidelMatrix(k=T.k, dense=T.dense.view(MatmulShapes)))
    assert shapes == [((2, n), (n, n)), ((n, n), (n, n))]


def test_spectrum_rejects_a_nan_entry():
    # the trace ignores an off-diagonal nan, so only the S^2 guard can catch it
    S = build_seidel(make_field(5))
    dense = S.dense.copy()
    dense[0, 2] = dense[2, 0] = math.nan
    S = SeidelMatrix(k=S.k, dense=dense)
    assert S.block_column is None
    with np.errstate(invalid="ignore"):
        with pytest.raises(NotInvolutory, match="S\\^2"):
            spectrum(S)


def test_trace_guard_rejects_a_nan_or_fractional_trace(monkeypatch):
    # past the S^2 guard, a trace that is nan or not an integer must raise NotInvolutory
    S = build_seidel(make_field(5))
    monkeypatch.setattr(seidel, "seidel_square_residual", lambda S: 0.0)
    for value in (math.nan, 0.5):
        dense = S.dense.copy()
        dense[0, 0] = value
        with pytest.raises(NotInvolutory, match="projector trace"):
            spectrum(SeidelMatrix(k=S.k, dense=dense))


def test_involution_guard_rejects_infinite_blocks():
    # infinite blocks on one difference class keep the form, and make the S^2 residual nan
    f = make_field(5)
    S = build_seidel(f)
    sub = f.digit_differences()
    dense = S.dense.copy()
    seidel._blocks(dense)[(sub == 1) | (sub == sub[0, 1])] *= math.inf
    inf = SeidelMatrix(k=S.k, dense=dense)
    assert inf.block_column is not None
    with np.errstate(invalid="ignore"):
        with pytest.raises(NotInvolutory, match="S\\^2"):
            spectrum(inf)


def test_from_conference_rejects_a_nan_entry():
    C = build_conference(make_field(5), critical_omega(3))
    values = C.values.copy()
    values[0, 1] = values[1, 0] = complex(math.nan, 0.0)
    with pytest.raises(NotUnimodular):
        from_conference(replace(C, exponents=None, values=values))


def test_a_seidel_matrix_reads_its_order_from_its_array():
    # the order q = 6 comes with the 12 x 12 array, so the S^2 check reads 12 x 12 products
    S = build_seidel(make_field(5))
    other = replace(S, dense=np.zeros((12, 12)))
    assert other.q == 6 and seidel_square_residual(other) == 4.0
    with pytest.raises(NotInvolutory):
        spectrum(other)
    with pytest.raises(TypeError):
        SeidelMatrix(q=6, k=3, dense=S.dense)  # an order that could disagree with the array is no field


def test_an_empty_seidel_matrix_is_refused():
    # order 0 is square and even, but every residual would reduce an empty array
    with pytest.raises(InvalidOrder):
        SeidelMatrix(k=3, dense=np.zeros((0, 0)))


def test_a_seidel_matrix_must_be_square_of_even_order():
    S = build_seidel(make_field(5))
    for dense in (S.dense[:9, :9], S.dense[:, :8], S.dense[0], S.dense[None]):
        with pytest.raises(InvalidOrder):
            SeidelMatrix(k=3, dense=dense)
    with pytest.raises(InvalidOrder):
        replace(S, dense=S.dense[:9, :9])


def test_a_seidel_matrix_below_k_3_is_refused():
    # mu = sqrt(2k - 2) divides in spectrum and in the plane extraction, so k < 3 is refused at construction
    for k in (1, 2, 0, -3):
        with pytest.raises(InvalidOrder, match="k >= 3"):
            SeidelMatrix(k=k, dense=np.zeros((2, 2)))
    S = build_seidel(make_field(5))
    for k in (1, 2):
        with pytest.raises(InvalidOrder, match="k >= 3"):
            replace(S, k=k)
    assert replace(S, k=4).k == 4  # a k the array disagrees with is the checks' to find, not the constructor's

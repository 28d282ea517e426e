"""Order doubling to complex Hadamard matrices."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from isoclinic import (
    ConferenceMatrix,
    HadamardMatrix,
    InvalidOrder,
    NotConference,
    build_conference,
    critical_omega,
    double,
    hadamard_residual,
    make_field,
    scale_row_col,
)
from isoclinic import conference, hadamard


def test_double_q5_structure():
    f = make_field(5)
    C = build_conference(f, critical_omega(3))
    H = double(C)
    assert H.n2 == 10
    eye = np.eye(5)
    assert np.array_equal(H.values[:5, :5], C.values + eye)
    assert np.array_equal(H.values[:5, 5:], C.values.conj() - eye)
    assert np.array_equal(H.values[5:, :5], C.values - eye)
    assert np.array_equal(H.values[5:, 5:], -C.values.conj() - eye)
    assert np.abs(np.abs(H.values) - 1.0).max() <= 1e-12
    assert np.abs(H.values @ H.values.conj().T - 10.0 * np.eye(10)).max() <= 1e-12


@pytest.mark.parametrize("p,alpha", [(5, 1), (3, 2), (13, 1), (5, 2)])
def test_double_residuals(p, alpha):
    q = p**alpha
    C = build_conference(make_field(p, alpha), critical_omega((q + 1) // 2))
    H = double(C)
    assert H.n2 == 2 * q
    assert hadamard_residual(H) <= 1e-9


def test_double_rejects_non_conference_input():
    # omega = 1 has residual 3, far above the 1e-10 gate
    C = build_conference(make_field(5), 1.0)
    with pytest.raises(NotConference):
        double(C)


def test_entrywise_conjugate_equals_conjugate_transpose():
    # C is symmetric, so the two notions of C* coincide; doubling uses the
    # entrywise form and must agree with the transpose form exactly
    C = build_conference(make_field(3, 2), critical_omega(5))
    assert np.array_equal(C.values.conj(), C.values.conj().T)
    eye = np.eye(C.q)
    Vc = C.values.conj().T
    H_alt = np.block([[C.values + eye, Vc - eye], [C.values - eye, -Vc - eye]])
    assert np.array_equal(double(C).values, H_alt)


def test_residual_all_ones_order4():
    # J J* = 4 J; the max-abs deviation from 4 I sits off-diagonal and is 4
    H = HadamardMatrix(values=np.ones((4, 4), dtype=complex))
    assert hadamard_residual(H) == 4.0


def test_residual_order2_hadamard_is_zero():
    H = HadamardMatrix(values=np.array([[1, 1], [1, -1]], dtype=complex))
    assert hadamard_residual(H) == 0.0


FAST_PATH_FIELDS = [(5, 1), (3, 2), (13, 1), (5, 2), (3, 4), (5, 3)]


def _doubling(p, alpha):
    f = make_field(p, alpha)
    return double(build_conference(f, critical_omega((f.q + 1) // 2)))


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_doubling_form_residual_matches_dense(p, alpha):
    H = _doubling(p, alpha)
    q = H.n2 // 2
    C = hadamard._doubled(H.values)
    assert C is not None
    assert np.array_equal(C.values, H.values[q:, :q] + np.eye(q)) and C.exponents is None
    assert C.column is not None  # so the residual reads column 0 of C C* only
    fast, dense = hadamard_residual(H), hadamard._dense_residual(H)
    assert fast <= 1e-11
    assert abs(fast - dense) <= 1e-12
    assert abs(fast - reference_form_residual(H)) <= 1e-12


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_hadamard_residual_falls_back_off_the_doubling_form(p, alpha):
    H = _doubling(p, alpha)
    turned = H.values.copy()
    turned[0, 0] *= np.exp(0.01j)  # still unimodular
    T = HadamardMatrix(values=turned)
    assert hadamard._doubled(T.values) is None
    assert hadamard_residual(T) == hadamard._dense_residual(T) > 1e-3


def test_fourier_matrix_takes_the_dense_path():
    n = 26
    idx = np.arange(n)
    F = HadamardMatrix(values=np.exp(2j * np.pi * np.outer(idx, idx) / n))
    assert hadamard._doubled(F.values) is None
    assert hadamard_residual(F) == hadamard._dense_residual(F) <= 1e-12


def eye_dense_residual(H):
    """The dense residual with a 2q x 2q identity subtracted; an oracle for the in-place diagonal."""
    V = H.values
    return max(float(np.abs(np.abs(V) - 1.0).max()), float(np.abs(V @ V.conj().T - H.n2 * np.eye(H.n2)).max()))


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_dense_residual_matches_the_eye_reference_bit_for_bit(p, alpha):
    H = _doubling(p, alpha)
    q = H.n2 // 2
    swapped = np.concatenate([H.values[q:], H.values[:q]])  # the two block rows swapped
    turned = H.values.copy()
    turned[0, 0] *= np.exp(0.01j)
    for V in (np.ones((12, 12), dtype=complex), swapped, turned):
        T = HadamardMatrix(values=V)
        assert T.doubling_of is None
        assert hadamard._dense_residual(T).hex() == eye_dense_residual(T).hex()


def test_doubling_form_needs_a_zero_diagonal_and_a_symmetric_c():
    H = _doubling(5, 1)
    # a nonzero C[0, 0], then a C[0, 1] that differs from C[1, 0] and from the other three blocks
    for i, j, value in ((0, 0, 1.0 + 1e-15), (0, 1, 0.5 + 0.5j)):
        V = H.values.copy()
        V[i, j] = value
        assert hadamard._doubled(V) is None
    assert hadamard._doubled(H.values[:9, :9]) is None


def reference_block_double(V):
    """np.block over four q x q sums with a dense identity; an oracle for the in-place doubling."""
    eye = np.eye(V.shape[0])
    Vc = V.conj()
    return np.block([[V + eye, Vc - eye], [V - eye, -Vc - eye]])


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_double_matches_block_reference_bytewise(p, alpha):
    f = make_field(p, alpha)
    C = build_conference(f, critical_omega((f.q + 1) // 2))
    H = double(C).values
    assert H.dtype == np.complex128 and H.flags.c_contiguous
    assert H.tobytes() == reference_block_double(C.values).tobytes()


def test_double_keeps_the_signs_of_zero_of_the_block_sums():
    # [[0, 1], [1, 0]] is a conference matrix of order 2; its zero parts carry
    # both signs, which C + I, C~ - I, C - I and -C~ - I each treat their own way
    for zero in (0.0, -0.0):
        V = np.array([[complex(zero, zero), complex(1.0, -0.0)], [complex(1.0, -0.0), complex(-0.0, zero)]])
        C = ConferenceMatrix(k=2, exponents=None, values=V)
        assert double(C).values.tobytes() == reference_block_double(V).tobytes()


def reference_doubled(V, n2):
    """The form check with a dense identity and complex temporaries; an oracle for _doubled."""
    q, odd = divmod(n2, 2)
    if odd or V.shape != (n2, n2):
        return None
    eye = np.eye(q)
    C = V[:q, :q] - eye
    Cc = C.conj()
    form = (
        not C.diagonal().any()
        and np.array_equal(C, C.T)
        and np.array_equal(V[:q, q:], Cc - eye)
        and np.array_equal(V[q:, :q], C - eye)
        and np.array_equal(V[q:, q:], -Cc - eye)
    )
    return C if form else None


def reference_form_residual(H):
    """hadamard_residual through the full q x q product M = C C*; an oracle for the one-column read."""
    C = reference_doubled(H.values, H.n2)
    if C is None:
        return hadamard._dense_residual(H)
    q = H.n2 // 2
    unimod = float(np.abs(np.abs(H.values[:q, :q]) - 1.0).max())
    # M - (q-1) I, its diagonal read entry by entry as conference._gram_deviation reads it
    dev = C @ C.conj().T
    np.fill_diagonal(dev, (C.real * C.real + C.imag * C.imag - 1.0).sum(axis=1) + 1.0)
    real = 2.0 * float(np.abs(dev.real).max())
    imag = 2.0 * float(np.abs(dev.imag).max())
    return max(unimod, real, imag)


def scale_difference_class(f, V, factor=1.01):
    """V with every entry at a_i - a_j in {x, -x}, x = a_1, scaled: still group-developed and symmetric."""
    sub = f.digit_differences
    V = V.copy()
    V[(sub == 1) | (sub == sub[0, 1])] *= factor
    return V


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_row_residual_rejects_the_doubling_of_a_scaled_difference_class(p, alpha):
    f = make_field(p, alpha)
    C = build_conference(f, critical_omega((f.q + 1) // 2))
    H = HadamardMatrix(values=reference_block_double(scale_difference_class(f, C.values)))
    assert hadamard._doubled(H.values).column is not None
    fast, form, dense = hadamard_residual(H), reference_form_residual(H), hadamard._dense_residual(H)
    assert min(fast, form, dense) > 1e-3
    assert abs(fast - form) <= 1e-12 and abs(fast - dense) <= 1e-12


def whole_block_residual(H):
    """hadamard_residual with unimodularity read on the whole q x q block C + I; an oracle for the m-column read."""
    C = H.doubling_of
    q = H.n2 // 2
    dev = conference._gram_deviation(C)
    unimod = float(np.abs(np.abs(H.values[:q, :q]) - 1.0).max())
    return max(unimod, 2.0 * float(np.abs(dev.real).max()), 2.0 * float(np.abs(dev.imag).max()))


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_unimodularity_is_read_on_the_columns_of_the_deviation(p, alpha):
    f = make_field(p, alpha)
    C = build_conference(f, critical_omega((f.q + 1) // 2))
    scaled_class = HadamardMatrix(values=reference_block_double(scale_difference_class(f, C.values)))
    # group-developed, and not unimodular: |c| = 1.01 on one difference class
    assert scaled_class.doubling_of.column is not None
    assert hadamard_residual(scaled_class) > 1e-3
    for H in (double(C), double(scale_row_col(C, 3, 1j)), scaled_class):
        assert hadamard_residual(H) == whole_block_residual(H)


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_residual_is_the_full_product_off_the_developed_form(p, alpha):
    f = make_field(p, alpha)
    q = f.q
    C = build_conference(f, critical_omega((q + 1) // 2))
    scaled = double(scale_row_col(C, 3, 1j))
    assert hadamard._doubled(scaled.values).column is None
    assert hadamard_residual(scaled) == reference_form_residual(scaled) <= 1e-11
    # sqrt(q - 1) U for a random unitary U is not symmetric, so its doubling takes H H*
    rng = np.random.default_rng(q)
    U, _ = np.linalg.qr(rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)))
    forged = HadamardMatrix(values=reference_block_double(math.sqrt(q - 1) * U))
    assert hadamard._doubled(forged.values) is None
    assert hadamard_residual(forged) == hadamard._dense_residual(forged)


def _fuzz_values(z):
    """Replacements for the entry z: signed zeros, nan, its conjugate, a sign flip, 0, 1 and 1j."""
    return (
        complex(-0.0, z.imag),
        complex(z.real, -0.0),
        complex(-0.0, -0.0),
        complex(math.nan, 0.0),
        complex(z.real, math.nan),
        z.conjugate(),
        -z,
        complex(-z.real, z.imag),
        0.0,
        1.0,
        1j,
    )


def _same_verdict(V, n2):
    new, old = hadamard._doubled(V), reference_doubled(V, n2)
    assert (new is None) == (old is None)
    if new is not None:
        assert np.array_equal(new.values, old)
    return new is not None


def _set_c(V, q, r, c, v):
    """Write C[r, c] = v into all four blocks of the doubling V, as double would."""
    d = float(r == c)
    V[r, c] = v + d
    V[q + r, c] = v - d
    V[r, q + c] = np.conj(v) - d
    V[q + r, q + c] = -np.conj(v) - d


@pytest.mark.parametrize("p,alpha", [(5, 1), (3, 2), (13, 1)])
def test_doubled_matches_the_eye_reference_under_fuzz(p, alpha):
    H = _doubling(p, alpha).values
    n2 = H.shape[0]
    q = n2 // 2
    rng = np.random.default_rng(n2)
    accepted = 0
    for _ in range(400):
        i = int(rng.integers(n2))
        # one in four lands on a block diagonal, where the form wants +-1
        j = (i + q * int(rng.integers(2))) % n2 if rng.random() < 0.25 else int(rng.integers(n2))
        values = _fuzz_values(complex(H[i, j]))
        v = values[int(rng.integers(len(values)))]
        a, b = i % q, j % q
        V = H.copy()
        mode = rng.integers(6)
        if mode == 0:  # one entry of H
            V[i, j] = v
        elif mode == 1:  # a symmetric pair of H
            V[i, j] = V[j, i] = v
        elif mode == 2:  # C[a, b] = C[b, a] = v: the form holds unless v is nan or a = b and v != 0
            _set_c(V, q, a, b, v)
            _set_c(V, q, b, a, v)
        elif mode == 3:  # C[a, b] = v alone: C is no longer symmetric unless a = b
            _set_c(V, q, a, b, v)
        elif mode == 4:  # C[a, b] = v as the blocks V00 and V11 show it, but not V10 and V01
            d = float(a == b)
            V[a, b] = v + d
            V[q + a, q + b] = -np.conj(v) - d
        else:  # C[a, b] = v as the blocks V10 and V01 show it, but not V00 and V11
            d = float(a == b)
            V[q + a, b] = v - d
            V[a, q + b] = np.conj(v) - d
        accepted += _same_verdict(V, n2)
    assert 0 < accepted < 400
    assert _same_verdict(H, n2)


def test_doubled_matches_the_eye_reference_on_signed_zeros():
    # the order-2 conference matrix [[0, 1], [1, 0]] with every sign of zero in its parts;
    # off the diagonal, C is read from V10 = C - I, which keeps the signs of C
    for a in (0.0, -0.0):
        for b in (0.0, -0.0):
            C = np.array([[complex(a, b), complex(1.0, b)], [complex(1.0, a), complex(b, a)]])
            V = reference_block_double(C)
            assert _same_verdict(V, 4)
            np.fill_diagonal(C, 0.0)
            assert hadamard._doubled(V).values.tobytes() == C.tobytes()


def test_double_rejects_a_nan_entry():
    C = build_conference(make_field(5), critical_omega(3))
    values = C.values.copy()
    values[0, 1] = values[1, 0] = complex(math.nan, 0.0)
    with pytest.raises(NotConference):
        double(replace(C, exponents=None, values=values))


def test_a_hadamard_matrix_reads_its_order_from_its_array():
    # n2 = 12 comes with the 12 x 12 array: no doubling form, so the dense product of order 12
    H = _doubling(5, 1)
    other = replace(H, values=np.ones((12, 12), dtype=complex))
    assert other.n2 == 12 and other.doubling_of is None
    assert hadamard_residual(other) == 12.0  # every entry of J J* is 12
    odd = HadamardMatrix(values=np.ones((3, 3), dtype=complex))  # an odd order is allowed, and is no doubling
    assert odd.n2 == 3 and odd.doubling_of is None
    with pytest.raises(TypeError):
        HadamardMatrix(n2=12, values=H.values)  # an order that could disagree with the array is no field


def test_an_empty_hadamard_matrix_is_refused():
    # order 0 is square and even, but every residual would reduce an empty array
    with pytest.raises(InvalidOrder):
        HadamardMatrix(values=np.zeros((0, 0), dtype=complex))


def test_a_hadamard_matrix_must_be_square():
    H = _doubling(5, 1)
    for values in (H.values[:, :9], H.values[0], H.values[None]):
        with pytest.raises(InvalidOrder):
            HadamardMatrix(values=values)
    with pytest.raises(InvalidOrder):
        replace(H, values=H.values[:, :8])

"""Order doubling to complex Hadamard matrices."""

from __future__ import annotations

import numpy as np
import pytest

from isoclinic import (
    ConferenceMatrix,
    HadamardMatrix,
    NotConference,
    build_conference,
    critical_omega,
    double,
    hadamard_residual,
    make_field,
)
from isoclinic import hadamard


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
    H = HadamardMatrix(n2=4, values=np.ones((4, 4), dtype=complex))
    assert hadamard_residual(H) == 4.0


def test_residual_order2_hadamard_is_zero():
    H = HadamardMatrix(n2=2, values=np.array([[1, 1], [1, -1]], dtype=complex))
    assert hadamard_residual(H) == 0.0


FAST_PATH_FIELDS = [(5, 1), (3, 2), (13, 1), (5, 2), (3, 4), (5, 3)]


def _doubling(p, alpha):
    f = make_field(p, alpha)
    return double(build_conference(f, critical_omega((f.q + 1) // 2)))


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_doubling_form_residual_matches_dense(p, alpha):
    H = _doubling(p, alpha)
    C = hadamard._doubled(H.values, H.n2)
    assert C is not None
    assert np.array_equal(C, H.values[H.n2 // 2 :, : H.n2 // 2] + np.eye(H.n2 // 2))
    fast, dense = hadamard_residual(H), hadamard._dense_residual(H)
    assert fast <= 1e-11
    assert abs(fast - dense) <= 1e-12


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_hadamard_residual_falls_back_off_the_doubling_form(p, alpha):
    H = _doubling(p, alpha)
    turned = H.values.copy()
    turned[0, 0] *= np.exp(0.01j)  # still unimodular
    T = HadamardMatrix(n2=H.n2, values=turned)
    assert hadamard._doubled(T.values, T.n2) is None
    assert hadamard_residual(T) == hadamard._dense_residual(T) > 1e-3


def test_fourier_matrix_takes_the_dense_path():
    n = 26
    idx = np.arange(n)
    F = HadamardMatrix(n2=n, values=np.exp(2j * np.pi * np.outer(idx, idx) / n))
    assert hadamard._doubled(F.values, F.n2) is None
    assert hadamard_residual(F) == hadamard._dense_residual(F) <= 1e-12


def test_doubling_form_needs_a_zero_diagonal_and_a_symmetric_c():
    H = _doubling(5, 1)
    # a nonzero C[0, 0], then a C[0, 1] that differs from C[1, 0] and from the other three blocks
    for i, j, value in ((0, 0, 1.0 + 1e-15), (0, 1, 0.5 + 0.5j)):
        V = H.values.copy()
        V[i, j] = value
        assert hadamard._doubled(V, H.n2) is None
    assert hadamard._doubled(H.values, H.n2 + 2) is None
    assert hadamard._doubled(H.values[:9, :9], 9) is None


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
        C = ConferenceMatrix(q=2, k=2, omega=1.0, exponents=None, values=V)
        assert double(C).values.tobytes() == reference_block_double(V).tobytes()

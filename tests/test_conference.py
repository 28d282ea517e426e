"""Conference matrix construction, exact counting certificate, equivalences."""

from __future__ import annotations

import cmath
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from field_oracle import add, index
from isoclinic import (
    ConferenceMatrix,
    GaloisField,
    InvalidOrder,
    InvalidPermutation,
    NotSymmetrizable,
    NotUnimodular,
    WitnessMismatch,
    build_conference,
    build_seidel,
    conference_residual,
    critical_angle,
    critical_omega,
    equivalence_witnesses,
    gram_constant,
    make_field,
    permute,
    permute_blocks,
    scale_row_col,
    verify_counts,
)
from isoclinic import conference
from isoclinic.gf import developed_column

J = cmath.exp(2j * cmath.pi / 3)

# 5x5 matrix over the cube roots of unity, rows frozen as an oracle for the
# canonical construction over GF(5) with omega = J
DISPLAY_5 = np.array(
    [
        [0, J, J**2, J**2, J],
        [J, 0, J, J**2, J**2],
        [J**2, J, 0, J, J**2],
        [J**2, J**2, J, 0, J],
        [J, J**2, J**2, J, 0],
    ],
    dtype=complex,
)

# 9x9 sign pattern (+ for omega, - for 1/omega) frozen as an oracle for the
# construction over GF(9); equality holds after a vertex relabeling found by
# exhaustive backtracking
DISPLAY_9_SIGNS = [
    "0++++----",
    "+0--+++--",
    "+-0+-+-+-",
    "+-+0--+-+",
    "++--0--++",
    "-++--0++-",
    "-+-+-+0-+",
    "--+-++-0+",
    "---++-++0",
]


def brute_counts(exponents, i, j):
    """Independent recount of exponent differences over inner indices."""
    q = exponents.shape[0]
    r = s = t = 0
    for g in range(q):
        if g in (i, j):
            continue
        d = int(exponents[i, g]) - int(exponents[g, j])
        r += d == 0
        s += d == 2
        t += d == -2
    return (r, s, t)


def test_critical_omega_examples():
    w3 = critical_omega(3)
    assert abs(w3 - cmath.exp(1j * math.pi / 3)) < 1e-15
    assert abs(critical_angle(3) - math.pi / 3) < 1e-15
    assert abs((critical_omega(5) ** 2).real - (-0.75)) < 1e-12
    for k in (3, 5, 7, 13, 25, 51):
        w = critical_omega(k)
        assert abs((w * w).real - (2 - k) / (k - 1)) < 1e-12
        assert abs(abs(w) - 1.0) < 1e-15
        assert math.pi / 4 < critical_angle(k) <= math.pi / 2


def test_critical_omega_limit_and_errors():
    k = 10**6
    assert abs((critical_omega(k) ** 2).real + 1.0) < 1e-5
    assert critical_angle(k) <= math.pi / 2
    with pytest.raises(InvalidOrder):
        critical_omega(2)
    with pytest.raises(InvalidOrder):
        critical_angle(1)


def test_gram_constant():
    assert abs(gram_constant(3, J)) < 1e-12
    for k in (3, 5, 9, 25):
        assert gram_constant(k, 1.0) == 2 * k - 3
    assert gram_constant(5, 1j) == -1.0
    with pytest.raises(InvalidOrder):
        gram_constant(2, 1.0)


def test_gram_constant_full_identity_q9():
    # C C* = (2k-2-c) I + c J with c = -1 at omega = i, so C C* = 9 I - J
    f = make_field(3, 2)
    C = build_conference(f, 1j)
    gram = C.values @ C.values.conj().T
    expected = 9.0 * np.eye(9) - np.ones((9, 9))
    assert np.abs(gram - expected).max() < 1e-12


def test_build_with_omega_one_gives_j_minus_i():
    f = make_field(5)
    C = build_conference(f, 1.0)
    assert np.array_equal(C.values, np.ones((5, 5)) - np.eye(5))
    assert C.k == 3 and C.q == 5 and C.exponents is not None


def test_build_rejects_q_3_mod_4():
    with pytest.raises(NotSymmetrizable):
        build_conference(make_field(7), critical_omega(4))
    with pytest.raises(NotSymmetrizable):
        build_conference(make_field(3, 3), 1.0)


def test_build_rejects_non_unimodular_omega():
    with pytest.raises(NotUnimodular):
        build_conference(make_field(5), 0.5 + 0.5j)


def test_exponent_layer_well_formed():
    for p, alpha in [(5, 1), (3, 2), (13, 1)]:
        C = build_conference(make_field(p, alpha), critical_omega((p**alpha + 1) // 2))
        e = C.exponents
        assert np.array_equal(e, e.T)
        assert (np.diag(e) == 0).all()
        off = ~np.eye(C.q, dtype=bool)
        assert set(np.unique(e[off])) == {-1, 1}
        assert np.array_equal(C.values, C.values.T)
        assert (np.diag(C.values) == 0).all()


@pytest.mark.parametrize(
    "p,alpha,expected",
    [(5, 1, (1, 1, 1)), (3, 2, (3, 2, 2)), (13, 1, (5, 3, 3))],
)
def test_counts_frozen_and_brute_force(p, alpha, expected):
    q = p**alpha
    k = (q + 1) // 2
    C = build_conference(make_field(p, alpha), critical_omega(k))
    # the float64 counts are exact integers, so the cast to int64 loses nothing
    r, s, t = (counts.astype(np.int64) for counts in conference._exponent_counts(C, q))
    for i in range(q):
        for j in range(q):
            if i == j:
                continue
            triple = (int(r[i, j]), int(s[i, j]), int(t[i, j]))
            assert triple == expected
            assert triple == brute_counts(C.exponents, i, j)
            assert sum(triple) == q - 2
    assert verify_counts(C)
    assert expected == (k - 2, (k - 1) // 2, (k - 1) // 2)


def reference_gram_counts(C):
    """Counts from the q x q x q tensor diff[i, j, g] = E[i, g] - E[g, j].

    The inner indices g = i and g = j are excluded from every bucket by an
    out-of-band sentinel.  An oracle for the matrix-product counts.
    """
    e = C.exponents.astype(np.int16)
    q = C.q
    diff = e[:, None, :] - e.T[None, :, :]
    idx = np.arange(q)
    diff[idx, :, idx] = 99
    diff[:, idx, idx] = 99
    return (diff == 0).sum(axis=2), (diff == 2).sum(axis=2), (diff == -2).sum(axis=2)


def reference_verify_counts(C):
    off = ~np.eye(C.q, dtype=bool)
    half = (C.k - 1) // 2
    r, s, t = reference_gram_counts(C)
    return bool((r[off] == C.k - 2).all() and (s[off] == half).all() and (t[off] == half).all())


def _flip_pair(e):
    e = e.copy()
    e[0, 1] = e[1, 0] = -e[0, 1]
    return e


def _flip_one(e):
    e = e.copy()
    e[0, 1] = -e[0, 1]
    return e


@pytest.mark.parametrize("p,alpha", [(5, 1), (3, 2), (13, 1), (5, 2), (3, 4), (5, 3)])
def test_counts_match_tensor_reference(p, alpha):
    q = p**alpha
    C = build_conference(make_field(p, alpha), critical_omega((q + 1) // 2))
    off = ~np.eye(q, dtype=bool)
    for got, want in zip(conference._exponent_counts(C, q), reference_gram_counts(C)):
        assert np.array_equal(got[off], want[off])
    assert verify_counts(C) and reference_verify_counts(C)
    for corrupt in (_flip_pair, _flip_one):
        tampered = replace(C, exponents=corrupt(C.exponents))
        assert not verify_counts(tampered)
        assert not reference_verify_counts(tampered)


def test_counts_memory_at_q729():
    # a q^3 intermediate would take over a gigabyte here; a few q^2 arrays fit the bound
    C = build_conference(make_field(3, 6), critical_omega(365))
    tracemalloc.start()
    try:
        assert verify_counts(C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_counts_detect_flipped_exponent():
    C = build_conference(make_field(5), critical_omega(3))
    e = C.exponents.copy()
    e[0, 1] *= -1
    e[1, 0] *= -1
    from isoclinic import ConferenceMatrix

    values = C.values.copy()
    values[0, 1] = 1.0 / values[0, 1]
    values[1, 0] = 1.0 / values[1, 0]
    tampered = ConferenceMatrix(k=3, exponents=e, values=values)
    assert not verify_counts(tampered)
    assert brute_counts(e, 0, 2) != (1, 1, 1)


def test_counts_require_symbolic_layer():
    C = scale_row_col(build_conference(make_field(5), critical_omega(3)), 0, 1j)
    assert C.exponents is None
    with pytest.raises(ValueError, match="exponent layer absent"):
        verify_counts(C)


def test_residual_at_critical_omega():
    for p, alpha in [(5, 1), (3, 2)]:
        q = p**alpha
        C = build_conference(make_field(p, alpha), critical_omega((q + 1) // 2))
        assert conference_residual(C) <= 1e-12


def test_residual_at_omega_one_is_exactly_three():
    # C = J - I gives C C* = I + 3 J, so the max-abs deviation from 4 I is 3
    C = build_conference(make_field(5), 1.0)
    assert conference_residual(C) == 3.0


def test_gram_identity_random_omegas():
    rng = np.random.default_rng(7)
    for p, alpha in [(5, 1), (3, 2), (13, 1), (17, 1), (5, 2), (29, 1), (37, 1), (41, 1), (7, 2)]:
        q = p**alpha
        k = (q + 1) // 2
        f = make_field(p, alpha)
        eye, ones = np.eye(q), np.ones((q, q))
        for _ in range(5):
            w = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            C = build_conference(f, w)
            c = gram_constant(k, w)
            expected = (2 * k - 2 - c) * eye + c * ones
            assert np.abs(C.values @ C.values.conj().T - expected).max() <= 1e-10


def test_direct_character_sum():
    # sum over a not in {0, -b} of omega^(chi(a) - chi(a+b)) equals the
    # off-diagonal Gram constant, independent of b, with vanishing imag part
    rng = np.random.default_rng(11)
    for p, alpha in [(5, 1), (3, 2), (13, 1)]:
        f = make_field(p, alpha)
        q = f.q
        k = (q + 1) // 2
        omegas = [critical_omega(k)] + [
            cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(3)
        ]
        for w in omegas:
            for b in f.elements[1:]:
                total = 0j
                for a in f.elements:
                    if a == f.zero or add(f, a, b) == f.zero:
                        continue
                    total += w ** (f.chi(a) - f.chi(add(f, a, b)))
                c = gram_constant(k, w)
                assert abs(total - c) <= 1e-10
                assert abs(total.imag) <= 1e-10


def test_scaling_preserves_residual_and_drops_symbolic():
    rng = np.random.default_rng(3)
    C = build_conference(make_field(3, 2), critical_omega(5))
    base = conference_residual(C)
    scaled = C
    for _ in range(3):
        idx = int(rng.integers(0, 9))
        u = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        scaled = scale_row_col(scaled, idx, u)
    assert scaled.exponents is None
    assert abs(conference_residual(scaled) - base) <= 1e-12
    assert np.abs(scaled.values - scaled.values.T).max() <= 1e-15
    assert (np.diag(scaled.values) == 0).all()


def test_scale_row_col_requires_unit_scalar():
    C = build_conference(make_field(5), critical_omega(3))
    with pytest.raises(NotUnimodular):
        scale_row_col(C, 0, 2.0)


def test_permute_preserves_certificates():
    rng = np.random.default_rng(5)
    C = build_conference(make_field(13), critical_omega(7))
    sigma = rng.permutation(13).tolist()
    P = permute(C, sigma)
    assert verify_counts(P)
    assert abs(conference_residual(P) - conference_residual(C)) <= 1e-14


def test_permute_rejects_non_bijections():
    C = build_conference(make_field(5), critical_omega(3))
    with pytest.raises(InvalidPermutation):
        permute(C, [0, 1, 1, 3, 4])
    with pytest.raises(InvalidPermutation):
        permute(C, [0, 1, 2])


@pytest.mark.parametrize("sigma", [(0, 1.7, 2, 3, 4.2), (0, 1, 2, 3, 4.0), ("0", 1, 2, 3, 4), (True, 0, 2, 3, 4)])
def test_permutations_reject_non_integer_entries(sigma):
    # the conversion to an index array would truncate 1.7, parse "0" and read True as 1
    f = make_field(5)
    with pytest.raises(InvalidPermutation):
        permute(build_conference(f, critical_omega(3)), sigma)
    with pytest.raises(InvalidPermutation):
        permute_blocks(build_seidel(f), sigma)


def test_permutations_accept_numpy_integer_arrays():
    f = make_field(5)
    C, S = build_conference(f, critical_omega(3)), build_seidel(f)
    sigma = np.array([3, 0, 4, 1, 2], dtype=np.int64)
    assert np.array_equal(permute(C, sigma).values, permute(C, sigma.tolist()).values)
    assert np.array_equal(permute_blocks(S, sigma).dense, permute_blocks(S, sigma.tolist()).dense)


def test_order5_display_is_construction_at_omega_j():
    C = build_conference(make_field(5), J)
    assert np.abs(C.values - DISPLAY_5).max() <= 1e-13


def _find_block_permutation(E, T):
    n = T.shape[0]
    sigma = [-1] * n
    used = [False] * n

    def consistent(i, c):
        return all(
            T[i, j] == E[c, sigma[j]] and T[j, i] == E[sigma[j], c] for j in range(i)
        )

    def dfs(i):
        if i == n:
            return True
        for c in range(n):
            if not used[c] and consistent(i, c):
                sigma[i] = c
                used[c] = True
                if dfs(i + 1):
                    return True
                used[c] = False
        return False

    return tuple(sigma) if dfs(0) else None


def test_order9_display_matches_up_to_permutation():
    target = np.array(
        [[0 if c == "0" else (1 if c == "+" else -1) for c in row] for row in DISPLAY_9_SIGNS]
    )
    assert np.array_equal(target, target.T)
    f = make_field(3, 2)
    C = build_conference(f, critical_omega(5))
    sigma = _find_block_permutation(C.exponents, target)
    assert sigma is not None
    assert np.array_equal(C.exponents[np.ix_(sigma, sigma)], target)
    w = critical_omega(5)
    expected_values = np.where(target == 1, w, np.where(target == -1, 1 / w, 0))
    assert np.abs(permute(C, sigma).values - expected_values).max() <= 1e-12


def test_equivalence_witnesses():
    for p, alpha in [(5, 1), (3, 2), (13, 1)]:
        f = make_field(p, alpha)
        q = f.q
        k = (q + 1) // 2
        w = equivalence_witnesses(f)
        assert w.scalings == (1j,) * q
        # re-verify both witnesses here rather than trusting the constructor
        w0 = critical_omega(k)
        base = build_conference(f, w0)
        recip = build_conference(f, 1 / w0)
        assert np.abs(permute(recip, w.permutation).values - base.values).max() <= 1e-12
        negated = build_conference(f, -w0)
        assert np.abs(negated.values + base.values).max() <= 1e-15
        scaled = negated
        for i in range(q):
            scaled = scale_row_col(scaled, i, 1j)
        assert np.abs(scaled.values - base.values).max() <= 1e-12


def with_exponents(monkeypatch, E):
    """A fresh GF(5) whose chi_differences is E."""
    f = GaloisField(5)
    monkeypatch.setattr(f, "chi_differences", E)
    return f


@pytest.mark.parametrize("e", [0, 2, -2])
def test_equivalence_witnesses_reject_an_even_exponent_off_the_diagonal(monkeypatch, e):
    # i i (-omega0)^e = omega0^e only for odd e: the scaling identity needs E = +-1 off the diagonal
    E = make_field(5).chi_differences.copy()
    E[0, 1] = E[1, 0] = e
    with pytest.raises(WitnessMismatch, match="all-i scaling"):
        equivalence_witnesses(with_exponents(monkeypatch, E))


@pytest.mark.parametrize("e", [1, -1])
def test_equivalence_witnesses_reject_a_nonzero_diagonal(monkeypatch, e):
    E = make_field(5).chi_differences.copy()
    E[2, 2] = e
    # with a zero pair off the diagonal, E still holds q^2 - q entries of +-1
    swapped = E.copy()
    swapped[3, 3] = e
    swapped[0, 1] = swapped[1, 0] = 0
    for bad in (E, swapped):
        with pytest.raises(WitnessMismatch, match="all-i scaling"):
            equivalence_witnesses(with_exponents(monkeypatch, bad))


def test_equivalence_witnesses_check_the_permutation(monkeypatch):
    # g = 1 gives the identity permutation, which maps C(1/omega0) to itself,
    # not to C(omega0): the exact check E[sigma, sigma] = -E must fail
    f = GaloisField(5)
    monkeypatch.setattr(f, "first_nonsquare", lambda: f.one)
    with pytest.raises(WitnessMismatch, match="non-square permutation"):
        equivalence_witnesses(f)


def test_equivalence_witness_sigma_frozen_q5():
    # multiplication by the first non-square 2 maps indices 0..4 to (0,2,4,1,3)
    assert equivalence_witnesses(make_field(5)).permutation == (0, 2, 4, 1, 3)


def test_no_order3_conference_sample():
    rng = np.random.default_rng(17)
    for _ in range(200):
        a, b, c = (cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(3))
        C = np.array([[0, a, b], [a, 0, c], [b, c, 0]])
        gram = C @ C.conj().T
        assert abs(gram[0, 1]) >= 0.999999


FAST_PATH_FIELDS = [(5, 1), (3, 2), (13, 1), (5, 2), (3, 4), (5, 3)]


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_witness_sigma_matches_multiplication_loop(p, alpha):
    f = make_field(p, alpha)
    g = f.first_nonsquare()
    loop = tuple(index(f, f.mul(a, g)) for a in f.elements)
    sigma = equivalence_witnesses(f).permutation
    assert sigma == loop
    assert all(type(i) is int for i in sigma)


def float_scaling_holds(f):
    """The floating-point scaling check: all-i scaling of C(-omega0) equals C(omega0) within 1e-12."""
    omega0 = critical_omega((f.q + 1) // 2)
    base, negated = build_conference(f, omega0), build_conference(f, -omega0)
    scaled = 1j * negated.values * 1j  # row and column i each scaled by i; the diagonal stays zero
    return bool(np.abs(scaled - base.values).max() <= 1e-12)


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_scaling_identity_agrees_with_the_float_check(p, alpha):
    f = make_field(p, alpha)
    assert float_scaling_holds(f)
    assert equivalence_witnesses(f).scalings == (1j,) * f.q


@pytest.mark.parametrize("p,alpha", [(7, 1), (3, 3)] + FAST_PATH_FIELDS)
def test_equivalence_witnesses_build_no_conference_matrix(monkeypatch, p, alpha):
    built = []
    monkeypatch.setattr(conference, "build_conference", lambda *args: built.append(args))
    f = make_field(p, alpha)
    if f.q % 4 == 3:
        with pytest.raises(NotSymmetrizable):
            equivalence_witnesses(f)
    else:
        equivalence_witnesses(f)
    assert built == []


def rows_read(monkeypatch) -> list:
    """Patch conference._exponent_counts to append the number of rows m of every call to the returned list."""
    seen: list = []
    counts = conference._exponent_counts

    def recorded(C, m):
        seen.append(m)
        return counts(C, m)

    monkeypatch.setattr(conference, "_exponent_counts", recorded)
    return seen


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_row_counts_verdict_matches_gram_counts(monkeypatch, p, alpha):
    f = make_field(p, alpha)
    C = build_conference(f, critical_omega((f.q + 1) // 2))
    full, off = reference_gram_counts(C), ~np.eye(f.q, dtype=bool)
    for got, want in zip(conference._exponent_counts(C, 1), full):
        assert got.shape == (1, f.q) and np.array_equal(got[0, 1:], want[0, 1:])
    for got, want in zip(conference._exponent_counts(C, f.q), full):
        assert np.array_equal(got[off], want[off])
    # -E, the exponents of C(1/omega0), is group-developed too
    negated = replace(C, exponents=-C.exponents)
    rows = rows_read(monkeypatch)
    assert verify_counts(C) is reference_verify_counts(C) is True
    assert verify_counts(negated) is reference_verify_counts(negated) is True
    # verify_counts reads row 0 of a group-developed E; the reference reads the tensor and no row
    assert rows == [1, 1]


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_counts_fall_back_when_not_group_developed(monkeypatch, p, alpha):
    f = make_field(p, alpha)
    C = build_conference(f, critical_omega((f.q + 1) // 2))
    flipped = replace(C, exponents=_flip_pair(C.exponents))
    permuted = permute(C, np.random.default_rng(f.q).permutation(f.q))
    rows = rows_read(monkeypatch)
    for tampered, verdict in ((flipped, False), (permuted, True)):
        rows.clear()
        assert verify_counts(tampered) is verdict
        assert rows == [f.q]  # every row
        assert reference_verify_counts(tampered) is verdict


def test_row_counts_need_a_prime_power_order_and_a_matching_shape(monkeypatch):
    C = build_conference(make_field(5), critical_omega(3))
    rows = rows_read(monkeypatch)
    with pytest.raises(ValueError, match="exponent layer absent"):
        verify_counts(replace(C, exponents=None))
    for q in (6, 4):  # 6 is no prime power, 4 is even
        zeros = ConferenceMatrix(k=3, exponents=np.zeros((q, q), dtype=np.int8), values=np.zeros((q, q), complex))
        assert verify_counts(zeros) is False
    assert rows == [5, 6, 4]  # every row, the absent exponents included


def reference_mask_values(exponents, omega):
    """One masked assignment per exponent value; an oracle for the table lookup."""
    values = np.zeros(exponents.shape, dtype=np.complex128)
    values[exponents == 1] = omega
    values[exponents == -1] = 1.0 / omega
    return values


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_values_from_exponents_match_mask_reference_bytewise(p, alpha):
    f = make_field(p, alpha)
    k = (f.q + 1) // 2
    E = f.chi_differences
    for omega in (critical_omega(k), -critical_omega(k), 1j, cmath.exp(0.9j), 1.0):
        got = conference._values_from_exponents(E, omega)
        assert got.dtype == np.complex128
        assert got.tobytes() == reference_mask_values(E, omega).tobytes()
    C = build_conference(f, critical_omega(k))
    assert C.values.tobytes() == reference_mask_values(E, critical_omega(k)).tobytes()


def reference_conference_residual(C):
    """The full product C C*, its diagonal read entry by entry as _gram_deviation reads it; an oracle."""
    V = C.values
    dev = V @ V.conj().T
    np.fill_diagonal(dev, (V.real * V.real + V.imag * V.imag - 1.0).sum(axis=1) + 1.0)
    return float(np.abs(dev).max())


def scale_difference_class(f, V, factor=1.01):
    """V with every entry at a_i - a_j in {x, -x}, x = a_1, scaled: still group-developed and symmetric."""
    sub = f.digit_differences
    V = V.copy()
    V[(sub == 1) | (sub == sub[0, 1])] *= factor
    return V


def forged_conference(q, k, seed=0):
    """sqrt(q - 1) U for a random unitary U: C C* = (q - 1) I, but no structure at all."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)))
    return conference.ConferenceMatrix(k=k, exponents=None, values=math.sqrt(q - 1) * U)


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_row_residual_matches_full_product(p, alpha):
    f = make_field(p, alpha)
    k = (f.q + 1) // 2
    for omega in (critical_omega(k), 1.0, cmath.exp(0.9j)):
        C = build_conference(f, omega)
        assert developed_column(C.values) is not None
        fast, dense = conference_residual(C), reference_conference_residual(C)
        assert abs(fast - dense) <= 1e-12 * max(1.0, dense)
    assert conference_residual(build_conference(f, critical_omega(k))) <= 1e-11


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_row_residual_rejects_a_scaled_difference_class(p, alpha):
    f = make_field(p, alpha)
    C = build_conference(f, critical_omega((f.q + 1) // 2))
    bad = replace(C, exponents=None, values=scale_difference_class(f, C.values))
    assert developed_column(bad.values) is not None
    fast, dense = conference_residual(bad), reference_conference_residual(bad)
    assert fast > 1e-3 and dense > 1e-3
    assert abs(fast - dense) <= 1e-12


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_residual_is_the_full_product_off_the_developed_form(p, alpha):
    f = make_field(p, alpha)
    k = (f.q + 1) // 2
    C = build_conference(f, critical_omega(k))
    scaled = scale_row_col(C, 3, 1j)
    forged = forged_conference(f.q, k, seed=f.q)
    bad = replace(scaled, values=scale_difference_class(f, scaled.values))
    swapped = permute(C, [1, 0] + list(range(2, f.q)))  # not affine: it fixes a_2, ..., a_(q-1)
    for T in (scaled, forged, bad, swapped):
        assert developed_column(T.values) is None
        assert conference_residual(T) == reference_conference_residual(T)
    assert conference_residual(scaled) <= 1e-11 and conference_residual(forged) <= 1e-11
    assert conference_residual(bad) > 1e-3


@pytest.mark.parametrize("p,alpha", [(3, 6), (13, 3)])
def test_gram_diagonal_is_read_entry_by_entry(p, alpha):
    # the exact value of sum_j |c_0j|^2 - (q - 1) for the float C; a BLAS sum of |c|^2
    # minus q - 1 is off from it by about 2.6e-12 at q = 729 and 2.2e-11 at q = 2197
    f = make_field(p, alpha)
    C = build_conference(f, critical_omega((f.q + 1) // 2))
    row = C.values[0]
    exact = sum(Fraction(x) ** 2 for x in (*row.real.tolist(), *row.imag.tolist())) - (f.q - 1)
    dev = conference._gram_deviation(C)
    assert dev.shape == (f.q, 1)
    assert dev[0, 0].imag == 0.0
    assert abs(dev[0, 0].real - exact) <= 1e-14


@pytest.mark.parametrize("p,alpha", FAST_PATH_FIELDS)
def test_gram_deviation_reads_one_column_of_a_group_developed_c(p, alpha):
    f = make_field(p, alpha)
    C = build_conference(f, critical_omega((f.q + 1) // 2))
    scaled = scale_row_col(C, 3, 1j)
    assert conference._gram_deviation(C).shape == (f.q, 1)
    assert conference._gram_deviation(scaled).shape == (f.q, f.q)
    # the m of both reads is the kept form check: column 0 as a view, or None
    assert np.shares_memory(C.column, C.values) and np.array_equal(C.column, C.values[:, 0])
    assert scaled.column is None


def test_unit_gate_rejects_nan():
    f = make_field(5)
    for u in (complex(math.nan), complex(math.nan, 0.0), complex(1.0, math.nan), complex(math.inf)):
        with pytest.raises(NotUnimodular):
            build_conference(f, u)
        with pytest.raises(NotUnimodular):
            scale_row_col(build_conference(f, critical_omega(3)), 0, u)


def test_a_conference_matrix_reads_its_order_from_its_array():
    # the order q = 6 comes with the 6 x 6 array, so the residual reads 6 x 6 products
    C = build_conference(make_field(5), critical_omega(3))
    other = replace(C, exponents=None, values=np.zeros((6, 6), dtype=complex))
    assert other.q == 6 and conference_residual(other) == 5.0
    with pytest.raises(TypeError):
        ConferenceMatrix(q=6, k=3, exponents=None, values=C.values)  # an order that could disagree is no field


def test_a_conference_matrix_must_be_square_with_exponents_of_its_shape():
    C = build_conference(make_field(5), critical_omega(3))
    for values in (C.values[:, :4], C.values[0], C.values[None]):
        with pytest.raises(InvalidOrder):
            ConferenceMatrix(k=3, exponents=None, values=values)
    with pytest.raises(InvalidOrder):
        ConferenceMatrix(k=3, exponents=C.exponents[:4, :4], values=C.values)
    with pytest.raises(InvalidOrder):
        replace(C, values=C.values[:4, :4])  # the exponents keep their 5 x 5 shape


def test_an_empty_conference_matrix_is_refused():
    # order 0 is square, but every residual would reduce an empty array
    with pytest.raises(InvalidOrder):
        ConferenceMatrix(k=3, exponents=None, values=np.zeros((0, 0), dtype=complex))

"""Field arithmetic and quadratic character tests.

Brute-force oracles are reimplemented here independently of the package:
squares by exhaustive squaring, irreducibility by exhaustive factor search,
and element addition, negation, powers and inverses in field_oracle, so the
frozen constants below are cross-checked rather than copied.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_oracle import add, index, inv, neg, phase, power, sub
from isoclinic import (
    GaloisField,
    InvalidExponent,
    InvalidPrime,
    admissible_orders,
    build_conference,
    build_seidel,
    critical_omega,
    make_field,
    normalize,
    permute_blocks,
    scale_row_col,
)
from isoclinic import gf
from isoclinic.gf import developed_column, field_of_order

FIELDS = [make_field(5), make_field(13), make_field(3, 2), make_field(5, 2), make_field(3, 3)]


def brute_squares(field):
    return {field.mul(x, x) for x in field.elements if x != field.zero}


def brute_chi(field, x):
    if x == field.zero:
        return 0
    return 1 if x in brute_squares(field) else -1


def poly_rem_oracle(a, b, p):
    a = list(a)
    db = len(b) - 1
    for d in range(len(a) - 1, db - 1, -1):
        c = a[d]
        if c:
            for j in range(db + 1):
                a[d - db + j] = (a[d - db + j] - c * b[j]) % p
    return a


def monic_polys_oracle(deg, p):
    for i in range(p**deg):
        digits = []
        m = i
        for _ in range(deg):
            digits.append(m % p)
            m //= p
        yield tuple(digits) + (1,)


def is_irreducible_oracle(poly, p):
    deg = len(poly) - 1
    for m in range(1, deg // 2 + 1):
        for d in monic_polys_oracle(m, p):
            if not any(poly_rem_oracle(poly, d, p)[:m]):
                return False
    return True


def test_prime_field_basics():
    f = make_field(5)
    assert f.q == 5 and f.alpha == 1
    assert f.elements == ((0,), (1,), (2,), (3,), (4,))
    assert f.modulus == (0, 1)
    assert add(f, (2,), (3,)) == (0,)
    assert inv(f, (2,)) == (3,)
    assert f.mul((3,), (4,)) == (2,)
    assert neg(f, (2,)) == (3,)
    assert sub(f, (1,), (4,)) == (2,)


def test_gf9_modulus_and_arithmetic():
    f = make_field(3, 2)
    assert f.modulus == (1, 0, 1)  # x^2 + 1
    x = (0, 1)
    assert f.mul(x, x) == (2, 0)  # x^2 = -1
    assert f.elements[5] == (2, 1)  # base-3 digits of 5
    assert all(index(f, e) == i for i, e in enumerate(f.elements))


@pytest.mark.parametrize(
    "p,alpha,expected",
    [
        (3, 2, (1, 0, 1)),
        (5, 2, (2, 0, 1)),
        (7, 2, (1, 0, 1)),
        (3, 3, (1, 2, 0, 1)),
        (3, 4, (2, 1, 0, 0, 1)),
        # every extension field of the benchmark ladder and the CI pipelines: the modulus fixes E
        (5, 3, (1, 1, 0, 1)),
        (11, 2, (1, 0, 1)),
        (23, 2, (1, 0, 1)),
        (3, 6, (2, 1, 0, 0, 0, 0, 1)),
        (13, 3, (2, 0, 0, 1)),
        (5, 5, (1, 4, 0, 0, 0, 1)),
    ],
)
def test_modulus_is_first_irreducible(p, alpha, expected):
    f = make_field(p, alpha)
    assert f.modulus == expected
    # oracle: every earlier candidate in the enumeration has a factor,
    # and the chosen one has none
    seen_modulus = False
    for cand in monic_polys_oracle(alpha, p):
        if cand == f.modulus:
            assert is_irreducible_oracle(cand, p)
            seen_modulus = True
            break
        assert not is_irreducible_oracle(cand, p)
    assert seen_modulus


@pytest.mark.parametrize("p,alpha", [(3, 2), (5, 2), (3, 3), (3, 4)])
def test_all_nonzero_elements_invertible(p, alpha):
    # a reducible modulus would create zero divisors, so this certification
    # is an independent irreducibility check
    f = make_field(p, alpha)
    for x in f.elements[1:]:
        assert f.mul(x, inv(f, x)) == f.one


def test_field_errors():
    with pytest.raises(InvalidPrime):
        make_field(2)
    with pytest.raises(InvalidPrime):
        make_field(9)
    with pytest.raises(InvalidPrime):
        make_field(1)
    with pytest.raises(InvalidPrime):
        make_field(-5)
    with pytest.raises(InvalidExponent):
        make_field(5, 0)
    with pytest.raises(InvalidExponent):
        make_field(5, -2)


@settings(deadline=None, max_examples=200)
@given(
    fi=st.integers(0, len(FIELDS) - 1),
    i=st.integers(0, 3**3 - 1),
    j=st.integers(0, 3**3 - 1),
    m=st.integers(0, 3**3 - 1),
)
def test_field_axioms(fi, i, j, m):
    f = FIELDS[fi]
    x, y, z = (f.elements[v % f.q] for v in (i, j, m))
    assert add(f, x, y) == add(f, y, x)
    assert f.mul(x, y) == f.mul(y, x)
    assert add(f, add(f, x, y), z) == add(f, x, add(f, y, z))
    assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
    assert f.mul(x, add(f, y, z)) == add(f, f.mul(x, y), f.mul(x, z))
    assert sub(f, x, y) == add(f, x, neg(f, y))
    assert add(f, x, neg(f, x)) == f.zero
    assert f.mul(x, f.one) == x
    if x != f.zero:
        assert f.mul(x, inv(f, x)) == f.one


@pytest.mark.parametrize("p,alpha", [(5, 1), (13, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_chi_matches_brute_force(p, alpha):
    f = make_field(p, alpha)
    for x in f.elements:
        assert f.chi(x) == brute_chi(f, x)


@pytest.mark.parametrize("p,alpha", [(13, 1), (3, 2), (5, 2)])
def test_chi_multiplicative(p, alpha):
    f = make_field(p, alpha)
    nonzero = f.elements[1:]
    for x in nonzero:
        for y in nonzero:
            assert f.chi(f.mul(x, y)) == f.chi(x) * f.chi(y)
        assert f.chi(inv(f, x)) == f.chi(x)


@pytest.mark.parametrize("p,alpha", [(5, 1), (7, 1), (13, 1), (3, 2), (5, 2), (3, 3)])
def test_chi_balance(p, alpha):
    f = make_field(p, alpha)
    assert sum(f.chi(x) for x in f.elements) == 0


@pytest.mark.parametrize("p,alpha", [(5, 1), (3, 2), (13, 1), (5, 2), (3, 4), (5, 3), (7, 1), (3, 3)])
def test_chi_differences_matches_scalar_chi(p, alpha):
    f = make_field(p, alpha)
    E = f.chi_differences
    assert E.dtype == np.int8 and E.shape == (f.q, f.q)
    expected = [[f.chi(sub(f, a, b)) for b in f.elements] for a in f.elements]
    assert np.array_equal(E, np.array(expected))
    # even character for q = 1 (mod 4), odd for q = 3 (mod 4)
    sign = 1 if f.q % 4 == 1 else -1
    assert np.array_equal(E.T, sign * E)


def test_chi_parity_of_minus_one():
    # chi is even exactly when q = 1 (mod 4)
    for p, alpha in [(5, 1), (13, 1), (3, 2), (5, 2)]:
        f = make_field(p, alpha)
        assert f.q % 4 == 1
        for x in f.elements:
            assert f.chi(neg(f, x)) == f.chi(x)
    for p, alpha in [(7, 1), (3, 3)]:
        f = make_field(p, alpha)
        assert f.q % 4 == 3
        assert f.chi(neg(f, f.one)) == -1


def test_first_nonsquare_frozen_values():
    # cross-checked against the exhaustive-squares oracle below
    assert make_field(5).first_nonsquare() == (2,)
    assert make_field(13).first_nonsquare() == (2,)
    # in GF(9) with modulus x^2 + 1, x itself is a square: (2 + x)^2 = x;
    # the first non-square in canonical order is 1 + x
    assert make_field(3, 2).first_nonsquare() == (1, 1)


@pytest.mark.parametrize("p,alpha", [(5, 1), (13, 1), (3, 2), (5, 2), (3, 4)])
def test_first_nonsquare_oracle(p, alpha):
    f = make_field(p, alpha)
    squares = brute_squares(f)
    expected = next(x for x in f.elements if x != f.zero and x not in squares)
    got = f.first_nonsquare()
    assert got == expected
    assert f.chi(got) == -1


def test_make_field_caches():
    assert make_field(5) is make_field(5)


def test_chi_differences_is_shared_and_read_only():
    f = make_field(5, 2)
    E = f.chi_differences
    assert f.chi_differences is E
    assert not E.flags.writeable
    with pytest.raises(ValueError):
        E[0, 1] = 0
    # each conference matrix gets its own writable copy
    C = build_conference(f, critical_omega(13))
    assert C.exponents.flags.writeable
    assert not np.shares_memory(C.exponents, E)
    assert np.array_equal(C.exponents, E)


def test_field_accepts_only_odd_primes():
    # primality comes from the prime-power factorization of p
    for p in (3, 5, 7, 11, 13, 97, 7919):
        assert GaloisField(p).q == p
    for p in (4, 15, 25, 27, 7917, 5.0, True):
        with pytest.raises(InvalidPrime):
            GaloisField(p)


def reference_chi_table(field):
    """Euler's criterion element by element, x^((q-1)/2); an oracle for the square-marking table."""
    e = (field.q - 1) // 2
    table = []
    for x in field.elements:
        if x == field.zero:
            table.append(0)
        else:
            table.append(1 if power(field, x, e) == field.one else -1)
    return tuple(table)


@pytest.mark.parametrize(
    "p,alpha",
    # (3, 6) and (13, 3) are the fields of the q = 729 and q = 2197 pipelines
    sorted({(f.p, f.alpha) for f in FIELDS} | {(7, 1), (7, 2), (3, 4), (5, 3), (3, 5), (11, 2), (7, 3), (3, 6), (13, 3)}),
)
def test_chi_table_matches_euler_criterion(p, alpha):
    f = make_field(p, alpha)
    table = f._chi_table
    assert type(table) is tuple and all(type(t) is int for t in table)
    assert table == reference_chi_table(f)
    assert tuple(f.chi(x) for x in f.elements) == table


@pytest.mark.parametrize(
    "p,alpha", [(5, 1), (3, 2), (13, 1), (5, 2), (3, 4), (5, 3), (7, 1), (3, 3), (251, 1), (257, 1)]
)
def test_digit_differences_index_the_difference(p, alpha):
    f = make_field(p, alpha)
    differences = f.digit_differences
    assert differences.shape == (f.q, f.q)
    assert differences.dtype == np.min_scalar_type(f.q - 1) and differences.dtype.itemsize < 8
    if f.q <= 125:
        expected = [[index(f, sub(f, a, b)) for b in f.elements] for a in f.elements]
        assert np.array_equal(differences, np.array(expected))
    else:
        i = np.arange(f.q)
        assert np.array_equal(differences, (i[:, None] - i[None, :]) % p)
    # row 0 is negation
    assert [f.elements[int(j)] for j in differences[0]] == [neg(f, x) for x in f.elements]
    assert np.array_equal(f.digits, np.array(f.elements))


@pytest.mark.parametrize(
    "p,alpha", [(5, 1), (3, 2), (13, 1), (5, 2), (3, 4), (5, 3), (7, 1), (3, 3), (251, 1), (257, 1)]
)
def test_character_phases_index_the_digit_dot_product(p, alpha):
    f = make_field(p, alpha)
    phases = f.character_phases
    assert phases.shape == (f.q, f.q)
    assert phases.dtype == np.min_scalar_type(p - 1)
    if f.q <= 125:
        expected = [[phase(f, b, x) for x in f.elements] for b in f.elements]
        assert np.array_equal(phases, np.array(expected))
    else:
        i = np.arange(f.q)
        assert np.array_equal(phases, i[:, None] * i[None, :] % p)
    assert f.character_phases is phases
    with pytest.raises(ValueError):
        phases[0, 1] = 0


def test_digit_differences_is_shared_and_read_only():
    f = make_field(3, 4)
    differences = f.digit_differences
    assert f.digit_differences is differences
    assert differences.dtype == np.uint8
    with pytest.raises(ValueError):
        differences[0, 1] = 0
    assert make_field(257).digit_differences.dtype == np.uint16


def test_digit_array_is_shared_and_read_only():
    f = make_field(5, 3)
    digits = f.digits
    assert f.digits is digits
    assert digits.shape == (125, 3) and np.array_equal(digits, np.array(f.elements))
    with pytest.raises(ValueError):
        digits[0, 0] = 1


def test_developed_column_needs_a_prime_power_order_and_a_matching_shape():
    C = build_conference(make_field(5), critical_omega(3))
    column = developed_column(C.values)
    assert column is not None and np.array_equal(column, C.values[:, 0])
    assert developed_column(np.zeros((6, 6))) is None  # 6 is no prime power
    assert developed_column(np.zeros((4, 4))) is None  # 4 is even
    assert developed_column(np.zeros((5, 4))) is None  # the trailing shape is not square
    assert developed_column(np.zeros(5)) is None
    nan = C.values.copy()
    nan[:] = np.nan  # constant, but nan never compares equal
    assert developed_column(nan) is None
    nan = C.values.copy()
    nan[1, 2] = np.nan
    assert developed_column(nan) is None
    # the (a, b, i, j) block view of a Seidel matrix: four q x q slices, each group-developed
    S = build_seidel(make_field(3, 2))
    view = S.blocks.transpose(2, 3, 0, 1)
    column = developed_column(view)
    assert column is not None and column.shape == (2, 2, 9)
    assert np.array_equal(column.transpose(2, 0, 1), S.blocks[:, 0])
    broken = view.copy()
    broken[1, 0, 3, 4] += 1.0  # one entry of one slice
    assert developed_column(broken) is None


def reference_column(M, block=1):
    """The form check as one expression on the whole array: column 0 of M when it holds, else None.

    For block = 2 it reads the strided (a, b, i, j) block view of the dense
    2q x 2q M, whose column 0 is g[a, b, x] = M[2x + a, b].
    """
    if block == 2:
        q = M.shape[0] // 2
        M = M.reshape(q, 2, q, 2).transpose(1, 3, 0, 2)
    index = field_of_order(M.shape[-1]).digit_differences
    return M[..., :, 0] if np.array_equal(M, np.take(M[..., :, 0], index, axis=-1)) else None


def form_check_inputs(f):
    """(array, block) pairs that do and do not hold the group-developed form over f."""
    q = f.q
    C = build_conference(f, critical_omega((q + 1) // 2))
    S = build_seidel(f)
    inputs = [(C.exponents, 1), (C.values, 1), (C.values.T, 1), (S.dense, 2)]
    inputs += [(normalize(S).dense, 2), (permute_blocks(S, [0, 2, 1] + list(range(3, q))).dense, 2)]
    inputs.append((scale_row_col(C, 3, 1j).values, 1))
    for a in (0, 1):
        for b in (0, 1):  # one changed entry in each of the four positions of a 2 x 2 block
            changed = S.dense.copy()
            changed[2 * (q - 1) + a, 2 + b] += 1e-12
            inputs.append((changed, 2))
    nan = C.values.copy()
    nan[q - 1, 1] = complex(nan[q - 1, 1].real, np.nan)  # the imaginary part alone
    inputs.append((nan, 1))
    nan = S.dense.copy()
    nan[1, 2 * q - 1] = np.nan
    inputs.append((nan, 2))
    zero = S.dense.copy()
    zero[2 * q - 2, 2 * q - 1] = -0.0  # block (q-1, q-1) is zero: -0.0 == 0.0, so the form holds
    inputs.append((zero, 2))
    zero = C.values.copy()
    zero[q - 1, q - 1] = complex(-0.0, -0.0)
    inputs.append((zero, 1))
    return inputs


def assert_agrees_with_reference(f):
    outcomes = []
    for M, block in form_check_inputs(f):
        column, reference = developed_column(M, block), reference_column(M, block)
        assert (column is None) == (reference is None)
        if column is not None:
            assert column.tobytes() == reference.tobytes() and np.shares_memory(column, M)
        outcomes.append(column is not None)
    # E, C, C^T, S pass; normalize(S), the swap, the scaled C, the four changed entries and both nans
    # fail; both -0.0 pass
    assert outcomes == [True] * 4 + [False] * 9 + [True] * 2


@pytest.mark.parametrize("info", admissible_orders(125), ids=lambda info: str(info.q))
def test_developed_column_agrees_with_the_whole_array_check(info):
    assert_agrees_with_reference(make_field(info.p, info.alpha))


def test_developed_column_compares_one_block_row_at_a_time(monkeypatch):
    # a budget of one byte reads one (block) row per band: q = 25 bands, the last one included
    monkeypatch.setattr(gf, "_COMPARE_BYTES", 1)
    f = make_field(5, 2)
    assert_agrees_with_reference(f)
    S = build_seidel(f)
    last = S.dense.copy()
    last[-1, 2] += 1e-12  # block (24, 1), in the last band only
    assert developed_column(last, 2) is None and developed_column(S.dense, 2) is not None


def test_block_column_is_a_view_of_the_dense_seidel_matrix():
    S = build_seidel(make_field(5, 3))
    entries = S.block_column
    assert entries.shape == (2, 2, S.q) and np.shares_memory(entries, S.dense)
    assert np.array_equal(entries, S.dense.reshape(S.q, 2, S.q, 2)[:, :, 0].transpose(1, 2, 0))

"""Complex symmetric conference matrices built from the quadratic character.

For a field of odd prime-power order q = 2k - 1 with q = 1 (mod 4), the
matrix C(omega) has zero diagonal and off-diagonal entries

    C[i, j] = omega ** chi(a_i - a_j),    chi the quadratic character,

which is symmetric because chi is even.  The Gram identity

    C C* = (2k - 2 - c) I + c J,    c = k - 2 + (k - 1) Re(omega^2),

holds for every unimodular omega.  At the critical omega with
Re(omega^2) = (2 - k) / (k - 1) the off-diagonal constant c vanishes and
C C* = (2k - 2) I.

The constant c is certified exactly by counting exponent differences: for
each off-diagonal (i, j), the products C[i, g] * conj(C[g, j]) over the
q - 2 inner indices g split into r ones, s factors omega^2 and t factors
omega^-2 with

    (r, s, t) = (k - 2, (k - 1)/2, (k - 1)/2),

independent of i, j and omega.  The counts are products of the 0/1
indicator matrices of the exponents: integer-valued sums of at most q - 2
ones, far below 2^53, so the floating-point matrix products are exact and
are compared with ==, with no tolerance.

The construction is group-developed over the additive group of GF(q):
C[i, j] = c(a_i - a_j).  Then so are C C* and the count products, and
their first row or column holds every distinct entry.  So
`conference_residual` and `verify_counts` each have one path, a product
read on m leading rows or columns: the exact form check
gf.developed_column picks m = 1 for a group-developed input and m = q for
any other, such as scale_row_col(C, ...), a permuted C or a record.  The
form checks of the values and of the exponents and the residual of C C*
are computed once per ConferenceMatrix and kept on it (the cached
properties column, exponent_column and gram_residual), and the gate of
hadamard.double reads the residual too.
The diagonal of C C* is read entry by entry (see _gram_deviation).
hadamard_residual forms the deviation again, from the ConferenceMatrix
that the doubling-form check of H builds, so H need not keep the C it was
doubled from.  The equivalence witnesses are integer identities on E and
build no C(omega).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    InvalidOrder,
    InvalidPermutation,
    NotSymmetrizable,
    NotUnimodular,
    WitnessMismatch,
)
from .gf import GaloisField, developed_column

UNIT_TOL = 1e-12


def _require_unit(u: complex, what: str = "scalar") -> complex:
    u = complex(u)
    if not abs(u.real * u.real + u.imag * u.imag - 1.0) <= UNIT_TOL:  # also rejects nan
        raise NotUnimodular(f"{what} must be unimodular, got |u|^2 = {abs(u) ** 2!r}")
    return u


def _require_symmetrizable(q: int) -> None:
    """Refuse q = 3 (mod 4): chi(-1) = -1 makes chi odd, so no matrix of the construction is symmetric."""
    if q % 4 != 1:
        raise NotSymmetrizable(f"q = {q} is {q % 4} mod 4; chi(-1) = -1 breaks symmetry")


def critical_angle(k: int) -> float:
    """Half-angle theta with cos(2 theta) = (2-k)/(k-1), principal branch."""
    if not isinstance(k, int) or k < 3:
        raise InvalidOrder(f"k must be an integer >= 3, got {k!r}")
    return 0.5 * math.acos((2.0 - k) / (k - 1.0))


def critical_omega(k: int) -> complex:
    """The unit scalar exp(i theta) that makes C C* a multiple of I."""
    theta = critical_angle(k)
    return complex(math.cos(theta), math.sin(theta))


def gram_constant(k: int, omega: complex) -> float:
    """Off-diagonal Gram value c = k - 2 + (k - 1) Re(omega^2)."""
    if not isinstance(k, int) or k < 3:
        raise InvalidOrder(f"k must be an integer >= 3, got {k!r}")
    omega = complex(omega)
    return (k - 2) + (k - 1) * (omega * omega).real


@dataclass(frozen=True, eq=False)
class ConferenceMatrix:
    """Order-q matrix with zero diagonal and unimodular off-diagonal entries.

    `exponents` is the symbolic layer: an integer matrix with sentinel 0 on
    the diagonal (the value there is zero, not omega^0) and +-1 off the
    diagonal, meaning the value omega**e.  Row/column scaling destroys the
    layer, in which case `exponents` is None and only numeric checks apply.

    The order q is read from the shape of `values`, which must be square
    of order >= 1, with `exponents` of the same shape (else InvalidOrder).
    k is an input: a record's header states it, and its checks hold the
    array against it.

    The form checks of `values` (column) and of `exponents`
    (exponent_column) and the residual of C C* - (q-1) I are computed on
    first use and kept on the object, so every read of C takes its m from
    one check.  Do not change `values` or `exponents` in place after a
    check has read them: build a new matrix instead (dataclasses.replace
    gives one with nothing cached).
    """

    k: int
    exponents: np.ndarray | None
    values: np.ndarray

    def __post_init__(self) -> None:
        shape = self.values.shape
        if len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
            raise InvalidOrder(f"conference values must be square of order >= 1, got shape {shape}")
        if self.exponents is not None and self.exponents.shape != shape:
            raise InvalidOrder(f"exponents have shape {self.exponents.shape}, values {shape}")

    @property
    def q(self) -> int:
        return self.values.shape[0]

    @cached_property
    def column(self) -> np.ndarray | None:
        """c as column[x] = c(a_x) when C[i, j] = c(a_i - a_j) over GF(q), else None.

        Computed once: gf.developed_column(values), exact, which returns
        column 0 as a view.
        """
        return developed_column(self.values)

    @cached_property
    def exponent_column(self) -> np.ndarray | None:
        """column for the exponent layer: gf.developed_column(exponents), computed once; None without a layer."""
        return None if self.exponents is None else developed_column(self.exponents)

    @cached_property
    def gram_residual(self) -> float:
        """Max-abs entry of C C* - (q-1) I (see conference_residual), computed once."""
        return float(np.abs(_gram_deviation(self)).max())


class ExponentCounts(NamedTuple):
    r: int  # products equal to 1
    s: int  # products equal to omega^2
    t: int  # products equal to omega^-2


@dataclass(frozen=True, eq=False)
class GramCounts:
    """Exact per-entry counts of exponent differences 0 / +2 / -2."""

    r: np.ndarray
    s: np.ndarray
    t: np.ndarray

    def entry(self, i: int, j: int) -> ExponentCounts:
        return ExponentCounts(int(self.r[i, j]), int(self.s[i, j]), int(self.t[i, j]))


def build_conference(field: GaloisField, omega: complex) -> ConferenceMatrix:
    """C(omega) over the given field; requires q = 1 (mod 4) for symmetry."""
    q = field.q
    _require_symmetrizable(q)
    omega = _require_unit(omega, "omega")
    k = (q + 1) // 2
    exponents = field.chi_differences.copy()  # the field's array is shared and read-only
    values = _values_from_exponents(exponents, omega)
    return ConferenceMatrix(k=k, exponents=exponents, values=values)


def _values_from_exponents(exponents: np.ndarray, omega: complex) -> np.ndarray:
    # omega**e off the diagonal; the sentinel 0 stands for the value zero.
    # Entries must lie in {-1, 0, 1}: the table is read at e + 1.
    table = np.array([1.0 / omega, 0.0, omega], dtype=np.complex128)
    return table[np.add(exponents, 1, dtype=np.intp)]  # an intp index gathers faster than int8


def gram_counts(C: ConferenceMatrix) -> GramCounts:
    """Count exponent differences E[i, g] - E[g, j] over inner indices g.

    With P = [E = 1] and N = [E = -1], the difference is +2 for P[i, g] N[g, j],
    -2 for N[i, g] P[g, j] and 0 for equal signs, so s = P N, t = N P and
    r = P P + N N.  The zero diagonal of E keeps g = i and g = j out of every
    count.  The diagonal of the result is meaningless and set to -1.
    """
    # the float64 counts are exact integers (see _exponent_counts), so the cast to int64 loses nothing
    r, s, t = (counts.astype(np.int64) for counts in _exponent_counts(C, C.q))
    for m in (r, s, t):
        np.fill_diagonal(m, -1)
    return GramCounts(r=r, s=s, t=t)


def _exponent_counts(C: ConferenceMatrix, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows 0..m-1 of the counts (r, s, t) of gram_counts, as float64 arrays of shape (m, q).

    Every entry is a sum of at most q ones, far below 2^53, so the float64
    (BLAS) products are exact.
    """
    if C.exponents is None:
        raise ValueError("symbolic exponent layer absent; only numeric checks apply")
    pos = (C.exponents == 1).astype(np.float64)
    neg = (C.exponents == -1).astype(np.float64)
    return pos[:m] @ pos + neg[:m] @ neg, pos[:m] @ neg, neg[:m] @ pos


def verify_counts(C: ConferenceMatrix) -> bool:
    """True iff every off-diagonal count triple equals (k-2, (k-1)/2, (k-1)/2).

    Together with Re(omega^2) = (2-k)/(k-1) this certifies
    C C* = (2k-2) I exactly: the counts are integers compared with ==.

    The counts are read on rows 0..m-1.  When E is group-developed over the
    additive group of GF(q), checked exactly by gf.developed_column, the
    count at (i, j) depends on a_i - a_j only, so row 0 covers every
    off-diagonal entry and m = 1; any other E is read on every row, m = q.
    """
    k, q = C.k, C.q
    want = (k - 2, (k - 1) // 2, (k - 1) // 2)
    m = 1 if C.exponent_column is not None else q
    counts = _exponent_counts(C, m)
    for rows, w in zip(counts, want):
        rows.flat[:: q + 1] = w  # the diagonal of the top m x m block counts nothing
    return all((rows == w).all() for rows, w in zip(counts, want))


def conference_residual(C: ConferenceMatrix) -> float:
    """Max-abs entry of C C* - (q-1) I, computed once per C and kept on it (ConferenceMatrix.gram_residual).

    See _gram_deviation for the columns of the product that are read.
    """
    return C.gram_residual


def _gram_deviation(C: ConferenceMatrix) -> np.ndarray:
    """Columns 0..m-1 of C C* - (q-1) I, shape (q, m).

    When C is group-developed over GF(q) (checked exactly by the kept
    ConferenceMatrix.column), so is C C*:

        (C C*)[i, j] = sum_x c(x) conj(c(x + a_j - a_i))

    depends on a_j - a_i only, so column 0 holds every distinct entry, the
    diagonal at (0, 0), and m = 1: one matrix-vector product, O(q^2).  Any
    other C, such as scale_row_col(C, ...) or a record with one changed
    entry, is read on every column, m = q: the full O(q^3) product.
    Column j of C C* is the conjugate of its row j; reading columns spares
    the q x q conjugate of C.

    The diagonal entry (i, i), i < m, is read entry by entry as
    sum_j (|c_ij|^2 - 1) + 1, a pairwise sum over row i, not as the BLAS
    sum of |c_ij|^2 minus q - 1: that subtraction leaves a roundoff at the
    scale of q - 1 (2.2e-11 at q = 2197, where the exact value for the
    float C is 1.2e-13), which measures the summation and not C.
    """
    m = 1 if C.column is not None else C.q
    rows = C.values[:m]
    dev = C.values @ rows.conj().T
    dev[:m].flat[:: m + 1] = (rows.real * rows.real + rows.imag * rows.imag - 1.0).sum(axis=1) + 1.0
    return dev


def scale_row_col(C: ConferenceMatrix, index: int, u: complex) -> ConferenceMatrix:
    """Multiply row `index` and column `index` by the unit scalar u.

    Preserves symmetry, the zero diagonal and the Gram identity; the
    symbolic exponent layer no longer applies and is dropped.
    """
    u = _require_unit(u)
    if not 0 <= index < C.q:
        raise IndexError(f"index {index} out of range for order {C.q}")
    values = C.values.copy()
    values[index, :] *= u
    values[:, index] *= u
    values[index, index] = 0.0
    return ConferenceMatrix(k=C.k, exponents=None, values=values)


def _check_permutation(sigma: Sequence[int], n: int) -> np.ndarray:
    entries = tuple(sigma)
    # a float or a string would be truncated or parsed by the conversion to intp
    integers = all(isinstance(e, (int, np.integer)) and not isinstance(e, bool) for e in entries)
    if not integers or sorted(map(int, entries)) != list(range(n)):
        raise InvalidPermutation(f"not a bijection on 0..{n - 1}: {entries!r}")
    return np.asarray(entries, dtype=np.intp)


def permute(C: ConferenceMatrix, sigma: Sequence[int]) -> ConferenceMatrix:
    """Simultaneous row/column permutation: result[i, j] = C[sigma[i], sigma[j]]."""
    idx = _check_permutation(sigma, C.q)
    values = C.values[np.ix_(idx, idx)]
    exponents = None if C.exponents is None else C.exponents[np.ix_(idx, idx)]
    return ConferenceMatrix(k=C.k, exponents=exponents, values=values)


@dataclass(frozen=True)
class EquivalenceWitnesses:
    """Verified witnesses that the four critical scalars give equivalent matrices.

    permutation: sigma with permute(C(1/omega0), sigma) = C(omega0); it maps
        index i to the index of a_i * g for the first non-square g.
    scalings: per-index unit scalars (all i) turning C(-omega0) into C(omega0).
    """

    permutation: tuple[int, ...]
    scalings: tuple[complex, ...]


def _product_indices(field: GaloisField, g) -> np.ndarray:
    """Index of a_i * g for every i: multiplication by g is GF(p)-linear on digit vectors.

    Column d of its alpha x alpha matrix holds the digits of x^d * g.
    """
    p, alpha = field.p, field.alpha
    columns = [field.mul(field.elements[p**d], g) for d in range(alpha)]
    images = field.digits @ np.array(columns, dtype=np.int64) % p
    return images @ p ** np.arange(alpha)


def equivalence_witnesses(field: GaloisField) -> EquivalenceWitnesses:
    """Construct and verify the equivalence witnesses over the given field, as exact identities on E."""
    q = field.q
    _require_symmetrizable(q)
    E = field.chi_differences
    # exact: scaling row and column i of C(-omega0) by i gives i i (-omega0)^e = omega0^e
    # at every odd e, and keeps the zero diagonal, so it maps C(-omega0) to C(omega0)
    # iff E is +-1 everywhere off the diagonal and 0 on it; checked first, as the
    # permutation identity below reads E in that form
    if E.diagonal().any() or np.count_nonzero(np.abs(E) == 1) != q * q - q:
        raise WitnessMismatch("all-i scaling does not map C(-omega0) to C(omega0)")

    idx = _product_indices(field, field.first_nonsquare())
    # exact: C(1/omega0) permuted by sigma is C(omega0) iff E[sigma, sigma] = -E,
    # because omega0^2 != 1; this is chi(a g) = -chi(a) for the non-square g
    if not (E.take(idx, 0).take(idx, 1) == -E).all():
        raise WitnessMismatch("non-square permutation does not map C(1/omega0) to C(omega0)")
    return EquivalenceWitnesses(permutation=tuple(idx.tolist()), scalings=(1j,) * q)
